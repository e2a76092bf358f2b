package analysis

// Statement interpretation for the ownership engine: the structured
// walk over blocks, branches, loops (iterated to fixpoint), switches,
// defers and returns that drives the per-path environments defined in
// ownership.go.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

func (w *walker) walkBlock(b *ast.BlockStmt) {
	w.pushFrame(b)
	w.walkStmts(b.List)
	w.popFrame()
}

func (w *walker) walkStmts(list []ast.Stmt) {
	for _, s := range list {
		if w.terminated {
			return
		}
		w.walkStmt(s)
	}
}

func (w *walker) walkStmt(s ast.Stmt) {
	switch x := s.(type) {
	case *ast.AssignStmt:
		w.assign(x)
	case *ast.DeclStmt:
		w.declStmt(x)
	case *ast.ExprStmt:
		w.exprStmt(x)
	case *ast.ReturnStmt:
		w.returnStmt(x)
	case *ast.IfStmt:
		w.ifStmt(x)
	case *ast.ForStmt:
		w.forStmt(x, "")
	case *ast.RangeStmt:
		w.rangeStmt(x, "")
	case *ast.SwitchStmt:
		w.switchStmt(x, "")
	case *ast.TypeSwitchStmt:
		w.typeSwitchStmt(x, "")
	case *ast.SelectStmt:
		w.selectStmt(x)
	case *ast.BlockStmt:
		w.walkBlock(x)
	case *ast.DeferStmt:
		w.deferStmt(x)
	case *ast.GoStmt:
		w.opaqueCall(x.Call)
	case *ast.SendStmt:
		w.use(x.Chan)
		w.use(x.Value)
		w.escapeAlias(x.Value)
	case *ast.BranchStmt:
		w.branchStmt(x)
	case *ast.LabeledStmt:
		w.labeledStmt(x)
	case *ast.IncDecStmt:
		w.use(x.X)
	}
}

func (w *walker) labeledStmt(s *ast.LabeledStmt) {
	label := s.Label.Name
	switch inner := s.Stmt.(type) {
	case *ast.ForStmt:
		w.forStmt(inner, label)
	case *ast.RangeStmt:
		w.rangeStmt(inner, label)
	case *ast.SwitchStmt:
		w.switchStmt(inner, label)
	case *ast.TypeSwitchStmt:
		w.typeSwitchStmt(inner, label)
	default:
		w.walkStmt(s.Stmt)
	}
}

// ---- simple statements -----------------------------------------------------

func (w *walker) exprStmt(s *ast.ExprStmt) {
	c, ok := ast.Unparen(s.X).(*ast.CallExpr)
	if !ok {
		w.use(s.X)
		return
	}
	if _, short, recvConsumed, ok := w.producerInfo(c); ok {
		// Producer called for effect: the value it returns is dropped on
		// the floor and can never be released.
		w.a.reportOnce(c.Pos(), "discard",
			"result of %s is discarded; the %s it returns is never released",
			short, w.spec().noun)
		for _, arg := range c.Args {
			w.use(arg)
			w.escapeAlias(arg)
		}
		if recvConsumed {
			w.consumeTarget(c)
		}
		return
	}
	w.call(c)
	if w.isTerminalCall(c) {
		w.terminated = true
	}
}

// isTerminalCall recognizes calls that never return. Terminating a
// path suppresses its leak checks, which is the conservative (quiet)
// direction.
func (w *walker) isTerminalCall(c *ast.CallExpr) bool {
	if id, ok := ast.Unparen(c.Fun).(*ast.Ident); ok {
		if b, ok := w.info().Uses[id].(*types.Builtin); ok {
			return b.Name() == "panic"
		}
	}
	f := calleeFunc(w.info(), c)
	if f == nil {
		return false
	}
	switch funcKey(f) {
	case "os.Exit", "runtime.Goexit":
		return true
	}
	if f.Pkg() != nil && f.Pkg().Path() == "log" && strings.HasPrefix(f.Name(), "Fatal") {
		return true
	}
	switch f.Name() {
	case "Fatal", "Fatalf", "FailNow", "SkipNow", "Skip", "Skipf":
		// testing.TB-style terminal helpers (methods only).
		sig, _ := f.Type().(*types.Signature)
		return sig != nil && sig.Recv() != nil
	}
	return false
}

func (w *walker) assign(s *ast.AssignStmt) {
	switch s.Tok {
	case token.DEFINE, token.ASSIGN:
		w.assignCore(s.Lhs, s.Rhs)
	default: // compound: x += y etc.
		for _, r := range s.Rhs {
			w.use(r)
		}
		for _, l := range s.Lhs {
			w.use(l)
		}
	}
}

func (w *walker) declStmt(s *ast.DeclStmt) {
	gd, ok := s.Decl.(*ast.GenDecl)
	if !ok || gd.Tok != token.VAR {
		return
	}
	for _, sp := range gd.Specs {
		vs, ok := sp.(*ast.ValueSpec)
		if !ok || len(vs.Values) == 0 {
			continue
		}
		lhs := make([]ast.Expr, len(vs.Names))
		for i, n := range vs.Names {
			lhs[i] = n
		}
		w.assignCore(lhs, vs.Values)
	}
}

func (w *walker) assignCore(lhs, rhs []ast.Expr) {
	if len(rhs) == 1 {
		if c, ok := ast.Unparen(rhs[0]).(*ast.CallExpr); ok {
			if idx, short, recvConsumed, ok := w.producerInfo(c); ok {
				// Arguments move into the produced value.
				for _, arg := range c.Args {
					w.use(arg)
					w.escapeAlias(arg)
				}
				if recvConsumed {
					w.consumeTarget(c)
				} else if recv := w.receiver(c); recv != nil {
					w.use(recv)
				}
				w.bindProduced(lhs, idx, c, short)
				return
			}
			if w.spec().derives[funcKey(calleeFunc(w.info(), c))] && len(lhs) == 1 {
				if recv := w.receiver(c); recv != nil {
					w.use(recv)
					w.bindDerived(lhs[0], recv)
					return
				}
			}
			w.call(c)
			w.clearLHS(lhs)
			return
		}
	}
	for i, r := range rhs {
		w.use(r)
		// Binding a tracked value (or part of one) to another name is
		// aliasing the analysis cannot follow: ownership moves out of
		// sight. `_ = v` is exempt — it reads nothing and moves nothing.
		if id := rootIdent(r); id != nil {
			if i < len(lhs) {
				if lid, ok := ast.Unparen(lhs[i]).(*ast.Ident); ok && lid.Name == "_" {
					continue
				}
			}
			w.escapeAlias(r)
		}
	}
	w.clearLHS(lhs)
}

// clearLHS invalidates assignment targets: overwriting a still-owned
// value loses the only handle that could release it.
func (w *walker) clearLHS(lhs []ast.Expr) {
	for _, l := range lhs {
		le := ast.Unparen(l)
		if id, ok := le.(*ast.Ident); ok {
			if id.Name == "_" {
				continue
			}
			v := localVar(w.info(), id)
			if v == nil {
				continue
			}
			if st, ok := w.env[v]; ok {
				if st.owner == nil && st.mask&maskOwned != 0 {
					w.a.reportOnce(id.Pos(), "overwrite",
						"%s %q is overwritten before it is released", w.spec().noun, id.Name)
				}
				delete(w.env, v)
			}
			continue
		}
		// Store into a field/index/deref target: reads the target chain.
		w.use(le)
	}
}

// bindProduced binds the tracked result of a producer call to its
// assignment target and records an error-companion for `v, err :=`.
func (w *walker) bindProduced(lhs []ast.Expr, idx int, c *ast.CallExpr, short string) {
	if idx >= len(lhs) {
		w.clearLHS(lhs)
		return
	}
	var tracked *types.Var
	for i, l := range lhs {
		le := ast.Unparen(l)
		id, isIdent := le.(*ast.Ident)
		if i != idx {
			if isIdent && id.Name != "_" {
				w.clearLHS([]ast.Expr{le})
			} else if !isIdent {
				w.use(le)
			}
			continue
		}
		if !isIdent {
			// Produced straight into a field or element: immediate
			// handoff, untracked.
			w.use(le)
			continue
		}
		if id.Name == "_" {
			w.a.reportOnce(c.Pos(), "discard",
				"result of %s is discarded; the %s it returns is never released",
				short, w.spec().noun)
			continue
		}
		v := localVar(w.info(), id)
		if v == nil {
			continue
		}
		if st, ok := w.env[v]; ok && st.owner == nil && st.mask&maskOwned != 0 {
			w.a.reportOnce(id.Pos(), "overwrite",
				"%s %q is overwritten before it is released", w.spec().noun, id.Name)
		}
		w.track(v, c.Pos(), short)
		tracked = v
	}
	if tracked == nil {
		return
	}
	errType := types.Universe.Lookup("error").Type()
	for i, l := range lhs {
		if i == idx {
			continue
		}
		if id, ok := ast.Unparen(l).(*ast.Ident); ok && id.Name != "_" {
			if ev := localVar(w.info(), id); ev != nil && types.Identical(ev.Type(), errType) {
				w.companions[ev] = tracked
			}
		}
	}
}

// bindDerived binds an alias of a tracked value's pooled backing
// (b.Sel()) so later use past the owner's release is caught.
func (w *walker) bindDerived(l ast.Expr, recv ast.Expr, _ ...any) {
	rid := rootIdent(recv)
	if rid == nil {
		w.clearLHS([]ast.Expr{l})
		return
	}
	rv := localVar(w.info(), rid)
	if rv == nil {
		w.clearLHS([]ast.Expr{l})
		return
	}
	if st, ok := w.env[rv]; !ok || st.owner != nil {
		w.clearLHS([]ast.Expr{l})
		return
	}
	id, ok := ast.Unparen(l).(*ast.Ident)
	if !ok || id.Name == "_" {
		w.use(l)
		return
	}
	v := localVar(w.info(), id)
	if v == nil {
		return
	}
	w.clearLHS([]ast.Expr{l})
	w.env[v] = varState{owner: rv}
	w.fileVar(v)
}

// fileVar records v in the frame of its declaring scope.
func (w *walker) fileVar(v *types.Var) {
	scope := v.Parent()
	for i := len(w.frames) - 1; i >= 0; i-- {
		if w.frames[i].scope == scope || i == 0 {
			for _, have := range w.frames[i].vars {
				if have == v {
					return
				}
			}
			w.frames[i].vars = append(w.frames[i].vars, v)
			return
		}
	}
}

func (w *walker) returnStmt(s *ast.ReturnStmt) {
	for _, r := range s.Results {
		w.use(r)
		if rootIdent(r) != nil {
			// Returned to the caller: ownership transfers up.
			w.escapeAlias(r)
		}
	}
	if len(s.Results) == 0 {
		// Naked return hands the named results to the caller.
		for _, v := range w.namedResults {
			delete(w.env, v)
		}
	}
	if !w.terminated {
		w.leakCheckAll()
	}
	w.terminated = true
}

func (w *walker) deferStmt(s *ast.DeferStmt) {
	c := s.Call
	if lit, ok := ast.Unparen(c.Fun).(*ast.FuncLit); ok {
		w.escapeCaptured(lit)
		return
	}
	f := calleeFunc(w.info(), c)
	if _, ok := w.spec().consumers[funcKey(f)]; ok {
		target := w.receiver(c)
		args := c.Args
		if target == nil && len(args) > 0 {
			target = args[0]
			args = args[1:]
		}
		for _, arg := range args {
			w.use(arg)
		}
		if target != nil {
			w.use(target)
			// A deferred release runs on every exit path: handled.
			w.escapeRoot(target)
		}
		return
	}
	if _, short, _, ok := w.producerInfo(c); ok {
		w.a.reportOnce(c.Pos(), "discard",
			"result of %s is discarded; the %s it returns is never released",
			short, w.spec().noun)
	}
	w.opaqueCall(c)
}

// opaqueCall evaluates a call whose execution the analysis cannot
// order (go statement, deferred unknown call): every tracked value it
// touches escapes.
func (w *walker) opaqueCall(c *ast.CallExpr) {
	if lit, ok := ast.Unparen(c.Fun).(*ast.FuncLit); ok {
		w.escapeCaptured(lit)
	}
	if recv := w.receiver(c); recv != nil {
		w.use(recv)
		w.escapeRoot(recv)
	}
	for _, arg := range c.Args {
		w.use(arg)
		w.escapeAlias(arg)
	}
}

// ---- branching -------------------------------------------------------------

func (w *walker) ifStmt(s *ast.IfStmt) {
	w.pushFrame(s)
	if s.Init != nil {
		w.walkStmt(s.Init)
	}
	w.use(s.Cond)
	then := w.branch()
	then.refine(s.Cond, false)
	then.walkBlock(s.Body)
	els := w.branch()
	els.refine(s.Cond, true)
	if s.Else != nil {
		els.walkStmt(s.Else)
	}
	w.merge(nil, then, els)
	w.popFrame()
}

// refine narrows the environment for one side of a condition:
// negate=false means the condition holds on this path. Two shapes
// matter to the protocol: `v == nil` (a nil value owns nothing) and
// `err != nil` after `v, err := producer(...)` (the producer failed,
// so v was never acquired).
func (w *walker) refine(cond ast.Expr, negate bool) {
	switch x := ast.Unparen(cond).(type) {
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			w.refine(x.X, !negate)
		}
	case *ast.BinaryExpr:
		switch x.Op {
		case token.LAND:
			if !negate {
				w.refine(x.X, false)
				w.refine(x.Y, false)
			}
		case token.LOR:
			if negate {
				w.refine(x.X, true)
				w.refine(x.Y, true)
			}
		case token.EQL, token.NEQ:
			v := nilComparand(w.info(), x)
			if v == nil {
				return
			}
			valueIsNil := (x.Op == token.EQL) != negate
			if valueIsNil {
				// v is nil here: nothing is owned through it.
				delete(w.env, v)
			} else if cv := w.companions[v]; cv != nil {
				// err is non-nil here: the companion value was never
				// produced.
				delete(w.env, cv)
			}
		}
	}
}

// nilComparand returns the variable compared against nil in x, if any.
func nilComparand(info *types.Info, x *ast.BinaryExpr) *types.Var {
	isNil := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return false
		}
		_, ok = info.Uses[id].(*types.Nil)
		return ok
	}
	var other ast.Expr
	switch {
	case isNil(x.X):
		other = x.Y
	case isNil(x.Y):
		other = x.X
	default:
		return nil
	}
	id, ok := ast.Unparen(other).(*ast.Ident)
	if !ok {
		return nil
	}
	return localVar(info, id)
}

func (w *walker) branchStmt(s *ast.BranchStmt) {
	switch s.Tok {
	case token.FALLTHROUGH:
		return // modeled by switchStmt's clause carry
	case token.GOTO:
		w.terminated = true // unreachable: goto functions are skipped
		return
	}
	name := ""
	if s.Label != nil {
		name = s.Label.Name
	}
	for i := len(w.targets) - 1; i >= 0; i-- {
		t := w.targets[i]
		if s.Tok == token.CONTINUE && !t.isLoop {
			continue
		}
		if name != "" && t.label != name {
			continue
		}
		if s.Tok == token.CONTINUE {
			t.conts = append(t.conts, w.env.clone())
		} else {
			t.brks = append(t.brks, w.env.clone())
		}
		break
	}
	w.terminated = true
}

// withTarget clones w for a body governed by bt.
func (w *walker) withTarget(e env, bt *breakTarget) *walker {
	b := w.branch()
	b.env = e.clone()
	b.targets = append(append([]*breakTarget(nil), w.targets...), bt)
	return b
}

// ---- loops -----------------------------------------------------------------

const maxLoopIters = 4

func (w *walker) forStmt(s *ast.ForStmt, label string) {
	w.pushFrame(s)
	if s.Init != nil {
		w.walkStmt(s.Init)
	}
	bt := &breakTarget{label: label, isLoop: true}
	entry := w.env.clone()
	for iter := 0; iter < maxLoopIters; iter++ {
		body := w.withTarget(entry, bt)
		if s.Cond != nil {
			body.use(s.Cond)
			body.refine(s.Cond, false)
		}
		body.walkBlock(s.Body)
		var back []env
		if !body.terminated {
			back = append(back, body.env)
		}
		back = append(back, bt.conts...)
		bt.conts = nil
		next := entry.clone()
		for _, e := range back {
			pw := w.withTarget(e, bt)
			if s.Post != nil {
				pw.walkStmt(s.Post)
			}
			next = next.join(pw.env)
		}
		if next.equal(entry) {
			break
		}
		entry = next
	}
	outs := bt.brks
	if s.Cond != nil {
		outs = append(outs, entry) // the condition can fail on entry
	}
	if len(outs) == 0 {
		w.terminated = true
		w.popFrame()
		return
	}
	j := outs[0]
	for _, e := range outs[1:] {
		j = j.join(e)
	}
	w.env = j
	w.popFrame()
}

func (w *walker) rangeStmt(s *ast.RangeStmt, label string) {
	w.pushFrame(s)
	w.use(s.X)
	bt := &breakTarget{label: label, isLoop: true}
	entry := w.env.clone()
	for iter := 0; iter < maxLoopIters; iter++ {
		body := w.withTarget(entry, bt)
		if s.Tok == token.ASSIGN {
			// `for k, v = range …` re-binds existing variables.
			if s.Key != nil {
				body.clearLHS([]ast.Expr{s.Key})
			}
			if s.Value != nil {
				body.clearLHS([]ast.Expr{s.Value})
			}
		}
		body.walkBlock(s.Body)
		var back []env
		if !body.terminated {
			back = append(back, body.env)
		}
		back = append(back, bt.conts...)
		bt.conts = nil
		next := entry.clone()
		for _, e := range back {
			next = next.join(e)
		}
		if next.equal(entry) {
			break
		}
		entry = next
	}
	outs := append([]env{entry}, bt.brks...) // zero iterations possible
	j := outs[0]
	for _, e := range outs[1:] {
		j = j.join(e)
	}
	w.env = j
	w.popFrame()
}

// ---- switches and select ---------------------------------------------------

func (w *walker) switchStmt(s *ast.SwitchStmt, label string) {
	w.pushFrame(s)
	if s.Init != nil {
		w.walkStmt(s.Init)
	}
	if s.Tag != nil {
		w.use(s.Tag)
	}
	bt := &breakTarget{label: label}
	hasDefault := false
	var branches []*walker
	var carry env // fall-through from the previous clause
	for _, cc := range s.Body.List {
		c, ok := cc.(*ast.CaseClause)
		if !ok {
			continue
		}
		if c.List == nil {
			hasDefault = true
		}
		bw := w.withTarget(w.env, bt)
		if carry != nil {
			bw.env = bw.env.join(carry)
			carry = nil
		}
		bw.pushFrame(c)
		for _, e := range c.List {
			bw.use(e)
		}
		if s.Tag == nil && len(c.List) == 1 {
			bw.refine(c.List[0], false)
		}
		bw.walkStmts(c.Body)
		bw.popFrame()
		if fallsThrough(c.Body) {
			if !bw.terminated {
				carry = bw.env
			}
			continue
		}
		branches = append(branches, bw)
	}
	var base env
	if !hasDefault {
		base = w.env.clone()
	}
	for _, be := range bt.brks {
		branches = append(branches, &walker{env: be})
	}
	w.merge(base, branches...)
	w.popFrame()
}

func fallsThrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	b, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && b.Tok == token.FALLTHROUGH
}

func (w *walker) typeSwitchStmt(s *ast.TypeSwitchStmt, label string) {
	w.pushFrame(s)
	if s.Init != nil {
		w.walkStmt(s.Init)
	}
	// Evaluate the scrutinee of `y := x.(type)` / `x.(type)`.
	switch a := s.Assign.(type) {
	case *ast.AssignStmt:
		for _, r := range a.Rhs {
			w.use(r)
		}
	case *ast.ExprStmt:
		w.use(a.X)
	}
	bt := &breakTarget{label: label}
	hasDefault := false
	var branches []*walker
	for _, cc := range s.Body.List {
		c, ok := cc.(*ast.CaseClause)
		if !ok {
			continue
		}
		if c.List == nil {
			hasDefault = true
		}
		bw := w.withTarget(w.env, bt)
		bw.pushFrame(c)
		bw.walkStmts(c.Body)
		bw.popFrame()
		branches = append(branches, bw)
	}
	var base env
	if !hasDefault {
		base = w.env.clone()
	}
	for _, be := range bt.brks {
		branches = append(branches, &walker{env: be})
	}
	w.merge(base, branches...)
	w.popFrame()
}

func (w *walker) selectStmt(s *ast.SelectStmt) {
	bt := &breakTarget{}
	var branches []*walker
	for _, cc := range s.Body.List {
		c, ok := cc.(*ast.CommClause)
		if !ok {
			continue
		}
		bw := w.withTarget(w.env, bt)
		bw.pushFrame(c)
		if c.Comm != nil {
			bw.walkStmt(c.Comm)
		}
		bw.walkStmts(c.Body)
		bw.popFrame()
		branches = append(branches, bw)
	}
	for _, be := range bt.brks {
		branches = append(branches, &walker{env: be})
	}
	// Select blocks until one case proceeds: no straight-through path.
	w.merge(nil, branches...)
}
