package analysis

// The ownership dataflow engine shared by releasecheck and selalias: a structured abstract interpreter over function bodies.
// Each tracked variable (the result of a producer call) carries a
// bitmask state {owned, released}; branches interpret on cloned
// environments and join afterwards, loops iterate the body to a
// fixpoint (the lattice is tiny, so this converges in a couple of
// rounds), and scope frames detect values that leak out of the block
// that acquired them.
//
// The engine is deliberately conservative in one direction only: it
// never reports a diagnostic for code it cannot prove wrong. Anything
// that makes a value's fate invisible — passing it to an unlisted
// function, storing it into a field, returning it, capturing it in a
// closure, sending it on a channel — transfers ownership out of the
// analysis and silences further reports for that variable. The
// annotation directives exist for the cases where a *listed* pattern
// is deliberately violated.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ownSpec parameterizes the engine for one analyzer.
type ownSpec struct {
	// directive suppresses diagnostics when //sommelier:<directive>
	// appears on or above the flagged line.
	directive string
	// noun names the tracked resource in messages ("query result").
	noun string
	// producers maps funcKey → index of the tracked result.
	producers map[string]int
	// recvConsumed lists producers that also consume their receiver
	// (DetachSel, Materialize).
	recvConsumed map[string]bool
	// consumers lists the calls that release their target (the
	// receiver for methods, the first argument for functions): the
	// value is dead afterwards and any further use is a bug.
	consumers map[string]bool
	// borrows lists calls that read a tracked value without taking
	// ownership; unlisted calls transfer ownership out of the analysis.
	borrows map[string]bool
	// derives lists methods whose result aliases the receiver's pooled
	// backing (Batch.Sel); using the result after the receiver is
	// released is flagged.
	derives map[string]bool
	// aliasOnly restricts reports to stale-alias diagnostics: a batch
	// never materialized or detached is no leak (selalias cares only
	// about the aliases it tracks).
	aliasOnly bool
	// skipTests excludes *_test.go files (tests may lean on the GC).
	skipTests bool
	// skipPkgs excludes whole packages (the storage implementation
	// itself).
	skipPkgs map[string]bool
}

const (
	maskOwned uint8 = 1 << iota
	maskReleased
)

// varState is the abstract state of one tracked variable on the
// current path.
type varState struct {
	mask  uint8
	birth token.Pos // producer call position, where leaks are reported
	src   string    // producer short name for messages
	// owner, when non-nil, marks a derived alias (b.Sel()) of another
	// tracked variable rather than an owning variable itself.
	owner *types.Var
}

type env map[*types.Var]varState

func (e env) clone() env {
	c := make(env, len(e))
	for k, v := range e {
		c[k] = v
	}
	return c
}

// join merges the state of two paths. A variable must be present on
// both paths to stay tracked ("absent wins"): once one path transfers
// ownership out of sight, no later report can be justified.
func (e env) join(o env) env {
	j := make(env)
	for v, a := range e {
		b, ok := o[v]
		if !ok {
			continue
		}
		if a.owner != nil || b.owner != nil {
			if a.owner == b.owner {
				j[v] = a
			}
			continue
		}
		m := a
		m.mask |= b.mask
		if b.birth < m.birth {
			m.birth, m.src = b.birth, b.src
		}
		j[v] = m
	}
	return j
}

func (e env) equal(o env) bool {
	if len(e) != len(o) {
		return false
	}
	for v, a := range e {
		b, ok := o[v]
		if !ok || a.mask != b.mask || a.owner != b.owner {
			return false
		}
	}
	return true
}

// ownAnalysis is the per-package run of one spec.
type ownAnalysis struct {
	pass *Pass
	spec *ownSpec
	seen map[token.Pos]map[string]bool // dedupe across fixpoint iterations
}

func (a *ownAnalysis) reportOnce(pos token.Pos, kind, format string, args ...any) {
	if a.spec.aliasOnly && kind != "stale" {
		return
	}
	if suppressedBy(a.pass, pos, a.spec.directive) {
		return
	}
	m := a.seen[pos]
	if m == nil {
		m = make(map[string]bool)
		a.seen[pos] = m
	}
	if m[kind] {
		return
	}
	m[kind] = true
	a.pass.Reportf(pos, format, args...)
}

// runOwnership applies a spec to every function body (including
// function literals, analyzed as independent units) in the package.
func runOwnership(pass *Pass, spec *ownSpec) error {
	if spec.skipPkgs[pass.Pkg.Path()] {
		return nil
	}
	a := &ownAnalysis{pass: pass, spec: spec, seen: make(map[token.Pos]map[string]bool)}
	for _, f := range pass.Files {
		if spec.skipTests {
			name := pass.Fset.File(f.Pos()).Name()
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			a.runFunc(fd.Type, fd.Body)
			// Function literals are opaque (captured tracked variables
			// escape) from the enclosing body's point of view, and are
			// analyzed here as separate units.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					a.runFunc(lit.Type, lit.Body)
				}
				return true
			})
		}
	}
	return nil
}

// runFunc interprets one function body. Functions using goto are
// skipped wholesale: the structured interpreter cannot model them.
func (a *ownAnalysis) runFunc(ft *ast.FuncType, body *ast.BlockStmt) {
	usesGoto := false
	ast.Inspect(body, func(n ast.Node) bool {
		if b, ok := n.(*ast.BranchStmt); ok && b.Tok == token.GOTO {
			usesGoto = true
		}
		return !usesGoto
	})
	if usesGoto {
		return
	}
	w := &walker{a: a, env: make(env), companions: map[*types.Var]*types.Var{}}
	if ft.Results != nil {
		for _, f := range ft.Results.List {
			for _, name := range f.Names {
				if v, ok := a.pass.TypesInfo.Defs[name].(*types.Var); ok {
					w.namedResults = append(w.namedResults, v)
				}
			}
		}
	}
	w.walkBlock(body)
	if !w.terminated {
		w.leakCheckAll()
	}
}

// breakTarget is one enclosing breakable construct (loop, switch,
// select) collecting the environments of break/continue paths.
type breakTarget struct {
	label  string
	isLoop bool
	brks   []env
	conts  []env
}

type frame struct {
	scope *types.Scope
	vars  []*types.Var
}

// walker interprets one control-flow path.
type walker struct {
	a            *ownAnalysis
	env          env
	frames       []frame
	targets      []*breakTarget
	companions   map[*types.Var]*types.Var // error var → value var from `v, err := producer()`
	namedResults []*types.Var
	terminated   bool
}

func (w *walker) pass() *Pass    { return w.a.pass }
func (w *walker) spec() *ownSpec { return w.a.spec }
func (w *walker) info() *types.Info {
	return w.a.pass.TypesInfo
}

// branch clones the walker for one side of a control-flow split.
func (w *walker) branch() *walker {
	comp := make(map[*types.Var]*types.Var, len(w.companions))
	for k, v := range w.companions {
		comp[k] = v
	}
	return &walker{
		a:            w.a,
		env:          w.env.clone(),
		frames:       append([]frame(nil), w.frames...),
		targets:      w.targets,
		companions:   comp,
		namedResults: w.namedResults,
	}
}

// merge joins the fall-through environments of branch walkers into w.
// Terminated branches contribute nothing. If every path terminated, w
// terminates too.
func (w *walker) merge(base env, branches ...*walker) {
	var alive []env
	if base != nil {
		alive = append(alive, base)
	}
	for _, b := range branches {
		if b != nil && !b.terminated {
			alive = append(alive, b.env)
		}
	}
	if len(alive) == 0 {
		w.terminated = true
		return
	}
	j := alive[0]
	for _, e := range alive[1:] {
		j = j.join(e)
	}
	w.env = j
}

func (w *walker) pushFrame(n ast.Node) {
	w.frames = append(w.frames, frame{scope: w.info().Scopes[n]})
}

// popFrame leak-checks the variables declared in the ending scope: a
// value still owned when its declaring block exits can never be
// released.
func (w *walker) popFrame() {
	f := w.frames[len(w.frames)-1]
	w.frames = w.frames[:len(w.frames)-1]
	if !w.terminated {
		for _, v := range f.vars {
			w.leakCheck(v)
		}
	}
	for _, v := range f.vars {
		delete(w.env, v)
	}
}

func (w *walker) leakCheck(v *types.Var) {
	st, ok := w.env[v]
	if !ok || st.owner != nil || st.mask&maskOwned == 0 {
		return
	}
	w.a.reportOnce(st.birth, "leak",
		"%s %q from %s is not released on every path; release it or annotate //sommelier:%s",
		w.spec().noun, v.Name(), st.src, w.spec().directive)
}

func (w *walker) leakCheckAll() {
	for v := range w.env {
		w.leakCheck(v)
	}
}

// track registers a freshly produced value, filing it under the frame
// of its declaring scope so block exit finds it.
func (w *walker) track(v *types.Var, birth token.Pos, src string) {
	w.env[v] = varState{mask: maskOwned, birth: birth, src: src}
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

// ---- expression evaluation -------------------------------------------------

// use evaluates e for reads: it flags uses of released values and
// stale aliases, dispatches calls, and escapes values whose ownership
// the expression makes invisible (address-of, composite literals,
// closures).
func (w *walker) use(e ast.Expr) {
	switch x := ast.Unparen(e).(type) {
	case nil:
	case *ast.Ident:
		w.useIdent(x)
	case *ast.SelectorExpr:
		// A field read of a tracked value is a borrow of the root.
		if id := rootIdent(x); id != nil {
			w.useIdent(id)
		} else {
			w.use(x.X)
		}
	case *ast.IndexExpr:
		w.use(x.X)
		w.use(x.Index)
	case *ast.IndexListExpr:
		w.use(x.X)
		for _, i := range x.Indices {
			w.use(i)
		}
	case *ast.SliceExpr:
		w.use(x.X)
		w.use(x.Low)
		w.use(x.High)
		w.use(x.Max)
	case *ast.CallExpr:
		w.call(x)
	case *ast.StarExpr:
		w.use(x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			// Address taken: aliasing we cannot follow.
			w.use(x.X)
			w.escapeRoot(x.X)
		} else {
			w.use(x.X)
		}
	case *ast.BinaryExpr:
		w.use(x.X)
		w.use(x.Y)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			w.use(el)
			w.escapeAlias(el)
		}
	case *ast.KeyValueExpr:
		w.use(x.Key)
		w.use(x.Value)
	case *ast.TypeAssertExpr:
		w.use(x.X)
	case *ast.FuncLit:
		w.escapeCaptured(x)
	}
}

// useIdent flags reads of released values and stale derived aliases.
func (w *walker) useIdent(id *ast.Ident) {
	v := localVar(w.info(), id)
	if v == nil {
		return
	}
	st, ok := w.env[v]
	if !ok {
		return
	}
	if st.owner != nil {
		if ost, ok := w.env[st.owner]; ok && ost.mask&maskReleased != 0 {
			w.a.reportOnce(id.Pos(), "stale",
				"%q aliases pooled backing of %q, which may already be released here",
				id.Name, st.owner.Name())
		}
		return
	}
	if st.mask&maskReleased != 0 {
		w.a.reportOnce(id.Pos(), "uar",
			"use of %s %q after it may have been released", w.spec().noun, id.Name)
	}
}

// escapeRoot transfers the variable at the root of e out of the
// analysis: its fate is no longer visible, so no later diagnostic
// about it can be justified.
func (w *walker) escapeRoot(e ast.Expr) {
	id := rootIdent(e)
	if id == nil {
		return
	}
	if v := localVar(w.info(), id); v != nil {
		delete(w.env, v)
	}
}

// escapeAlias is escapeRoot restricted to expressions whose value can
// actually alias the tracked object: copying a value-typed field
// (res.Stats) or a basic value (b.Len()'s result is not even rooted)
// cannot be used to release or corrupt it, so the root stays tracked.
func (w *walker) escapeAlias(e ast.Expr) {
	if !pointerLike(w.info().TypeOf(e)) {
		return
	}
	w.escapeRoot(e)
}

// pointerLike reports whether values of t can carry a reference to
// pooled memory (pointers, interfaces, slices, maps, chans, funcs;
// structs and arrays recursively, e.g. copying a stats struct of
// durations aliases nothing, while copying a struct holding a
// *Relation does).
func pointerLike(t types.Type) bool {
	return pointerLikeDepth(t, 0)
}

func pointerLikeDepth(t types.Type, depth int) bool {
	if t == nil || depth > 8 {
		return true // unknown or too deep: stay conservative
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Interface, *types.Slice, *types.Map,
		*types.Chan, *types.Signature:
		return true
	case *types.Array:
		return pointerLikeDepth(u.Elem(), depth+1)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if pointerLikeDepth(u.Field(i).Type(), depth+1) {
				return true
			}
		}
		return false
	}
	return false
}

// escapeCaptured escapes every tracked variable a function literal
// captures.
func (w *walker) escapeCaptured(lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v := localVar(w.info(), id); v != nil {
				delete(w.env, v)
			}
		}
		return true
	})
}

// producerInfo resolves c as a producer call of this spec.
func (w *walker) producerInfo(c *ast.CallExpr) (resultIdx int, short string, recvConsumed, ok bool) {
	f := calleeFunc(w.info(), c)
	key := funcKey(f)
	idx, isP := w.spec().producers[key]
	if !isP {
		return 0, "", false, false
	}
	return idx, f.Name(), w.spec().recvConsumed[key], true
}

// call dispatches a call expression against the spec's tables.
func (w *walker) call(c *ast.CallExpr) {
	info := w.info()
	// Type conversions read their operand.
	if tv, ok := info.Types[c.Fun]; ok && tv.IsType() {
		for _, arg := range c.Args {
			w.use(arg)
		}
		return
	}
	// Builtins: len/cap borrow; everything else makes arguments escape.
	if id, ok := ast.Unparen(c.Fun).(*ast.Ident); ok {
		if _, ok := info.Uses[id].(*types.Builtin); ok {
			for _, arg := range c.Args {
				w.use(arg)
				if id.Name != "len" && id.Name != "cap" {
					w.escapeAlias(arg)
				}
			}
			return
		}
	}
	f := calleeFunc(info, c)
	key := funcKey(f)
	spec := w.spec()

	if _, _, recvConsumed, ok := w.producerInfo(c); ok {
		// Producer in expression position: the fresh value is handed to
		// the surrounding expression immediately, so it is untracked.
		// Arguments move into the produced value (ViewWithSel wraps the
		// base batch it is given), so they escape the analysis too.
		for _, arg := range c.Args {
			w.use(arg)
			w.escapeAlias(arg)
		}
		if recvConsumed {
			w.consumeTarget(c)
		} else if recv := w.receiver(c); recv != nil {
			w.use(recv)
		}
		return
	}
	if spec.consumers[key] {
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
			// No use() here: consuming a released value reports "double",
			// which subsumes the use-after-release a use would add.
			w.consume(target, c)
		}
		return
	}
	if spec.borrows[key] || spec.derives[key] {
		if recv := w.receiver(c); recv != nil {
			w.use(recv)
		}
		for _, arg := range c.Args {
			w.use(arg)
		}
		return
	}
	// Unknown call: ownership of any tracked argument (and receiver)
	// transfers out of the analysis.
	if recv := w.receiver(c); recv != nil {
		w.use(recv)
		w.escapeRoot(recv)
	} else {
		w.use(c.Fun)
	}
	for _, arg := range c.Args {
		w.use(arg)
		w.escapeAlias(arg)
	}
}

// consumeTarget consumes the receiver of c (DetachSel/Materialize).
func (w *walker) consumeTarget(c *ast.CallExpr) {
	if recv := w.receiver(c); recv != nil {
		w.consume(recv, c)
	}
}

// consume applies a consumer call to the variable rooting target.
func (w *walker) consume(target ast.Expr, c *ast.CallExpr) {
	id := rootIdent(target)
	if id == nil {
		return
	}
	v := localVar(w.info(), id)
	if v == nil {
		return
	}
	st, ok := w.env[v]
	if ok && st.owner != nil {
		// Releasing an alias (PutSel(s), s := b.Sel()) releases what it
		// aliases.
		v = st.owner
		st, ok = w.env[v]
	}
	if !ok {
		return
	}
	if st.mask&maskReleased != 0 {
		w.a.reportOnce(c.Pos(), "double",
			"%s %q may already be released here (double release)", w.spec().noun, id.Name)
	}
	st.mask = maskReleased
	w.env[v] = st
}

// receiver returns the receiver expression of a method call, nil for
// package-function calls (including package-qualified ones, where
// sel.X is the package name, not a value).
func (w *walker) receiver(c *ast.CallExpr) ast.Expr {
	sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
		if _, isPkg := w.info().Uses[id].(*types.PkgName); isPkg {
			return nil
		}
	}
	return sel.X
}
