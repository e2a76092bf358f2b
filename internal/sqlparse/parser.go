package sqlparse

import (
	"fmt"
	"strconv"
	"strings"

	"sommelier/internal/expr"
	"sommelier/internal/plan"
	"sommelier/internal/storage"
)

// Error is a parse error with the byte offset it occurred at, so
// clients (the CLI, sommelierd's 400 responses) can point into the
// statement text.
type Error struct {
	Pos int
	Msg string
}

// Error implements error; the "sql:" prefix classifies the failure as
// the client's statement for HTTP status mapping.
func (e *Error) Error() string { return fmt.Sprintf("sql: %s (at byte %d)", e.Msg, e.Pos) }

// errAt builds a positioned parse error.
func errAt(pos int, format string, args ...any) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// Statement is one parsed SQL statement: the query specification plus
// the statement-level attributes the engine's compile pipeline needs.
type Statement struct {
	Query *plan.Query
	// Explain marks an `EXPLAIN <query>` statement: compile only, and
	// return the optimized plan rendering instead of executing.
	Explain bool
	// Analyze marks `EXPLAIN ANALYZE <query>`: execute the query, then
	// return its plan annotated with what each operator did.
	Analyze bool
	// Normalized is the canonical statement text — keywords uppercased,
	// whitespace collapsed, every parameterized literal replaced by `?`
	// (the EXPLAIN [ANALYZE] prefix is stripped, so the statement shares
	// the compiled plan of its query). It is the engine's plan-cache key.
	Normalized string
	// NumParams is the number of `?` parameters the query references.
	NumParams int
	// Args holds the literal values the parser auto-parameterized, in
	// ordinal order; nil when the statement used explicit `?` markers
	// (the caller supplies the values) or references no parameters.
	Args []*expr.Const
}

// Parse turns a SELECT statement into a logical query specification.
// Literals stay in place (no parameterization); use ParseStatement for
// the engine's compile pipeline.
func Parse(sql string) (*plan.Query, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if err := p.finish(); err != nil {
		return nil, err
	}
	return q, nil
}

// ParseStatement parses a statement for compilation: it handles the
// EXPLAIN [ANALYZE] prefix and `?` parameter markers, produces the
// normalized statement text, and — when the statement has no explicit
// markers — auto-parameterizes the literals of WHERE comparisons so
// that queries differing only in constants share one normalized text
// (and therefore one compiled plan).
func ParseStatement(sql string) (*Statement, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, constSpan: make(map[*expr.Const][2]int)}
	st := &Statement{}
	skip := 0 // prefix tokens the normalized text drops
	if p.keyword("EXPLAIN") {
		st.Explain, skip = true, 1
		if p.keyword("ANALYZE") {
			st.Analyze, skip = true, 2
		}
	}
	q, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if err := p.finish(); err != nil {
		return nil, err
	}
	st.Query = q
	paramSpans := make(map[int]int) // start token index → end (inclusive)
	if p.nParams > 0 {
		// Explicit markers: the caller owns the arguments; literals are
		// left alone so the marker ordinals match the statement text.
		st.NumParams = p.nParams
	} else {
		st.Args = p.autoParameterize(q, paramSpans)
		st.NumParams = len(st.Args)
	}
	st.Normalized = p.normalize(skip, paramSpans)
	return st, nil
}

type parser struct {
	toks []token
	pos  int
	// nParams counts explicit `?` markers, which double as ordinals.
	nParams int
	// constSpan records the token-index span of each literal constant
	// ([start, end] inclusive — two tokens for a folded unary minus),
	// for auto-parameterization and normalization. Nil outside
	// ParseStatement.
	constSpan map[*expr.Const][2]int
}

// finish verifies the statement is fully consumed.
func (p *parser) finish() error {
	if p.peek().kind == tokSymbol && p.peek().text == ";" {
		p.next()
	}
	if t := p.peek(); t.kind != tokEOF {
		return errAt(t.pos, "trailing input at %q", t.text)
	}
	return nil
}

// autoParameterize replaces every literal that is a direct operand of a
// WHERE comparison (the other operand not itself a literal) with a
// parameter placeholder, returning the extracted values in ordinal
// (source) order and recording the replaced token spans.
func (p *parser) autoParameterize(q *plan.Query, spans map[int]int) []*expr.Const {
	if q.Where == nil {
		return nil
	}
	type candidate struct {
		cmp  *expr.Cmp
		left bool
		k    *expr.Const
		span [2]int
	}
	var cands []candidate
	q.Where.Walk(func(e expr.Expr) {
		cmp, ok := e.(*expr.Cmp)
		if !ok {
			return
		}
		_, lConst := cmp.L.(*expr.Const)
		_, rConst := cmp.R.(*expr.Const)
		if lConst == rConst { // both or neither: constfold's business
			return
		}
		if k, ok := cmp.L.(*expr.Const); ok {
			if span, tracked := p.constSpan[k]; tracked {
				cands = append(cands, candidate{cmp: cmp, left: true, k: k, span: span})
			}
		}
		if k, ok := cmp.R.(*expr.Const); ok {
			if span, tracked := p.constSpan[k]; tracked {
				cands = append(cands, candidate{cmp: cmp, left: false, k: k, span: span})
			}
		}
	})
	// Ordinals follow source order.
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && cands[j-1].span[0] > cands[j].span[0]; j-- {
			cands[j-1], cands[j] = cands[j], cands[j-1]
		}
	}
	args := make([]*expr.Const, 0, len(cands))
	for ord, c := range cands {
		if c.left {
			c.cmp.L = expr.NewParam(ord)
		} else {
			c.cmp.R = expr.NewParam(ord)
		}
		spans[c.span[0]] = c.span[1]
		args = append(args, c.k)
	}
	return args
}

// normalize renders the canonical statement text from the token stream:
// single spaces, parameterized literal spans as `?`, the trailing
// semicolon and the first skip tokens (the EXPLAIN prefix) dropped.
// Identifiers keep their case — name resolution is case-sensitive, and
// keyword-spelled words (MIN, SAMPLE, ...) can be column names, so
// case-folding here could collide two different statements onto one
// cache key. Two spellings of the same keywords merely cost an extra
// cache entry.
func (p *parser) normalize(skip int, paramSpans map[int]int) string {
	var sb strings.Builder
	for i := skip; i < len(p.toks); i++ {
		t := p.toks[i]
		if t.kind == tokEOF {
			break
		}
		if end, ok := paramSpans[i]; ok {
			if sb.Len() > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteByte('?')
			i = end
			continue
		}
		if t.kind == tokSymbol && t.text == ";" && p.toks[i+1].kind == tokEOF {
			continue
		}
		if sb.Len() > 0 {
			sb.WriteByte(' ')
		}
		if t.kind == tokString {
			sb.WriteByte('\'')
			sb.WriteString(t.text)
			sb.WriteByte('\'')
		} else {
			sb.WriteString(t.text)
		}
	}
	return sb.String()
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

// keyword consumes the next token if it is the given keyword
// (case-insensitive) and reports whether it did.
func (p *parser) keyword(kw string) bool {
	t := p.peek()
	if t.kind == tokIdent && strings.EqualFold(t.text, kw) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.keyword(kw) {
		t := p.peek()
		return errAt(t.pos, "expected %s, got %q", kw, t.text)
	}
	return nil
}

func (p *parser) expectSymbol(sym string) error {
	t := p.peek()
	if t.kind == tokSymbol && t.text == sym {
		p.next()
		return nil
	}
	return errAt(t.pos, "expected %q, got %q", sym, t.text)
}

func (p *parser) symbol(sym string) bool {
	t := p.peek()
	if t.kind == tokSymbol && t.text == sym {
		p.next()
		return true
	}
	return false
}

var aggNames = map[string]plan.AggFunc{
	"COUNT":  plan.AggCount,
	"SUM":    plan.AggSum,
	"AVG":    plan.AggAvg,
	"MIN":    plan.AggMin,
	"MAX":    plan.AggMax,
	"STDDEV": plan.AggStddev,
}

// reserved words that terminate expressions / select lists.
var reserved = map[string]bool{
	"FROM": true, "WHERE": true, "GROUP": true, "ORDER": true,
	"LIMIT": true, "AND": true, "OR": true, "NOT": true, "AS": true,
	"BY": true, "ASC": true, "DESC": true, "SELECT": true,
}

// trackConst records the token span a literal came from (only under
// ParseStatement).
func (p *parser) trackConst(k *expr.Const, start, end int) *expr.Const {
	if p.constSpan != nil {
		p.constSpan[k] = [2]int{start, end}
	}
	return k
}

func (p *parser) parseSelect() (*plan.Query, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	q := &plan.Query{}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		q.Select = append(q.Select, item)
		if !p.symbol(",") {
			break
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	t := p.next()
	if t.kind != tokIdent {
		return nil, errAt(t.pos, "expected table name, got %q", t.text)
	}
	q.From = t.text
	if p.keyword("WHERE") {
		w, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		q.Where = w
	}
	if p.keyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			t := p.next()
			if t.kind != tokIdent {
				return nil, errAt(t.pos, "expected column in GROUP BY, got %q", t.text)
			}
			q.GroupBy = append(q.GroupBy, t.text)
			if !p.symbol(",") {
				break
			}
		}
	}
	if p.keyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			t := p.next()
			if t.kind != tokIdent {
				return nil, errAt(t.pos, "expected column in ORDER BY, got %q", t.text)
			}
			key := plan.OrderKey{Col: t.text}
			if p.keyword("DESC") {
				key.Desc = true
			} else {
				p.keyword("ASC")
			}
			q.OrderBy = append(q.OrderBy, key)
			if !p.symbol(",") {
				break
			}
		}
	}
	if p.keyword("LIMIT") {
		t := p.next()
		if t.kind != tokNumber {
			return nil, errAt(t.pos, "expected number after LIMIT, got %q", t.text)
		}
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 0 {
			return nil, errAt(t.pos, "bad LIMIT %q", t.text)
		}
		q.Limit = n
	}
	if p.keyword("SAMPLE") {
		t := p.next()
		if t.kind != tokNumber {
			return nil, errAt(t.pos, "expected percentage after SAMPLE, got %q", t.text)
		}
		pct, err := strconv.ParseFloat(t.text, 64)
		if err != nil || pct <= 0 || pct > 100 {
			return nil, errAt(t.pos, "bad SAMPLE percentage %q", t.text)
		}
		q.SamplePct = pct
	}
	return q, nil
}

func (p *parser) parseSelectItem() (plan.SelectItem, error) {
	t := p.peek()
	if t.kind == tokIdent {
		if agg, ok := aggNames[strings.ToUpper(t.text)]; ok {
			// Lookahead for '(' to distinguish an aggregate call from
			// a column that happens to share the name.
			if p.toks[p.pos+1].kind == tokSymbol && p.toks[p.pos+1].text == "(" {
				p.next()
				p.next() // '('
				item := plan.SelectItem{Agg: agg}
				if agg == plan.AggCount && p.symbol("*") {
					// COUNT(*)
				} else {
					e, err := p.parseAdd()
					if err != nil {
						return plan.SelectItem{}, err
					}
					item.Expr = e
				}
				if err := p.expectSymbol(")"); err != nil {
					return plan.SelectItem{}, err
				}
				item.Alias = p.parseAlias()
				return item, nil
			}
		}
	}
	e, err := p.parseAdd()
	if err != nil {
		return plan.SelectItem{}, err
	}
	return plan.SelectItem{Expr: e, Alias: p.parseAlias()}, nil
}

func (p *parser) parseAlias() string {
	if p.keyword("AS") {
		t := p.next()
		return t.text
	}
	return ""
}

// parseOr := parseAnd (OR parseAnd)*
func (p *parser) parseOr() (expr.Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.keyword("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = expr.NewOr(l, r)
	}
	return l, nil
}

// parseAnd := parseNot (AND parseNot)*
func (p *parser) parseAnd() (expr.Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.keyword("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = expr.NewAnd(l, r)
	}
	return l, nil
}

func (p *parser) parseNot() (expr.Expr, error) {
	if p.keyword("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return expr.NewNot(e), nil
	}
	return p.parseComparison()
}

var cmpOps = map[string]expr.CmpOp{
	"=": expr.EQ, "<>": expr.NE, "!=": expr.NE,
	"<": expr.LT, "<=": expr.LE, ">": expr.GT, ">=": expr.GE,
}

func (p *parser) parseComparison() (expr.Expr, error) {
	// A parenthesized boolean expression: lookahead by attempting a
	// boolean parse when '(' starts a NOT/nested predicate. We detect
	// it structurally: '(' followed by NOT, or a comparison that
	// consumes an operator inside before ')'. The simple approach:
	// try arithmetic first; if the next token is a comparison
	// operator we finish the comparison, otherwise, if the expression
	// was parenthesized and boolean-shaped, it came from parseOr.
	if t := p.peek(); t.kind == tokSymbol && t.text == "(" {
		// Could be a boolean group or an arithmetic group. Scan ahead
		// to the matching ')' looking for AND/OR/NOT at depth 1.
		if p.parenIsBoolean() {
			p.next() // '('
			e, err := p.parseOr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind == tokSymbol {
		if op, ok := cmpOps[t.text]; ok {
			p.next()
			r, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return expr.NewCmp(op, l, r), nil
		}
	}
	return nil, errAt(t.pos, "expected comparison operator, got %q", t.text)
}

// parenIsBoolean reports whether the parenthesized group starting at
// the current '(' contains a boolean connective at depth 1, meaning it
// must be parsed as a predicate rather than an arithmetic group.
func (p *parser) parenIsBoolean() bool {
	depth := 0
	for i := p.pos; i < len(p.toks); i++ {
		t := p.toks[i]
		if t.kind == tokSymbol {
			switch t.text {
			case "(":
				depth++
			case ")":
				depth--
				if depth == 0 {
					return false
				}
			}
			if op := t.text; depth >= 1 {
				if _, ok := cmpOps[op]; ok {
					return true
				}
			}
		}
		if t.kind == tokIdent && depth >= 1 {
			up := strings.ToUpper(t.text)
			if up == "AND" || up == "OR" || up == "NOT" {
				return true
			}
		}
		if t.kind == tokEOF {
			return false
		}
	}
	return false
}

// parseAdd := parseMul ((+|-) parseMul)*
func (p *parser) parseAdd() (expr.Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokSymbol && (t.text == "+" || t.text == "-") {
			p.next()
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			op := expr.Add
			if t.text == "-" {
				op = expr.Sub
			}
			l = expr.NewArith(op, l, r)
			continue
		}
		return l, nil
	}
}

// parseMul := parseAtom ((*|/) parseAtom)*
func (p *parser) parseMul() (expr.Expr, error) {
	l, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokSymbol && (t.text == "*" || t.text == "/") {
			p.next()
			r, err := p.parseAtom()
			if err != nil {
				return nil, err
			}
			op := expr.Mul
			if t.text == "/" {
				op = expr.Div
			}
			l = expr.NewArith(op, l, r)
			continue
		}
		return l, nil
	}
}

func (p *parser) parseAtom() (expr.Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		tokIdx := p.pos
		p.next()
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, errAt(t.pos, "bad number %q", t.text)
			}
			return p.trackConst(expr.Float(f), tokIdx, tokIdx), nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, errAt(t.pos, "bad number %q", t.text)
		}
		return p.trackConst(expr.Int(n), tokIdx, tokIdx), nil
	case tokString:
		tokIdx := p.pos
		p.next()
		return p.trackConst(expr.Str(t.text), tokIdx, tokIdx), nil
	case tokIdent:
		up := strings.ToUpper(t.text)
		if up == "TRUE" || up == "FALSE" {
			p.next()
			return expr.Bool(up == "TRUE"), nil
		}
		if reserved[up] {
			return nil, errAt(t.pos, "unexpected keyword %q", t.text)
		}
		p.next()
		return expr.Col(t.text), nil
	case tokSymbol:
		if t.text == "?" {
			p.next()
			p.nParams++
			return expr.NewParam(p.nParams - 1), nil
		}
		if t.text == "(" {
			p.next()
			e, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		if t.text == "-" {
			minusIdx := p.pos
			p.next()
			e, err := p.parseAtom()
			if err != nil {
				return nil, err
			}
			if c, ok := e.(*expr.Const); ok {
				switch c.K {
				case storage.KindInt64:
					return p.trackConst(expr.Int(-c.I), minusIdx, p.pos-1), nil
				case storage.KindFloat64:
					return p.trackConst(expr.Float(-c.F), minusIdx, p.pos-1), nil
				}
			}
			return expr.NewArith(expr.Sub, expr.Int(0), e), nil
		}
	}
	return nil, errAt(t.pos, "unexpected token %q", t.text)
}
