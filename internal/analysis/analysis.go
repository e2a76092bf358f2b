// Package analysis is sommelier's static-analysis suite: a small,
// dependency-free re-implementation of the golang.org/x/tools
// go/analysis surface (Analyzer, Pass, Diagnostic) plus three custom
// analyzers:
//
//   - selalias: no alias of a batch's pooled selection vector
//     (Batch.Sel) is retained, or used after the batch is materialized,
//     its selection detached or the vector recycled.
//   - releasecheck: callers of the executor and engine query entry
//     points release their Result, which returns the chunk memory its
//     rows may alias.
//   - atomicguard: a struct field accessed through sync/atomic anywhere
//     must never be accessed plainly.
//
// The suite runs as a `go vet -vettool` binary (cmd/sommelierlint,
// speaking the vet.cfg unitchecker protocol) and standalone over
// package patterns (the analysistest-style golden suites use the
// standalone loader). Unlike the x/tools analyzers this container
// cannot fetch, the dataflow runs over an AST-level CFG rather than
// go/ssa — the ownership protocol is purely intra-procedural and
// first-order, so the AST CFG models it faithfully; anything the
// analysis cannot see (a handoff through a helper, storage into a
// long-lived structure) is treated as a deliberate ownership transfer
// and never reported.
//
// Deliberate protocol escapes the analyzers cannot prove are annotated
// in source:
//
//	//sommelier:ownership-transferred  (releasecheck)
//	//sommelier:sel-retained           (selalias)
//	//sommelier:atomic-guarded         (atomicguard)
//
// placed on (or immediately above) the flagged line.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check, mirroring
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and flags.
	Name string
	// Doc is the one-paragraph description.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// Pass carries one type-checked package through an analyzer, mirroring
// golang.org/x/tools/go/analysis.Pass.
type Pass struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// report collects diagnostics (set by the driver).
	report func(Diagnostic)
}

// Diagnostic is one finding at a position.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// All is the sommelierlint suite, in reporting order.
var All = []*Analyzer{SelAlias, ReleaseCheck, AtomicGuard}

// storagePath is the package whose selection-vector lifecycle selalias
// checks. The storage implementation itself manipulates selections
// legitimately and is skipped.
const storagePath = "sommelier/internal/storage"

// runPackage applies the analyzers to one loaded package and returns
// the diagnostics sorted by position.
func runPackage(pass *Pass, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		cur := a
		pass.report = func(d Diagnostic) {
			d.Analyzer = cur.Name
			diags = append(diags, d)
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pass.Pkg.Path(), err)
		}
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}

// suppressedBy reports whether the line holding pos (or the line just
// above it) carries the given //sommelier: directive. Every analyzer
// offers one, so deliberate protocol escapes are visible and greppable
// in source instead of silenced in a config file.
func suppressedBy(pass *Pass, pos token.Pos, directive string) bool {
	pf := pass.Fset.File(pos)
	if pf == nil {
		return false
	}
	line := pf.Line(pos)
	for _, f := range pass.Files {
		if pass.Fset.File(f.Pos()) != pf {
			continue
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				cl := pf.Line(c.Pos())
				if cl != line && cl != line-1 {
					continue
				}
				// The directive must lead the comment (a trailing rationale
				// is encouraged); merely mentioning it in prose or in a test
				// expectation does not suppress.
				if strings.HasPrefix(c.Text, "//sommelier:"+directive) {
					return true
				}
			}
		}
	}
	return false
}

// calleeFunc resolves the *types.Func a call expression invokes, nil
// for calls through function-typed values, conversions and built-ins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fn]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fn]; ok {
			obj = sel.Obj()
		} else {
			obj = info.Uses[fn.Sel] // package-qualified call
		}
	}
	f, _ := obj.(*types.Func)
	return f
}

// funcKey renders a *types.Func as "pkgpath.Name" for package
// functions and "pkgpath.Recv.Name" for methods (pointer receivers
// stripped), the key format the analyzer tables use.
func funcKey(f *types.Func) string {
	if f == nil || f.Pkg() == nil {
		return ""
	}
	sig, _ := f.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		rt := sig.Recv().Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		if named, ok := rt.(*types.Named); ok {
			if _, isIface := named.Underlying().(*types.Interface); !isIface {
				return f.Pkg().Path() + "." + named.Obj().Name() + "." + f.Name()
			}
		}
		// Interface-method call (named or anonymous interface): key by
		// package-less method name; the tables list those explicitly
		// (.Eval, .Push), since the dynamic type is unknowable here.
		return "." + f.Name()
	}
	return f.Pkg().Path() + "." + f.Name()
}

// rootIdent walks a selector/index chain (res.Rel, b.Cols[i]) down to
// the variable at its base, nil when the base is not a plain
// identifier.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// localVar resolves an identifier to the local variable it names, nil
// for globals, fields, and non-variables. The ownership analyses track
// function-local variables only.
func localVar(info *types.Info, id *ast.Ident) *types.Var {
	obj := info.ObjectOf(id)
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return nil
	}
	if v.Parent() == nil || v.Parent() == v.Pkg().Scope() {
		return nil // package-level
	}
	return v
}
