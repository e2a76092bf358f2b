// Package analysis is sommelier's static-analysis suite: a small,
// dependency-free re-implementation of the golang.org/x/tools
// go/analysis surface (Analyzer, Pass, Diagnostic) plus one custom
// analyzer:
//
//   - atomicguard: a struct field accessed through sync/atomic anywhere
//     must never be accessed plainly.
//
// The suite runs as a `go vet -vettool` binary (cmd/sommelierlint,
// speaking the vet.cfg unitchecker protocol) and standalone over
// package patterns (the analysistest-style golden suite uses the
// standalone loader).
//
// A deliberate mixed access the analyzer cannot prove safe is annotated
// in source with
//
//	//sommelier:atomic-guarded
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
var All = []*Analyzer{AtomicGuard}

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
// above it) carries the given //sommelier: directive, so deliberate
// escapes are visible and greppable in source instead of silenced in a
// config file.
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
