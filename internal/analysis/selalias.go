package analysis

// selalias guards the selection-vector lifecycle. A batch carrying a
// deferred selection owns a pooled vector: Materialize recycles it with
// PutSel, DetachSel hands it to the caller, who recycles it in turn. An
// alias kept from Batch.Sel() turns into silent data corruption once
// the pool hands the vector to someone else. Two checks:
//
//  1. dataflow: an alias s := b.Sel() must not be used after b is
//     materialized, its selection detached, or s recycled (PutSel);
//  2. retention: the result of Batch.Sel() must not be stored into a
//     field, global or composite, or returned — those outlive the
//     statement and the analysis cannot tie them to the batch's
//     lifetime. DetachSel is the sanctioned way to keep a selection
//     vector alive.

import (
	"go/ast"
	"go/types"
)

const sp = storagePath + "."

// SelAlias flags retained or stale aliases of a batch's selection.
var SelAlias = &Analyzer{
	Name: "selalias",
	Doc: "check that Batch.Sel is not retained past the batch's Materialize, " +
		"DetachSel or PutSel",
	Run: runSelAlias,
}

var selAliasSpec = &ownSpec{
	directive: "sel-retained",
	noun:      "batch",
	producers: map[string]int{
		sp + "Batch.WithSel":     0,
		sp + "Batch.DetachSel":   0,
		sp + "Batch.Materialize": 0,
	},
	// Both end the receiver's hold on its selection: Materialize
	// recycles it, DetachSel moves it to the caller.
	recvConsumed: map[string]bool{
		sp + "Batch.DetachSel":   true,
		sp + "Batch.Materialize": true,
	},
	consumers: map[string]bool{
		sp + "PutSel": true,
	},
	borrows: batchBorrows,
	derives: map[string]bool{
		sp + "Batch.Sel": true,
	},
	aliasOnly: true,
	skipPkgs:  map[string]bool{storagePath: true},
}

// batchBorrows lists calls that read a batch, a relation or a column
// without consuming it. Shared by selalias and releasecheck.
var batchBorrows = map[string]bool{
	// Batch reads.
	sp + "Batch.Len":     true,
	sp + "Batch.Width":   true,
	sp + "Batch.Sel":     true,
	sp + "Batch.MemSize": true,
	sp + "Batch.Slice":   true,
	sp + "Batch.Gather":  true,
	// Relation reads. Flatten's result aliases the relation's batches.
	sp + "Relation.Batches": true,
	sp + "Relation.Rows":    true,
	sp + "Relation.MemSize": true,
	sp + "Relation.Zone":    true,
	sp + "Relation.Flatten": true,
	// Column accessors.
	sp + "Int64s":     true,
	sp + "Float64s":   true,
	sp + "Bools":      true,
	sp + "ColumnZone": true,
	// Selection-vector recycling reads nothing from the batch.
	sp + "PutSel": true,
	// Row/key readers over batches.
	sp + "ValueAt":                    true,
	"sommelier/internal/index.KeyAt":  true,
	"sommelier/internal/expr.EvalSel": true,
	// The key resolver and the join probe's column builders read the
	// probe batch.
	"sommelier/internal/physical.keyIndex.resolve":    true,
	"sommelier/internal/physical.HashJoin.runCols":    true,
	"sommelier/internal/physical.HashJoin.gatherCols": true,
	// Interface-method reads (funcKey cannot name the dynamic type, so
	// these match by bare method name): expression evaluation borrows
	// the batch it reads.
	".Eval":    true,
	".EvalSel": true,
}

func runSelAlias(pass *Pass) error {
	if err := runOwnership(pass, selAliasSpec); err != nil {
		return err
	}
	if selAliasSpec.skipPkgs[pass.Pkg.Path()] {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				for i, r := range x.Rhs {
					if !isSelCall(pass.TypesInfo, r) || i >= len(x.Lhs) {
						continue
					}
					if retains(pass.TypesInfo, x.Lhs[i]) {
						reportSelRetention(pass, r)
					}
				}
			case *ast.ReturnStmt:
				for _, r := range x.Results {
					if isSelCall(pass.TypesInfo, r) {
						reportSelRetention(pass, r)
					}
				}
			case *ast.CompositeLit:
				for _, el := range x.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						el = kv.Value
					}
					if isSelCall(pass.TypesInfo, el) {
						reportSelRetention(pass, el)
					}
				}
			}
			return true
		})
	}
	return nil
}

func reportSelRetention(pass *Pass, e ast.Expr) {
	if suppressedBy(pass, e.Pos(), selAliasSpec.directive) {
		return
	}
	pass.Reportf(e.Pos(),
		"Batch.Sel aliases pooled backing; storing or returning it outlives the batch "+
			"(use DetachSel, or annotate //sommelier:sel-retained)")
}

// isSelCall reports whether e is a direct Batch.Sel() call.
func isSelCall(info *types.Info, e ast.Expr) bool {
	c, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	return funcKey(calleeFunc(info, c)) == sp+"Batch.Sel"
}

// retains reports whether an assignment target outlives the statement
// in a way the dataflow cannot follow: a field, an element of a
// container, a dereference, or a package-level variable.
func retains(info *types.Info, l ast.Expr) bool {
	switch x := ast.Unparen(l).(type) {
	case *ast.Ident:
		if x.Name == "_" {
			return false
		}
		return localVar(info, x) == nil && info.ObjectOf(x) != nil
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		return true
	}
	return false
}
