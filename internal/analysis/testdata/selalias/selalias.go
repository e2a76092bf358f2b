// Package selalias is the golden fixture for the selalias analyzer:
// retained or stale aliases of a batch's pooled selection vector.
package selalias

import "sommelier/internal/storage"

var globalSel []int32

type holder struct{ sel []int32 }

// storeGlobal parks the selection vector where it outlives the batch.
func storeGlobal(b *storage.Batch) {
	globalSel = b.Sel() // want "Batch.Sel aliases pooled backing"
}

// returnSel hands the selection vector to a caller the analysis cannot
// see.
func returnSel(b *storage.Batch) []int32 {
	return b.Sel() // want "Batch.Sel aliases pooled backing"
}

// storeField retains the selection vector in a struct.
func storeField(h *holder, b *storage.Batch) {
	h.sel = b.Sel() // want "Batch.Sel aliases pooled backing"
}

// staleAfterMaterialize reads a selection alias after Materialize
// recycled the vector.
func staleAfterMaterialize(base *storage.Batch) int32 {
	b := base.WithSel(storage.IdentitySel(1))
	s := b.Sel()
	b.Materialize()
	return s[0] // want "\"s\" aliases pooled backing of \"b\""
}

// staleAfterDetach reads a selection alias after DetachSel handed the
// vector on and it was recycled.
func staleAfterDetach(base *storage.Batch) int32 {
	b := base.WithSel(storage.IdentitySel(1))
	s := b.Sel()
	_, sel := b.DetachSel()
	storage.PutSel(sel)
	return s[0] // want "\"s\" aliases pooled backing of \"b\""
}

// staleAfterPutSel reads a selection alias after it went back to the
// pool.
func staleAfterPutSel(base *storage.Batch) int32 {
	b := base.WithSel(storage.IdentitySel(1))
	s := b.Sel()
	storage.PutSel(s)
	return s[0] // want "\"s\" aliases pooled backing of \"b\""
}

// cleanDetach uses the sanctioned escape hatch: DetachSel severs the
// selection vector from the batch's lifetime.
func cleanDetach(b *storage.Batch) []int32 {
	_, sel := b.DetachSel()
	return sel
}

// cleanUseBeforeMaterialize reads the alias strictly before the
// vector is recycled.
func cleanUseBeforeMaterialize(base *storage.Batch) int {
	b := base.WithSel(storage.IdentitySel(1))
	s := b.Sel()
	n := len(s)
	b.Materialize()
	return n
}

// suppressedRetention documents a batch that outlives the program.
func suppressedRetention(b *storage.Batch) []int32 {
	//sommelier:sel-retained the batch is never materialized in this configuration
	return b.Sel()
}
