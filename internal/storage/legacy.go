package storage

// PutBatch, Relation.Release and Outstanding are what remains of the
// removed batch pool's API. Batch memory is garbage collected, so the
// first two do nothing and Outstanding is always zero. The service
// benchmark's traced pass (bench/layers.go) still calls all three; they
// go with its next change.

// PutBatch does nothing: batch memory is garbage collected.
func PutBatch(*Batch) {}

// Release does nothing: a relation's batches are garbage collected.
func (r *Relation) Release() {}

// Outstanding reports zero: no batch memory is checked out of a pool.
func Outstanding() int64 { return 0 }
