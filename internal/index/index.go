// Package index provides the access-path accelerators of the eager
// loading variants: hash indexes on key columns, foreign-key join
// indexes (the paper's eager_index investment — "constructing the join
// index is actually computing the join itself"), and per-chunk zone
// maps.
package index

import (
	"fmt"

	"sommelier/internal/storage"
)

// Key is a hashable composite key over up to three int64-encodable
// values plus up to two strings; it covers every primary and join key
// in the seismology schema (including the three-part sample-to-window
// join of the windowdataview: file, segment and window timestamp).
type Key struct {
	I0, I1, I2 int64
	S0, S1     string
}

// HashIndex maps key values of a relation to row numbers (positions in
// the flattened relation). Alongside the hash table it keeps min/max
// bounds of the integer key slots over every inserted key — a zone map
// over the key space — so a Lookup outside the bounds is rejected
// before hashing the (string-carrying) composite key.
type HashIndex struct {
	cols []int
	rows map[Key][]int32
	// loI/hiI bound the I0..I2 slots of all inserted keys; unused slots
	// are zero on both the inserted and the probed side, so they never
	// cause a false rejection.
	loI, hiI [3]int64
}

// KeyAt extracts the composite key of row r from the given columns of
// the batch. It is shared with the execution engine's hash join and
// group-by, which use the same composite-key scheme.
func KeyAt(b *storage.Batch, cols []int, r int) (Key, error) { return keyAt(b, cols, r) }

// keyAt extracts the composite key of row r from the given columns.
func keyAt(b *storage.Batch, cols []int, r int) (Key, error) {
	var k Key
	iSlot, sSlot := 0, 0
	for _, ci := range cols {
		c := b.Cols[ci]
		switch c.Kind() {
		case storage.KindInt64, storage.KindTime:
			// Whatever the column's shape.
			if err := k.setInt(&iSlot, storage.Int64At(c, r)); err != nil {
				return k, err
			}
		case storage.KindString:
			if err := k.setStr(&sSlot, c.(*storage.StringColumn).Value(r)); err != nil {
				return k, err
			}
		default:
			return k, fmt.Errorf("index: unsupported key column type %T", c)
		}
	}
	return k, nil
}

func (k *Key) setInt(slot *int, v int64) error {
	switch *slot {
	case 0:
		k.I0 = v
	case 1:
		k.I1 = v
	case 2:
		k.I2 = v
	default:
		return fmt.Errorf("index: more than three integer key parts")
	}
	*slot++
	return nil
}

func (k *Key) setStr(slot *int, v string) error {
	switch *slot {
	case 0:
		k.S0 = v
	case 1:
		k.S1 = v
	default:
		return fmt.Errorf("index: more than two string key parts")
	}
	*slot++
	return nil
}

// BuildHash builds a hash index over the given column positions of the
// flattened batch.
func BuildHash(b *storage.Batch, cols []int) (*HashIndex, error) {
	idx := &HashIndex{cols: cols, rows: make(map[Key][]int32, b.Len())}
	n := b.Len()
	for r := 0; r < n; r++ {
		k, err := keyAt(b, cols, r)
		if err != nil {
			return nil, err
		}
		ki := [3]int64{k.I0, k.I1, k.I2}
		if len(idx.rows) == 0 {
			idx.loI, idx.hiI = ki, ki
		} else {
			for s, v := range ki {
				if v < idx.loI[s] {
					idx.loI[s] = v
				}
				if v > idx.hiI[s] {
					idx.hiI[s] = v
				}
			}
		}
		idx.rows[k] = append(idx.rows[k], int32(r))
	}
	return idx, nil
}

// Lookup returns the row numbers with the given key. Keys whose integer
// slots fall outside the indexed bounds are rejected without hashing —
// the common shape of a point query probing a time outside the indexed
// range.
func (ix *HashIndex) Lookup(k Key) []int32 {
	if len(ix.rows) == 0 {
		return nil
	}
	if k.I0 < ix.loI[0] || k.I0 > ix.hiI[0] ||
		k.I1 < ix.loI[1] || k.I1 > ix.hiI[1] ||
		k.I2 < ix.loI[2] || k.I2 > ix.hiI[2] {
		return nil
	}
	return ix.rows[k]
}

// Len reports the number of distinct keys.
func (ix *HashIndex) Len() int { return len(ix.rows) }

// MemSize estimates the index footprint in bytes.
func (ix *HashIndex) MemSize() int64 {
	var n int64
	for k, v := range ix.rows {
		n += 48 + int64(len(k.S0)+len(k.S1)) + int64(len(v))*4
	}
	return n
}

// JoinIndex is a precomputed foreign-key join: for every row of the
// referencing (fact) side it records the row number of the matching
// referenced (dimension) row, or -1 for a dangling key.
type JoinIndex struct {
	to []int32
}

// BuildJoin builds the join index from the fact key column to the
// dimension key column. Both must be int64-valued (system-generated
// keys, as the paper assumes).
func BuildJoin(fact storage.Column, dim storage.Column) (*JoinIndex, error) {
	dimVals := storage.Int64s(dim)
	pos := make(map[int64]int32, len(dimVals))
	for i, v := range dimVals {
		if _, dup := pos[v]; dup {
			return nil, fmt.Errorf("index: duplicate dimension key %d", v)
		}
		pos[v] = int32(i)
	}
	factVals := storage.Int64s(fact)
	to := make([]int32, len(factVals))
	for i, v := range factVals {
		if p, ok := pos[v]; ok {
			to[i] = p
		} else {
			to[i] = -1
		}
	}
	return &JoinIndex{to: to}, nil
}

// Map returns the dimension row for the given fact row, or -1.
func (ix *JoinIndex) Map(factRow int32) int32 { return ix.to[factRow] }

// Len reports the number of fact rows covered.
func (ix *JoinIndex) Len() int { return len(ix.to) }

// MemSize estimates the index footprint in bytes.
func (ix *JoinIndex) MemSize() int64 { return int64(len(ix.to)) * 4 }

// ZoneMap holds per-chunk min/max bounds of one numeric or time column,
// enabling chunk pruning without reading data. Ok marks that the
// bounds are valid; a zone over an unsupported column kind carries
// Ok=false and never prunes (fail-open, where pruning on a bogus
// [0,0] bound would silently drop rows).
type ZoneMap struct {
	Min, Max int64
	Rows     int
	Ok       bool
}

// BuildZoneMap computes the bounds of an int64/time column through the
// shared storage.ColumnZone routine (the same one behind the
// relation's batch-level zone maps, so chunk- and batch-level pruning
// cannot diverge).
func BuildZoneMap(c storage.Column) ZoneMap {
	zm := ZoneMap{Rows: c.Len()}
	if z := storage.ColumnZone(c); z.Ok {
		zm.Min, zm.Max, zm.Ok = z.Min, z.Max, true
	}
	return zm
}

// MayContainRange reports whether [lo, hi] intersects the zone: the
// negation of storage.Zone.Disjoint, plus the empty-zone guard. An
// invalid zone over non-empty data conservatively reports true.
func (z ZoneMap) MayContainRange(lo, hi int64) bool {
	if z.Rows == 0 {
		return false
	}
	return !(storage.Zone{Min: z.Min, Max: z.Max, Ok: z.Ok}).Disjoint(lo, hi)
}
