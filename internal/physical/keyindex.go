package physical

import (
	"math"

	"sommelier/internal/index"
	"sommelier/internal/storage"
)

// intKey is a key over up to three int64-backed (int64 or timestamp)
// columns; unused slots stay zero, as in index.Key's I0..I2.
type intKey [3]int64

// keyIndex assigns dense ids, in first-seen order, to the distinct keys
// of a column set: the one key table behind the hash join's build and
// probe and the grouped aggregate's fold. Keys over int64-backed
// columns (ints) hash as raw integers — one column through the
// runtime's 8-byte map path, two or three as an intKey; every other
// shape goes through the composite index.Key.
//
// resolve is run-aware: the actual-data side of a metadata⋈data join
// arrives clustered by chunk and segment, so a batch is a handful of
// runs of equal keys, and only the first row of a run is hashed. A
// run-shaped key column states its runs; on any other, unclustered
// input makes every row its own run, for the price of one comparison
// with the previous row.
type keyIndex struct {
	ints  bool
	nk    int
	one   map[int64]int32
	multi map[intKey]int32
	str   map[index.Key]int32
	ikeys []intKey    // ints: key per id
	skeys []index.Key // otherwise
}

// maxPooledKeys bounds the key count a map may reach and still be kept
// across a reset: clearing a map costs its capacity, not its length, and
// the next user of a pooled index is as likely the dozen-row metadata
// join as another ten-thousand-window one.
const maxPooledKeys = 1 << 10

// reset empties the index (keeping modest capacity) for keys of nk
// columns.
func (x *keyIndex) reset(ints bool, nk int) {
	if x.len() > maxPooledKeys {
		x.one, x.multi, x.str = nil, nil, nil
	}
	x.ints, x.nk = ints, nk
	clear(x.one)
	clear(x.multi)
	clear(x.str)
	clear(x.skeys) // drop the string references
	x.ikeys, x.skeys = x.ikeys[:0], x.skeys[:0]
	switch {
	case !ints && x.str == nil:
		x.str = make(map[index.Key]int32, 64)
	case ints && nk > 1 && x.multi == nil:
		x.multi = make(map[intKey]int32, 64)
	case ints && nk <= 1 && x.one == nil:
		x.one = make(map[int64]int32, 64)
	}
}

// len reports the number of distinct keys.
func (x *keyIndex) len() int { return len(x.ikeys) + len(x.skeys) }

// intID returns the id of an int-backed key, assigning the next one to
// an unseen key when insert is set and reporting -1 otherwise.
func (x *keyIndex) intID(k intKey, insert bool) int32 {
	var id int32
	var ok bool
	if x.nk > 1 {
		id, ok = x.multi[k]
	} else {
		id, ok = x.one[k[0]]
	}
	if ok {
		return id
	}
	if !insert {
		return -1
	}
	id = int32(len(x.ikeys))
	x.ikeys = append(x.ikeys, k)
	if x.nk > 1 {
		x.multi[k] = id
	} else {
		x.one[k[0]] = id
	}
	return id
}

// keyID is intID for composite keys.
func (x *keyIndex) keyID(k index.Key, insert bool) int32 {
	if id, ok := x.str[k]; ok {
		return id
	}
	if !insert {
		return -1
	}
	id := int32(len(x.skeys))
	x.skeys = append(x.skeys, k)
	x.str[k] = id
	return id
}

// adopt inserts key id oid of o (an index over the same key shape).
func (x *keyIndex) adopt(o *keyIndex, oid int) int32 {
	if x.ints {
		return x.intID(o.ikeys[oid], true)
	}
	return x.keyID(o.skeys[oid], true)
}

// rawKeys are one batch's key columns as run detection reads them.
// Plain columns are compared row against row on their backing slices:
// values of int64-backed columns, dictionary codes of string columns
// (two rows with equal raw values have equal keys, which is all run
// detection needs; codes never leave the batch). Run-shaped columns
// state their runs, so their boundaries are read, not rediscovered.
type rawKeys struct {
	i64      [3][]int64
	i32      [2][]int32
	n64, n32 int
	runs     [3]keyRuns
	nrun     int
	// slot64[j] is the intKey slot of i64[j]: its rank among the
	// int64-backed key columns, run-shaped ones included.
	slot64 [3]int
}

// keyRuns is one run-shaped key column (storage.Runs): its intKey slot
// and the run of the row last seeked to.
type keyRuns struct {
	vals []int64
	ends []int32
	slot int
	at   int
}

func (rk *rawKeys) same(r, p int) bool {
	for _, c := range rk.i64[:rk.n64] {
		if c[r] != c[p] {
			return false
		}
	}
	for _, c := range rk.i32[:rk.n32] {
		if c[r] != c[p] {
			return false
		}
	}
	return true
}

// seek moves the run-shaped columns on to row r (rows only ascend) and
// returns the first row past the runs r lies in: up to there those
// columns cannot change.
func (rk *rawKeys) seek(r int) int {
	limit := math.MaxInt
	for i := range rk.runs[:rk.nrun] {
		c := &rk.runs[i]
		for int(c.ends[c.at]) <= r {
			c.at++
		}
		limit = min(limit, int(c.ends[c.at]))
	}
	return limit
}

// resolve returns, in a pooled vector the caller PutSels, the key id of
// each of b's rows — those sel names, or all of them — over the key
// columns cols: position i holds the id of row sel[i] (or i), -1 for a
// key the index does not hold unless insert is set, which adds it.
// constant promises that every row holds the same key (the caller read
// it off a zone map), so only the first is looked at.
func (x *keyIndex) resolve(b *storage.Batch, cols []int, sel []int32, insert, constant bool) ([]int32, error) {
	n := b.Len()
	if sel != nil {
		n = len(sel)
	}
	ids := storage.GetSel(n)[:n]
	if n == 0 {
		return ids, nil
	}
	row := func(i int) int {
		if sel != nil {
			return int(sel[i])
		}
		return i
	}
	if !x.ints {
		// The key shape (column kinds and counts) is the same on every
		// row: validate it once.
		if _, err := index.KeyAt(b, cols, row(0)); err != nil {
			storage.PutSel(ids)
			return nil, err
		}
	}
	var rk rawKeys
	for _, ci := range cols {
		c := b.Cols[ci]
		if sc, ok := c.(*storage.StringColumn); ok {
			rk.i32[rk.n32] = sc.Codes()
			rk.n32++
		} else if vals, ends, ok := storage.Runs(c); ok {
			rk.runs[rk.nrun] = keyRuns{vals: vals, ends: ends, slot: rk.n64 + rk.nrun}
			rk.nrun++
		} else {
			rk.i64[rk.n64], rk.slot64[rk.n64] = storage.Int64s(c), rk.n64+rk.nrun
			rk.n64++
		}
	}
	// idAt looks up the key of row r, which seek has reached.
	idAt := func(r int) int32 {
		if x.ints {
			var k intKey
			for j := 0; j < rk.n64; j++ {
				k[rk.slot64[j]] = rk.i64[j][r]
			}
			for j := 0; j < rk.nrun; j++ {
				k[rk.runs[j].slot] = rk.runs[j].vals[rk.runs[j].at]
			}
			return x.intID(k, insert)
		}
		k, _ := index.KeyAt(b, cols, r)
		return x.keyID(k, insert)
	}
	first := row(0)
	limit := rk.seek(first)
	id := idAt(first)
	for i := range ids {
		if r := row(i); !constant && (r >= limit || !rk.same(r, first)) {
			if r >= limit {
				limit = rk.seek(r)
			}
			first, id = r, idAt(r)
		}
		ids[i] = id
	}
	return ids, nil
}
