package storage

// The segment codec is the on-disk column encoding of the disk cache
// tier (internal/cache.DiskTier): one encoded "block body" per chunk,
// batch-organized like the in-memory representation so a decode
// reconstitutes the exact batch boundaries the recycler evicted.
//
// Layout of one block body (all integers varint unless noted):
//
//	uvarint  nBatches
//	per batch:
//	  uvarint  nRows
//	  uvarint  nCols
//	  per column:
//	    byte    kind            (segInt64..segRun, decoupled from Kind)
//	    byte    zone.Ok         (1 followed by varint min, varint max)
//	    values  kind-specific   (see below)
//
// Value encodings reuse the SOMW wire primitives (internal/server):
// int64 and time values are zigzag varints of per-column second
// differences (delta-of-delta), with runs of zero second differences
// collapsed to a 0x00 token followed by a uvarint run length. Sample
// timestamps advance by a near-constant period, so a whole column is
// typically one leading delta plus one run token, and the decoder
// reconstitutes it with an arithmetic fill loop instead of a per-value
// varint parse — this is what makes a disk promote decode cheaper than
// a miniSEED re-ingest. float64 is 8-byte little-endian IEEE-754,
// bool is one byte, strings are a dictionary (uvarint count, then
// uvarint length + bytes each) followed by uvarint codes. A run-shaped
// column (segRun) is its value kind byte (segInt64 or segTime), a
// uvarint run count, one varint per run value and one uvarint per run
// length, and decodes back into a RunColumn: a few bytes where a plain
// column walks every row. Framing, CRCs and the footer index are the
// disk tier's concern — the codec sees only body bytes.
//
// The per-column zone bounds are written at encode time (from the
// relation's lazily built zone cache) and seeded back into the decoded
// relation, so a RelScan over a promoted chunk skips disjoint batches
// without a single ColumnZone recomputation.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Segment-codec kind bytes. Decoupled from Kind so the storage enum can
// be reordered without breaking segment files on disk.
const (
	segInt64 byte = iota
	segFloat64
	segBool
	segString
	segTime
	segRun
)

func toSegKind(k Kind) (byte, error) {
	switch k {
	case KindInt64:
		return segInt64, nil
	case KindFloat64:
		return segFloat64, nil
	case KindBool:
		return segBool, nil
	case KindString:
		return segString, nil
	case KindTime:
		return segTime, nil
	}
	return 0, fmt.Errorf("storage: unencodable column kind %v", k)
}

// ErrSegCorrupt wraps every decode failure, so callers can treat any
// malformed body as a corrupt block without inspecting causes.
var ErrSegCorrupt = errors.New("storage: corrupt segment block")

// EncodeRelation appends the segment encoding of rel to buf and
// returns the extended buffer. Relations carrying deferred selections
// cannot be encoded (table-resident chunks never do); the error is the
// caller's cue to skip the spill, not a corruption.
func EncodeRelation(buf []byte, rel *Relation) ([]byte, error) {
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		n := binary.PutUvarint(scratch[:], v)
		buf = append(buf, scratch[:n]...)
	}
	putVarint := func(v int64) {
		n := binary.PutVarint(scratch[:], v)
		buf = append(buf, scratch[:n]...)
	}

	batches := rel.Batches()
	putUvarint(uint64(len(batches)))
	for bi, b := range batches {
		if b.Sel() != nil {
			return nil, fmt.Errorf("storage: cannot encode batch with deferred selection")
		}
		putUvarint(uint64(b.Len()))
		putUvarint(uint64(len(b.Cols)))
		for ci, c := range b.Cols {
			sk, err := toSegKind(c.Kind())
			if err != nil {
				return nil, err
			}
			runVals, runEnds, isRun := Runs(c)
			if isRun {
				buf = append(buf, segRun)
			} else {
				buf = append(buf, sk)
			}
			z := rel.Zone(bi, ci)
			if z.Ok {
				buf = append(buf, 1)
				putVarint(z.Min)
				putVarint(z.Max)
			} else {
				buf = append(buf, 0)
			}
			if isRun {
				buf = append(buf, sk)
				putUvarint(uint64(len(runVals)))
				for _, v := range runVals {
					putVarint(v)
				}
				prev := int32(0)
				for _, e := range runEnds {
					putUvarint(uint64(e - prev))
					prev = e
				}
				continue
			}
			switch sk {
			case segInt64, segTime:
				// Delta-of-delta zigzag with zero-run collapsing: wraparound
				// on the subtractions is harmless — the decoder's cumulative
				// sums wrap identically.
				prev, prevDelta := int64(0), int64(0)
				zeroRun := uint64(0)
				flushRun := func() {
					if zeroRun > 0 {
						buf = append(buf, 0)
						putUvarint(zeroRun)
						zeroRun = 0
					}
				}
				for _, v := range Int64s(c) {
					d := v - prev
					if d == prevDelta {
						zeroRun++
					} else {
						flushRun()
						putVarint(d - prevDelta)
					}
					prev, prevDelta = v, d
				}
				flushRun()
			case segFloat64:
				for _, v := range Float64s(c) {
					var fb [8]byte
					binary.LittleEndian.PutUint64(fb[:], math.Float64bits(v))
					buf = append(buf, fb[:]...)
				}
			case segBool:
				for _, v := range Bools(c) {
					if v {
						buf = append(buf, 1)
					} else {
						buf = append(buf, 0)
					}
				}
			case segString:
				sc := c.(*StringColumn)
				dict := sc.Dict()
				putUvarint(uint64(len(dict)))
				for _, s := range dict {
					putUvarint(uint64(len(s)))
					buf = append(buf, s...)
				}
				for i, n := 0, sc.Len(); i < n; i++ {
					putUvarint(uint64(sc.Code(i)))
				}
			}
		}
	}
	return buf, nil
}

// segReader is a bounds-checked cursor over one block body.
type segReader struct {
	data []byte
	off  int
}

func (r *segReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		return 0, ErrSegCorrupt
	}
	r.off += n
	return v, nil
}

func (r *segReader) varint() (int64, error) {
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		return 0, ErrSegCorrupt
	}
	r.off += n
	return v, nil
}

func (r *segReader) byte() (byte, error) {
	if r.off >= len(r.data) {
		return 0, ErrSegCorrupt
	}
	b := r.data[r.off]
	r.off++
	return b, nil
}

func (r *segReader) bytes(n int) ([]byte, error) {
	if n < 0 || r.off+n > len(r.data) {
		return nil, ErrSegCorrupt
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b, nil
}

// Pooled-or-not allocation helpers: the decoder lands values directly
// in pooled backing when pooling is on (the tentpole's "spilled blocks
// land directly in pooled batches") and falls back to plain
// allocations when it is off, mirroring NewPooledBatch.

func decInt64s(n int) []int64 {
	if pooling.Load() {
		return int64Slices.get(n)[:n]
	}
	return make([]int64, n)
}

func decFloat64s(n int) []float64 {
	if pooling.Load() {
		return float64Slices.get(n)[:n]
	}
	return make([]float64, n)
}

func decBools(n int) []bool {
	if pooling.Load() {
		return boolSlices.get(n)[:n]
	}
	return make([]bool, n)
}

func decIntCol(vals []int64, asTime bool) Column {
	if pooling.Load() {
		return pooledInt64Col(vals, asTime)
	}
	if asTime {
		return NewTimeColumn(vals)
	}
	return NewInt64Column(vals)
}

func decFloatCol(vals []float64) Column {
	if pooling.Load() {
		return pooledFloat64Col(vals)
	}
	return NewFloat64Column(vals)
}

func decBoolCol(vals []bool) Column {
	if pooling.Load() {
		return pooledBoolCol(vals)
	}
	return NewBoolColumn(vals)
}

func decStringCol(dict []string, codes []int32) Column {
	if pooling.Load() {
		return pooledStringCol(dict, codes)
	}
	return &StringColumn{dict: dict, codes: codes}
}

// maxDecodeRows caps the per-batch row count a body may claim, so a
// corrupt length prefix cannot drive a giant allocation before the
// bounds checks catch it.
const maxDecodeRows = 1 << 24

// DecodeRelation decodes one block body produced by EncodeRelation.
// The returned relation is built of pooled batches owned by the caller
// (release with Relation.Release, or Disown before installing it
// somewhere long-lived); its zone cache is pre-seeded from the encoded
// bounds. Any malformed input returns an error wrapping ErrSegCorrupt
// with nothing left checked out of the pools.
func DecodeRelation(data []byte) (*Relation, error) {
	r := &segReader{data: data}
	nBatches, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	// A batch takes at least two bytes and a column two more, so corrupt
	// counts cannot pre-allocate more slots than the body has bytes.
	if nBatches > uint64(len(data))/2 {
		return nil, ErrSegCorrupt
	}
	rel := NewRelationWithCap(int(nBatches))
	zones := make([][]Zone, 0, nBatches)
	fail := func(cols []Column) (*Relation, error) {
		for _, c := range cols {
			PutColumn(c)
		}
		rel.Release()
		return nil, ErrSegCorrupt
	}
	for bi := uint64(0); bi < nBatches; bi++ {
		nRows, err := r.uvarint()
		if err != nil || nRows > maxDecodeRows {
			return fail(nil)
		}
		nCols, err := r.uvarint()
		if err != nil || nCols > 1<<16 || nCols > uint64(len(data)-r.off)/2 {
			return fail(nil)
		}
		cols := make([]Column, 0, nCols)
		zs := make([]Zone, 0, nCols)
		for ci := uint64(0); ci < nCols; ci++ {
			c, z, err := decodeColumn(r, int(nRows))
			if err != nil {
				return fail(cols)
			}
			cols = append(cols, c)
			zs = append(zs, z)
		}
		b := NewPooledBatch(cols...)
		if b.Len() == 0 {
			// Relation.Append ignores empty batches; recycle the header
			// so nothing leaks, and skip the zone entry to keep the seeded
			// cache aligned with the batches actually appended.
			PutBatch(b)
			continue
		}
		// Not Append: a chunk relation keeps its column shapes.
		rel.batches = append(rel.batches, b)
		rel.rows += b.Len()
		zones = append(zones, zs)
	}
	if r.off != len(data) {
		return fail(nil)
	}
	rel.zones.Store(&zones)
	return rel, nil
}

func decodeColumn(r *segReader, nRows int) (Column, Zone, error) {
	sk, err := r.byte()
	if err != nil {
		return nil, Zone{}, err
	}
	var z Zone
	zok, err := r.byte()
	if err != nil {
		return nil, Zone{}, err
	}
	if zok == 1 {
		if z.Min, err = r.varint(); err != nil {
			return nil, Zone{}, err
		}
		if z.Max, err = r.varint(); err != nil {
			return nil, Zone{}, err
		}
		z.Ok = true
	} else if zok != 0 {
		return nil, Zone{}, ErrSegCorrupt
	}
	switch sk {
	case segRun:
		c, err := decodeRuns(r, nRows)
		return c, z, err
	case segInt64, segTime:
		vals := decInt64s(nRows)
		// Hand-rolled cursor: the generic r.varint() slice-and-call per
		// value would dominate a block decode. A 0x00 token (zigzag
		// zero) is a run of zero second differences — the column
		// continues its current arithmetic progression — so the common
		// case is one run-length read and a tight fill loop instead of
		// a per-value varint parse.
		data, off := r.data, r.off
		corrupt := func() (Column, Zone, error) {
			int64Slices.put(vals)
			return nil, Zone{}, ErrSegCorrupt
		}
		prev, prevDelta := int64(0), int64(0)
		for i := 0; i < len(vals); {
			if off >= len(data) {
				return corrupt()
			}
			if b := data[off]; b == 0 {
				off++
				runLen, n := binary.Uvarint(data[off:])
				if n <= 0 || runLen == 0 || runLen > uint64(len(vals)-i) {
					return corrupt()
				}
				off += n
				// Fill by multiplication rather than a running sum: the
				// iterations are independent, so the loop is not stuck
				// behind a serial add chain.
				base := prev
				for k := int64(1); k <= int64(runLen); k++ {
					vals[i] = base + prevDelta*k
					i++
				}
				prev = base + prevDelta*int64(runLen)
				continue
			} else if b < 0x80 {
				off++
				u := uint64(b)
				prevDelta += int64(u>>1) ^ -int64(u&1)
			} else {
				d2, n := binary.Varint(data[off:])
				if n <= 0 {
					return corrupt()
				}
				off += n
				prevDelta += d2
			}
			prev += prevDelta
			vals[i] = prev
			i++
		}
		r.off = off
		return decIntCol(vals, sk == segTime), z, nil
	case segFloat64:
		raw, err := r.bytes(nRows * 8)
		if err != nil {
			return nil, Zone{}, err
		}
		vals := decFloat64s(nRows)
		for i := range vals {
			// Advancing the slice instead of indexing raw[i*8:] lets the
			// compiler drop the per-iteration multiply and bounds check.
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw))
			raw = raw[8:]
		}
		return decFloatCol(vals), z, nil
	case segBool:
		vals := decBools(nRows)
		for i := range vals {
			b, err := r.byte()
			if err != nil || b > 1 {
				boolSlices.put(vals)
				return nil, Zone{}, ErrSegCorrupt
			}
			vals[i] = b == 1
		}
		return decBoolCol(vals), z, nil
	case segString:
		nDict, err := r.uvarint()
		if err != nil || nDict > maxDecodeRows {
			return nil, Zone{}, ErrSegCorrupt
		}
		dict := make([]string, nDict)
		for i := range dict {
			sl, err := r.uvarint()
			if err != nil || sl > 1<<20 {
				return nil, Zone{}, ErrSegCorrupt
			}
			sb, err := r.bytes(int(sl))
			if err != nil {
				return nil, Zone{}, err
			}
			dict[i] = string(sb)
		}
		var codes []int32
		if pooling.Load() {
			codes = GetSel(nRows)[:nRows]
		} else {
			codes = make([]int32, nRows)
		}
		for i := range codes {
			cv, err := r.uvarint()
			if err != nil || cv >= nDict {
				PutSel(codes)
				return nil, Zone{}, ErrSegCorrupt
			}
			codes[i] = int32(cv)
		}
		return decStringCol(dict, codes), z, nil
	}
	return nil, Zone{}, ErrSegCorrupt
}

// decodeRuns decodes the body of a segRun column of nRows rows. Run
// columns are never pooled, so a failure leaves nothing checked out.
func decodeRuns(r *segReader, nRows int) (Column, error) {
	kind := KindInt64
	switch sk, err := r.byte(); {
	case err != nil:
		return nil, err
	case sk == segTime:
		kind = KindTime
	case sk != segInt64:
		return nil, ErrSegCorrupt
	}
	// A run covers at least one row and takes at least two bytes, so a
	// corrupt count can demand neither more runs than rows nor more
	// memory than the body is long.
	nRuns, err := r.uvarint()
	if err != nil || nRuns > uint64(nRows) || nRuns > uint64(len(r.data)-r.off)/2 {
		return nil, ErrSegCorrupt
	}
	vals, ends := make([]int64, nRuns), make([]int32, nRuns)
	for i := range vals {
		if vals[i], err = r.varint(); err != nil {
			return nil, err
		}
	}
	end := uint64(0)
	for i := range ends {
		n, err := r.uvarint()
		if err != nil || n == 0 || n > uint64(nRows)-end {
			return nil, ErrSegCorrupt
		}
		end += n
		ends[i] = int32(end)
	}
	if end != uint64(nRows) {
		return nil, ErrSegCorrupt
	}
	return &RunColumn{kind: kind, vals: vals, ends: ends}, nil
}
