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

// maxDecodeRows caps the row count one batch may claim and the plain
// values one body may hold, so a corrupt length prefix cannot drive a
// giant allocation before the bounds checks catch it.
const maxDecodeRows = 1 << 24

// DecodeRelation decodes one block body produced by EncodeRelation into
// fresh memory: DecodeRelationInto without a ChunkMem.
func DecodeRelation(data []byte) (*Relation, error) {
	return DecodeRelationInto(data, nil)
}

// DecodeRelationInto decodes one block body produced by EncodeRelation.
// Its plain int64/time and float64 columns land in one arena taken from
// mem, sized exactly by a first walk over the body, and its run columns
// in one slab of runs; nothing is pooled, so the relation needs no
// release. Its zone cache is pre-seeded from the encoded bounds. Any
// malformed input returns an error wrapping ErrSegCorrupt; the arena
// mem took (if any) is then the caller's to reuse.
func DecodeRelationInto(data []byte, mem *ChunkMem) (*Relation, error) {
	size := segDecoder{segReader: segReader{data: data}, sizing: true}
	if _, err := size.relation(); err != nil {
		return nil, err
	}
	if size.nInts > maxDecodeRows || size.nFloats > maxDecodeRows {
		return nil, ErrSegCorrupt
	}
	a := mem.TakeArena(size.nInts, size.nFloats)
	d := segDecoder{
		segReader: segReader{data: data},
		ints:      a.Ints,
		floats:    a.Floats,
		runVals:   make([]int64, size.nRuns),
		runEnds:   make([]int32, size.nRuns),
	}
	return d.relation()
}

// segDecoder walks a block body twice. Sizing only counts the plain and
// run values the body holds and checks its framing; decoding then cuts
// every column off an arena and a run slab of exactly those sizes.
type segDecoder struct {
	segReader
	sizing                bool
	nInts, nFloats, nRuns int
	ints, runVals         []int64
	floats                []float64
	runEnds               []int32
}

func (d *segDecoder) relation() (*Relation, error) {
	nBatches, err := d.uvarint()
	// A batch takes at least two bytes and a column two more, so corrupt
	// counts cannot pre-allocate more slots than the body has bytes.
	if err != nil || nBatches > uint64(len(d.data))/2 {
		return nil, ErrSegCorrupt
	}
	var (
		batches []*Batch
		zones   [][]Zone
	)
	if !d.sizing {
		batches, zones = make([]*Batch, 0, nBatches), make([][]Zone, 0, nBatches)
	}
	for bi := uint64(0); bi < nBatches; bi++ {
		nRows, err := d.uvarint()
		if err != nil || nRows > maxDecodeRows {
			return nil, ErrSegCorrupt
		}
		nCols, err := d.uvarint()
		if err != nil || nCols > 1<<16 || nCols > uint64(len(d.data)-d.off)/2 {
			return nil, ErrSegCorrupt
		}
		var (
			cols []Column
			zs   []Zone
		)
		if !d.sizing {
			cols, zs = make([]Column, 0, nCols), make([]Zone, 0, nCols)
		}
		for ci := uint64(0); ci < nCols; ci++ {
			c, z, err := d.column(int(nRows))
			if err != nil {
				return nil, ErrSegCorrupt
			}
			if !d.sizing {
				cols, zs = append(cols, c), append(zs, z)
			}
		}
		if d.sizing || nCols == 0 {
			// A batch without columns is dropped, zone entry and all,
			// keeping the seeded cache aligned. An empty one is kept: it
			// holds the place of a segment a chunk load skipped.
			continue
		}
		// Not Append: a chunk relation keeps its column shapes.
		batches, zones = append(batches, NewBatch(cols...)), append(zones, zs)
	}
	if d.off != len(d.data) {
		return nil, ErrSegCorrupt
	}
	if d.sizing {
		return nil, nil
	}
	rel := &Relation{batches: batches}
	for _, b := range batches {
		rel.rows += b.Len()
	}
	rel.zones.Store(&zones)
	return rel, nil
}

// column reads one column of nRows rows: its kind, zone and values. A
// sizing walk returns a nil column.
func (d *segDecoder) column(nRows int) (Column, Zone, error) {
	sk, err := d.byte()
	if err != nil {
		return nil, Zone{}, err
	}
	var z Zone
	zok, err := d.byte()
	if err != nil {
		return nil, Zone{}, err
	}
	if zok == 1 {
		if z.Min, err = d.varint(); err != nil {
			return nil, Zone{}, err
		}
		if z.Max, err = d.varint(); err != nil {
			return nil, Zone{}, err
		}
		z.Ok = true
	} else if zok != 0 {
		return nil, Zone{}, ErrSegCorrupt
	}
	switch sk {
	case segRun:
		c, err := d.runs(nRows)
		return c, z, err
	case segInt64, segTime:
		var vals []int64
		if d.sizing {
			d.nInts += nRows
		} else {
			vals = carve(&d.ints, nRows)
		}
		if err := d.deltas(vals, nRows); err != nil || d.sizing {
			return nil, z, err
		}
		if sk == segTime {
			return NewTimeColumn(vals), z, nil
		}
		return NewInt64Column(vals), z, nil
	case segFloat64:
		raw, err := d.bytes(nRows * 8)
		if err != nil || d.sizing {
			d.nFloats += nRows
			return nil, z, err
		}
		vals := carve(&d.floats, nRows)
		for i := range vals {
			// Advancing the slice instead of indexing raw[i*8:] lets the
			// compiler drop the per-iteration multiply and bounds check.
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw))
			raw = raw[8:]
		}
		return NewFloat64Column(vals), z, nil
	case segBool:
		raw, err := d.bytes(nRows)
		if err != nil || d.sizing {
			return nil, z, err
		}
		vals := make([]bool, nRows)
		for i, b := range raw {
			if b > 1 {
				return nil, Zone{}, ErrSegCorrupt
			}
			vals[i] = b == 1
		}
		return NewBoolColumn(vals), z, nil
	case segString:
		nDict, err := d.uvarint()
		if err != nil || nDict > maxDecodeRows || nDict > uint64(len(d.data)-d.off) {
			return nil, Zone{}, ErrSegCorrupt
		}
		var dict []string
		if !d.sizing {
			dict = make([]string, nDict)
		}
		for i := uint64(0); i < nDict; i++ {
			sl, err := d.uvarint()
			if err != nil || sl > 1<<20 {
				return nil, Zone{}, ErrSegCorrupt
			}
			sb, err := d.bytes(int(sl))
			if err != nil {
				return nil, Zone{}, err
			}
			if !d.sizing {
				dict[i] = string(sb)
			}
		}
		if nRows > len(d.data)-d.off {
			return nil, Zone{}, ErrSegCorrupt // a code takes at least a byte
		}
		var codes []int32
		if !d.sizing {
			codes = make([]int32, nRows)
		}
		for i := 0; i < nRows; i++ {
			cv, err := d.uvarint()
			if err != nil || cv >= nDict {
				return nil, Zone{}, ErrSegCorrupt
			}
			if !d.sizing {
				codes[i] = int32(cv)
			}
		}
		if d.sizing {
			return nil, z, nil
		}
		return &StringColumn{dict: dict, codes: codes}, z, nil
	}
	return nil, Zone{}, ErrSegCorrupt
}

// deltas decodes nRows delta-of-delta values into vals — or, with vals
// nil, only finds where they end. A hand-rolled cursor: the generic
// r.varint() slice-and-call per value would dominate a block decode. A
// 0x00 token (zigzag zero) is a run of zero second differences — the
// column continues its current arithmetic progression — so the common
// case is one run-length read and a tight fill loop instead of a
// per-value varint parse.
func (d *segDecoder) deltas(vals []int64, nRows int) error {
	data, off := d.data, d.off
	prev, prevDelta := int64(0), int64(0)
	for i := 0; i < nRows; {
		if off >= len(data) {
			return ErrSegCorrupt
		}
		if b := data[off]; b == 0 {
			off++
			runLen, n := binary.Uvarint(data[off:])
			if n <= 0 || runLen == 0 || runLen > uint64(nRows-i) {
				return ErrSegCorrupt
			}
			off += n
			if vals != nil {
				// Fill by multiplication rather than a running sum: the
				// iterations are independent, so the loop is not stuck
				// behind a serial add chain.
				run := vals[i : i+int(runLen)]
				for k := range run {
					run[k] = prev + prevDelta*int64(k+1)
				}
			}
			i += int(runLen)
			prev += prevDelta * int64(runLen)
			continue
		} else if b < 0x80 {
			off++
			u := uint64(b)
			prevDelta += int64(u>>1) ^ -int64(u&1)
		} else {
			d2, n := binary.Varint(data[off:])
			if n <= 0 {
				return ErrSegCorrupt
			}
			off += n
			prevDelta += d2
		}
		prev += prevDelta
		if vals != nil {
			vals[i] = prev
		}
		i++
	}
	d.off = off
	return nil
}

// runs reads the body of a segRun column of nRows rows, cutting its
// values and ends off the decoder's run slab.
func (d *segDecoder) runs(nRows int) (Column, error) {
	kind := KindInt64
	switch sk, err := d.byte(); {
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
	nRuns, err := d.uvarint()
	if err != nil || nRuns > uint64(nRows) || nRuns > uint64(len(d.data)-d.off)/2 {
		return nil, ErrSegCorrupt
	}
	if d.sizing {
		d.nRuns += int(nRuns)
		// A varint is framed like a uvarint: skip values and lengths.
		for i := uint64(0); i < 2*nRuns; i++ {
			if _, err := d.uvarint(); err != nil {
				return nil, err
			}
		}
		return nil, nil
	}
	vals, ends := carve(&d.runVals, int(nRuns)), carve(&d.runEnds, int(nRuns))
	for i := range vals {
		if vals[i], err = d.varint(); err != nil {
			return nil, err
		}
	}
	end := uint64(0)
	for i := range ends {
		n, err := d.uvarint()
		if err != nil || n == 0 || n > uint64(nRows)-end {
			return nil, ErrSegCorrupt
		}
		end += n
		ends[i] = int32(end)
	}
	if end != uint64(nRows) {
		return nil, ErrSegCorrupt
	}
	return &RunColumn{vals: intColumn(kind, vals), ends: ends}, nil
}
