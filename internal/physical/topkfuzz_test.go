package physical

import (
	"math"
	"testing"
	"time"

	"sommelier/internal/expr"
	"sommelier/internal/storage"
)

// The probe schema of the top-k fuzz target: a join key, a filter flag,
// a float and a time key.
var (
	topkNames = []string{"D.id", "D.keep", "D.v", "D.w"}
	topkKinds = []storage.Kind{storage.KindInt64, storage.KindInt64, storage.KindFloat64, storage.KindTime}
)

// topkKey decodes a float key from one byte: a small range with many
// ties, +0 among them, and −0, ±Inf and NaN at the top codes.
func topkKey(b byte, off int) float64 {
	switch b {
	case 0xff:
		return math.NaN()
	case 0xfe:
		return math.Copysign(0, -1)
	case 0xfd:
		return math.Inf(1)
	case 0xfc:
		return math.Inf(-1)
	}
	return float64(int(int8(b))/4 + off)
}

// topkRels cuts data, two bytes a row, into batches of rows rows over
// relations of up to three batches each: chunk relations with seeded
// zones (ColumnZone, as the chunk build seeds them), or relations built
// by Append whose zones are computed on first use. Batch i's keys are
// shifted by i·drift, so zones drift apart.
func topkRels(data []byte, rows, drift int, seeded bool) []*storage.Relation {
	var rels []*storage.Relation
	var bs []*storage.Batch
	flush := func() {
		if len(bs) == 0 {
			return
		}
		if seeded {
			zones := make([][]storage.Zone, len(bs))
			for i, b := range bs {
				for _, c := range b.Cols {
					zones[i] = append(zones[i], storage.ColumnZone(c))
				}
			}
			rels = append(rels, storage.NewChunkRelation(bs, zones))
		} else {
			rel := storage.NewRelation()
			for _, b := range bs {
				rel.Append(b)
			}
			rels = append(rels, rel)
		}
		bs = nil
	}
	for bi, lo := 0, 0; lo+1 < len(data); bi, lo = bi+1, lo+2*rows {
		hi := min(lo+2*rows, len(data)&^1)
		n := (hi - lo) / 2
		ids, keep, vs, ws := make([]int64, n), make([]int64, n), make([]float64, n), make([]int64, n)
		for i := range n {
			kb, fb := data[lo+2*i], data[lo+2*i+1]
			ids[i], keep[i] = int64(fb&7), int64(fb>>3&1)
			vs[i], ws[i] = topkKey(kb, bi*drift), int64(int(int8(kb))/4+bi*drift)
		}
		bs = append(bs, storage.NewBatch(storage.NewInt64Column(ids), storage.NewInt64Column(keep),
			storage.NewFloat64Column(vs), storage.NewTimeColumn(ws)))
		if len(bs) == 1+bi%3 {
			flush()
		}
	}
	flush()
	return rels
}

// FuzzTopK runs TopK over a multi-batch zoned relation with its bound
// active — the scan skipping batches that cannot rank — and compares it
// row for row, bit for bit, with Sort + Limit over the same pipeline:
// ascending and descending, a float or a time key, NaN, ±0 and ±Inf
// among the keys, ties at the k-th place, k past the input, batches
// with and without a selection, and a Filter, a Project or an inner
// hash join (unique or duplicate build keys) between scan and TopK,
// each optionally profiled as the executor wraps it.
func FuzzTopK(f *testing.F) {
	f.Add([]byte("top-k over zoned batches: \x00\x07\x80\xff\xfe\xfd\xfc\x10\x20\x7f\x7e"), uint8(0), uint8(3), uint8(10))
	f.Add([]byte{0xff, 0x01, 0xff, 0x09, 0x05, 0x02, 0xfe, 0x03, 0x00, 0x08, 0xff, 0x0a, 0x04, 0x01}, uint8(0x01), uint8(1), uint8(2))
	f.Add([]byte("ties at the tenth place \x04\x04\x04\x04\x05\x05\x05\x05"), uint8(0x1e), uint8(4), uint8(10))
	f.Add([]byte("ascending, the time key, a join \x81\x82\x83\x84\xfc\xfc"), uint8(0x63), uint8(5), uint8(7))
	f.Add([]byte("k past the input"), uint8(0xa4), uint8(2), uint8(200))
	f.Add([]byte("\xfe\x00\x00\x01\xfe\x02\x00\x03\x00\x04\xfe\x05"), uint8(0x3a), uint8(1), uint8(1))
	f.Add([]byte("drifting zones so later batches win \x10\x20\x30\x40\x50\x60\x70"), uint8(0x85), uint8(3), uint8(4))
	f.Add([]byte("projected, profiled and filtered \x90\xa0\xb0\xc0\xd0\xe0\xf0"), uint8(0xdd), uint8(6), uint8(3))
	// A NaN among ties: Sort and TopK must order it alike.
	f.Add([]byte("08080808\x9c8\x978080808\xc98\xbd8080808\xff8080808080808"), uint8(0x70), uint8(1), uint8(0x70))
	// A NaN in a late batch, which ranks first ascending: its zone must
	// not let the bound skip it.
	f.Add([]byte("0000080000080808000800000800000008000800\xff8"), uint8(0x79), uint8(0x63), uint8(0xc8))
	f.Fuzz(func(t *testing.T, data []byte, shape, batch, kb uint8) {
		desc, timeKey, seeded := shape&1 == 0, shape&2 != 0, shape&4 == 0
		drift := []int{0, 1, -1, 3}[shape>>3&3]
		rels := topkRels(data, 1+int(batch)%48, drift, seeded)
		var scanPred expr.Expr
		if shape&0x20 != 0 {
			scanPred = expr.NewCmp(expr.EQ, expr.Col("D.keep"), expr.Int(1))
		}
		profiled := shape&0x80 != 0
		key := 2
		if timeKey {
			key = 3
		}
		// build returns the pipeline under TopK, the key's position in
		// its output, and the scan.
		build := func() (Operator, int, *RelScan) {
			s, err := NewMultiRelScan(rels, topkNames, topkKinds, scanPred)
			if err != nil {
				t.Fatal(err)
			}
			var op Operator = s
			wrap := func(o Operator) Operator {
				if profiled {
					return NewProfiled(o, time.Now())
				}
				return o
			}
			op = wrap(op)
			col := key
			switch shape >> 6 {
			case 1: // Filter
				fl, err := NewFilter(op, expr.NewCmp(expr.NE, expr.Col("D.id"), expr.Int(3)))
				if err != nil {
					t.Fatal(err)
				}
				op = wrap(fl)
			case 2: // Project: the key bare, behind a computed column
				p, err := NewProject(op, []string{"x", "k", "D.id"}, []expr.Expr{
					expr.NewArith(expr.Add, expr.Col("D.id"), expr.Int(1)), expr.Col(topkNames[key]), expr.Col("D.id")})
				if err != nil {
					t.Fatal(err)
				}
				op, col = wrap(p), 1
			case 3: // inner join on D.id, the key on the probe side
				ids := []int64{0, 1, 2, 4, 5, 6}
				if shape&0x10 != 0 {
					ids = append(ids, 1, 5) // duplicate build keys: the gathering probe
				}
				names := make([]string, len(ids))
				for i := range names {
					names[i] = "B" + itoa(int(ids[i]))
				}
				brel := storage.NewRelation()
				brel.Append(storage.NewBatch(storage.NewInt64Column(ids), storage.NewStringColumn(names)))
				bs, err := NewRelScan(brel, []string{"B.id", "B.s"}, []storage.Kind{storage.KindInt64, storage.KindString}, nil)
				if err != nil {
					t.Fatal(err)
				}
				j, err := NewHashJoinCols(wrap(bs), op, []int{0}, []int{0}, []int{1, 2 + key, 2})
				if err != nil {
					t.Fatal(err)
				}
				op, col = wrap(j), 1
			}
			return op, col, s
		}
		k := int(kb) % 64
		in, col, scan := build()
		keys := []SortKey{{Col: col, Desc: desc}}
		tk, err := NewTopK(in, keys, k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Collect(tk, DrainOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if k > 0 && scan.rank == nil {
			t.Fatal("the scan took no bound")
		}
		ref, _, _ := build()
		srt, err := NewSort(ref, keys)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Collect(NewLimit(srt, k), DrainOpts{})
		if err != nil {
			t.Fatal(err)
		}
		sameRelation(t, got, want, "topk vs sort+limit")
	})
}
