package table

import (
	"cmp"
	"fmt"
	"sort"
	"strings"
	"sync"

	"sommelier/internal/chunkstore"
	"sommelier/internal/storage"
)

// Class is the partial-loading class of a table.
type Class uint8

// Table classes: given metadata is eagerly loaded and small; derived
// metadata is a partially materialized view; actual data is chunked and
// lazily loaded.
const (
	GivenMetadata Class = iota
	DerivedMetadata
	ActualData
)

// String names the class.
func (c Class) String() string {
	switch c {
	case GivenMetadata:
		return "GMd"
	case DerivedMetadata:
		return "DMd"
	case ActualData:
		return "AD"
	default:
		return "?"
	}
}

// IsMetadata reports whether the class is given or derived metadata —
// the "red" vertices of the paper's colored query graph.
func (c Class) IsMetadata() bool { return c == GivenMetadata || c == DerivedMetadata }

// Table is a named, classed relation. Metadata tables hold one resident
// relation; actual-data tables hold one relation per ingested chunk,
// keyed by chunk ID, so chunks can be ingested, processed in parallel
// and evicted independently (the paper's "separate table per file").
// An actual-data table's chunks — resident, loading, evicted — belong
// to its chunk store (Chunks).
//
// Tables are safe for concurrent use.
type Table struct {
	Name       string
	Class      Class
	Schema     Schema
	PrimaryKey []string
	// ChunkKey names the column of an actual-data table that carries
	// the owning chunk's ID (e.g. "file_id" in D). Empty for
	// metadata tables.
	ChunkKey string
	// SegmentKey names the column of an actual-data table that carries
	// the segment of its chunk a row belongs to (e.g. "segment_id" in
	// D): the unit the loader can load a chunk by. Empty: chunks load
	// whole.
	SegmentKey string

	mu     sync.RWMutex
	data   *storage.Relation
	chunks *chunkstore.Store
}

// New creates an empty table. For ActualData tables chunkKey must name
// a schema column.
func New(name string, class Class, schema Schema, primaryKey []string, chunkKey string) (*Table, error) {
	for _, pk := range primaryKey {
		if schema.IndexOf(pk) < 0 {
			return nil, fmt.Errorf("table %s: primary key column %q not in schema", name, pk)
		}
	}
	if class == ActualData {
		if chunkKey == "" || schema.IndexOf(chunkKey) < 0 {
			return nil, fmt.Errorf("table %s: actual-data table needs a chunk key column, got %q", name, chunkKey)
		}
	} else if chunkKey != "" {
		return nil, fmt.Errorf("table %s: chunk key on non actual-data table", name)
	}
	t := &Table{
		Name:       name,
		Class:      class,
		Schema:     schema,
		PrimaryKey: primaryKey,
		ChunkKey:   chunkKey,
		data:       storage.NewRelation(),
	}
	if class == ActualData {
		t.chunks = chunkstore.New(name)
	}
	return t, nil
}

// MustNew is New that panics on error.
func MustNew(name string, class Class, schema Schema, primaryKey []string, chunkKey string) *Table {
	t, err := New(name, class, schema, primaryKey, chunkKey)
	if err != nil {
		panic(err)
	}
	return t
}

// Append is Merge(b, false): an equal key is a primary-key violation
// (the paper defines PKs under every loading variant).
func (t *Table) Append(b *storage.Batch) error { return t.Merge(b, false) }

// Merge merges b, its rows in ascending primary-key order, into a
// metadata table, which keeps its rows in key order as
// storage.BatchSize batches, so zone maps bound key ranges. A row whose
// key the table holds replaces it under replace and is a primary-key
// violation otherwise; a refused merge changes nothing. The relation is
// replaced copy-on-write, so snapshots from Data() stay immutable. The
// new one shares, with their zone maps, the batches before the first
// that b's keys reach; the rest, always with the last batch so kept
// batches stay full, is rebuilt: rows past the last key cost about one
// batch.
func (t *Table) Merge(b *storage.Batch, replace bool) error {
	if err := t.check(b); err != nil || b.Len() == 0 {
		return err
	}
	b, pk := b.Materialize(), t.pkIdx()
	for r := 1; r < b.Len(); r++ {
		if compareKeys(pk, b, r-1, b, r) >= 0 {
			return fmt.Errorf("table %s: batch row %d out of primary-key order", t.Name, r)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.data.Batches()
	k := max(0, min(len(old)-1, sort.Search(len(old), func(i int) bool {
		return compareKeys(pk, old[i], old[i].Len()-1, b, 0) >= 0
	})))
	tail := storage.NewRelationWithCap(len(old) - k + 1)
	for _, ob := range old[k:] {
		tail.Append(ob)
	}
	n := tail.Rows()
	tail.Append(b)
	rows := tail.Flatten()
	// Rows [0, n) are the table's, [n, Len) b's: merge the two runs.
	order := make([]int32, 0, rows.Len())
	for i, j := 0, n; i < n || j < rows.Len(); {
		c := 1 // which row comes first: < 0 the table's i, > 0 b's j
		if j == rows.Len() {
			c = -1
		} else if i < n {
			c = compareKeys(pk, rows, i, rows, j)
		}
		if c == 0 && !replace {
			return fmt.Errorf("table %s: primary key violation at row %d", t.Name, j-n)
		}
		if c <= 0 {
			i++ // on an equal key, b's row replaces the table's
		}
		if c < 0 {
			order = append(order, int32(i-1))
		} else {
			order = append(order, int32(j))
			j++
		}
	}
	merged := rows.Gather(order)
	t.data = t.data.Head(k, (len(order)+storage.BatchSize-1)/storage.BatchSize)
	for lo := 0; lo < len(order); lo += storage.BatchSize {
		t.data.Append(merged.Slice(lo, min(lo+storage.BatchSize, len(order))))
	}
	return nil
}

// check validates a batch's shape against the schema.
func (t *Table) check(b *storage.Batch) error {
	if t.Class == ActualData {
		return fmt.Errorf("table %s: actual-data chunks belong to its chunk store", t.Name)
	}
	if len(t.PrimaryKey) == 0 {
		return fmt.Errorf("table %s: a metadata table needs a primary key", t.Name)
	}
	if b.Width() != t.Schema.Width() {
		return fmt.Errorf("table %s: batch width %d, schema width %d", t.Name, b.Width(), t.Schema.Width())
	}
	for i, c := range b.Cols {
		if c.Kind() != t.Schema.Cols[i].Kind {
			return fmt.Errorf("table %s: column %d kind %v, want %v", t.Name, i, c.Kind(), t.Schema.Cols[i].Kind)
		}
	}
	return nil
}

// pkIdx returns the schema positions of the primary-key columns.
func (t *Table) pkIdx() []int {
	idx := make([]int, len(t.PrimaryKey))
	for i, pk := range t.PrimaryKey {
		idx[i] = t.Schema.IndexOf(pk)
	}
	return idx
}

// compareKeys orders row i of a and row j of b by the key columns pk,
// lexicographically. Keys are strings, floats, int64s or times.
func compareKeys(pk []int, a *storage.Batch, i int, b *storage.Batch, j int) int {
	for _, c := range pk {
		var d int
		switch x, y := a.Cols[c], b.Cols[c]; x.Kind() {
		case storage.KindString:
			d = strings.Compare(storage.StringAt(x, i), storage.StringAt(y, j))
		case storage.KindFloat64:
			d = cmp.Compare(storage.Float64s(x)[i], storage.Float64s(y)[j])
		default: // int64 and time
			d = cmp.Compare(storage.Int64s(x)[i], storage.Int64s(y)[j])
		}
		if d != 0 {
			return d
		}
	}
	return 0
}

// Data returns the resident relation of a metadata table: an immutable
// snapshot that later Appends will not mutate.
func (t *Table) Data() *storage.Relation {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.data
}

// Chunks is an actual-data table's chunk store (nil for metadata).
func (t *Table) Chunks() *chunkstore.Store { return t.chunks }

// Rows reports the number of resident rows (all chunks for AD tables).
func (t *Table) Rows() int {
	if t.Class == ActualData {
		return t.chunks.Rows()
	}
	return t.Data().Rows()
}

// MemSize estimates resident bytes.
func (t *Table) MemSize() int64 {
	if t.Class == ActualData {
		return t.chunks.Stats().ResidentBytes
	}
	return t.Data().MemSize()
}
