package table

import (
	"fmt"
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
	pkSeen map[string]bool
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
	} else if len(primaryKey) > 0 {
		t.pkSeen = make(map[string]bool)
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

// Append adds a batch to a metadata table, enforcing primary-key
// uniqueness (the paper defines PKs under every loading variant).
// The resident relation is replaced copy-on-write, so relations handed
// out by Data() are immutable snapshots that concurrent scans can read
// without synchronization while the table keeps growing (e.g. derived
// metadata materialized by another query's Algorithm 1 run).
func (t *Table) Append(b *storage.Batch) error {
	if t.Class == ActualData {
		return fmt.Errorf("table %s: actual-data chunks belong to its chunk store", t.Name)
	}
	if b.Width() != t.Schema.Width() {
		return fmt.Errorf("table %s: batch width %d, schema width %d", t.Name, b.Width(), t.Schema.Width())
	}
	for i, c := range b.Cols {
		if c.Kind() != t.Schema.Cols[i].Kind {
			return fmt.Errorf("table %s: column %d kind %v, want %v", t.Name, i, c.Kind(), t.Schema.Cols[i].Kind)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.pkSeen != nil {
		pkIdx := make([]int, len(t.PrimaryKey))
		for i, pk := range t.PrimaryKey {
			pkIdx[i] = t.Schema.IndexOf(pk)
		}
		n := b.Len()
		for r := 0; r < n; r++ {
			key := ""
			for _, ci := range pkIdx {
				key += fmt.Sprintf("%v|", storage.ValueAt(b.Cols[ci], r))
			}
			if t.pkSeen[key] {
				return fmt.Errorf("table %s: primary key violation: %s", t.Name, key)
			}
			t.pkSeen[key] = true
		}
	}
	// Copy-on-write: the new snapshot shares the parent's batches and
	// inherits its cached zone maps, so a later range scan computes
	// bounds only for the appended tail.
	nd := t.data.CloneForAppend(1)
	nd.Append(b)
	t.data = nd
	return nil
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
