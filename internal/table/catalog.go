package table

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// JoinPred is an equality join predicate between two table columns,
// written as qualified names ("F.file_id" = "S.file_id").
type JoinPred struct {
	Left, Right string
}

// View is a named (non-materialized) join of base tables — the paper's
// dataview and windowdataview "universal tables". Queries are written
// against views; the planner expands them into join plans.
type View struct {
	Name   string
	Tables []string
	Joins  []JoinPred
}

// ForeignKey declares that every value of Table.Column references
// RefTable.RefColumn. Under eager_index loading these become join
// indexes; under lazy loading they are omitted (system-generated keys
// are correct by construction, as the paper argues).
type ForeignKey struct {
	Table, Column       string
	RefTable, RefColumn string
}

// RangeMapping declares that the values of an actual-data column are
// bounded per chunk by two metadata columns (all qualified names): a
// sample's timestamp lies within its segment's [Lo, Hi) interval. The
// planner uses mappings to infer metadata predicates from actual-data
// range predicates, so the metadata branch Qf prunes chunks by time —
// the reason the paper's 2-day query loads only 2 files.
type RangeMapping struct {
	ADColumn string // e.g. "D.sample_time"
	MdLo     string // e.g. "S.start_time"
	MdHi     string // e.g. "S.end_time"
	// Trunc, when set, names a column of ADColumn's table holding
	// ADColumn truncated down to a multiple of TruncWidth (e.g.
	// "D.window_ts", an hourly window start). Its values then lie in
	// (Lo − TruncWidth, Hi), which lets the planner band a join of the
	// bounding metadata to whatever Trunc is equated with.
	Trunc      string
	TruncWidth time.Duration
}

// Catalog is the schema registry: tables, views and foreign keys.
type Catalog struct {
	mu       sync.RWMutex
	tables   map[string]*Table
	views    map[string]*View
	fks      []ForeignKey
	mappings []RangeMapping
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{
		tables: make(map[string]*Table),
		views:  make(map[string]*View),
	}
}

// AddTable registers a table; names must be unique across tables and
// views.
func (c *Catalog) AddTable(t *Table) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.tables[t.Name]; dup {
		return fmt.Errorf("catalog: duplicate table %q", t.Name)
	}
	if _, dup := c.views[t.Name]; dup {
		return fmt.Errorf("catalog: table %q collides with a view", t.Name)
	}
	c.tables[t.Name] = t
	return nil
}

// Table looks up a table by name.
func (c *Catalog) Table(name string) (*Table, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[name]
	return t, ok
}

// Tables returns all tables sorted by name.
func (c *Catalog) Tables() []*Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Table, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// AddView registers a view after validating that its tables and join
// columns exist.
func (c *Catalog) AddView(v *View) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.views[v.Name]; dup {
		return fmt.Errorf("catalog: duplicate view %q", v.Name)
	}
	if _, dup := c.tables[v.Name]; dup {
		return fmt.Errorf("catalog: view %q collides with a table", v.Name)
	}
	for _, tn := range v.Tables {
		if _, ok := c.tables[tn]; !ok {
			return fmt.Errorf("catalog: view %q references unknown table %q", v.Name, tn)
		}
	}
	for _, j := range v.Joins {
		for _, side := range []string{j.Left, j.Right} {
			tab, col, err := SplitQualified(side)
			if err != nil {
				return fmt.Errorf("catalog: view %q: %v", v.Name, err)
			}
			t, ok := c.tables[tab]
			if !ok {
				return fmt.Errorf("catalog: view %q joins unknown table %q", v.Name, tab)
			}
			if t.Schema.IndexOf(col) < 0 {
				return fmt.Errorf("catalog: view %q joins unknown column %q", v.Name, side)
			}
		}
	}
	c.views[v.Name] = v
	return nil
}

// View looks up a view by name.
func (c *Catalog) View(name string) (*View, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	v, ok := c.views[name]
	return v, ok
}

// AddForeignKey registers a foreign-key declaration.
func (c *Catalog) AddForeignKey(fk ForeignKey) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[fk.Table]
	if !ok {
		return fmt.Errorf("catalog: FK on unknown table %q", fk.Table)
	}
	if t.Schema.IndexOf(fk.Column) < 0 {
		return fmt.Errorf("catalog: FK on unknown column %s.%s", fk.Table, fk.Column)
	}
	rt, ok := c.tables[fk.RefTable]
	if !ok {
		return fmt.Errorf("catalog: FK references unknown table %q", fk.RefTable)
	}
	if rt.Schema.IndexOf(fk.RefColumn) < 0 {
		return fmt.Errorf("catalog: FK references unknown column %s.%s", fk.RefTable, fk.RefColumn)
	}
	c.fks = append(c.fks, fk)
	return nil
}

// ForeignKeys returns the declared foreign keys.
func (c *Catalog) ForeignKeys() []ForeignKey {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]ForeignKey(nil), c.fks...)
}

// AddRangeMapping registers a chunk-bounding declaration after
// validating its columns; a Trunc column must sit in ADColumn's table
// and come with a positive width.
func (c *Catalog) AddRangeMapping(m RangeMapping) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	cols := []string{m.ADColumn, m.MdLo, m.MdHi}
	if m.Trunc != "" {
		adTab, _, err := SplitQualified(m.ADColumn)
		if err != nil {
			return err
		}
		if tab, _, err := SplitQualified(m.Trunc); err != nil || tab != adTab || m.TruncWidth <= 0 {
			return fmt.Errorf("catalog: range mapping truncation %q (width %v) is not a column of %s with a positive width", m.Trunc, m.TruncWidth, adTab)
		}
		cols = append(cols, m.Trunc)
	}
	for _, q := range cols {
		tab, col, err := SplitQualified(q)
		if err != nil {
			return err
		}
		t, ok := c.tables[tab]
		if !ok {
			return fmt.Errorf("catalog: range mapping references unknown table %q", tab)
		}
		if t.Schema.IndexOf(col) < 0 {
			return fmt.Errorf("catalog: range mapping references unknown column %q", q)
		}
	}
	c.mappings = append(c.mappings, m)
	return nil
}

// RangeMappings returns the registered chunk-bounding declarations.
func (c *Catalog) RangeMappings() []RangeMapping {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]RangeMapping(nil), c.mappings...)
}

// SplitQualified splits "T.col" into table and column.
func SplitQualified(name string) (tab, col string, err error) {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			if i == 0 || i == len(name)-1 {
				return "", "", fmt.Errorf("malformed qualified name %q", name)
			}
			return name[:i], name[i+1:], nil
		}
	}
	return "", "", fmt.Errorf("name %q is not qualified", name)
}
