// Package seismic defines the paper's seismology warehouse schema: the
// given-metadata tables F (per file) and S (per segment), the
// actual-data table D (sample points), the derived-metadata table H
// (hourly summary windows), and the dataview / windowdataview universal
// views. It is shared by the planner, the engine, the loaders and the
// experiments.
package seismic

import (
	"time"

	"sommelier/internal/storage"
	"sommelier/internal/table"
)

// Table and view names.
const (
	TableF = "F" // file metadata (GMd)
	TableS = "S" // segment metadata (GMd)
	TableD = "D" // actual data points (AD)
	TableH = "H" // hourly summary windows (DMd)

	ViewData       = "dataview"       // F ⋈ S ⋈ D
	ViewWindowData = "windowdataview" // F ⋈ S ⋈ D ⋈ H
)

// WindowDuration is the derived-metadata window size (hourly windows,
// as in the paper's running example).
const WindowDuration = time.Hour

// NewCatalog builds the full warehouse catalog with empty tables.
func NewCatalog() *table.Catalog {
	cat := table.NewCatalog()

	f := table.MustNew(TableF, table.GivenMetadata, table.MustSchema(
		table.ColumnDef{Name: "file_id", Kind: storage.KindInt64},
		table.ColumnDef{Name: "uri", Kind: storage.KindString},
		table.ColumnDef{Name: "network", Kind: storage.KindString},
		table.ColumnDef{Name: "station", Kind: storage.KindString},
		table.ColumnDef{Name: "location", Kind: storage.KindString},
		table.ColumnDef{Name: "channel", Kind: storage.KindString},
		table.ColumnDef{Name: "data_quality", Kind: storage.KindString},
		table.ColumnDef{Name: "encoding", Kind: storage.KindInt64},
		table.ColumnDef{Name: "byte_order", Kind: storage.KindString},
	), []string{"file_id"}, "")

	s := table.MustNew(TableS, table.GivenMetadata, table.MustSchema(
		table.ColumnDef{Name: "file_id", Kind: storage.KindInt64},
		table.ColumnDef{Name: "segment_id", Kind: storage.KindInt64},
		table.ColumnDef{Name: "start_time", Kind: storage.KindTime},
		table.ColumnDef{Name: "end_time", Kind: storage.KindTime},
		table.ColumnDef{Name: "frequency", Kind: storage.KindFloat64},
		table.ColumnDef{Name: "sample_count", Kind: storage.KindInt64},
	), []string{"file_id", "segment_id"}, "")

	// window_ts materializes WindowStart(sample_time): the join key
	// between samples and their hourly summary window. Computed during
	// chunk ingestion (it is not stored in the files).
	d := table.MustNew(TableD, table.ActualData, table.MustSchema(
		table.ColumnDef{Name: "file_id", Kind: storage.KindInt64},
		table.ColumnDef{Name: "segment_id", Kind: storage.KindInt64},
		table.ColumnDef{Name: "sample_time", Kind: storage.KindTime},
		table.ColumnDef{Name: "sample_value", Kind: storage.KindFloat64},
		table.ColumnDef{Name: "window_ts", Kind: storage.KindTime},
	), nil, "file_id")
	d.SegmentKey = "segment_id"

	h := table.MustNew(TableH, table.DerivedMetadata, table.MustSchema(
		table.ColumnDef{Name: "window_station", Kind: storage.KindString},
		table.ColumnDef{Name: "window_channel", Kind: storage.KindString},
		table.ColumnDef{Name: "window_start_ts", Kind: storage.KindTime},
		table.ColumnDef{Name: "window_max_val", Kind: storage.KindFloat64},
		table.ColumnDef{Name: "window_min_val", Kind: storage.KindFloat64},
		table.ColumnDef{Name: "window_mean_val", Kind: storage.KindFloat64},
		table.ColumnDef{Name: "window_std_dev", Kind: storage.KindFloat64},
	), []string{"window_station", "window_channel", "window_start_ts"}, "")

	for _, t := range []*table.Table{f, s, d, h} {
		if err := cat.AddTable(t); err != nil {
			panic(err)
		}
	}

	if err := cat.AddView(&table.View{
		Name:   ViewData,
		Tables: []string{TableF, TableS, TableD},
		Joins: []table.JoinPred{
			{Left: "F.file_id", Right: "S.file_id"},
			{Left: "S.file_id", Right: "D.file_id"},
			{Left: "S.segment_id", Right: "D.segment_id"},
		},
	}); err != nil {
		panic(err)
	}
	if err := cat.AddView(&table.View{
		Name:   ViewWindowData,
		Tables: []string{TableF, TableS, TableD, TableH},
		Joins: []table.JoinPred{
			{Left: "F.file_id", Right: "S.file_id"},
			{Left: "S.file_id", Right: "D.file_id"},
			{Left: "S.segment_id", Right: "D.segment_id"},
			{Left: "F.station", Right: "H.window_station"},
			{Left: "F.channel", Right: "H.window_channel"},
			{Left: "D.window_ts", Right: "H.window_start_ts"},
		},
	}); err != nil {
		panic(err)
	}

	for _, fk := range []table.ForeignKey{
		{Table: TableS, Column: "file_id", RefTable: TableF, RefColumn: "file_id"},
		{Table: TableD, Column: "file_id", RefTable: TableF, RefColumn: "file_id"},
	} {
		if err := cat.AddForeignKey(fk); err != nil {
			panic(err)
		}
	}

	// Sample timestamps are bounded per segment by the given metadata:
	// the planner infers S predicates from D.sample_time ranges, which
	// is what lets a 2-day query select only the 2 covering files. A
	// sample's window_ts is its sample_time truncated to the window, so
	// a segment meets only the windows that start in (start_time −
	// WindowDuration, end_time): the band of windowdataview's S ⋈ H.
	if err := cat.AddRangeMapping(table.RangeMapping{
		ADColumn: "D.sample_time", MdLo: "S.start_time", MdHi: "S.end_time",
		Trunc: "D.window_ts", TruncWidth: WindowDuration,
	}); err != nil {
		panic(err)
	}
	return cat
}

// WindowStart truncates a timestamp (ns) to its containing window.
func WindowStart(ns int64) int64 {
	w := int64(WindowDuration)
	return ns - ((ns%w)+w)%w
}
