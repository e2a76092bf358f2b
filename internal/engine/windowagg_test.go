package engine

import (
	"math"
	"testing"

	"sommelier/internal/registrar"
	"sommelier/internal/seisgen"
	"sommelier/internal/storage"
)

// TestAggregatesEqualDerivedWindows: the engine's AVG, MIN, MAX and
// STDDEV of D.sample_value per D.window_ts over one station-day equal
// H's window_mean_val, window_min_val, window_max_val and
// window_std_dev for the same windows, bitwise: H is derived by the same
// grouped fold. A window with no samples materializes as a zero row.
func TestAggregatesEqualDerivedWindows(t *testing.T) {
	dir := t.TempDir()
	cfg := seisgen.DefaultConfig(1)
	cfg.SamplesPerFile = 40000
	if _, err := seisgen.Generate(dir, cfg); err != nil {
		t.Fatal(err)
	}
	db := open(t, dir, registrar.Lazy)
	rows := func(sql string) map[int64][4]float64 {
		t.Helper()
		res, err := db.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		out := map[int64][4]float64{}
		flat := res.Rel.Flatten()
		for r := 0; r < flat.Len(); r++ {
			var v [4]float64
			for c := range v {
				v[c] = storage.ValueAt(flat.Cols[c+1], r).(float64)
			}
			out[storage.ValueAt(flat.Cols[0], r).(int64)] = v
		}
		return out
	}
	engine := rows(`SELECT D.window_ts, AVG(D.sample_value), MIN(D.sample_value), MAX(D.sample_value), STDDEV(D.sample_value)
		FROM dataview WHERE F.station = 'FIAM'
		  AND D.sample_time >= '2010-01-01T00:00:00.000' AND D.sample_time < '2010-01-02T00:00:00.000'
		GROUP BY D.window_ts`)
	derived := rows(`SELECT window_start_ts, window_mean_val, window_min_val, window_max_val, window_std_dev FROM H
		WHERE window_station = 'FIAM'
		  AND window_start_ts >= '2010-01-01T00:00:00.000' AND window_start_ts < '2010-01-02T00:00:00.000'`)
	if len(engine) < 2 {
		t.Fatalf("%d windows with data, want several", len(engine))
	}
	for ws, got := range engine {
		want, ok := derived[ws]
		if !ok {
			t.Errorf("window %d: no H row", ws)
			continue
		}
		for c, name := range []string{"mean", "min", "max", "stddev"} {
			if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
				t.Errorf("window %d %s: engine %v (%#x), H %v (%#x)", ws, name,
					got[c], math.Float64bits(got[c]), want[c], math.Float64bits(want[c]))
			}
		}
	}
	// H's other windows within the archive's span hold no samples: zero
	// rows.
	empty := 0
	for ws, v := range derived {
		if _, ok := engine[ws]; !ok {
			empty++
			if v != [4]float64{} {
				t.Errorf("window %d without samples: H row %v, want zeros", ws, v)
			}
		}
	}
	if empty == 0 {
		t.Fatal("every window holds samples: the empty-window check checked nothing")
	}
}
