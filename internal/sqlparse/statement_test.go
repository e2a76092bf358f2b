package sqlparse

import (
	"errors"
	"strings"
	"testing"

	"sommelier/internal/expr"
	"sommelier/internal/storage"
)

func TestParseErrorsCarryPosition(t *testing.T) {
	cases := []struct {
		sql    string
		substr string
	}{
		{"SELECT FROM F", "unexpected keyword"},
		{"SELECT x FRM F", "expected FROM"},
		{"SELECT x FROM F WHERE x 5", "expected comparison"},
		{"SELECT x FROM F WHERE x = 'unterminated", "unterminated string"},
		{"SELECT x FROM F LIMIT banana", "expected number"},
	}
	for _, tc := range cases {
		_, err := Parse(tc.sql)
		if err == nil {
			t.Fatalf("%q accepted", tc.sql)
		}
		var perr *Error
		if !errors.As(err, &perr) {
			t.Fatalf("%q: error %T lacks a position: %v", tc.sql, err, err)
		}
		if perr.Pos < 0 || perr.Pos > len(tc.sql) {
			t.Fatalf("%q: position %d out of range", tc.sql, perr.Pos)
		}
		if !strings.Contains(err.Error(), tc.substr) || !strings.Contains(err.Error(), "at byte") {
			t.Fatalf("%q: message %q", tc.sql, err)
		}
	}
}

func TestExplicitParameterMarkers(t *testing.T) {
	st, err := ParseStatement(`SELECT station FROM F WHERE station = ? AND file_id > ?`)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumParams != 2 {
		t.Fatalf("NumParams = %d", st.NumParams)
	}
	if st.Args != nil {
		t.Fatalf("explicit markers must not extract args: %v", st.Args)
	}
	if n := expr.NumParams(st.Query.Where); n != 2 {
		t.Fatalf("query references %d params", n)
	}
	if want := "SELECT station FROM F WHERE station = ? AND file_id > ?"; st.Normalized != want {
		t.Fatalf("normalized = %q", st.Normalized)
	}
}

func TestAutoParameterizationNormalizes(t *testing.T) {
	a, err := ParseStatement(`SELECT AVG(sample_value) FROM D WHERE sample_time >= '2010-01-01' AND sample_value > 5 LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseStatement(`SELECT AVG(sample_value) FROM D
		WHERE sample_time >= '2011-06-15' AND sample_value > 99 LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	if a.Normalized != b.Normalized {
		t.Fatalf("normalized texts differ:\n%q\n%q", a.Normalized, b.Normalized)
	}
	if !strings.Contains(a.Normalized, "?") {
		t.Fatalf("no parameters in %q", a.Normalized)
	}
	// LIMIT stays literal (part of the plan shape).
	if !strings.Contains(a.Normalized, "LIMIT 3") {
		t.Fatalf("LIMIT parameterized: %q", a.Normalized)
	}
	if len(a.Args) != 2 || len(b.Args) != 2 {
		t.Fatalf("args = %v / %v", a.Args, b.Args)
	}
	if a.Args[0].S != "2010-01-01" || a.Args[1].I != 5 {
		t.Fatalf("args a = %v %v", a.Args[0], a.Args[1])
	}
	if b.Args[0].S != "2011-06-15" || b.Args[1].I != 99 {
		t.Fatalf("args b = %v %v", b.Args[0], b.Args[1])
	}
}

func TestAutoParameterizationNegativeLiteral(t *testing.T) {
	st, err := ParseStatement(`SELECT station FROM F WHERE file_id > -5`)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Args) != 1 || st.Args[0].K != storage.KindInt64 || st.Args[0].I != -5 {
		t.Fatalf("args = %+v", st.Args)
	}
	if !strings.HasSuffix(st.Normalized, "file_id > ?") {
		t.Fatalf("normalized = %q", st.Normalized)
	}
}

// Constant-vs-constant comparisons stay literal: they are constant
// folding's input, not cache-key noise.
func TestAutoParameterizationSkipsConstConst(t *testing.T) {
	st, err := ParseStatement(`SELECT station FROM F WHERE 1 = 1 AND station = 'ISK'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Args) != 1 {
		t.Fatalf("args = %v", st.Args)
	}
	if !strings.Contains(st.Normalized, "1 = 1") {
		t.Fatalf("const-const parameterized: %q", st.Normalized)
	}
}

// Name resolution is case-sensitive, so two statements differing only
// in identifier case must not share one cache key — `min` and `MIN`
// may be different columns (keyword-spelled identifiers are legal).
func TestNormalizationKeepsIdentifierCase(t *testing.T) {
	a, err := ParseStatement(`SELECT min FROM t WHERE min > 5`)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseStatement(`SELECT MIN FROM t WHERE MIN > 5`)
	if err != nil {
		t.Fatal(err)
	}
	if a.Normalized == b.Normalized {
		t.Fatalf("case-distinct identifiers collide on %q", a.Normalized)
	}
}

func TestExplainPrefix(t *testing.T) {
	st, err := ParseStatement(`EXPLAIN SELECT station FROM F WHERE station = 'ISK'`)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Explain {
		t.Fatal("EXPLAIN not recognized")
	}
	if strings.Contains(st.Normalized, "EXPLAIN") {
		t.Fatalf("EXPLAIN leaked into the cache key: %q", st.Normalized)
	}
	// The same query without EXPLAIN normalizes identically, sharing
	// the compiled plan.
	plain, err := ParseStatement(`SELECT station FROM F WHERE station = 'ISK'`)
	if err != nil {
		t.Fatal(err)
	}
	if st.Normalized != plain.Normalized {
		t.Fatalf("EXPLAIN changes the cache key: %q vs %q", st.Normalized, plain.Normalized)
	}
}

// EXPLAIN ANALYZE q normalizes to q's own text, so it shares q's plan;
// ANALYZE alone is not a statement.
func TestExplainAnalyzePrefix(t *testing.T) {
	const q = `SELECT station FROM F WHERE station = 'ISK'`
	st, err := ParseStatement(`explain Analyze ` + q)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := ParseStatement(q)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Explain || !st.Analyze || plain.Analyze {
		t.Fatalf("Explain/Analyze = %t/%t, plain Analyze %t", st.Explain, st.Analyze, plain.Analyze)
	}
	if st.Normalized != plain.Normalized {
		t.Fatalf("EXPLAIN ANALYZE changes the cache key: %q vs %q", st.Normalized, plain.Normalized)
	}
	if _, err := ParseStatement(`ANALYZE ` + q); err == nil {
		t.Fatal("bare ANALYZE accepted")
	}
}

func TestExplicitMarkersDisableAutoParameterization(t *testing.T) {
	st, err := ParseStatement(`SELECT station FROM F WHERE station = ? AND file_id > 7`)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumParams != 1 || st.Args != nil {
		t.Fatalf("NumParams = %d, args = %v", st.NumParams, st.Args)
	}
	if !strings.Contains(st.Normalized, "file_id > 7") {
		t.Fatalf("literal parameterized alongside explicit marker: %q", st.Normalized)
	}
}

// FuzzParseStatement: POST /query hands the parser arbitrary text. It
// never panics, and a statement that parses normalizes to a text that
// parses again to the same normalized text — the plan-cache key is a
// fixed point.
func FuzzParseStatement(f *testing.F) {
	for _, sql := range []string{
		`SELECT AVG(D.sample_value) FROM dataview WHERE F.station = 'FIAM' AND D.sample_time >= '2010-01-01T00:00:00.000' AND D.sample_time < '2010-01-01T01:00:00.000'`,
		`SELECT station, COUNT(*) AS n FROM F WHERE station = 'ISK' GROUP BY station`,
		`SELECT window_start_ts, window_max_val, window_std_dev FROM H WHERE window_station = 'AQU' AND window_start_ts >= '2010-01-01T00:00:00.000' AND window_start_ts < '2010-01-02T00:00:00.000'`,
		`SELECT D.sample_value FROM dataview WHERE F.station = 'CERA' AND D.sample_time >= '2010-01-01T00:00:00.000' AND D.sample_time < '2010-01-01T00:10:00.000' ORDER BY D.sample_value DESC LIMIT 10`,
		`SELECT D.sample_time, D.sample_value FROM dataview WHERE F.station = 'FIAM' AND D.sample_time >= '2010-01-01T00:00:00.000' AND D.sample_time < '2010-01-01T00:01:00.000'`,
		`EXPLAIN SELECT x FROM F WHERE NOT (a = ? OR b <> -2.5) SAMPLE 10;`,
		`EXPLAIN ANALYZE SELECT F.station, COUNT(*) FROM dataview WHERE D.sample_time < '2010-01-02T00:00:00.000' GROUP BY F.station`,
	} {
		f.Add(sql)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		st, err := ParseStatement(sql)
		if err != nil {
			return
		}
		again, err := ParseStatement(st.Normalized)
		if err != nil {
			t.Fatalf("normalized %q of %q does not parse: %v", st.Normalized, sql, err)
		}
		if again.Normalized != st.Normalized {
			t.Fatalf("%q normalizes to %q, which normalizes to %q", sql, st.Normalized, again.Normalized)
		}
	})
}
