// Package csvio implements the eager_csv loading path of the paper's
// evaluation: waveform chunks are first serialized to a textual CSV
// representation and then bulk-parsed into the database. The detour
// through text is deliberately expensive — explicit timestamp
// materialization and decimal formatting — because that is exactly the
// cost the paper measures against direct binary loading.
package csvio

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"sommelier/internal/mseed"
	"sommelier/internal/seismic"
	"sommelier/internal/storage"
)

// TimeLayout is the textual timestamp format, millisecond precision as
// in the paper's queries.
const TimeLayout = "2006-01-02T15:04:05.000000000"

// ExportChunk writes the actual data of a decoded chunk as CSV rows
// (file_id, segment_id, sample_time, sample_value) and returns the
// number of rows written.
func ExportChunk(w io.Writer, fileID int64, f *mseed.File) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	var rows int64
	for _, seg := range f.Segments {
		period := seg.Header.PeriodNS()
		for i, v := range seg.Samples {
			ts := seg.Header.StartTime + int64(float64(i)*period)
			_, err := fmt.Fprintf(bw, "%d,%d,%s,%d\n",
				fileID, seg.Header.ID, time.Unix(0, ts).UTC().Format(TimeLayout), v)
			if err != nil {
				return rows, err
			}
			rows++
		}
	}
	return rows, bw.Flush()
}

// LoadCSV parses CSV rows written by ExportChunk into a relation in the
// D table schema (file_id, segment_id, sample_time, sample_value,
// window_ts). The window key is computed during parsing, exactly as the
// binary ingestion path computes it during decoding.
func LoadCSV(r io.Reader) (*storage.Relation, error) {
	rel := storage.NewRelation()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	ids := storage.NewInt64Builder(storage.BatchSize)
	segs := storage.NewInt64Builder(storage.BatchSize)
	times := storage.NewTimeBuilder(storage.BatchSize)
	vals := storage.NewFloat64Builder(storage.BatchSize)
	wins := storage.NewTimeBuilder(storage.BatchSize)
	flush := func() {
		if ids.Len() == 0 {
			return
		}
		rel.Append(storage.NewBatch(ids.Finish(), segs.Finish(), times.Finish(), vals.Finish(), wins.Finish()))
		ids = storage.NewInt64Builder(storage.BatchSize)
		segs = storage.NewInt64Builder(storage.BatchSize)
		times = storage.NewTimeBuilder(storage.BatchSize)
		vals = storage.NewFloat64Builder(storage.BatchSize)
		wins = storage.NewTimeBuilder(storage.BatchSize)
	}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		parts := strings.SplitN(line, ",", 4)
		if len(parts) != 4 {
			return nil, fmt.Errorf("csvio: line %d: %d fields", lineNo, len(parts))
		}
		id, err := strconv.ParseInt(parts[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("csvio: line %d: bad file_id: %w", lineNo, err)
		}
		seg, err := strconv.ParseInt(parts[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("csvio: line %d: bad segment_id: %w", lineNo, err)
		}
		ts, err := time.Parse(TimeLayout, parts[2])
		if err != nil {
			return nil, fmt.Errorf("csvio: line %d: bad timestamp: %w", lineNo, err)
		}
		v, err := strconv.ParseFloat(parts[3], 64)
		if err != nil {
			return nil, fmt.Errorf("csvio: line %d: bad value: %w", lineNo, err)
		}
		ids.Append(id)
		segs.Append(seg)
		times.Append(ts.UnixNano())
		vals.Append(v)
		wins.Append(seismic.WindowStart(ts.UnixNano()))
		if ids.Len() >= storage.BatchSize {
			flush()
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()
	return rel, nil
}
