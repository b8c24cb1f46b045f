package sweep

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// This file is the byte-stable emission layer: a Result holds a
// sweep's cells, each a Row of named-column values, and renders as
// CSV identically for any worker count; JSONValue makes one value
// JSON-safe. Floats are rendered with full round-trip precision
// (FormatFloat with precision -1), never a lossy fixed format.

// Row is one cell's output: one value per column of the sweep's
// schema, in column order. Supported kinds are float64, integers,
// strings and []float64 (rendered ';'-joined in CSV).
type Row []any

// CellRow pairs a grid cell with its output row.
type CellRow struct {
	Index  int
	Values []float64
	Seed   uint64
	Row    Row
}

// Result holds a completed row-producing sweep in grid order.
type Result struct {
	Dims    []Dim
	Columns []string
	Cells   []CellRow
}

// FormatFloat renders a float with full round-trip precision, so
// machine outputs are byte-stable and lossless.
func FormatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// JoinFloats renders a ';'-separated full-precision float list.
func JoinFloats(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = FormatFloat(v)
	}
	return strings.Join(parts, ";")
}

// FormatValue renders one Row value for CSV output.
func FormatValue(v any) string {
	switch x := v.(type) {
	case float64:
		return FormatFloat(x)
	case []float64:
		return JoinFloats(x)
	default:
		return fmt.Sprint(x)
	}
}

// CSVField quotes a rendered value containing separators or quotes,
// so string cells cannot corrupt the column structure.
func CSVField(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// JSONValue maps one Row value to a JSON-encodable one: non-finite
// floats (NaN, ±Inf), scalar or inside a []float64, become their
// FormatFloat strings — encoding/json rejects them outright —
// and everything else passes through at full precision.
func JSONValue(v any) any {
	switch x := v.(type) {
	case float64:
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return FormatFloat(x)
		}
	case []float64:
		for _, f := range x {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				out := make([]any, len(x))
				for i, g := range x {
					out[i] = JSONValue(g)
				}
				return out
			}
		}
	}
	return v
}

// WriteCSV renders the result as CSV: a header of the cell index, the
// dimension names and the column names, then one row per cell in grid
// order.
func (r *Result) WriteCSV(w io.Writer) error {
	cols := []string{"index"}
	for _, d := range r.Dims {
		cols = append(cols, CSVField(d.Name))
	}
	for _, c := range r.Columns {
		cols = append(cols, CSVField(c))
	}
	if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
		return err
	}
	for _, c := range r.Cells {
		row := []string{strconv.Itoa(c.Index)}
		for _, v := range c.Values {
			row = append(row, FormatFloat(v))
		}
		for _, v := range c.Row {
			row = append(row, CSVField(FormatValue(v)))
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}
