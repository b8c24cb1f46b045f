package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fpcc/internal/rng"
)

// TestGridOrder: cells enumerate the grid row-major with the last
// dimension varying fastest, and carry stable per-cell seeds.
func TestGridOrder(t *testing.T) {
	g := Grid{Dims: []Dim{
		{Name: "a", Values: []float64{1, 2}},
		{Name: "b", Values: []float64{10, 20, 30}},
	}}
	if g.Size() != 6 {
		t.Fatalf("size = %d, want 6", g.Size())
	}
	want := [][2]float64{{1, 10}, {1, 20}, {1, 30}, {2, 10}, {2, 20}, {2, 30}}
	for idx, w := range want {
		got := g.Values(idx)
		if got[0] != w[0] || got[1] != w[1] {
			t.Errorf("cell %d values = %v, want %v", idx, got, w)
		}
	}
	if CellSeed(1, 0) == CellSeed(1, 1) {
		t.Error("adjacent cells share a seed")
	}
	if CellSeed(1, 0) == CellSeed(2, 0) {
		t.Error("different base seeds give the same cell seed")
	}
	if CellSeed(1, 5) != CellSeed(1, 5) {
		t.Error("cell seed is not a pure function")
	}
}

func TestGridValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    Grid
	}{
		{"empty", Grid{}},
		{"unnamed", Grid{Dims: []Dim{{Name: "", Values: []float64{1}}}}},
		{"no values", Grid{Dims: []Dim{{Name: "x"}}}},
		{"duplicate name", Grid{Dims: []Dim{{Name: "x", Values: []float64{1}}, {Name: "x", Values: []float64{2}}}}},
	} {
		if err := tc.g.Validate(); err == nil {
			t.Errorf("%s grid accepted", tc.name)
		}
	}
	ok := Grid{Dims: []Dim{{Name: "x", Values: []float64{1}}}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid grid rejected: %v", err)
	}
}

// TestMapOrderAndParallelism: Map returns results in index order for
// any worker count and actually runs the function once per item.
func TestMapOrderAndParallelism(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		var calls atomic.Int64
		got, err := Map(100, workers, func(i int) (int, error) {
			calls.Add(1)
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if calls.Load() != 100 {
			t.Errorf("workers=%d: %d calls, want 100", workers, calls.Load())
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
	if _, err := Map[int](5, 1, nil); err == nil {
		t.Error("nil function accepted")
	}
	if _, err := Map(-1, 1, func(int) (int, error) { return 0, nil }); err == nil {
		t.Error("negative count accepted")
	}
	empty, err := Map(0, 4, func(int) (int, error) { return 0, nil })
	if err != nil || len(empty) != 0 {
		t.Errorf("empty map: %v, %v", empty, err)
	}
}

// TestMapLowestIndexedError: regardless of worker count, the reported
// failure is the lowest-indexed failing item, wrapped as *CellError,
// and the pool aborts early (unclaimed items never start).
func TestMapLowestIndexedError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4, 8} {
		var calls atomic.Int64
		_, err := Map(1000, workers, func(i int) (int, error) {
			calls.Add(1)
			if i >= 17 {
				return 0, fmt.Errorf("item %d: %w", i, boom)
			}
			return i, nil
		})
		if err == nil {
			t.Fatalf("workers=%d: failing map returned nil error", workers)
		}
		var ce *CellError
		if !errors.As(err, &ce) {
			t.Fatalf("workers=%d: error %T is not *CellError", workers, err)
		}
		if ce.Index != 17 {
			t.Errorf("workers=%d: reported index %d, want 17", workers, ce.Index)
		}
		if !errors.Is(err, boom) {
			t.Errorf("workers=%d: cause not unwrapped", workers)
		}
		if calls.Load() >= 1000 {
			t.Errorf("workers=%d: no early abort (%d calls)", workers, calls.Load())
		}
	}
}

// TestMapStealExactlyOnce drives the pool through a pathologically
// uneven load — the whole tail of the index space is slow while one
// worker is stuck on a very slow first item, so the others drain the
// middle around it — and pins the two invariants any schedule must
// keep: every item runs exactly once, and results land by index.
func TestMapStealExactlyOnce(t *testing.T) {
	const n = 64
	for _, workers := range []int{2, 4, 16} {
		calls := make([]atomic.Int32, n)
		got, err := Map(n, workers, func(i int) (int, error) {
			switch {
			case i == 0:
				time.Sleep(20 * time.Millisecond)
			case i >= n-8:
				time.Sleep(2 * time.Millisecond)
			}
			calls[i].Add(1)
			return i + 1, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range calls {
			if c := calls[i].Load(); c != 1 {
				t.Errorf("workers=%d: item %d ran %d times", workers, i, c)
			}
			if got[i] != i+1 {
				t.Errorf("workers=%d: result[%d] = %d, want %d", workers, i, got[i], i+1)
			}
		}
	}
}

// TestMapStealSingleItemRanges runs as many workers as items with a
// slow first item, so every worker claims at most a single index and
// the others race past the stuck one. Each item must still run
// exactly once.
func TestMapStealSingleItemRanges(t *testing.T) {
	const n = 8
	calls := make([]atomic.Int32, n)
	if _, err := Map(n, n, func(i int) (int, error) {
		if i == 0 {
			time.Sleep(10 * time.Millisecond)
		}
		calls[i].Add(1)
		return i, nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range calls {
		if c := calls[i].Load(); c != 1 {
			t.Errorf("item %d ran %d times", i, c)
		}
	}
}

// TestMapStealLowestFailure: with failures scattered across the index
// space and a slow tail reordering completion, the reported CellError
// must still be the globally lowest failing index, for any worker
// count.
func TestMapStealLowestFailure(t *testing.T) {
	const n = 200
	fails := map[int]bool{23: true, 24: true, 120: true, 199: true}
	for _, workers := range []int{1, 3, 7, 16} {
		_, err := Map(n, workers, func(i int) (int, error) {
			if i >= n-20 {
				time.Sleep(time.Millisecond)
			}
			if fails[i] {
				return 0, fmt.Errorf("fail %d", i)
			}
			return i, nil
		})
		ce, ok := err.(*CellError)
		if !ok {
			t.Fatalf("workers=%d: error %T is not *CellError", workers, err)
		}
		if ce.Index != 23 {
			t.Errorf("workers=%d: reported index %d, want 23", workers, ce.Index)
		}
	}
}

// syntheticConfig is a 60-cell stochastic sweep with no engine
// dependency: each cell draws from its cell seed, so determinism
// across worker counts exercises the seeding contract.
func syntheticConfig(workers int) Config {
	return Config{
		Grid: Grid{Dims: []Dim{
			{Name: "x", Values: []float64{0.5, 1, 2, 4, 8}},
			{Name: "y", Values: []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}},
		}},
		BaseSeed: 42,
		Workers:  workers,
	}
}

func syntheticRow(c Cell) (Row, error) {
	r := rng.New(c.Seed)
	sum := 0.0
	for i := 0; i < 100; i++ {
		sum += r.Exp(c.Values[0]) * c.Values[1]
	}
	return Row{sum, int64(c.Index % 7), fmt.Sprintf("cell%d", c.Index), []float64{sum / 2, math.Sqrt(sum)}}, nil
}

// runRows evaluates fn over every grid cell with Run and collects the
// rows under the given columns, as netsim's sweep result does.
func runRows(cfg Config, columns []string, fn func(Cell) (Row, error)) (*Result, error) {
	cells, err := Run(cfg, func(c Cell) (CellRow, error) {
		row, err := fn(c)
		return CellRow{Index: c.Index, Values: c.Values, Seed: c.Seed, Row: row}, err
	})
	if err != nil {
		return nil, err
	}
	return &Result{Dims: cfg.Grid.Dims, Columns: columns, Cells: cells}, nil
}

// TestRunRowsDeterministicAcrossWorkers is the package's acceptance
// criterion: the CSV rendering of a stochastic sweep's rows must be
// byte-identical for 1 worker and many workers.
func TestRunRowsDeterministicAcrossWorkers(t *testing.T) {
	cols := []string{"sum", "mod", "label", "vec"}
	render := func(workers int) string {
		res, err := runRows(syntheticConfig(workers), cols, syntheticRow)
		if err != nil {
			t.Fatal(err)
		}
		var cb bytes.Buffer
		if err := res.WriteCSV(&cb); err != nil {
			t.Fatal(err)
		}
		return cb.String()
	}
	sc := render(1)
	for _, workers := range []int{8, runtime.GOMAXPROCS(0)} {
		if sc != render(workers) {
			t.Errorf("CSV differs between 1 worker and %d workers", workers)
		}
	}
	lines := strings.Split(strings.TrimRight(sc, "\n"), "\n")
	if len(lines) != 61 {
		t.Fatalf("CSV has %d lines, want 61", len(lines))
	}
	if want := "index,x,y,sum,mod,label,vec"; lines[0] != want {
		t.Errorf("CSV header = %q, want %q", lines[0], want)
	}
	if !strings.Contains(lines[1], "cell0") || !strings.Contains(lines[1], ";") {
		t.Errorf("CSV row malformed: %q", lines[1])
	}
}

// TestFormatValue: full precision floats, ';'-joined vectors,
// pass-through for the rest.
func TestFormatValue(t *testing.T) {
	if got := FormatValue(1.0 / 3.0); got != "0.3333333333333333" {
		t.Errorf("FormatValue(1/3) = %q", got)
	}
	if got := FormatValue([]float64{1.5, 2.25}); got != "1.5;2.25" {
		t.Errorf("vector format = %q", got)
	}
	if got := FormatValue(int64(42)); got != "42" {
		t.Errorf("int format = %q", got)
	}
	if got := FormatValue("x"); got != "x" {
		t.Errorf("string format = %q", got)
	}
	if got := FormatFloat(math.NaN()); got != "NaN" {
		t.Errorf("NaN format = %q", got)
	}
}

// TestEmitHazards: string cells with separators are CSV-quoted, and
// non-finite floats (scalar or inside vectors) survive JSON encoding
// through JSONValue as strings instead of aborting it.
func TestEmitHazards(t *testing.T) {
	cfg := Config{Grid: Grid{Dims: []Dim{{Name: "x", Values: []float64{1}}}}}
	row := Row{`a,"b`, math.NaN(), []float64{1.5, math.Inf(1)}}
	res, err := runRows(cfg, []string{"s", "nan", "vec"}, func(c Cell) (Row, error) {
		return row, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var cb, jb bytes.Buffer
	if err := res.WriteCSV(&cb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(cb.String(), "\n"), "\n")
	if want := `0,1,"a,""b",NaN,1.5;+Inf`; lines[1] != want {
		t.Errorf("CSV row = %q, want %q", lines[1], want)
	}
	safe := make([]any, len(row))
	for i, v := range row {
		safe[i] = JSONValue(v)
	}
	if err := json.NewEncoder(&jb).Encode(safe); err != nil {
		t.Fatalf("JSON with non-finite values failed: %v", err)
	}
	for _, want := range []string{`"NaN"`, `"+Inf"`, `"a,\"b"`, "1.5"} {
		if !strings.Contains(jb.String(), want) {
			t.Errorf("JSON missing %s:\n%s", want, jb.String())
		}
	}
}

// TestRunValidation: Run surfaces grid validation and nil-function
// errors.
func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}, func(Cell) (int, error) { return 0, nil }); err == nil {
		t.Error("empty grid accepted")
	}
	if _, err := Run[int](syntheticConfig(1), nil); err == nil {
		t.Error("nil cell function accepted")
	}
}
