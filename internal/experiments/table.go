// Package experiments regenerates every table and figure of the
// paper's evaluation, plus the extensions layered on it: each
// experiment E1..E34 is a function returning a Table of labelled rows
// that a CLI (cmd/benchreport) or a benchmark (bench_test.go at the
// repository root) can print and time. EXPERIMENTS.md records the
// paper's claim next to the measured outcome for each.
//
// Every experiment is deterministic: stochastic components take fixed
// seeds, so the printed tables are reproducible run to run. The
// registry (All) carries per-experiment metadata, and the parallel
// suite runner (RunSuite) executes any selection of it on the
// engine-agnostic worker pool of internal/sweep with byte-identical
// output for any worker count.
package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"fpcc/internal/obs"
	"fpcc/internal/sweep"
)

// Table is a labelled result table in paper style: a caption, column
// headers, and rows of cells.
type Table struct {
	ID      string // experiment id, e.g. "E2"
	Caption string
	Columns []string
	Rows    [][]string
	// Findings summarizes the qualitative outcome (who wins, which
	// direction), mirroring how EXPERIMENTS.md reports shape checks.
	Findings []string
	// raw holds the unformatted AddRow arguments, so the machine
	// outputs (WriteCSV, MarshalJSON) can emit full-precision values
	// while Rows/String keep the compact %.4g alignment.
	raw [][]any
}

// AddRow appends a formatted row; values are Sprint'ed with %v unless
// they are float64, which use %.4g in the aligned text rendering.
// The originals are retained so CSV/JSON output is full precision.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
	t.raw = append(t.raw, append([]any(nil), cells...))
}

// AddFinding records a qualitative outcome line.
func (t *Table) AddFinding(format string, args ...any) {
	t.Findings = append(t.Findings, fmt.Sprintf(format, args...))
}

// alarmWords mark a reproduction failure when they appear in a
// finding; tests and benchmarks fail on them.
var alarmWords = []string{"MISMATCH", "UNEXPECTED", "VIOLATED", "FAILURE", "DEVIATION", "NOT REACHED", "GAP:"}

// Alarm returns the first finding flagging a reproduction failure
// (a finding containing a capitalized alarm word), or "" if the
// experiment reproduced cleanly.
func (t *Table) Alarm() string {
	for _, f := range t.Findings {
		for _, alarm := range alarmWords {
			if strings.Contains(f, alarm) {
				return f
			}
		}
	}
	return ""
}

// String renders the table as aligned plain text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Caption)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, f := range t.Findings {
		fmt.Fprintf(&b, "  => %s\n", f)
	}
	return b.String()
}

// rawRows returns the unformatted row values, falling back to the
// formatted strings for rows appended without AddRow.
func (t *Table) rawRows() [][]any {
	if len(t.raw) == len(t.Rows) {
		return t.raw
	}
	rows := make([][]any, len(t.Rows))
	for i, row := range t.Rows {
		cells := make([]any, len(row))
		for j, cell := range row {
			cells[j] = cell
		}
		rows[i] = cells
	}
	return rows
}

// MarshalJSON renders the table with full-precision row values (the
// aligned text rendering keeps %.4g; see AddRow). Non-finite floats
// (NaN settling times, ±Inf) become strings via sweep.JSONValue.
func (t *Table) MarshalJSON() ([]byte, error) {
	rows := make([][]any, len(t.Rows))
	for i, row := range t.rawRows() {
		cells := make([]any, len(row))
		for j, v := range row {
			cells[j] = sweep.JSONValue(v)
		}
		rows[i] = cells
	}
	return json.Marshal(struct {
		ID       string   `json:"id"`
		Caption  string   `json:"caption"`
		Columns  []string `json:"columns"`
		Rows     [][]any  `json:"rows"`
		Findings []string `json:"findings"`
	}{t.ID, t.Caption, t.Columns, rows, t.Findings})
}

// WriteCSV renders the table as one CSV block: '#' comment lines for
// the caption and findings, a header row, then full-precision data
// rows (sweep.FormatValue: round-trip floats, ';'-joined vectors).
func (t *Table) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s — %s\n", t.ID, t.Caption); err != nil {
		return err
	}
	header := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		header[i] = sweep.CSVField(c)
	}
	if _, err := fmt.Fprintln(w, strings.Join(header, ",")); err != nil {
		return err
	}
	for _, row := range t.rawRows() {
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = sweep.CSVField(sweep.FormatValue(v))
		}
		if _, err := fmt.Fprintln(w, strings.Join(cells, ",")); err != nil {
			return err
		}
	}
	for _, f := range t.Findings {
		if _, err := fmt.Fprintf(w, "# => %s\n", f); err != nil {
			return err
		}
	}
	return nil
}

// Recorder aliases obs.Recorder so every experiment signature can
// name the observability hook without importing internal/obs. The nil
// default is the zero-overhead no-op; the suite runner hands each
// experiment its own recorder when benchreport enables tracing.
type Recorder = obs.Recorder

// Experiment is one registry entry: stable id, human title, coarse
// tags for selection, the entry point, and the parallel width the
// experiment can exploit internally. Run receives the run context —
// recorder plus negotiated inner-worker grant; nil is the
// zero-overhead direct-invocation default — and must produce
// byte-identical tables for any context. Width declares how many
// inner workers the experiment can usefully employ (0 = none: the
// experiment is single-threaded inside); the suite scheduler never
// grants more than Width.
type Experiment struct {
	ID    string
	Title string
	Tags  []string
	Run   func(ctx *Ctx) (*Table, error)
	Width int
}

// All returns every experiment in order; EXPERIMENTS.md is the
// companion index of claims and measured outcomes. Tags: "core"
// (E1–E15, the paper's own analysis) vs "extension" (E16–E34), plus
// the engines exercised and "sweep" for grid-shaped workloads.
func All() []Experiment {
	return []Experiment{
		{"E1", "characteristic drift directions (Figure 2)", []string{"core", "characteristics"}, E1QuadrantDrifts, 0},
		{"E2", "convergent spiral and Theorem 1 (Figure 3)", []string{"core", "characteristics"}, E2ConvergentSpiral, 0},
		{"E3", "packet-level queue trace (Figure 1)", []string{"core", "des"}, E3QueueTrace, 0},
		{"E4", "equal-parameter fairness (Section 6)", []string{"core", "fairness", "fluid", "des"}, E4FairnessEqual, 0},
		{"E5", "heterogeneous-parameter shares (Section 6)", []string{"core", "fairness", "fluid"}, E5FairnessHetero, 0},
		{"E6", "delay-induced oscillation (Section 7)", []string{"core", "delay"}, E6DelayOscillation, 0},
		{"E7", "delay-induced unfairness (Section 7)", []string{"core", "delay", "fairness"}, E7DelayUnfairness, 0},
		{"E8", "algorithm-induced oscillation: AIAD vs AIMD", []string{"core", "delay"}, E8AlgorithmOscillation, 0},
		{"E9", "Fokker-Planck vs Monte-Carlo validation (Eq. 14)", []string{"core", "fokkerplanck", "sde"}, E9FokkerPlanckVsMonteCarlo, 8},
		{"E10", "variability: Fokker-Planck vs fluid approximation", []string{"core", "fokkerplanck", "fluid"}, E10VariabilityVsFluid, 8},
		{"E11", "convergence speed vs (C0, C1) (Theorem 1)", []string{"core", "characteristics", "sweep"}, E11ParameterSweep, 9},
		{"E12", "stationary spread vs sigma (Section 5 closing)", []string{"core", "fokkerplanck", "sweep"}, E12DiffusionSpread, 4},
		{"E13", "window protocol vs rate analogue (Eq. 1 vs Eq. 2)", []string{"core", "des"}, E13WindowRateEquivalence, 0},
		{"E14", "FP advection scheme ablation (upwind vs MUSCL)", []string{"core", "fokkerplanck", "ablation"}, E14SchemeAblation, 8},
		{"E15", "Poincaré return map and quadratic contraction law", []string{"core", "characteristics"}, E15ReturnMapLaw, 0},
		{"E16", "multi-hop tandem network: share vs hop count", []string{"extension", "des", "multihop"}, E16TandemHopCount, 0},
		{"E17", "Fokker-Planck vs exact Markov chain (Eq. 14 ground truth)", []string{"extension", "fokkerplanck", "markov"}, E17FokkerPlanckVsMarkov, 0},
		{"E18", "AIMD under bursty (on/off) traffic: variability sweep", []string{"extension", "des", "traffic", "sweep"}, E18BurstinessSweep, 4},
		{"E19", "delayed-feedback stability boundary (Hopf point)", []string{"extension", "dde", "stability", "sweep"}, E19StabilityBoundary, 7},
		{"E20", "gateway feedback disciplines: threshold vs DECbit vs RED", []string{"extension", "des", "gateway"}, E20GatewayComparison, 0},
		{"E21", "TCP-Tahoe share vs RTT ratio (Jacobson/Zhang unfairness)", []string{"extension", "des", "tahoe"}, E21TahoeRTTShare, 0},
		{"E22", "stiff-law integrator ablation: RK4 vs implicit", []string{"extension", "ode", "ablation"}, E22IntegratorAblation, 0},
		{"E23", "engineering the delay budget: AIMD vs PD damping", []string{"extension", "dde", "stability"}, E23DelayBudgetEngineering, 0},
		{"E24", "n delayed sources: shared-loop oscillation, invariant budget", []string{"extension", "dde", "stability", "sweep"}, E24MultiSourceDelay, 4},
		{"E25", "explicit queue feedback vs implicit loss feedback", []string{"extension", "des"}, E25ImplicitVsExplicit, 0},
		{"E26", "parking-lot topology fairness (netsim)", []string{"extension", "netsim", "multihop"}, E26ParkingLotFairness, 0},
		{"E27", "cross-traffic bottleneck migration (netsim sweep)", []string{"extension", "netsim", "sweep"}, E27BottleneckMigration, 0},
		{"E28", "mean-field convergence: particles vs density in N", []string{"extension", "meanfield", "sde", "sweep"}, E28MeanFieldConvergence, 8},
		{"E29", "heterogeneous RTT mix at N=10⁶ (mean-field sweep)", []string{"extension", "meanfield", "fairness", "sweep"}, E29HeterogeneousRTTMix, 8},
		{"E30", "parking-lot fairness in the large-N limit (netmf sweep)", []string{"extension", "netmf", "multihop", "fairness", "sweep"}, E30ParkingLotLargeN, 6},
		{"E31", "bottleneck migration under a class-mix ramp (netmf sweep)", []string{"extension", "netmf", "sweep"}, E31BottleneckMigrationLargeN, 6},
		{"E32", "misbehaving sources vs 10⁶ compliant sources (mean-field sweep)", []string{"extension", "meanfield", "adversarial", "sweep"}, E32AdversarialDegradation, 9},
		{"E33", "gateway protection under an unresponsive blaster (netsim sweep)", []string{"extension", "netsim", "gateway", "adversarial", "sweep"}, E33GatewayProtection, 9},
		{"E34", "session churn vs kinetic starvation on a two-hop path (netmf sweep)", []string{"extension", "netmf", "churn", "sweep"}, E34ChurnTurnover, 6},
	}
}
