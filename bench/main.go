// Command bench is fpcc's repository benchmark. Each workload is a
// fixed selection of registry experiments, run end to end through
// experiments.RunSuite and checked against the committed output
// manifest; a traced replay then times each layer's public functions
// from outside. Each phase of a workload, end to end or traced, runs in
// a child process of its own. See README.md for the workloads, metrics
// and bounds.
//
// Usage, from this directory:
//
//	go run .                          # all workloads, end-to-end and per-layer
//	go run . -workload fp-vs-mc       # one workload
//	go run . -trace 0 -seconds 22     # end-to-end metrics only
//	go run . -update                  # regenerate testdata/expected.sha256
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The command exits 1 when any
// output fails its check, after printing every metric.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"

	"fpcc/internal/experiments"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	out      string
	traceDir string
	update   bool
	child    bool
}

// Tracing modes of -trace.
const (
	traceBoth  = -1 // end-to-end run, then the traced replay
	traceOff   = 0  // end-to-end metrics only
	traceSpans = 1  // per-layer metrics only
)

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "all", "workload to run, or all")
	fs.Uint64Var(&o.seed, "seed", 1, "seed of the replay engines (experiment seeds are fixed by the registry)")
	fs.Float64Var(&o.seconds, "seconds", 22, "end-to-end measuring budget per workload, in seconds (at least 2 passes run)")
	fs.IntVar(&o.trace, "trace", traceBoth, "0: end-to-end metrics, spans off; 1: per-layer metrics from the traced replay; -1: both")
	fs.StringVar(&o.out, "out", "../.bench_build/results.json", "write the results JSON here")
	fs.StringVar(&o.traceDir, "trace-dir", "../.bench_build", "write each workload's Chrome trace here as trace-<workload>.json")
	fs.BoolVar(&o.update, "update", false, "regenerate the output manifest from this build and exit")
	fs.BoolVar(&o.child, "child", false, "run one workload in this process and print its result as JSON (used by the parent process)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if o.trace < traceBoth || o.trace > traceSpans {
		return o, fmt.Errorf("-trace must be 0, 1 or -1, got %d", o.trace)
	}
	if o.child && o.trace == traceBoth {
		return o, errors.New("-child runs one phase: -trace 0 or 1")
	}
	if !(o.seconds > 0) {
		return o, fmt.Errorf("-seconds must be positive, got %v", o.seconds)
	}
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(stderr, "bench:", err)
		}
		return 2
	}
	if runtime.GOARCH != pinnedArch {
		fmt.Fprintf(stderr, "bench: the output manifest holds for GOARCH=%s only (other architectures may fuse multiply-adds and change the last digits of every CSV); this is %s\n", pinnedArch, runtime.GOARCH)
		return 1
	}
	if o.update {
		if err := updateManifest(); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintln(stderr, "bench: wrote", manifestPath)
		return 0
	}
	want, err := loadManifest()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if o.child {
		return runChild(o, want, stdout, stderr)
	}
	return runParent(o, stdout, stderr)
}

// workloadResult is one workload's outcome, passed from the child
// process to the parent as JSON.
type workloadResult struct {
	Workload    string      `json:"workload"`
	Experiments []string    `json:"experiments"`
	GOMAXPROCS  int         `json:"gomaxprocs"`
	Passes      int         `json:"passes"`
	Attempted   int         `json:"attempted"`
	Failed      int         `json:"failed"`
	Failures    []string    `json:"failures,omitempty"`
	EndToEnd    []metric    `json:"end_to_end,omitempty"`
	Unscaled    []metric    `json:"unscaled,omitempty"` // wall_s, cpu_s and the speed probe behind wall_rel and cpu_rel
	PerLayer    []metric    `json:"per_layer,omitempty"`
	Attribution []metric    `json:"experiment_wall,omitempty"` // experiments.<id>.wall_s
	Spans       []spanStat  `json:"spans,omitempty"`
	PassLog     []pass      `json:"pass_detail,omitempty"`
	SetupLog    [][]float64 `json:"setup_batches_s,omitempty"` // seconds of each build, one batch before each pass and one after the last
}

// runChild measures one phase of one workload in this process: the
// end-to-end passes (-trace 0) or the traced pass and replay (-trace 1).
// It exits 0 whenever it produced a result, failed checks included;
// the parent decides.
func runChild(o options, want map[string]string, stdout, stderr io.Writer) int {
	w, err := findWorkload(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	experiments.SetInnerWorkers(w.procs())
	res := workloadResult{Workload: w.name, Experiments: w.ids, GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if o.trace == traceOff {
		err = measureEndToEnd(w, want, o.seed, o.seconds, &res)
	} else {
		err = measureLayers(w, want, o, &res)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// measureLayers runs one traced pass of the workload's experiments
// (checked like every pass, one span per experiment), then the replay
// with spans off and with spans on, and writes the trace.
func measureLayers(w workload, want map[string]string, o options, res *workloadResult) error {
	tr := newTracer(true)
	tr.begin("pass")
	for _, id := range w.ids {
		tr.begin("experiments." + id)
		_, bad := runChecked([]string{id}, want)
		tr.end()
		res.Attempted++
		res.Failed += len(bad)
		res.Failures = append(res.Failures, bad...)
	}
	tr.end()

	// The replay is the same for every workload, so it runs at the same
	// GOMAXPROCS in every process: enough for its two-worker probes.
	runtime.GOMAXPROCS(max(1, min(2, runtime.NumCPU())))
	off, offFailed := runReplay(newTracer(false), o.seed)
	on, onFailed := runReplay(tr, o.seed)
	for _, f := range [][]string{offFailed, onFailed} {
		res.Attempted += len(probes)
		res.Failed += len(f)
		res.Failures = append(res.Failures, f...)
	}
	overhead := 100 * (on.busy - off.busy).Seconds() / off.busy.Seconds()
	values := append(on.values, newMetric("trace_overhead_pct", overhead, 1))
	if len(onFailed) == 0 {
		var err error
		if values, err = ordered(values, perLayer); err != nil {
			return err
		}
	}
	res.PerLayer = values
	res.Spans = summarize(tr.spans)

	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		return fmt.Errorf("creating trace directory: %w", err)
	}
	f, err := os.Create(filepath.Join(o.traceDir, "trace-"+w.name+".json"))
	if err != nil {
		return fmt.Errorf("creating trace: %w", err)
	}
	bw := bufio.NewWriter(f)
	if err := writeChrome(bw, "fpcc bench "+w.name, tr.spans); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	return f.Close()
}

// machine identifies the box and build a result describes.
type machine struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GOARCH     string  `json:"goarch"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	LoadAvg    string  `json:"loadavg_at_start"`
	Revision   string  `json:"vcs_revision"`
	Modified   bool    `json:"vcs_modified"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
}

func readMachine(o options) machine {
	m := machine{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOARCH: runtime.GOARCH, GoVersion: runtime.Version(),
		CPUModel: "unknown", LoadAvg: "unknown", Revision: "unknown",
		Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) >= 3 {
			m.LoadAvg = strings.Join(f[:3], " ")
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Revision = s.Value
			case "vcs.modified":
				m.Modified = s.Value == "true"
			}
		}
	}
	return m
}

// results is the -out file.
type results struct {
	Machine   machine          `json:"machine"`
	Workloads []workloadResult `json:"workloads"`
}

func runParent(o options, stdout, stderr io.Writer) int {
	sel := workloads
	if o.workload != "all" {
		w, err := findWorkload(o.workload)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		sel = []workload{w}
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	res := results{Machine: readMachine(o)}
	for _, w := range sel {
		res.Workloads = append(res.Workloads, runWorkload(exe, w, o, stderr))
	}
	printReport(stdout, res)
	code := 0
	if err := writeResults(o.out, res); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		code = 1
	}
	line, failed := summaryLine(res.Workloads)
	if _, err := fmt.Fprintln(stdout, line); err != nil || failed {
		code = 1
	}
	return code
}

// runWorkload measures one workload. Each phase runs in a child process
// of its own, so max_rss_mb is the end-to-end phase's peak alone, with
// no traced pass or replay in it. A child that fails to report counts
// every experiment of its phase as failed; the other phase still runs.
func runWorkload(exe string, w workload, o options, stderr io.Writer) workloadResult {
	phases := []int{o.trace}
	if o.trace == traceBoth {
		phases = []int{traceOff, traceSpans}
	}
	wr := workloadResult{Workload: w.name, Experiments: w.ids, GOMAXPROCS: w.procs()}
	for _, phase := range phases {
		got, err := runChildPhase(exe, w, o, phase, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: workload %s, -trace %d: %v\n", w.name, phase, err)
			wr.Attempted += len(w.ids)
			wr.Failed += len(w.ids)
			wr.Failures = append(wr.Failures, fmt.Sprintf("-trace %d phase: %v", phase, err))
			continue
		}
		wr.Attempted += got.Attempted
		wr.Failed += got.Failed
		wr.Failures = append(wr.Failures, got.Failures...)
		if phase == traceOff {
			wr.Passes, wr.EndToEnd, wr.Unscaled, wr.Attribution = got.Passes, got.EndToEnd, got.Unscaled, got.Attribution
			wr.PassLog, wr.SetupLog = got.PassLog, got.SetupLog
		} else {
			wr.PerLayer, wr.Spans = got.PerLayer, got.Spans
		}
	}
	return wr
}

// runChildPhase runs one phase of a workload in a child process and
// decodes its result; the end-to-end phase gains max_rss_mb from the
// child's rusage.
func runChildPhase(exe string, w workload, o options, phase int, stderr io.Writer) (workloadResult, error) {
	cmd := exec.Command(exe, "-child",
		"-workload", w.name,
		"-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(phase),
		"-trace-dir", o.traceDir)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(w.procs()))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	if err := cmd.Run(); err != nil {
		return workloadResult{}, err
	}
	var wr workloadResult
	if err := json.Unmarshal(out.Bytes(), &wr); err != nil {
		return wr, fmt.Errorf("decoding child result: %w", err)
	}
	if phase != traceOff {
		return wr, nil
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return wr, errors.New("no rusage for the child process")
	}
	ms := append(wr.EndToEnd, newMetric("max_rss_mb", float64(ru.Maxrss)/1024, 1)) // Maxrss is in KiB
	var err error
	wr.EndToEnd, err = ordered(ms, endToEnd)
	return wr, err
}

func printReport(w io.Writer, res results) {
	m := res.Machine
	fmt.Fprintf(w, "fpcc bench  seed=%d seconds=%g  nproc=%d GOMAXPROCS=%d %s %s  %s  load %s  rev %s\n",
		m.Seed, m.Seconds, m.NumCPU, m.GOMAXPROCS, m.GOARCH, m.GoVersion, m.CPUModel, m.LoadAvg, m.Revision)
	for _, wr := range res.Workloads {
		frac := float64(wr.Failed) / float64(max(wr.Attempted, 1))
		fmt.Fprintf(w, "\n== %s  [%s]  GOMAXPROCS=%d  passes=%d  failed_frac=%g (%d/%d)\n",
			wr.Workload, strings.Join(wr.Experiments, " "), wr.GOMAXPROCS, wr.Passes, frac, wr.Failed, wr.Attempted)
		for _, f := range wr.Failures {
			fmt.Fprintf(w, "  FAILED: %s\n", f)
		}
		for _, group := range [][]metric{wr.EndToEnd, wr.Unscaled, wr.Attribution, wr.PerLayer} {
			for _, mt := range group {
				fmt.Fprintf(w, "  %-32s %14.6g %-5s n=%d\n", mt.Name, mt.Value, mt.Unit, mt.N)
			}
		}
	}
}

func writeResults(path string, res results) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("creating results directory: %w", err)
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding results: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing results: %w", err)
	}
	return nil
}

// summaryLine renders the final stdout line. With one workload the
// metric keys are the bare names; with several they are prefixed by
// the workload.
func summaryLine(wrs []workloadResult) (string, bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: map[string]value{}}
	for _, wr := range wrs {
		line.Attempted += wr.Attempted
		line.Failed += wr.Failed
		for _, group := range [][]metric{wr.EndToEnd, wr.PerLayer} {
			for _, m := range group {
				key := m.Name
				if len(wrs) > 1 {
					key = wr.Workload + "." + m.Name
				}
				line.Metrics[key] = value{m.Value, m.Unit}
			}
		}
	}
	line.Correct = line.Failed == 0
	b, err := json.Marshal(line)
	if err != nil {
		// Only a non-finite value can fail to encode; report it as a failure.
		return fmt.Sprintf(`{"correct":false,"attempted":%d,"failed":%d,"metrics":{}}`, line.Attempted, max(line.Failed, 1)), true
	}
	return string(b), !line.Correct
}
