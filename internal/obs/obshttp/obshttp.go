// Package obshttp is the live HTTP surface over internal/obs: a
// management/monitoring endpoint a running engine serves while its
// hot path keeps stepping (the ndn-dpdk idiom of a control plane
// over a data plane). One small mux exposes
//
//	/metrics       Prometheus text-format exposition of every
//	               attached recorder, rolled up over its Child
//	               hierarchy (scrape cardinality stays independent
//	               of sweep-cell count)
//	/summary       the same state as a JSON obs.Summary tree
//	/debug/vars    expvar (memstats, cmdline)
//	/debug/pprof/  net/http/pprof profiles
//
// Recorders are attached as they are created; snapshots are taken
// under the recorders' own locks, so scraping is safe at any moment
// of a run and costs the engines nothing between scrapes.
package obshttp

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	netpprof "net/http/pprof"
	"sort"
	"strconv"
	"sync"
	"time"

	"fpcc/internal/obs"
)

// Server owns the monitoring mux and the set of recorders it
// exports. Zero value is not usable; create with New.
type Server struct {
	mu    sync.Mutex
	recs  []*obs.Recorder
	start time.Time
	srv   *http.Server
	lis   net.Listener
}

// New returns a server with no recorders attached.
func New() *Server { return &Server{start: time.Now()} }

// Attach registers a recorder for export. Nil recorders (the
// disabled default) are ignored, so callers can attach
// unconditionally.
func (s *Server) Attach(r *obs.Recorder) {
	if r == nil {
		return
	}
	s.mu.Lock()
	s.recs = append(s.recs, r)
	s.mu.Unlock()
}

// summaries snapshots every attached recorder's full tree, in attach
// order.
func (s *Server) summaries() []*obs.Summary {
	s.mu.Lock()
	recs := make([]*obs.Recorder, len(s.recs))
	copy(recs, s.recs)
	s.mu.Unlock()
	out := make([]*obs.Summary, 0, len(recs))
	for _, r := range recs {
		if sum := r.Summary(); sum != nil {
			out = append(out, sum)
		}
	}
	return out
}

// Handler returns the monitoring mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		fmt.Fprint(w, "fpcc observability\n\n/metrics\n/summary\n/debug/vars\n/debug/pprof/\n")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WriteMetrics(w, s.summaries(), time.Since(s.start).Seconds())
	})
	mux.HandleFunc("/summary", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(struct {
			UptimeSeconds float64        `json:"uptime_seconds"`
			Recorders     []*obs.Summary `json:"recorders"`
		}{time.Since(s.start).Seconds(), s.summaries()})
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", netpprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", netpprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", netpprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", netpprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", netpprof.Trace)
	return mux
}

// Start listens on addr (host:port; port 0 picks a free one) and
// serves the monitoring mux until Close. It returns the bound
// address.
func (s *Server) Start(addr string) (string, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("obshttp: %w", err)
	}
	s.lis = lis
	s.srv = &http.Server{Handler: s.Handler()}
	go s.srv.Serve(lis)
	return lis.Addr().String(), nil
}

// Close stops the server, if Start was called.
func (s *Server) Close() error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

// WriteMetrics renders summaries as Prometheus text-format
// exposition (one rolled-up block per summary, labeled by scope).
// Output is deterministic given the summaries: families in fixed
// order, scopes in given order, names sorted.
func WriteMetrics(w io.Writer, sums []*obs.Summary, uptime float64) {
	rolled := make([]*obs.Summary, 0, len(sums))
	for _, s := range sums {
		rolled = append(rolled, s.Rollup())
	}

	fmt.Fprintf(w, "# HELP fpcc_uptime_seconds Wall-clock seconds since the monitoring surface started.\n")
	fmt.Fprintf(w, "# TYPE fpcc_uptime_seconds gauge\n")
	fmt.Fprintf(w, "fpcc_uptime_seconds %s\n", fmtVal(uptime))

	writeFamily(w, "fpcc_counter_total", "counter", "Recorder counters, summed over the Child hierarchy.", rolled,
		func(s *obs.Summary, emit func(labels string, v string)) {
			for _, k := range sortedKeysOf(s.Counters) {
				emit(labelPair(s.Scope, "name", k), strconv.FormatInt(s.Counters[k], 10))
			}
		})
	writeFamily(w, "fpcc_probe", "gauge", "Last sampled value of each probe series.", rolled,
		func(s *obs.Summary, emit func(labels string, v string)) {
			for _, k := range sortedKeysOf(s.Probes) {
				emit(labelPair(s.Scope, "series", k), fmtVal(s.Probes[k].Last))
			}
		})
	writeFamily(w, "fpcc_probe_sim_time", "gauge", "Simulation time of each probe series' last sample.", rolled,
		func(s *obs.Summary, emit func(labels string, v string)) {
			for _, k := range sortedKeysOf(s.Probes) {
				emit(labelPair(s.Scope, "series", k), fmtVal(s.Probes[k].LastT))
			}
		})
	writeFamily(w, "fpcc_probe_samples_total", "counter", "Samples taken per probe series.", rolled,
		func(s *obs.Summary, emit func(labels string, v string)) {
			for _, k := range sortedKeysOf(s.Probes) {
				emit(labelPair(s.Scope, "series", k), strconv.FormatInt(s.Probes[k].Count, 10))
			}
		})
	writeFamily(w, "fpcc_span_seconds_total", "counter", "Monotonic time accumulated per span name, workers summed.", rolled,
		func(s *obs.Summary, emit func(labels string, v string)) {
			for _, k := range sortedKeysOf(s.Spans) {
				emit(labelPair(s.Scope, "span", k), fmtVal(s.Spans[k].Seconds))
			}
		})
	writeFamily(w, "fpcc_span_count_total", "counter", "Completed spans per span name.", rolled,
		func(s *obs.Summary, emit func(labels string, v string)) {
			for _, k := range sortedKeysOf(s.Spans) {
				emit(labelPair(s.Scope, "span", k), strconv.FormatInt(s.Spans[k].Count, 10))
			}
		})
	writeFamily(w, "fpcc_violations_total", "counter", "Invariant violations recorded.", rolled,
		func(s *obs.Summary, emit func(labels string, v string)) {
			emit(fmt.Sprintf("scope=%q", s.Scope), strconv.FormatInt(s.Violations, 10))
		})
}

// writeFamily emits one metric family: header once, then every
// scope's samples.
func writeFamily(w io.Writer, name, typ, help string, sums []*obs.Summary,
	each func(*obs.Summary, func(labels, v string))) {
	wrote := false
	for _, s := range sums {
		each(s, func(labels, v string) {
			if !wrote {
				fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
				wrote = true
			}
			fmt.Fprintf(w, "%s{%s} %s\n", name, labels, v)
		})
	}
}

// labelPair renders a two-label set. %q escapes backslashes, quotes
// and newlines exactly as the Prometheus exposition format requires.
func labelPair(scope, key, name string) string {
	return fmt.Sprintf("scope=%q,%s=%q", scope, key, name)
}

// fmtVal renders a float in Prometheus exposition form (shortest
// round-trip representation; NaN and ±Inf spelled out).
func fmtVal(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// sortedKeysOf returns m's keys sorted.
func sortedKeysOf[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
