// Command ccsim runs the packet-level congestion-control simulator:
// N adaptive sources sharing one bottleneck queue, with per-source
// feedback delays. It prints per-source throughput, fairness, and
// optionally the queue trace as TSV.
//
// Examples:
//
//	ccsim -mu 60 -n 3 -t 1000                      # three equal sources
//	ccsim -mu 60 -n 2 -delays 0.1,2.0 -qtrace q.tsv # unequal delays
//	ccsim -buffer 40 -implicit                     # TCP-style loss feedback
//	ccsim -gateway red -buffer 40                  # RED early marking
//	ccsim -burst 4                                 # on/off bursts (peak 4x)
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"

	"fpcc"
)

// errUsage reports a flag parse error, which the flag set has already
// printed with the usage.
var errUsage = errors.New("ccsim: bad flags")

func main() {
	log.SetFlags(0)
	log.SetPrefix("ccsim: ")
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		log.Fatal(err)
	}
}

// run parses args, runs the simulation and writes its report to
// stdout; the flag usage and the queue-trace note go to stderr.
func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("ccsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	mu := fs.Float64("mu", 60, "bottleneck service rate μ (packets/s)")
	n := fs.Int("n", 2, "number of sources")
	c0 := fs.Float64("c0", 10, "additive increase rate C0")
	c1 := fs.Float64("c1", 2, "multiplicative decrease constant C1")
	qHat := fs.Float64("qhat", 12, "target queue length q̂")
	interval := fs.Float64("interval", 0.05, "control update period Δ (s)")
	delays := fs.String("delays", "", "comma-separated per-source feedback delays (default all 0)")
	horizon := fs.Float64("t", 1000, "simulation horizon (s)")
	warmup := fs.Float64("warmup", 100, "warmup excluded from statistics (s)")
	seed := fs.Uint64("seed", 1, "RNG seed")
	tracePath := fs.String("qtrace", "", "write queue trace TSV to this file")
	buffer := fs.Int("buffer", 0, "finite buffer size in packets (0 = infinite)")
	implicit := fs.Bool("implicit", false, "use implicit loss feedback instead of queue observation (needs -buffer)")
	gateway := fs.String("gateway", "", "gateway discipline: '', 'ewma' or 'red'")
	burst := fs.Float64("burst", 0, "on/off burstiness factor β > 1 (0 = smooth Poisson)")
	obsCLI := fpcc.BindObsFlags(fs, stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}
	if err := obsCLI.Setup(); err != nil {
		return err
	}
	defer func() {
		if cerr := obsCLI.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("closing observability: %w", cerr)
		}
	}()

	if *n < 1 {
		return errors.New("need at least one source")
	}
	law, err := fpcc.NewAIMD(*c0, *c1, *qHat)
	if err != nil {
		return err
	}
	delayList := make([]float64, *n)
	if *delays != "" {
		parts := strings.Split(*delays, ",")
		if len(parts) != *n {
			return fmt.Errorf("-delays has %d entries for %d sources", len(parts), *n)
		}
		for i, p := range parts {
			d, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				return fmt.Errorf("bad delay %q: %v", p, err)
			}
			delayList[i] = d
		}
	}
	var mod fpcc.Modulator
	if *burst > 1 {
		const cycle = 2.0
		m, err := fpcc.NewOnOff(cycle / *burst, cycle - cycle / *burst)
		if err != nil {
			return err
		}
		mod = m
	} else if *burst != 0 {
		return errors.New("-burst must be > 1 (or 0 for smooth Poisson)")
	}
	srcs := make([]fpcc.PacketSource, *n)
	for i := range srcs {
		srcs[i] = fpcc.PacketSource{
			Law:          law,
			Delay:        delayList[i],
			Interval:     *interval,
			Lambda0:      *mu / float64(2**n),
			MinRate:      0.5,
			Burst:        mod,
			ImplicitLoss: *implicit,
		}
	}
	var gw fpcc.Gateway
	switch *gateway {
	case "":
	case "ewma":
		g, err := fpcc.NewEWMAGateway(1.0)
		if err != nil {
			return err
		}
		gw = g
	case "red":
		g, err := fpcc.NewREDGateway(*qHat/3, 2**qHat, 0.3, 0.5)
		if err != nil {
			return err
		}
		gw = g
	default:
		return fmt.Errorf("unknown gateway %q (want '', 'ewma' or 'red')", *gateway)
	}
	sampleEvery := 0.0
	if *tracePath != "" {
		sampleEvery = 0.1
	}
	rec := obsCLI.Recorder("des")
	sim, err := fpcc.NewPacketSim(fpcc.PacketSimConfig{
		Mu: *mu, Seed: *seed, Sources: srcs, SampleEvery: sampleEvery,
		Buffer: *buffer, Gateway: gw, Obs: rec,
	})
	if err != nil {
		return err
	}
	runSpan := rec.Span("step")
	res, err := sim.Run(*horizon, *warmup)
	runSpan.End()
	if err != nil {
		obsCLI.DumpViolation(err)
		return err
	}

	var total float64
	for _, tp := range res.Throughput {
		total += tp
	}
	fmt.Fprintf(stdout, "horizon %.0fs (warmup %.0fs), mu=%.1f, %d sources\n", *horizon, *warmup, *mu, *n)
	fmt.Fprintf(stdout, "%-8s %-10s %-12s %-8s\n", "source", "delay(s)", "throughput", "share")
	for i, tp := range res.Throughput {
		fmt.Fprintf(stdout, "S%-7d %-10.2f %-12.3f %-8.3f\n", i+1, delayList[i], tp, tp/total)
	}
	fmt.Fprintf(stdout, "utilization %.3f, Jain fairness %.4f\n", total / *mu, fpcc.JainIndex(res.Throughput))
	fmt.Fprintf(stdout, "mean queue %.3f (std %.3f), target q̂ = %.1f\n",
		res.QueueStats.Mean(), res.QueueStats.StdDev(), *qHat)
	if *buffer > 0 {
		var dropped, delivered int64
		for i := range res.Dropped {
			dropped += res.Dropped[i]
			delivered += res.Delivered[i]
		}
		fmt.Fprintf(stdout, "buffer %d: dropped %d of %d offered (loss rate %.4f)\n",
			*buffer, dropped, dropped+delivered, float64(dropped)/float64(dropped+delivered))
	}

	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		fmt.Fprintln(f, "# t\tqueue")
		for i := range res.TraceT {
			fmt.Fprintf(f, "%.3f\t%.0f\n", res.TraceT[i], res.TraceQ[i])
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "ccsim: queue trace written to %s (%d samples)\n", *tracePath, len(res.TraceT))
	}
	return nil
}
