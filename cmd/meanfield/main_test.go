package main

import (
	"bytes"
	"flag"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"fpcc"
)

// parse binds the command's flags to a fresh flag set and parses args.
func parse(t *testing.T, args ...string) (*flags, *flag.FlagSet) {
	t.Helper()
	fs := flag.NewFlagSet("meanfield", flag.ContinueOnError)
	f := bind(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f, fs
}

// TestChurnMeanOpensClasses pins both meanings of -churn-mean: every
// compliant class opens on one-node (the attacker stays closed), only
// the multi-hop class 0 on a network.
func TestChurnMeanOpensClasses(t *testing.T) {
	f, fs := parse(t, "-n", "1000", "-churn-mean", "4", "-attack-frac", "0.3")
	one, _, err := f.build(fs)
	if err != nil {
		t.Fatal(err)
	}
	for k, cl := range one.Classes {
		switch open := cl.Churn != nil; {
		case cl.Name == "attack" && open:
			t.Errorf("one-node: the attacker class is open")
		case cl.Name != "attack" && !open:
			t.Errorf("one-node: compliant class %s is closed", cl.Name)
		case open && cl.Churn.Arrival != float64(cl.N)/4:
			t.Errorf("one-node: class %d arrival %v, want N/mean = %v", k, cl.Churn.Arrival, float64(cl.N)/4)
		}
	}
	for _, topo := range []string{"parking-lot", "cross-chain"} {
		f, fs := parse(t, "-topology", topo, "-n", "1000", "-churn-mean", "4", "-churn-pareto")
		_, net, err := f.build(fs)
		if err != nil {
			t.Fatal(err)
		}
		for k, cl := range net.Classes {
			if open := cl.Churn != nil; open != (k == 0) {
				t.Errorf("%s: class %d (%s) open = %v, want only class 0 open", topo, k, cl.Name, open)
			}
		}
		if ch := net.Classes[0].Churn; ch.Arrival != float64(net.Classes[0].N)/4 {
			t.Errorf("%s: class 0 arrival %v, want N/mean", topo, ch.Arrival)
		}
	}
}

// TestRejectsFlagsTheTopologyDoesNotRead: an explicitly set flag the
// chosen topology or mode ignores is an error, not a silent no-op.
func TestRejectsFlagsTheTopologyDoesNotRead(t *testing.T) {
	for _, args := range [][]string{
		{"-topology", "parking-lot", "-mode", "particle"},
		{"-topology", "cross-chain", "-mode", "particle"},
		{"-topology", "parking-lot", "-attack-frac", "0.2"},
		{"-topology", "cross-chain", "-slow-frac", "0.3"},
		{"-topology", "parking-lot", "-rtt-ratio", "2"},
		{"-topology", "parking-lot", "-cross-frac", "0.2"},
		{"-topology", "cross-chain", "-hops", "2"},
		{"-topology", "cross-chain", "-rtt-stretch", "2"},
		{"-topology", "parking-lot", "-seed", "7"},
		{"-hops", "3"},
		{"-cross-frac", "0.2"},
		{"-mode", "particle", "-churn-mean", "4"},
		{"-mode", "particle", "-attack-frac", "0.2"},
		{"-mode", "fluid"},
		{"-topology", "ring"},
	} {
		f, fs := parse(t, args...)
		if _, _, err := f.build(fs); err == nil {
			t.Errorf("%v: accepted", args)
		}
	}
	for _, args := range [][]string{
		{"-topology", "parking-lot", "-hops", "2", "-rtt-stretch", "2", "-mode", "density"},
		{"-topology", "cross-chain", "-cross-frac", "0.4", "-share", "2"},
		{"-mode", "particle", "-n", "1000", "-seed", "7", "-workers", "2"},
	} {
		f, fs := parse(t, args...)
		if _, _, err := f.build(fs); err != nil {
			t.Errorf("%v: %v", args, err)
		}
	}
}

// TestNetworkFlagsForwardToBuilders: the shared flags' defaults are
// the scenario builders' own defaults, and explicit values reach them.
func TestNetworkFlagsForwardToBuilders(t *testing.T) {
	f, fs := parse(t, "-topology", "parking-lot", "-hops", "2", "-n", "500")
	_, got, err := f.build(fs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fpcc.NewNetMeanFieldParkingLot(fpcc.NetMeanFieldParkingLotConfig{Hops: 2, N: 500, Delay: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	want.SecondOrder = true
	if g, w := fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", want); g != w {
		t.Errorf("parking-lot defaults:\n got %s\nwant %s", g, w)
	}
	f, fs = parse(t, "-topology", "cross-chain", "-n", "800", "-cross-frac", "0.25", "-c0", "0.8", "-lmax", "5", "-first-order")
	_, got, err = f.build(fs)
	if err != nil {
		t.Fatal(err)
	}
	want, err = fpcc.NewNetMeanFieldCrossChain(fpcc.NetMeanFieldCrossChainConfig{N: 800, CrossFrac: 0.25, C0: 0.8, LMax: 5, Delay: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	// The cross class's law holds a func, which only prints equal.
	if g, w := fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", want); g != w {
		t.Errorf("cross-chain:\n got %s\nwant %s", g, w)
	}
}

// TestOneNodeQueuePerCompliantSource: with attackers in the mix the
// one-node queue is still reported per -n source, the basis of the
// target qhat0, not per source of the whole population.
func TestOneNodeQueuePerCompliantSource(t *testing.T) {
	f, fs := parse(t, "-n", "1000", "-attack-frac", "0.3", "-t", "0.02", "-warmup", "0.01")
	cfg, _, err := f.build(fs)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.TotalSources() != 1200 {
		t.Fatalf("%d sources, want 1000 compliant + 200 attackers", cfg.TotalSources())
	}
	var trace bytes.Buffer
	if err := f.runOneNode(cfg, nil, &trace); err != nil {
		t.Fatal(err)
	}
	d, err := fpcc.NewMeanField(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Step(); err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(trace.String(), "\n")
	if !strings.HasPrefix(rows[0], "t,queue_per_source,") {
		t.Fatalf("trace header %q", rows[0])
	}
	got, err := strconv.ParseFloat(strings.Split(rows[1], ",")[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	if want := d.Queue() / 1000; got != want {
		t.Errorf("queue per source %v after one step, want %v (queue / -n, not / %d)", got, want, cfg.TotalSources())
	}
}
