package markov

import (
	"testing"

	"fpcc/internal/control"
)

// benchChain builds a moderately sized controlled-queue chain once
// per benchmark.
func benchChain(b *testing.B) (*ControlledQueue, []float64) {
	b.Helper()
	law, err := control.NewAIMD(2, 0.8, 8)
	if err != nil {
		b.Fatal(err)
	}
	cq, err := NewControlledQueue(law, 10, 40, 0, 20, 41)
	if err != nil {
		b.Fatal(err)
	}
	p0, err := cq.InitialPoint(0, 4)
	if err != nil {
		b.Fatal(err)
	}
	return cq, p0
}

// BenchmarkUniformizationTransient times one transient solve of the
// 1681-state controlled queue to t = 5 (the E17 workload unit).
func BenchmarkUniformizationTransient(b *testing.B) {
	cq, p0 := benchChain(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cq.Chain().Transient(p0, 5, 1e-9); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStationaryPower times the power-iteration stationary solve
// of an M/M/1/200 chain.
func BenchmarkStationaryPower(b *testing.B) {
	c, err := mm1k(9, 10, 200).Chain()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.StationaryPower(1e-10, 10_000_000); err != nil {
			b.Fatal(err)
		}
	}
}
