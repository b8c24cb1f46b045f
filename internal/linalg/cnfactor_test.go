package linalg

import (
	"math"
	"strconv"
	"testing"

	"fpcc/internal/rng"
)

// cnBands builds the explicit (I − r·A) bands the factorization
// stands for.
func cnBands(r float64, n int) (dl, dd, du []float64) {
	dl = make([]float64, n)
	dd = make([]float64, n)
	du = make([]float64, n)
	for i := 0; i < n; i++ {
		switch i {
		case 0:
			dd[i], du[i] = 1+r, -r
		case n - 1:
			dl[i], dd[i] = -r, 1+r
		default:
			dl[i], dd[i], du[i] = -r, 1+2*r, -r
		}
	}
	return dl, dd, du
}

// TestCNFactorMatchesTridiag pins the fused prefactored step against
// the general Thomas solver on the explicitly built bands: same RHS,
// solution agreement to a tight relative bound, across sizes and r.
func TestCNFactorMatchesTridiag(t *testing.T) {
	r := rng.New(5)
	for _, n := range []int{2, 3, 8, 100, 257} {
		for _, rr := range []float64{0, 1e-4, 0.3, 5, 400} {
			x := make([]float64, n)
			for i := range x {
				x[i] = r.Float64() * 10
			}
			// Reference: explicit bands + Tridiag on the CN RHS.
			dl, dd, du := cnBands(rr, n)
			rhs := make([]float64, n)
			for i := range rhs {
				var lap float64
				switch i {
				case 0:
					lap = x[1] - x[0]
				case n - 1:
					lap = x[n-2] - x[n-1]
				default:
					lap = x[i-1] - 2*x[i] + x[i+1]
				}
				rhs[i] = x[i] + rr*lap
			}
			want := make([]float64, n)
			var tri Tridiag
			if err := tri.Solve(dl, dd, du, rhs, want); err != nil {
				t.Fatal(err)
			}
			var fac CNFactor
			fac.Ensure(rr, n)
			got := append([]float64(nil), x...)
			fac.Step(got, make([]float64, n))
			for i := range want {
				if d := math.Abs(got[i] - want[i]); d > 1e-12*(1+math.Abs(want[i])) {
					t.Fatalf("n=%d r=%v: x[%d] = %v, Tridiag gives %v", n, rr, i, got[i], want[i])
				}
			}
		}
	}
}

// TestCNFactorEnsureIdempotent checks the rebuild-only-on-change
// contract.
func TestCNFactorEnsureIdempotent(t *testing.T) {
	var fac CNFactor
	fac.Ensure(0.5, 16)
	cp0 := &fac.Cp[0]
	fac.Ensure(0.5, 16)
	if &fac.Cp[0] != cp0 {
		t.Fatal("Ensure with unchanged parameters rebuilt the factorization")
	}
	fac.Ensure(0.7, 16)
	if fac.R != 0.7 {
		t.Fatal("Ensure did not rebuild for a new r")
	}
}

// TestCNFactorConservesMass checks the zero-flux property: the CN
// step must conserve the discrete sum exactly up to rounding.
func TestCNFactorConservesMass(t *testing.T) {
	r := rng.New(11)
	const n = 64
	x := make([]float64, n)
	var before float64
	for i := range x {
		x[i] = r.Float64()
		before += x[i]
	}
	var fac CNFactor
	fac.Ensure(2.5, n)
	dp := make([]float64, n)
	for step := 0; step < 50; step++ {
		fac.Step(x, dp)
	}
	var after float64
	for _, v := range x {
		after += v
	}
	if math.Abs(after-before) > 1e-10*before {
		t.Fatalf("mass drifted: %v -> %v", before, after)
	}
}

// stepOracle is CNFactor.Step as it was before the recurrences moved
// into registers: every value is reloaded from dp and x. The rewrite
// must reproduce it bit for bit.
func stepOracle(f *CNFactor, x, dp []float64) {
	n, r := f.N, f.R
	inv, cp := f.Inv, f.Cp
	dp[0] = (x[0] + r*(x[1]-x[0])) * inv[0]
	for i := 1; i < n-1; i++ {
		rhs := x[i] + r*(x[i-1]-2*x[i]+x[i+1])
		dp[i] = (rhs + r*dp[i-1]) * inv[i]
	}
	rhs := x[n-1] + r*(x[n-2]-x[n-1])
	dp[n-1] = (rhs + r*dp[n-2]) * inv[n-1]
	x[n-1] = dp[n-1]
	for i := n - 2; i >= 0; i-- {
		x[i] = dp[i] - cp[i]*x[i+1]
	}
}

// sameBits reports the first index where a and b differ in bit
// pattern, or -1.
func sameBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestStepMatchesOracle pins the register-carried Step to the
// reference recurrence over repeated steps, across sizes and r.
func TestStepMatchesOracle(t *testing.T) {
	src := rng.New(3)
	for _, n := range []int{2, 3, 8, 160, 192} {
		for _, r := range []float64{0, 1e-4, 0.35, 5, 400} {
			var f CNFactor
			f.Ensure(r, n)
			x := make([]float64, n)
			for i := range x {
				x[i] = src.Float64()*10 - 1
			}
			want := append([]float64(nil), x...)
			dp, dpWant := make([]float64, n), make([]float64, n)
			for step := 0; step < 20; step++ {
				f.Step(x, dp)
				stepOracle(&f, want, dpWant)
			}
			if i := sameBits(x, want); i >= 0 {
				t.Fatalf("n=%d r=%v: x[%d] = %v, oracle %v", n, r, i, x[i], want[i])
			}
		}
	}
}

// TestStepLanesMatchesStep checks the interleaved kernels lane by
// lane: every lane count from 1 to 9 (so the 4-, 2- and 1-lane tails
// all run), a different r per lane, bit-identical to a lone Step.
func TestStepLanesMatchesStep(t *testing.T) {
	src := rng.New(9)
	for _, n := range []int{2, 3, 8, 160, 192} {
		for lanes := 1; lanes <= 9; lanes++ {
			fs := make([]*CNFactor, lanes)
			xs, dps := make([][]float64, lanes), make([][]float64, lanes)
			want := make([][]float64, lanes)
			for l := range fs {
				fs[l] = new(CNFactor)
				fs[l].Ensure(0.05+3*src.Float64(), n)
				xs[l], dps[l] = make([]float64, n), make([]float64, n)
				for i := range xs[l] {
					xs[l][i] = src.Float64() * 5
				}
				want[l] = append([]float64(nil), xs[l]...)
			}
			dp := make([]float64, n)
			for step := 0; step < 5; step++ {
				StepLanes(fs, xs, dps)
				for l, f := range fs {
					f.Step(want[l], dp)
				}
			}
			for l := range fs {
				if i := sameBits(xs[l], want[l]); i >= 0 {
					t.Fatalf("n=%d lanes=%d lane %d: x[%d] = %v, Step gives %v", n, lanes, l, i, xs[l][i], want[l][i])
				}
			}
		}
	}
}

// TestStepLanesRejectsMixedSizes checks the size guard.
func TestStepLanesRejectsMixedSizes(t *testing.T) {
	var a, b CNFactor
	a.Ensure(0.5, 8)
	b.Ensure(0.5, 9)
	defer func() {
		if recover() == nil {
			t.Fatal("StepLanes accepted systems of different sizes")
		}
	}()
	StepLanes([]*CNFactor{&a, &b},
		[][]float64{make([]float64, 8), make([]float64, 9)},
		[][]float64{make([]float64, 8), make([]float64, 9)})
}

// BenchmarkCNFactorStep times one diffusion step on the 160-bin rate
// grid of the kinetic engine, alone and interleaved two and four
// lanes wide; ns/kernel is the cost per system.
func BenchmarkCNFactorStep(b *testing.B) {
	const n = 160
	for _, lanes := range []int{1, 2, 4} {
		b.Run("lanes="+strconv.Itoa(lanes), func(b *testing.B) {
			src := rng.New(1)
			fs := make([]*CNFactor, lanes)
			xs, dps := make([][]float64, lanes), make([][]float64, lanes)
			for l := range fs {
				fs[l] = new(CNFactor)
				fs[l].Ensure(0.35+0.01*float64(l), n)
				xs[l], dps[l] = make([]float64, n), make([]float64, n)
				for i := range xs[l] {
					xs[l][i] = src.Float64()
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if lanes == 1 {
					fs[0].Step(xs[0], dps[0])
				} else {
					StepLanes(fs, xs, dps)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lanes), "ns/kernel")
		})
	}
}
