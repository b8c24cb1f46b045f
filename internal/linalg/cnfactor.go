package linalg

// CNFactor is the prefactored Thomas decomposition of the zero-flux
// (Neumann) Crank-Nicolson left-hand side (I − r·A), with A the
// standard second-difference stencil: bands dd = {1+r, 1+2r, …,
// 1+2r, 1+r} and dl = du = −r. These systems appear once per
// diffusion axis in the Fokker-Planck solver and once per class in
// the mean-field kernels, always with bands that depend only on r —
// so the decomposition is built once per distinct r and each solve
// collapses to a forward and a back substitution. The matrix is
// strictly diagonally dominant for every r ≥ 0, so the factorization
// cannot fail and no pivot checks are needed.
//
// One solve is a serial chain of about 2·N dependent multiply-adds,
// so it is bound by floating-point latency, not throughput. Step
// carries both recurrences in registers; StepLanes interleaves up to
// four independent systems of the same size so their chains overlap,
// each lane doing exactly Step's arithmetic.
//
// Cp and Inv are exposed so a caller can stream several right-hand
// sides through one factorization in its own loop order (the
// Fokker-Planck q-diffusion runs all its columns at once); they are
// read-only outside Ensure.
type CNFactor struct {
	R   float64   // the factor the decomposition was built for
	N   int       // system size
	Cp  []float64 // Cp[i] = du[i]/den[i], the back-substitution band
	Inv []float64 // Inv[i] = 1/den[i], the forward-sweep pivots
}

// Ensure (re)builds the factorization for the given r and system size
// n >= 2; a repeated call with the same parameters is free.
func (f *CNFactor) Ensure(r float64, n int) {
	if f.N == n && f.R == r && f.Cp != nil {
		return
	}
	if cap(f.Cp) < n {
		f.Cp = make([]float64, n)
		f.Inv = make([]float64, n)
	}
	f.Cp = f.Cp[:n]
	f.Inv = f.Inv[:n]
	f.R = r
	f.N = n
	f.Inv[0] = 1 / (1 + r)
	f.Cp[0] = -r * f.Inv[0]
	for i := 1; i < n; i++ {
		dd := 1 + 2*r
		if i == n-1 {
			dd = 1 + r
		}
		den := dd + r*f.Cp[i-1] // dd − dl·cp with dl = −r
		f.Inv[i] = 1 / den
		f.Cp[i] = -r * f.Inv[i]
	}
}

// Step advances x by one Crank-Nicolson diffusion step in place:
// it builds the right-hand side (I + r·A)·x with the zero-flux
// stencil, forward-eliminates it into the workspace dp (len >= N)
// in the same fused pass, and back-substitutes into x.
func (f *CNFactor) Step(x, dp []float64) {
	n, r := f.N, f.R
	inv, cp := f.Inv[:n], f.Cp[:n]
	x, dp = x[:n], dp[:n]
	// Forward sweep: xm, xc are x[i-1], x[i] and d is dp[i-1].
	xm, xc := x[0], x[1]
	d := (xm + r*(xc-xm)) * inv[0]
	dp[0] = d
	for i := 1; i < n-1; i++ {
		xn := x[i+1]
		rhs := xc + r*(xm-2*xc+xn)
		d = (rhs + r*d) * inv[i]
		dp[i] = d
		xm, xc = xc, xn
	}
	rhs := xc + r*(xm-xc)
	d = (rhs + r*d) * inv[n-1]
	// Back substitution: d is x[i+1].
	x[n-1] = d
	for i := n - 2; i >= 0; i-- {
		d = dp[i] - cp[i]*d
		x[i] = d
	}
}

// StepLanes applies Step to every system i — fs[i].Step(xs[i], dps[i])
// — with the same float operations in the same order, so each result
// is bit-identical to a lone Step. The systems must all be of one
// size; they are stepped four (then two, then one) at a time with
// their recurrences interleaved, which hides most of the latency a
// lone solve waits on. It panics if the slices disagree in length or
// the sizes differ.
func StepLanes(fs []*CNFactor, xs, dps [][]float64) {
	if len(xs) != len(fs) || len(dps) != len(fs) {
		panic("linalg: StepLanes slice lengths differ")
	}
	for _, f := range fs {
		if f.N != fs[0].N {
			panic("linalg: StepLanes systems differ in size")
		}
	}
	i := 0
	for ; i+4 <= len(fs); i += 4 {
		step4(fs[i:i+4], xs[i:i+4], dps[i:i+4])
	}
	if i+2 <= len(fs) {
		step2(fs[i:i+2], xs[i:i+2], dps[i:i+2])
		i += 2
	}
	if i < len(fs) {
		fs[i].Step(xs[i], dps[i])
	}
}

// step2 is Step on two systems of one size, the recurrences of lane a
// and lane b interleaved.
func step2(fs []*CNFactor, xs, dps [][]float64) {
	fa, fb := fs[0], fs[1]
	n := fa.N
	ra, rb := fa.R, fb.R
	ia, ib := fa.Inv[:n], fb.Inv[:n]
	ca, cb := fa.Cp[:n], fb.Cp[:n]
	xa, xb := xs[0][:n], xs[1][:n]
	pa, pb := dps[0][:n], dps[1][:n]

	ma, ka := xa[0], xa[1]
	mb, kb := xb[0], xb[1]
	da := (ma + ra*(ka-ma)) * ia[0]
	db := (mb + rb*(kb-mb)) * ib[0]
	pa[0], pb[0] = da, db
	for i := 1; i < n-1; i++ {
		na, nb := xa[i+1], xb[i+1]
		ha := ka + ra*(ma-2*ka+na)
		hb := kb + rb*(mb-2*kb+nb)
		da = (ha + ra*da) * ia[i]
		db = (hb + rb*db) * ib[i]
		pa[i], pb[i] = da, db
		ma, ka = ka, na
		mb, kb = kb, nb
	}
	ha := ka + ra*(ma-ka)
	hb := kb + rb*(mb-kb)
	da = (ha + ra*da) * ia[n-1]
	db = (hb + rb*db) * ib[n-1]
	xa[n-1], xb[n-1] = da, db
	for i := n - 2; i >= 0; i-- {
		da = pa[i] - ca[i]*da
		db = pb[i] - cb[i]*db
		xa[i], xb[i] = da, db
	}
}

// step4 is Step on four systems of one size, lanes a–d interleaved.
func step4(fs []*CNFactor, xs, dps [][]float64) {
	fa, fb, fc, fd := fs[0], fs[1], fs[2], fs[3]
	n := fa.N
	ra, rb, rc, rd := fa.R, fb.R, fc.R, fd.R
	ia, ib, ic, id := fa.Inv[:n], fb.Inv[:n], fc.Inv[:n], fd.Inv[:n]
	ca, cb, cc, cd := fa.Cp[:n], fb.Cp[:n], fc.Cp[:n], fd.Cp[:n]
	xa, xb, xc, xd := xs[0][:n], xs[1][:n], xs[2][:n], xs[3][:n]
	pa, pb, pc, pd := dps[0][:n], dps[1][:n], dps[2][:n], dps[3][:n]

	ma, ka := xa[0], xa[1]
	mb, kb := xb[0], xb[1]
	mc, kc := xc[0], xc[1]
	md, kd := xd[0], xd[1]
	da := (ma + ra*(ka-ma)) * ia[0]
	db := (mb + rb*(kb-mb)) * ib[0]
	dc := (mc + rc*(kc-mc)) * ic[0]
	dd := (md + rd*(kd-md)) * id[0]
	pa[0], pb[0], pc[0], pd[0] = da, db, dc, dd
	for i := 1; i < n-1; i++ {
		na, nb, nc, nd := xa[i+1], xb[i+1], xc[i+1], xd[i+1]
		ha := ka + ra*(ma-2*ka+na)
		hb := kb + rb*(mb-2*kb+nb)
		hc := kc + rc*(mc-2*kc+nc)
		hd := kd + rd*(md-2*kd+nd)
		da = (ha + ra*da) * ia[i]
		db = (hb + rb*db) * ib[i]
		dc = (hc + rc*dc) * ic[i]
		dd = (hd + rd*dd) * id[i]
		pa[i], pb[i], pc[i], pd[i] = da, db, dc, dd
		ma, ka = ka, na
		mb, kb = kb, nb
		mc, kc = kc, nc
		md, kd = kd, nd
	}
	ha := ka + ra*(ma-ka)
	hb := kb + rb*(mb-kb)
	hc := kc + rc*(mc-kc)
	hd := kd + rd*(md-kd)
	da = (ha + ra*da) * ia[n-1]
	db = (hb + rb*db) * ib[n-1]
	dc = (hc + rc*dc) * ic[n-1]
	dd = (hd + rd*dd) * id[n-1]
	xa[n-1], xb[n-1], xc[n-1], xd[n-1] = da, db, dc, dd
	for i := n - 2; i >= 0; i-- {
		da = pa[i] - ca[i]*da
		db = pb[i] - cb[i]*db
		dc = pc[i] - cc[i]*dc
		dd = pd[i] - cd[i]*dd
		xa[i], xb[i], xc[i], xd[i] = da, db, dc, dd
	}
}
