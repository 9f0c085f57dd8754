package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: Forward and Inverse are mutual inverses for arbitrary
// lengths (including Bluestein territory) and arbitrary data.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		p := NewPlan(n)
		x := randComplex(rng, n)
		y := make([]complex128, n)
		p.Forward(y, x)
		p.Inverse(y, y)
		return maxAbsDiff(y, x) < 1e-8*float64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the shift theorem — a circular shift by s multiplies bin k
// by exp(−2πi·ks/n).
func TestShiftTheoremProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		s := rng.Intn(n)
		p := NewPlan(n)
		x := randComplex(rng, n)
		shifted := make([]complex128, n)
		for j := range shifted {
			shifted[j] = x[(j+s)%n]
		}
		fx := make([]complex128, n)
		fs := make([]complex128, n)
		p.Forward(fx, x)
		p.Forward(fs, shifted)
		for k := 0; k < n; k++ {
			ph := cmplx.Exp(complex(0, 2*math.Pi*float64(k*s)/float64(n)))
			if cmplx.Abs(fs[k]-fx[k]*ph) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: convolution theorem — pointwise product of spectra equals
// the spectrum of the circular convolution.
func TestConvolutionTheoremProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		p := NewPlan(n)
		x := randComplex(rng, n)
		y := randComplex(rng, n)
		conv := make([]complex128, n)
		for k := 0; k < n; k++ {
			for j := 0; j < n; j++ {
				conv[k] += x[j] * y[(k-j+n)%n]
			}
		}
		fx := make([]complex128, n)
		fy := make([]complex128, n)
		fc := make([]complex128, n)
		p.Forward(fx, x)
		p.Forward(fy, y)
		p.Forward(fc, conv)
		for k := 0; k < n; k++ {
			if cmplx.Abs(fc[k]-fx[k]*fy[k]) > 1e-6*float64(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: real-plan output satisfies conjugate symmetry implicitly —
// reconstructing the full spectrum and inverse-transforming through
// the complex plan reproduces the real signal.
func TestRealPlanConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 * (1 + rng.Intn(40))
		rp := NewRealPlan(n)
		cp := NewPlan(n)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		half := make([]complex128, rp.HalfLen())
		rp.Forward(half, x)
		full := make([]complex128, n)
		full[0] = half[0]
		for k := 1; k < rp.HalfLen(); k++ {
			full[k] = half[k]
			if k != n/2 {
				full[n-k] = cmplx.Conj(half[k])
			}
		}
		back := make([]complex128, n)
		cp.Inverse(back, full)
		for i := range x {
			if math.Abs(real(back[i])-x[i]) > 1e-9 || math.Abs(imag(back[i])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: batch execution equals transform-by-transform execution
// bit for bit over interleaved, contiguous and in-place contiguous
// layouts in both directions, with batches of up to more than two
// tiles of the tiled driver — the line-vectorized kernel and the tiled
// driver reorder loops, never arithmetic.
func TestBatchEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(130)
		hm := 1 + rng.Intn(2*tileLines+8)
		p := NewPlan(n)
		defer p.Release()
		for _, l := range []struct {
			stride, dist int
			inPlace      bool
		}{
			{hm, 1, false}, // interleaved
			{1, n, false},  // contiguous
			{1, n, true},   // in-place contiguous
		} {
			for _, dir := range []Direction{Forward, Inverse} {
				if !batchMatchesPlan(rng, p, hm, l.stride, l.dist, l.inPlace, dir) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// batchMatchesPlan runs one random batch of hm lines of p's length,
// element j of line t at t·dist + j·stride on both sides, and reports
// whether every line equals p's transform of it bit for bit.
func batchMatchesPlan(rng *rand.Rand, p *Plan, hm, stride, dist int, inPlace bool, dir Direction) bool {
	n := p.Len()
	src := randComplex(rng, n*hm)
	dst := make([]complex128, n*hm)
	in := src
	if inPlace {
		copy(dst, src)
		in = dst
	}
	b := NewBatch(n, hm, stride, dist, stride, dist)
	b.exec(dst, in, dir)
	b.Release()
	one := make([]complex128, n)
	out := make([]complex128, n)
	for t := 0; t < hm; t++ {
		for j := range one {
			one[j] = src[t*dist+j*stride]
		}
		p.run(out, one, dir)
		for k, v := range out {
			if dst[t*dist+k*stride] != v {
				return false
			}
		}
	}
	return true
}
