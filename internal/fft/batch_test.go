package fft

import (
	"math/cmplx"
	"math/rand"
	"testing"
)

// FuzzBatchLayout drives Batch over arbitrary advanced layouts and
// checks two things per execution: the whole destination buffer equals
// the one a per-line Plan loop produces (bit for bit, gaps included),
// and every line is within tolerance of the naive DFT. In-place runs
// use one buffer with the input layout on both sides; the per-line
// reference then transforms lines in batch order on its own copy, so
// overlapping layouts are compared under the same sequential
// semantics.
func FuzzBatchLayout(f *testing.F) {
	f.Fuzz(func(t *testing.T, nRaw uint16, hmRaw, isRaw, idRaw, osRaw, odRaw uint8, inverse, inPlace bool) {
		n := 1 + int(nRaw%256)
		howmany := int(hmRaw % 9)
		istride, ostride := 1+int(isRaw%40), 1+int(osRaw%40)
		idist, odist := int(idRaw)%(2*n+4), int(odRaw)%(2*n+4)
		if inPlace {
			ostride, odist = istride, idist
		}
		dir := Forward
		if inverse {
			dir = Inverse
		}
		rng := rand.New(rand.NewSource(int64(nRaw) + 7*int64(hmRaw)))
		ilen := max(span(n, howmany, istride, idist), 1)
		olen := max(span(n, howmany, ostride, odist), 1)
		src := randComplex(rng, ilen)
		got := make([]complex128, olen)
		want := make([]complex128, olen)
		in := src
		if inPlace {
			copy(got, src)
			copy(want, src)
			in = got
		}

		b := NewBatch(n, howmany, istride, idist, ostride, odist)
		defer b.Release()
		if dir == Forward {
			b.Forward(got, in)
		} else {
			b.Inverse(got, in)
		}

		p := NewPlan(n)
		defer p.Release()
		line, out := make([]complex128, n), make([]complex128, n)
		refIn := src
		if inPlace {
			refIn = want
		}
		for l := 0; l < howmany; l++ {
			for j := range line {
				line[j] = refIn[l*idist+j*istride]
			}
			p.run(out, line, dir)
			// Relative to the line's magnitude: overlapping in-place
			// layouts feed transformed data back in.
			var mag float64
			for _, v := range line {
				mag = max(mag, cmplx.Abs(v))
			}
			tol := 1e-9 * float64(n) * max(mag, 1)
			if d := maxAbsDiff(out, naiveDFT(line, dir)); d > tol {
				t.Fatalf("n=%d line %d: |plan − naive DFT| = %g > %g", n, l, d, tol)
			}
			for k, v := range out {
				want[l*odist+k*ostride] = v
			}
		}
		for i := range want {
			if got[i] != want[i] && !(cmplx.IsNaN(got[i]) && cmplx.IsNaN(want[i])) {
				t.Fatalf("n=%d howmany=%d in(%d,%d) out(%d,%d) inPlace=%v dir=%d: dst[%d] = %v, per-line plan %v",
					n, howmany, istride, idist, ostride, odist, inPlace, dir, i, got[i], want[i])
			}
		}
	})
}

// TestBatchSteadyStateZeroAllocs pins every batch kernel at zero heap
// allocations per execution: the line-vectorized block, the scalar
// recursion on strided, radix-5 and Bluestein lines, the unit-stride
// and gathered real batches, and repeat lookups through BatchCache.
func TestBatchSteadyStateZeroAllocs(t *testing.T) {
	const n = 64
	nxh := n/2 + 1
	c2c := []struct {
		name string
		b    *Batch
	}{
		{"lines-y-plane", NewBatch(n, nxh, nxh, 1, nxh, 1)},
		{"scalar-contiguous", NewBatch(n, nxh, 1, n, 1, n)},
		{"scalar-radix5", NewBatch(60, 7, 7, 1, 7, 1)},
		{"scalar-bluestein", NewBatch(67, 3, 1, 67, 1, 67)},
	}
	buf := randComplex(rand.New(rand.NewSource(1)), 67*nxh)
	for _, c := range c2c {
		if allocs := testing.AllocsPerRun(20, func() {
			c.b.Forward(buf, buf)
			c.b.Inverse(buf, buf)
		}); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, allocs)
		}
		c.b.Release()
	}

	r := make([]float64, n*n)
	spec := make([]complex128, n*nxh)
	for _, c := range []struct {
		name string
		b    *RealBatch
	}{
		{"real-unit-stride", NewRealBatch(n, n, 1, n, 1, nxh)},
		{"real-gathered", NewRealBatch(n, nxh, nxh, 1, nxh, 1)},
	} {
		if allocs := testing.AllocsPerRun(20, func() {
			c.b.Forward(spec, r)
			c.b.Inverse(r, spec)
		}); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, allocs)
		}
		c.b.Release()
	}

	cache := NewBatchCache()
	defer cache.Release()
	cache.Batch(n, 7, 7, 1, 7, 1)
	cache.RealBatch(n, 8, 1, n, 1, nxh)
	if allocs := testing.AllocsPerRun(20, func() {
		cache.Batch(n, 7, 7, 1, 7, 1).Forward(buf, buf)
		cache.RealBatch(n, 8, 1, n, 1, nxh).Forward(spec, r)
	}); allocs != 0 {
		t.Errorf("BatchCache: %v allocs/op, want 0", allocs)
	}
}
