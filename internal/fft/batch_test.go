package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/pool"
)

// FuzzBatchLayout drives Batch over arbitrary advanced layouts and
// checks two things per execution: the whole destination buffer equals
// the one a per-line Plan loop produces (bit for bit, gaps included),
// and every line is within tolerance of the naive DFT. In-place runs
// use one buffer with the input layout on both sides; the per-line
// reference then transforms lines in batch order on its own copy, so
// overlapping layouts are compared under the same sequential
// semantics. howmany reaches past two tiles of the tiled driver, so
// contiguous batches cross tile boundaries and end on partial tiles.
func FuzzBatchLayout(f *testing.F) {
	f.Fuzz(func(t *testing.T, nRaw uint16, hmRaw, isRaw, idRaw, osRaw, odRaw uint8, inverse, inPlace bool) {
		n := 1 + int(nRaw%256)
		howmany := int(hmRaw) % (2*tileLines + 9)
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

// FuzzRealBatchLayout drives RealBatch over unit-stride (packed,
// padded or overlapping) and strided layouts in both directions. The
// whole destination must equal what a per-line RealPlan loop writes,
// bit for bit, and every line must be within tolerance of the naive
// real DFT. The inverse's reference keeps the documented treatment of
// the imaginary parts of bins 0 and n/2 (see RealPlan.Inverse), which
// the random spectra exercise.
func FuzzRealBatchLayout(f *testing.F) {
	f.Fuzz(func(t *testing.T, nRaw uint16, hmRaw, rsRaw, rdRaw, csRaw, cdRaw uint8, strided, inverse bool) {
		n := 1 + int(nRaw%256)
		h := n/2 + 1
		howmany := int(hmRaw) % (2*tileLines + 9)
		rstride, cstride := 1, 1
		if strided {
			rstride, cstride = 1+int(rsRaw%40), 1+int(csRaw%40)
		}
		rdist, cdist := int(rdRaw)%(2*n+4), int(cdRaw)%(2*h+4)
		rng := rand.New(rand.NewSource(int64(nRaw) + 7*int64(hmRaw)))
		rlen := max(span(n, howmany, rstride, rdist), 1)
		clen := max(span(h, howmany, cstride, cdist), 1)

		b := NewRealBatch(n, howmany, rstride, rdist, cstride, cdist)
		defer b.Release()
		p := NewRealPlan(n)
		defer p.Release()
		rline, cline := make([]float64, n), make([]complex128, h)
		if !inverse {
			src := make([]float64, rlen)
			for i := range src {
				src[i] = rng.NormFloat64()
			}
			got, want := make([]complex128, clen), make([]complex128, clen)
			b.Forward(got, src)
			for l := 0; l < howmany; l++ {
				full := make([]complex128, n)
				for j := range rline {
					rline[j] = src[l*rdist+j*rstride]
					full[j] = complex(rline[j], 0)
				}
				p.Forward(cline, rline)
				if d := maxAbsDiff(cline, naiveDFT(full, Forward)[:h]); d > 1e-9*float64(n) {
					t.Fatalf("n=%d line %d: |real plan − naive DFT| = %g", n, l, d)
				}
				for k, v := range cline {
					want[l*cdist+k*cstride] = v
				}
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d howmany=%d r(%d,%d) c(%d,%d) fwd: dst[%d] = %v, per-line plan %v",
						n, howmany, rstride, rdist, cstride, cdist, i, got[i], want[i])
				}
			}
			return
		}
		src := randComplex(rng, clen)
		got, want := make([]float64, rlen), make([]float64, rlen)
		b.Inverse(got, src)
		for l := 0; l < howmany; l++ {
			for k := range cline {
				cline[k] = src[l*cdist+k*cstride]
			}
			p.Inverse(rline, cline)
			if d := realInverseError(rline, cline, n); d > 1e-9*float64(n) {
				t.Fatalf("n=%d line %d: |real plan − naive inverse| = %g", n, l, d)
			}
			for j, v := range rline {
				want[l*rdist+j*rstride] = v
			}
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d howmany=%d r(%d,%d) c(%d,%d) inv: dst[%d] = %v, per-line plan %v",
					n, howmany, rstride, rdist, cstride, cdist, i, got[i], want[i])
			}
		}
	})
}

// realInverseError is the largest deviation of x, RealPlan's inverse
// of the half-spectrum spec, from the naive inverse DFT of spec's
// Hermitian completion plus the documented contribution of the
// imaginary parts of bins 0 and n/2: none for odd n; for even n,
// −(b+c)/n on even samples and (b−c)/n on odd ones, b = Im X₀ and
// c = Im X_{n/2}.
func realInverseError(x []float64, spec []complex128, n int) float64 {
	full := make([]complex128, n)
	full[0] = complex(real(spec[0]), 0)
	for k := 1; k < len(spec); k++ {
		full[k] = spec[k]
		full[n-k] = cmplx.Conj(spec[k])
	}
	var b, c float64
	if n%2 == 0 {
		b, c = imag(spec[0]), imag(spec[n/2])
		full[n/2] = complex(real(spec[n/2]), 0)
	}
	ref := naiveDFT(full, Inverse)
	var worst float64
	for j, v := range x {
		want := real(ref[j])
		if n%2 == 0 {
			if j%2 == 0 {
				want -= (b + c) / float64(n)
			} else {
				want += (b - c) / float64(n)
			}
		}
		worst = max(worst, math.Abs(v-want))
	}
	return worst
}

// TestBatchSteadyStateZeroAllocs pins every batch kernel at zero heap
// allocations per execution: the line-vectorized block, the tiled
// driver on contiguous c2c and unit-stride real batches (full and
// partial tiles), the scalar recursion on contiguous, strided, radix-5
// and Bluestein lines, the per-line and gathered real batches, and
// repeat lookups through BatchCache.
func TestBatchSteadyStateZeroAllocs(t *testing.T) {
	const n = 64
	nxh := n/2 + 1
	c2c := []struct {
		name string
		b    *Batch
	}{
		{"lines-y-plane", NewBatch(n, nxh, nxh, 1, nxh, 1)},
		{"tiled-contiguous", NewBatch(n, nxh, 1, n, 1, n)},
		{"tiled-contiguous-padded", NewBatch(48, 2*tileLines+5, 1, 50, 1, 50)},
		{"scalar-contiguous-radix5", NewBatch(60, 7, 1, 60, 1, 60)},
		{"scalar-radix5", NewBatch(60, 7, 7, 1, 7, 1)},
		{"scalar-bluestein", NewBatch(67, 3, 1, 67, 1, 67)},
	}
	buf := randComplex(rand.New(rand.NewSource(1)), 50*(2*tileLines+5))
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
		{"real-tiled", NewRealBatch(n, n, 1, n, 1, nxh)},
		{"real-tiled-partial", NewRealBatch(48, tileLines+7, 1, 48, 1, 25)},
		{"real-unit-stride-radix5", NewRealBatch(10, 8, 1, 10, 1, 6)},
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

// TestTiledReleaseReturnsBuffers checks that Release hands the tiled
// driver's blocks back to the buffer arena. The arena is LIFO per size
// class, so the next checkouts of the tile sizes return them.
func TestTiledReleaseReturnsBuffers(t *testing.T) {
	const n = 64
	b := NewContiguousBatch(n, 2*tileLines)
	rb := NewRealBatch(n, 2*tileLines, 1, n, 1, n/2+1)
	if b.gath == nil || rb.gath == nil {
		t.Fatal("unit-stride batches did not take the tiled path")
	}
	held := map[*complex128]bool{&b.gath[0]: true, &b.block[0]: true, &rb.gath[0]: true, &rb.block[0]: true}
	b.Release()
	rb.Release()
	if b.gath != nil || b.block != nil || rb.gath != nil || rb.block != nil {
		t.Fatal("Release kept a reference to a tile block")
	}
	for _, size := range []int{n * tileLines, n * tileLines, n / 2 * tileLines, n / 2 * tileLines} {
		buf := pool.GetComplex(size)
		if !held[&buf[0]] {
			t.Errorf("arena checkout of %d elements is not a released tile block", size)
		}
		defer pool.PutComplex(buf)
	}
}

// BenchmarkUnitStrideBatches times the engines' unit-stride layouts,
// one forward and one inverse per op: the x-direction real batch of a
// slab plane (n lines of length n) and the pencil engine's contiguous
// c2c batch (n/2+1 lines of length n, in place).
func BenchmarkUnitStrideBatches(b *testing.B) {
	for _, n := range []int{48, 64, 128} {
		nxh := n/2 + 1
		rng := rand.New(rand.NewSource(1))
		r := make([]float64, n*n)
		for i := range r {
			r[i] = rng.NormFloat64()
		}
		spec := make([]complex128, n*nxh)
		rb := NewRealBatch(n, n, 1, n, 1, nxh)
		b.Run("real-n"+itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rb.Forward(spec, r)
				rb.Inverse(r, spec)
			}
		})
		rb.Release()
		plane := randComplex(rng, n*nxh)
		cb := NewContiguousBatch(n, nxh)
		b.Run("contiguous-n"+itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cb.Forward(plane, plane)
				cb.Inverse(plane, plane)
			}
		})
		cb.Release()
	}
}
