package pfft

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/exchange"
	"repro/internal/fft"
	"repro/internal/mpi"
)

// globalRealField builds a deterministic global real field indexed
// [(iz*n+iy)*n+ix] and its unnormalized forward spectrum from the
// serial complex fft.Plan3D, the reference every distributed engine is
// checked against.
func globalRealField(n int, seed int64) (field []float64, spec []complex128) {
	rng := rand.New(rand.NewSource(seed))
	field = make([]float64, n*n*n)
	gc := make([]complex128, n*n*n)
	for i := range field {
		field[i] = rng.NormFloat64()
		gc[i] = complex(field[i], 0)
	}
	spec = make([]complex128, n*n*n)
	fft.NewPlan3D(n, n, n).Forward(spec, gc)
	return field, spec
}

// slabForwardMatches transforms field with SlabReal on p ranks and
// compares each rank's half-spectrum against ref within tol.
func slabForwardMatches(t *testing.T, n, p int, field []float64, ref []complex128, tol float64) {
	t.Helper()
	nxh := n/2 + 1
	var mu sync.Mutex
	four := make(map[int][]complex128)
	mpi.Run(p, func(c *mpi.Comm) {
		f := NewSlabReal(c, n)
		defer f.Close()
		my := f.Slab().MY()
		// Physical layout [my][nz][nx], y-distributed.
		phys := make([]float64, f.PhysicalLen())
		for iy := 0; iy < my; iy++ {
			gy := c.Rank()*my + iy
			for iz := 0; iz < n; iz++ {
				copy(phys[(iy*n+iz)*n:(iy*n+iz)*n+n], field[(iz*n+gy)*n:(iz*n+gy)*n+n])
			}
		}
		out := make([]complex128, f.FourierLen())
		f.PhysicalToFourier(out, phys)
		mu.Lock()
		four[c.Rank()] = out
		mu.Unlock()
	})
	mz := n / p
	for r := 0; r < p; r++ {
		for iz := 0; iz < mz; iz++ {
			gz := r*mz + iz
			for iy := 0; iy < n; iy++ {
				for ix := 0; ix < nxh; ix++ {
					want := ref[(gz*n+iy)*n+ix]
					got := four[r][(iz*n+iy)*nxh+ix]
					if cmplx.Abs(got-want) > tol {
						t.Fatalf("slab p=%d rank %d: x=%d y=%d z=%d: %v vs %v", p, r, ix, iy, gz, got, want)
					}
				}
			}
		}
	}
}

func TestSlabRealRoundTrip(t *testing.T) {
	n, p := 8, 2
	mpi.Run(p, func(c *mpi.Comm) {
		f := NewSlabReal(c, n)
		rng := rand.New(rand.NewSource(int64(c.Rank()) + 9))
		phys := make([]float64, f.PhysicalLen())
		for i := range phys {
			phys[i] = rng.NormFloat64()
		}
		orig := make([]float64, len(phys))
		copy(orig, phys)
		four := make([]complex128, f.FourierLen())
		f.PhysicalToFourier(four, phys)
		back := make([]float64, f.PhysicalLen())
		f.FourierToPhysical(back, four)
		for i := range back {
			if math.Abs(back[i]-orig[i]) > 1e-9 {
				t.Fatalf("rank %d element %d: %g vs %g", c.Rank(), i, back[i], orig[i])
			}
		}
	})
}

func TestSlabRealMatchesComplexTransform(t *testing.T) {
	// The half-spectrum of SlabReal must equal the first nxh x-bins of
	// the full complex spectrum of the same real field.
	n, p := 8, 2
	field, ref := globalRealField(n, 3)
	slabForwardMatches(t, n, p, field, ref, 1e-9)
}

func TestSlabParsevalAcrossRanks(t *testing.T) {
	// Physical-space energy equals (1/N³)·Σ w·|û|² with û from the
	// unnormalized forward transform and w the half-spectrum weight
	// (bins 0 < kx < N/2 stand for ±kx) — checked with a distributed
	// sum.
	n, p := 8, 4
	mpi.Run(p, func(c *mpi.Comm) {
		f := NewSlabReal(c, n)
		defer f.Close()
		rng := rand.New(rand.NewSource(int64(c.Rank()) + 17))
		phys := make([]float64, f.PhysicalLen())
		var ePhys float64
		for i := range phys {
			phys[i] = rng.NormFloat64()
			ePhys += phys[i] * phys[i]
		}
		four := make([]complex128, f.FourierLen())
		f.PhysicalToFourier(four, phys)
		nxh := f.NXH()
		var eFour float64
		for i, v := range four {
			w := 2.0
			if ix := i % nxh; ix == 0 || ix == n/2 {
				w = 1
			}
			eFour += w * (real(v)*real(v) + imag(v)*imag(v))
		}
		sums := []float64{ePhys, eFour}
		mpi.AllreduceSum(c, sums)
		n3 := float64(n * n * n)
		if math.Abs(sums[1]/n3-sums[0]) > 1e-8*sums[0] {
			t.Errorf("rank %d: Parseval violated: phys %g four/N³ %g", c.Rank(), sums[0], sums[1]/n3)
		}
	})
}

func TestSlabAndPencilAgree(t *testing.T) {
	// The same global field transformed by the slab engine on 2 ranks
	// and the pencil engine on a 2×2 grid must both give the serial
	// reference spectrum.
	n := 8
	field, ref := globalRealField(n, 7)
	slabForwardMatches(t, n, 2, field, ref, 1e-9)

	const pr, pc = 2, 2
	mpi.Run(pr*pc, func(c *mpi.Comm) {
		row, col := c.CartGrid(pr, pc)
		f := NewPencilReal(col, row, n, 1, exchange.Both(exchange.Staged))
		defer f.Close()
		l := f.Layout()
		// Physical layout [my][mz][nx].
		phys := make([]float64, f.PhysicalLen())
		for iy := 0; iy < l.My; iy++ {
			gy := l.YRank*l.My + iy
			for iz := 0; iz < l.Mz; iz++ {
				gz := l.ZRank*l.Mz + iz
				copy(phys[(iy*l.Mz+iz)*n:(iy*l.Mz+iz)*n+n], field[(gz*n+gy)*n:(gz*n+gy)*n+n])
			}
		}
		four := make([]complex128, f.FourierLen())
		f.PhysicalToFourier(four, phys)
		// Spectral layout [mz2][wc][ny], y complete.
		for iz := 0; iz < l.Mz2; iz++ {
			gz := l.YRank*l.Mz2 + iz
			for ix := 0; ix < l.Wc; ix++ {
				gx := l.XLo + ix
				for gy := 0; gy < n; gy++ {
					want := ref[(gz*n+gy)*n+gx]
					got := four[(iz*l.Wc+ix)*n+gy]
					if cmplx.Abs(got-want) > 1e-9 {
						panic(fmt.Sprintf("pencil rank %d: x=%d y=%d z=%d: %v vs %v", c.Rank(), gx, gy, gz, got, want))
					}
				}
			}
		}
	})
}
