package core

import (
	"math"
	"math/cmplx"
	"sync"
	"testing"

	"repro/internal/mpi"
	"repro/internal/spectral"
)

// TestDNSOnAsyncPipelineMatchesSync is the end-to-end validation of
// the paper's claim: the full pseudo-spectral Navier–Stokes solver
// produces the same solution whether its 3D transforms run through the
// synchronous reference path or the batched asynchronous GPU pipeline.
func TestDNSOnAsyncPipelineMatchesSync(t *testing.T) {
	n, p := 16, 2
	opts := []spectral.Option{spectral.WithNu(0.02), spectral.WithScheme(spectral.RK2), spectral.WithDealias(spectral.Dealias23)}

	type result struct {
		uh     []complex128
		energy float64
	}
	var mu sync.Mutex
	results := map[string]result{}

	run := func(label string, gran Granularity, useAsync bool) {
		mpi.Run(p, func(c *mpi.Comm) {
			var s *spectral.Solver
			if useAsync {
				tr := NewAsyncSlabReal(c, n, Options{NP: 4, Granularity: gran})
				defer tr.Close()
				s = spectral.New(c, n, append(opts, spectral.WithTransform(tr))...)
			} else {
				s = spectral.New(c, n, opts...)
			}
			s.SetRandomIsotropic(3, 0.5, 77)
			for i := 0; i < 3; i++ {
				s.Step(0.004)
			}
			e := s.Energy()
			if c.Rank() == 0 {
				mu.Lock()
				cp := make([]complex128, len(s.Uh[0]))
				copy(cp, s.Uh[0])
				results[label] = result{uh: cp, energy: e}
				mu.Unlock()
			}
		})
	}
	run("sync", PerSlab, false)
	run("async-pencil", PerPencil, true)
	run("async-slab", PerSlab, true)

	ref := results["sync"]
	for _, label := range []string{"async-pencil", "async-slab"} {
		got := results[label]
		if math.Abs(got.energy-ref.energy) > 1e-12*ref.energy {
			t.Errorf("%s: energy %.15g vs sync %.15g", label, got.energy, ref.energy)
		}
		var d float64
		for i := range ref.uh {
			if e := cmplx.Abs(got.uh[i] - ref.uh[i]); e > d {
				d = e
			}
		}
		if d > 1e-9 {
			t.Errorf("%s: max field difference %g after 3 RK2 steps", label, d)
		}
	}
}
