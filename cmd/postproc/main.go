// Command postproc loads a checkpoint directory written by cmd/dns (or
// any Solver.SaveCheckpoint call) and emits the standard turbulence
// post-processing: single-time statistics, spectra, two-point
// correlations and structure functions, gradient moments, and an
// optional velocity-slice PNG — the offline analysis pass of a DNS
// campaign.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/mpi"
	"repro/internal/spectral"
)

func main() {
	var (
		dir    = flag.String("ckpt", "", "checkpoint directory (required)")
		n      = flag.Int("n", 0, "grid size of the checkpoint (required)")
		ranks  = flag.Int("ranks", 0, "rank count of the checkpoint (required)")
		nu     = flag.Float64("nu", 0.01, "viscosity used for dissipation-based statistics")
		pngOut = flag.String("png", "", "write a z-midplane PNG of u to this path")
	)
	flag.Parse()
	if *dir == "" || *n == 0 || *ranks == 0 {
		flag.Usage()
		os.Exit(2)
	}

	mpi.Run(*ranks, func(c *mpi.Comm) {
		s := spectral.New(c, *n, spectral.WithNu(*nu), spectral.WithDealias(spectral.Dealias23))
		defer s.Close()
		if err := s.LoadCheckpoint(*dir); err != nil {
			log.Fatalf("rank %d: %v", c.Rank(), err)
		}
		root := c.Rank() == 0

		st := s.Statistics()
		div := s.DivergenceMax()
		if root {
			fmt.Printf("checkpoint: step %d, t=%.4f, %d³ on %d ranks\n\n",
				s.StepCount(), s.Time(), *n, *ranks)
			fmt.Printf("E=%.5f  ε=%.5f  Ω=%.4f  u'=%.4f  λ=%.4f  Re_λ=%.1f  η=%.4g  kmaxη=%.2f\n",
				st.Energy, st.Dissipation, st.Enstrophy, st.URMS,
				st.TaylorScale, st.ReLambda, st.Kolmogorov, st.KMaxEta)
			fmt.Printf("max|k·û| = %.2e\n\n", div)
		}

		spec := s.Spectrum()
		lint := s.IntegralScale()
		s2 := s.StructureFunction2()
		if root {
			fmt.Println("energy spectrum E(k):")
			for k := 1; k <= *n/3; k++ {
				fmt.Printf("  %3d  %.4e\n", k, spec[k])
			}
			fmt.Printf("\nintegral scale L11 = %.4f\n", lint)
			fmt.Println("\nstructure function S2(r):")
			for r := 1; r <= *n/4; r++ {
				fmt.Printf("  r=%2d  %.4e\n", r, s2[r])
			}
			fmt.Println()
		}

		for comp := 0; comp < 3; comp++ {
			g := s.LongitudinalGradientStats(comp)
			if root {
				fmt.Printf("∂u%c/∂x%c: var=%.4g skew=%.3f flat=%.2f range=[%.3g, %.3g]\n",
					'u'+byte(comp), 'x'+byte(comp), g.Variance, g.Skewness, g.Flatness, g.Min, g.Max)
			}
		}

		if *pngOut != "" {
			plane := s.SliceZ(0, *n/2)
			if root {
				f, err := os.Create(*pngOut)
				if err != nil {
					log.Fatal(err)
				}
				defer f.Close()
				if err := spectral.WriteSlicePNG(f, plane, *n, *n); err != nil {
					log.Fatal(err)
				}
				fmt.Printf("\nwrote %s\n", *pngOut)
			}
		}
	})
}
