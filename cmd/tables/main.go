// Command tables regenerates every table and figure of the paper's
// evaluation from the calibrated models:
//
//	tables -table 1      memory model (node counts, pencils)
//	tables -table 2      all-to-all bandwidths
//	tables -table 3      time per step, CPU vs GPU configurations
//	tables -table 4      weak scaling
//	tables -fig 7        strided copy strategies
//	tables -fig 8        zero-copy bandwidth vs thread blocks
//	tables -fig 9        time-per-step sweep + MPI-only bound
//	tables -fig 10       normalized timelines at 12288³/1024 nodes
//	tables -strong       §5.3 strong scaling of 18432³
//	tables -all          everything
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/hw"
	"repro/internal/simnet"
	"repro/internal/trace"
)

func main() {
	var (
		table  = flag.Int("table", 0, "table number (1–4)")
		fig    = flag.Int("fig", 0, "figure number (7–10)")
		strong = flag.Bool("strong", false, "strong scaling (§5.3)")
		ablate = flag.Bool("ablate", false, "design-choice ablations (§3.1, §3.5, §5.2)")
		chrome = flag.String("chrome", "", "also write the Fig 10 timelines as Chrome-tracing JSON to this path")
		all    = flag.Bool("all", false, "print everything")
	)
	flag.Parse()
	if *all {
		for i := 1; i <= 4; i++ {
			printTable(i)
		}
		for i := 7; i <= 10; i++ {
			printFig(i)
		}
		printStrong()
		printAblations()
		return
	}
	if *table != 0 {
		printTable(*table)
	}
	if *fig != 0 {
		printFig(*fig)
	}
	if *strong {
		printStrong()
	}
	if *ablate {
		printAblations()
	}
	if *chrome != "" {
		writeChrome(*chrome)
	}
	if *table == 0 && *fig == 0 && !*strong && !*ablate && *chrome == "" {
		flag.Usage()
	}
}

func writeChrome(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	if err := trace.WriteChromeTrace(f, core.Fig10()); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote Chrome-tracing timelines to %s (open in chrome://tracing or Perfetto)\n", path)
}

func printAblations() {
	fmt.Println("== Ablation: 1D slab vs 2D pencil decomposition for the GPU code (§3.1) ==")
	fmt.Printf("%-8s %-8s %14s %16s %10s\n", "Nodes", "N", "1D slab (s)", "2D pencil (s)", "slab win")
	for _, a := range core.AblateDecomposition() {
		fmt.Printf("%-8d %-8d %14.2f %16.2f %9.0f%%\n", a.Nodes, a.N, a.Slab1D, a.Pencil, a.SlabWinPct)
	}
	fmt.Println("\n== Ablation: host-memory contention on overlapped exchanges (§5.2) ==")
	w, wo := core.AblateContention(12288, 1024)
	fmt.Printf("cfg B at 12288³/1024 nodes: %.2f s with contention, %.2f s without\n", w, wo)
	fmt.Println("\n== Ablation: pencils per slab at 18432³/3072 nodes (§3.5) ==")
	nps := []int{4, 6, 8, 12, 16}
	for i, tm := range core.AblatePencilCount(18432, 3072, nps) {
		fmt.Printf("np=%-3d %.2f s\n", nps[i], tm)
	}
	fmt.Println("\n== Autotuned configuration per scale ==")
	for _, cse := range []struct{ n, nodes int }{{3072, 16}, {6144, 128}, {12288, 1024}, {18432, 3072}} {
		tpn, gran, tm := core.BestConfig(cse.n, cse.nodes)
		g := "1 slab/A2A"
		if gran == core.PerPencil {
			g = "1 pencil/A2A"
		}
		fmt.Printf("N=%-6d nodes=%-5d → %d tasks/node, %s  (%.2f s/step)\n", cse.n, cse.nodes, tpn, g, tm)
	}
	fmt.Println()
}

func printTable(i int) {
	switch i {
	case 1:
		fmt.Println("== Table 1: node counts, memory per node, pencils per slab ==")
		fmt.Printf("%-8s %-10s %-16s %-10s %-12s\n", "Nodes", "N", "Mem/node (GiB)", "#pencils", "pencil (GiB)")
		for _, r := range hw.Summit().Table1() {
			fmt.Printf("%-8d %-10d %-16.1f %-10d %-12.2f\n", r.Nodes, r.N, r.MemPerNode, r.Pencils, r.PencilSize)
		}
		m := hw.Summit()
		fmt.Printf("min nodes for 18432³: %d; valid node counts: %v; nominal pencils at 3072 nodes: %.2f\n\n",
			m.MinNodes(18432), m.ValidNodeCounts(18432), m.NominalPencils(18432, 3072))
	case 2:
		fmt.Println("== Table 2: effective all-to-all bandwidth per node ==")
		fmt.Printf("%-6s %-4s %12s %12s\n", "Nodes", "Cfg", "P2P (MB)", "BW (GB/s)")
		for _, r := range simnet.SummitA2A().Table2() {
			fmt.Printf("%-6d %-4s %12.3f %12.1f\n", r.Nodes, r.Cfg, r.P2P/(1<<20), r.BW/1e9)
		}
		fmt.Println()
	case 3:
		fmt.Println("== Table 3: time per RK2 step and GPU:CPU speedups ==")
		fmt.Print(core.FormatTable3(core.Table3()))
		fmt.Println()
	case 4:
		fmt.Println("== Table 4: weak scaling relative to 3072³ on 16 nodes ==")
		fmt.Print(core.FormatTable4(core.Table4()))
		fmt.Println()
	default:
		fmt.Printf("unknown table %d\n", i)
	}
}

func printFig(i int) {
	switch i {
	case 7:
		fmt.Println("== Fig 7: 216 MB strided copy, three strategies ==")
		fmt.Printf("%-14s %14s %14s %14s\n", "chunk (KB)", "manyMemcpy(ms)", "zeroCopy(ms)", "memcpy2D(ms)")
		for _, p := range cuda.SummitCopyCost().Fig7() {
			fmt.Printf("%-14.1f %14.3f %14.3f %14.3f\n",
				p.ChunkBytes/1e3, p.ManyMemcpy*1e3, p.ZeroCopy*1e3, p.Memcpy2D*1e3)
		}
		fmt.Println()
	case 8:
		fmt.Println("== Fig 8: zero-copy kernel bandwidth vs thread blocks ==")
		fmt.Printf("%-8s %12s %12s %16s %16s\n", "blocks", "H2D (GB/s)", "D2H (GB/s)", "memcpy2D H2D", "memcpy2D D2H")
		for _, p := range cuda.SummitCopyCost().Fig8() {
			fmt.Printf("%-8d %12.1f %12.1f %16.1f %16.1f\n",
				p.Blocks, p.H2DBW/1e9, p.D2HBW/1e9, p.Memcpy2DH2D/1e9, p.Memcpy2DD2H/1e9)
		}
		fmt.Println()
	case 9:
		fmt.Println("== Fig 9: time per step vs node count ==")
		fmt.Print(core.FormatFig9(core.Fig9()))
		fmt.Println()
	case 10:
		fmt.Println("== Fig 10: normalized timelines, 12288³ on 1024 nodes ==")
		fmt.Print(trace.RenderComparison(core.Fig10(), 110))
		fmt.Println()
	default:
		fmt.Printf("unknown figure %d\n", i)
	}
}

func printStrong() {
	t1536, t3072, pct := core.StrongScaling18432()
	fmt.Println("== §5.3 strong scaling, 18432³, 6 tasks/node ==")
	fmt.Printf("1536 nodes: %.1f s/step   3072 nodes: %.1f s/step   strong scaling: %.1f%%\n",
		t1536, t3072, pct)
	fmt.Println("(paper: 48.7 s, 25.4 s, 95.7% — the model under-predicts the 1536-node")
	fmt.Println(" time; see EXPERIMENTS.md for the discussion)")
	fmt.Println()
}
