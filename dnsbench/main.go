// Command dnsbench is the repository's benchmark of record: three DNS
// workloads run in a closed loop on one process of goroutine ranks,
// every operation gated on a correctness check, printing the
// end-to-end metrics (untraced run) or the per-layer metrics (traced
// run) as one JSON object on the last line of standard output.
//
//	bash dnsbench/run.sh --workload decay_n64_slab --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads, the metrics, and
// which layer each per-layer metric belongs to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// defaultSeed is the workload seed used when --seed is not given;
// validationSeed is the second seed a performance claim must also hold
// on (it is never used while tuning a change).
const (
	defaultSeed    = 1
	validationSeed = 2
)

// metric is one named, unit-carrying value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", defaultSeed, fmt.Sprintf("workload seed (default %d; validate claims on %d too)", defaultSeed, validationSeed))
	seconds := flag.Float64("seconds", 10, "measurement time of one run, in seconds")
	traced := flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	outdir := flag.String("outdir", ".bench_build", "directory for the traced run's Chrome trace")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok {
		fatalf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds <= 0 {
		fatalf("--seconds must be positive, got %g", *seconds)
	}
	if *traced != 0 && *traced != 1 {
		fatalf("--trace must be 0 or 1, got %d", *traced)
	}
	// An oversubscribed geometry measures timesharing between ranks,
	// not the code: refuse it before any number is produced.
	if procs := runtime.GOMAXPROCS(0); ranks*workers > procs {
		fatalf("%d ranks × %d workers > GOMAXPROCS=%d; refusing an oversubscribed run", ranks, workers, procs)
	}

	var res result
	var rec record
	var err error
	if *traced == 1 {
		res, rec, err = runTraced(w, *seed, *seconds, *outdir)
	} else {
		res, rec, err = runUntraced(w, *seed, *seconds)
	}
	if err != nil {
		fatalf("%s: %v", w.name, err)
	}
	rec.Machine = machineRecord()
	rec.Workload, rec.Seed, rec.Seconds = w.name, *seed, *seconds
	rec.Ranks, rec.Workers, rec.Exchange = ranks, workers, strategy.String()
	rec.FailFrac = float64(res.Failed) / float64(res.Attempted)
	printJSON(map[string]record{"record": rec})
	printJSON(res)
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatalf("encode %T: %v", v, err)
	}
	fmt.Println(string(b))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dnsbench: "+format+"\n", args...)
	os.Exit(2)
}
