package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"slices"
	"sort"
	"time"

	"repro"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/spectral"
)

const (
	// setupsPerRun is how many times a run sets the workload up from
	// scratch; setup_s is their median and the last one is measured.
	// The first two find a cold heap and buffer arena; the median of
	// nine is a warm set-up.
	setupsPerRun = 9
	// warmOps operations run after set-up and before any timing, so
	// plan caches, the buffer arena and the first steps are warm.
	warmOps = 3
	// minTimedOps is the least number of operations of each kind a
	// timed loop makes whatever its time budget.
	minTimedOps = 25
	// minTracedOps is the least number of traced (and of untraced)
	// operations in a traced run.
	minTracedOps = 10
	// roundTripShare is the share of an untraced solver run spent on
	// round trips of the solver's state on its own engine, between
	// steps.
	roundTripShare = 0.25
	// refPairs is how many pairs the P=1 reference makes on the
	// transform-only workload.
	refPairs = 10
	// finalEnergyTol is the traced run's gate against the P=1 reference.
	finalEnergyTol = 1e-10
	// tailBeyond is how many samples lie beyond the tail percentile.
	tailBeyond = 10
)

// opStats summarises one timed loop: median and tail on an unshared
// machine (see unshared), and as measured.
type opStats struct {
	Samples int     `json:"samples"`
	P50     float64 `json:"p50_s"`
	Tail    float64 `json:"tail_s"`
	TailPct float64 `json:"tail_pct"`
	RawP50  float64 `json:"raw_p50_s"`
	RawTail float64 `json:"raw_tail_s"`
}

// record is the run's context, printed as a JSON line before the
// result line.
type record struct {
	Workload        string    `json:"workload"`
	Seed            int64     `json:"seed"`
	Seconds         float64   `json:"seconds"`
	Ranks           int       `json:"ranks"`
	Workers         int       `json:"workers"`
	Exchange        string    `json:"exchange"`
	Machine         machine   `json:"machine"`
	WorkingSetBytes int64     `json:"working_set_bytes_per_rank"`
	SetupS          []float64 `json:"setup_s"`
	FailFrac        float64   `json:"fail_frac"`
	StealFrac       float64   `json:"steal_frac"`
	SetupStealFrac  float64   `json:"setup_steal_frac"`
	Step            *opStats  `json:"step,omitempty"`
	RoundTrip       *opStats  `json:"roundtrip,omitempty"`
	LLCBytes        int64     `json:"llc_bytes,omitempty"`
	MemArrayBytes   int64     `json:"mem_array_bytes,omitempty"`
	TracePath       string    `json:"trace,omitempty"`
	TracedOps       int       `json:"traced_ops,omitempty"`
}

// heapPeak tracks the peak live Go heap: the heap marked live by the
// forced collections that settle the run before every timed loop and
// after every set-up. Sampling only after a full collection makes the
// peak independent of when the collector happened to run.
type heapPeak struct{ peak int64 }

func (h *heapPeak) sample() { h.peak = max(h.peak, liveHeap()) }

// liveHeap is the heap marked live by the last collection.
func liveHeap() int64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	rtmetrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// settle collects garbage twice between barriers, so every timed loop
// starts from the same collector state.
func settle(c *mpi.Comm) {
	c.Barrier()
	if c.Rank() == 0 {
		runtime.GC()
		runtime.GC()
	}
	c.Barrier()
}

// mode is one kind of operation of a closed loop: prep runs before the
// operation, untimed (nil for none); check gates it, untimed.
type mode struct {
	prep  func()
	op    func()
	check func() bool
}

// loop runs a closed loop on every rank of the case, operation i
// being of modes[i%len(modes)]: an operation starts only when the
// previous one and its check have finished on every rank. Rank 0 ends
// the loop once budget has passed and at least minEach operations of
// every mode ran. It returns each operation's wall time (the slowest
// rank's), grouped by mode, the number of failed checks, and on rank 0
// the share of the machine's CPU time the host stole during the loop.
func (rc *rankCase) loop(budget time.Duration, minEach int, modes []mode, hp *heapPeak) (walls [][]float64, failed int, steal float64) {
	settle(rc.c)
	var sm stealMeter
	if rc.c.Rank() == 0 {
		hp.sample()
		sm.start()
	}
	walls = make([][]float64, len(modes))
	buf := make([]float64, 3)
	start := time.Now()
	for i := 0; ; i++ {
		m := modes[i%len(modes)]
		if m.prep != nil {
			m.prep()
		}
		t0 := time.Now()
		m.op()
		buf[0] = time.Since(t0).Seconds()
		buf[1], buf[2] = 0, 0
		if !m.check() {
			buf[1] = 1
		}
		if rc.c.Rank() == 0 && i+1 >= minEach*len(modes) && time.Since(start) >= budget {
			buf[2] = 1
		}
		mpi.AllreduceMax(rc.c, buf)
		walls[i%len(modes)] = append(walls[i%len(modes)], buf[0])
		if buf[1] > 0 {
			failed++
		}
		if buf[2] > 0 {
			if rc.c.Rank() == 0 {
				sm.stop()
			}
			return walls, failed, sm.frac()
		}
	}
}

// opMode is the workload's operation; roundTripMode a round trip of
// its state on its engine.
func (rc *rankCase) opMode() mode        { return mode{op: rc.op, check: rc.checkOp} }
func (rc *rankCase) roundTripMode() mode { return mode{op: rc.roundTrip, check: rc.checkRoundTrip} }

// counts accumulates attempted and failed operations.
type counts struct{ attempted, failed int }

func (n *counts) add(walls [][]float64, failed int) {
	for _, w := range walls {
		n.attempted += len(w)
	}
	n.failed += failed
}

// setUp runs setupsPerRun worlds, each setting the workload up from
// scratch; the last one goes on into body, with the heap settled. It
// returns every set-up's time from world start to first operation
// ready, and the share of the machine's CPU time the host stole during
// the set-ups.
func setUp(w workload, seed int64, recs []*recorder, hp *heapPeak, body func(*rankCase)) ([]float64, float64, error) {
	var setups []float64
	var sm stealMeter
	for k := 0; k < setupsPerRun; k++ {
		last := k == setupsPerRun-1
		sm.start()
		t0 := time.Now()
		err := mpi.TryRun(ranks, func(c *mpi.Comm) {
			var rec *recorder
			if recs != nil {
				rec = recs[c.Rank()]
			}
			rc := w.build(c, seed, rec, recs != nil)
			defer rc.close()
			c.Barrier()
			if c.Rank() == 0 {
				setups = append(setups, time.Since(t0).Seconds())
				sm.stop()
			}
			settle(c)
			if c.Rank() == 0 {
				hp.sample()
			}
			if last {
				body(rc)
			}
		})
		if err != nil {
			return nil, 0, err
		}
		runtime.GC()
	}
	return setups, sm.frac(), nil
}

// stealMeter accumulates, over the intervals it is started and stopped
// around, the share of the machine's CPU time its host took (steal).
type stealMeter struct{ steal, total, s0, t0 int64 }

func (m *stealMeter) start() { m.s0, m.t0 = cpuTicks() }

func (m *stealMeter) stop() {
	s, t := cpuTicks()
	m.steal += s - m.s0
	m.total += t - m.t0
}

func (m *stealMeter) frac() float64 {
	if m.total <= 0 {
		return 0
	}
	return float64(m.steal) / float64(m.total)
}

// unshared is the factor that turns a wall time measured while the
// host stole a share steal of the machine's CPU time into the wall time
// on an unshared machine. The ranks run in lockstep, so an operation
// advances only while every rank's CPU runs: a (1−steal)^ranks share
// of the time when the host takes each CPU independently.
func unshared(steal float64) float64 { return math.Pow(1-steal, ranks) }

// runUntraced is the end-to-end run, tracing off: the workload's
// operation in a closed loop, on the solver workloads interleaved with
// round trips of the solver's state on its own engine.
func runUntraced(w workload, seed int64, seconds float64) (result, record, error) {
	runtime.GC()
	base := liveHeap()
	hp := &heapPeak{}
	var rec record
	var n counts
	var opWalls, pairWalls []float64
	budget := time.Duration(seconds * float64(time.Second))
	setups, setupSteal, err := setUp(w, seed, nil, hp, func(rc *rankCase) {
		ws := (liveHeap() - base) / int64(ranks)
		var local counts
		warm, wf, _ := rc.loop(0, warmOps, []mode{rc.opMode()}, hp)
		local.add(warm, wf)
		var ow, pw []float64
		var steal float64
		if rc.sol == nil {
			timed, tf, st := rc.loop(budget, minTimedOps, []mode{rc.opMode()}, hp)
			local.add(timed, tf)
			ow, pw, steal = timed[0], timed[0], st
		} else {
			pwarm, pf, _ := rc.loop(0, warmOps, []mode{rc.roundTripMode()}, hp)
			local.add(pwarm, pf)
			// k round trips follow every step, k chosen from the
			// warm-up medians so that round trips take about
			// roundTripShare of the time. Interleaving spreads both kinds
			// over the whole run, so drift of the machine's speed during
			// the run reaches both alike. The walls are the slowest
			// rank's, so every rank computes the same k.
			k := max(1, int(math.Round(roundTripShare/(1-roundTripShare)*median(warm[0])/median(pwarm[0]))))
			modes := []mode{rc.opMode()}
			for j := 0; j < k; j++ {
				modes = append(modes, rc.roundTripMode())
			}
			timed, tf, st := rc.loop(budget, minTimedOps, modes, hp)
			local.add(timed, tf)
			steal = st
			// A round trip transforms every field of the solver's
			// state; its wall per field is the pair time.
			ow, pw = timed[0], slices.Concat(timed[1:]...)
			for i := range pw {
				pw[i] /= float64(len(rc.xs))
			}
		}
		if rc.c.Rank() == 0 {
			rec.WorkingSetBytes, n = ws, local
			opWalls, pairWalls, rec.StealFrac = ow, pw, steal
		}
	})
	if err != nil {
		return result{}, rec, err
	}
	rec.SetupS, rec.SetupStealFrac = setups, setupSteal
	scale := unshared(rec.StealFrac)
	rec.Step, rec.RoundTrip = summarize(opWalls, scale), summarize(pairWalls, scale)
	sum := 0.0
	for _, v := range opWalls {
		sum += v * scale
	}
	n3 := math.Pow(float64(w.n), 3)
	m := map[string]metric{
		"step_s_p50":       {rec.Step.P50, "s"},
		"step_s_tail":      {rec.Step.Tail, "s"},
		"roundtrip_s_p50":  {rec.RoundTrip.P50, "s"},
		"roundtrip_s_tail": {rec.RoundTrip.Tail, "s"},
		"mpts_per_s":       {n3 * float64(len(opWalls)) / sum / 1e6, "Mpt/s"},
		"setup_s":          {median(setups) * unshared(setupSteal), "s"},
		"heap_peak_mb":     {float64(hp.peak) / 1e6, "MB"},
	}
	return result{Correct: n.failed == 0, Attempted: n.attempted, Failed: n.failed, Metrics: m}, rec, nil
}

// runTraced is the per-layer run: after warm-up, half the run time of
// the workload's operation, traced and untraced in turn, then the
// layer probes; after the world ends, the P=1 SlabReal reference from
// the same seed, untimed.
func runTraced(w workload, seed int64, seconds float64, outdir string) (result, record, error) {
	runtime.GC()
	base := liveHeap()
	hp := &heapPeak{}
	epoch := time.Now()
	recs := make([]*recorder, ranks)
	for i := range recs {
		recs[i] = newRecorder(epoch)
		recs[i].on = true
	}
	var rec record
	var n counts
	var untraced, traced []float64
	var before, after metrics.Snapshot
	var probes probeResult
	var final float64
	var ops, alternated int
	half := time.Duration(seconds * float64(time.Second) / 2)
	llc := lastLevelCache()
	setups, setupSteal, err := setUp(w, seed, recs, hp, func(rc *rankCase) {
		c, r := rc.c, recs[rc.c.Rank()]
		r.on = false
		ws := (liveHeap() - base) / int64(ranks)
		var local counts
		warm, wf, _ := rc.loop(0, warmOps, []mode{rc.opMode()}, hp)
		local.add(warm, wf)
		// Untraced and traced operations alternate, so both see the
		// same machine and their difference is the tracing alone: spans
		// and the metrics registry are on for the traced ones only.
		tracing := func(on bool) func() {
			return func() {
				c.Barrier()
				if c.Rank() == 0 {
					if on {
						repro.EnableMetrics()
					} else {
						repro.DisableMetrics()
					}
				}
				r.on = on
				c.Barrier()
			}
		}
		c.Barrier()
		if c.Rank() == 0 {
			before = repro.MetricsSnapshotNow()
		}
		alt, af, steal := rc.loop(half, minTracedOps, []mode{
			{prep: tracing(false), op: rc.op, check: rc.checkOp},
			{prep: tracing(true), op: rc.op, check: rc.checkOp},
		}, hp)
		local.add(alt, af)
		tracing(false)()
		if c.Rank() == 0 {
			after = repro.MetricsSnapshotNow()
		}
		uw, tw := alt[0], alt[1]
		r.on = true
		pr := runProbes(c, r, w.shapes(c, w.n), llc)
		r.on = false
		var e float64
		if rc.sol != nil {
			e = rc.sol.Energy()
		} else {
			e = sumSquares(c, rc.ys[0])
		}
		if c.Rank() == 0 {
			rec.WorkingSetBytes, n, rec.StealFrac = ws, local, steal
			untraced, traced, probes, final = uw, tw, pr, e
			ops, alternated = len(warm[0])+len(uw)+len(tw), len(uw)+len(tw)
		}
	})
	if err != nil {
		return result{}, rec, err
	}
	refOps := ops
	if w.solver == nil {
		refOps = refPairs
	}
	refFinal, refWalls, err := reference(w, seed, refOps)
	if err != nil {
		return result{}, rec, fmt.Errorf("P=1 reference: %w", err)
	}
	n.attempted++
	if !(math.Abs(final-refFinal) <= finalEnergyTol*math.Abs(refFinal)) {
		n.failed++
	}

	r0 := recs[0]
	stepSelf, calls := r0.selfTimes("spectral.step")
	// Registry counters count the traced operations only; the fft
	// package's own counters count every operation of the loop.
	delta := func(name string) float64 { return counterDelta(before, after, name) / float64(len(traced)) }
	fftDelta := func(name string) float64 { return counterDelta(before, after, name) / float64(alternated) }
	m := map[string]metric{
		"spectral.step_s":          {median(r0.byName("spectral.step")), "s"},
		"spectral.compute_s":       {median(stepSelf), "s"},
		"spectral.transform_calls": {calls, "count"},
		"cuda.xfer_bytes_per_step": {delta("cuda.xfer.bytes"), "B"},
		"cuda.stream_ops_per_step": {delta("cuda.stream.ops"), "count"},
		"fft.c2c_gflops":           {probes.c2cGflops, "GFLOP/s"},
		"fft.r2c_gflops":           {probes.r2cGflops, "GFLOP/s"},
		"fft.transforms_per_op":    {(fftDelta("fft.transforms") + fftDelta("fft.real.transforms")) / float64(ranks), "count"},
		"transpose.gather_gbs":     {probes.gatherGBs, "GB/s"},
		"transpose.copy_gbs":       {probes.copyGBs, "GB/s"},
		"transpose.gather_eff":     {probes.gatherGBs / probes.copyGBs, "ratio"},
		"transpose.mem_gbs":        {probes.memGBs, "GB/s"},
		"mpi.exchange_s":           {probes.exchangeS, "s"},
		"mpi.exchange_gather_s":    {probes.gatherS, "s"},
		"mpi.exchange_wait_s":      {probes.waitS, "s"},
		"exchange.calls_per_op":    {delta("exchange.calls"), "count"},
		"exchange.bytes_per_op":    {delta("exchange.bytes"), "B"},
		"spectral.parallel_eff":    {median(refWalls) / (float64(ranks) * median(untraced)), "ratio"},
		"trace.overhead_frac":      {median(traced)/median(untraced) - 1, "ratio"},
	}
	for _, layer := range []string{"pfft", "core"} {
		var fwd, inv, plan float64
		if layer == w.layer {
			fwd, inv, plan = median(r0.byName(layer+".fwd")), median(r0.byName(layer+".inv")), median(r0.byName(layer+".plan"))
		}
		m[layer+".fwd_s"] = metric{fwd, "s"}
		m[layer+".inv_s"] = metric{inv, "s"}
		m[layer+".plan_s"] = metric{plan, "s"}
	}

	rec.SetupS, rec.SetupStealFrac = setups, setupSteal
	rec.Step = summarize(untraced, unshared(rec.StealFrac))
	rec.TracedOps = len(traced)
	rec.LLCBytes, rec.MemArrayBytes = probes.llcBytes, probes.memArrayBytes
	rec.TracePath = filepath.Join(outdir, fmt.Sprintf("trace_%s_seed%d.json", w.name, seed))
	if err := writeChromeTrace(rec.TracePath, recs, after); err != nil {
		return result{}, rec, fmt.Errorf("write trace: %w", err)
	}
	return result{Correct: n.failed == 0, Attempted: n.attempted, Failed: n.failed, Metrics: m}, rec, nil
}

// reference replays the workload from the same seed on one rank with
// the synchronous slab engine: ops solver steps (reporting the final
// energy), or ops pairs (reporting Σy² of the round-tripped field).
// It returns the final value and each operation's wall time.
func reference(w workload, seed int64, ops int) (final float64, walls []float64, err error) {
	err = mpi.TryRun(1, func(c *mpi.Comm) {
		eng, bx := newSlab(c, w.n)
		defer eng.Close()
		if w.solver == nil {
			x0, y := make([]float64, eng.PhysicalLen()), make([]float64, eng.PhysicalLen())
			four := make([]complex128, eng.FourierLen())
			fillSeeded(x0, seed, 0, w.n, bx)
			for i := 0; i < ops; i++ {
				t0 := time.Now()
				eng.PhysicalToFourier(four, x0)
				eng.FourierToPhysical(y, four)
				walls = append(walls, time.Since(t0).Seconds())
			}
			final = sumSquares(c, y)
			return
		}
		opts := append(slices.Clip(w.solver), spectral.WithTransform(eng.(spectral.Transform)))
		sol := spectral.New(c, w.n, opts...)
		defer sol.Close()
		setInitialCondition(sol, seed)
		for i := 0; i < ops; i++ {
			t0 := time.Now()
			sol.Step(w.dt)
			walls = append(walls, time.Since(t0).Seconds())
		}
		final = sol.Energy()
	})
	return final, walls, err
}

// counterDelta is the largest per-rank growth of counter name between
// two snapshots.
func counterDelta(before, after metrics.Snapshot, name string) float64 {
	prev := map[int]float64{}
	for _, e := range before.Entries {
		if e.Name == name {
			prev[e.Rank] = e.Value
		}
	}
	var d float64
	for _, e := range after.Entries {
		if e.Name == name {
			d = math.Max(d, e.Value-prev[e.Rank])
		}
	}
	return d
}

// summarize takes the median and tail of walls, scaled to an unshared
// machine by scale.
func summarize(walls []float64, scale float64) *opStats {
	p50 := median(walls)
	t, pct := tail(walls)
	return &opStats{Samples: len(walls), P50: p50 * scale, Tail: t * scale, TailPct: pct, RawP50: p50, RawTail: t}
}

// median of xs, 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if k := len(s); k%2 == 1 {
		return s[k/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// tail is the highest percentile with at least tailBeyond samples
// beyond it — the (tailBeyond+1)-th largest sample — and that
// percentile. With too few samples it is the largest at 100.
func tail(xs []float64) (v, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s)
	if k <= tailBeyond {
		return s[k-1], 100
	}
	return s[k-1-tailBeyond], 100 * float64(k-tailBeyond) / float64(k)
}
