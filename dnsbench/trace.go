package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/spectral"
	"repro/internal/trace"
)

// span is one timed call into a layer, made by the benchmark itself.
type span struct {
	name       string
	start, end time.Duration // since the recorder's epoch
	parent     int32         // index of the enclosing span, −1 for a root
}

// recorder keeps one rank's spans in memory; they are written out when
// the run ends. A nil or switched-off recorder records nothing, so
// untraced code paths pay one branch per call.
type recorder struct {
	epoch time.Time
	on    bool
	spans []span
	stack []int32
}

func newRecorder(epoch time.Time) *recorder {
	return &recorder{epoch: epoch, spans: make([]span, 0, 1<<15), stack: make([]int32, 0, 8)}
}

// begin opens a span under the innermost open one and returns its id
// (−1 when not recording).
func (r *recorder) begin(name string) int32 {
	if r == nil || !r.on {
		return -1
	}
	parent := int32(-1)
	if k := len(r.stack); k > 0 {
		parent = r.stack[k-1]
	}
	r.spans = append(r.spans, span{name: name, start: time.Since(r.epoch), parent: parent})
	id := int32(len(r.spans) - 1)
	r.stack = append(r.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (r *recorder) end(id int32) {
	if id < 0 {
		return
	}
	r.spans[id].end = time.Since(r.epoch)
	r.stack = r.stack[:len(r.stack)-1]
}

// byName returns the durations, in seconds, of the spans called name.
func (r *recorder) byName(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.name == name {
			out = append(out, (s.end - s.start).Seconds())
		}
	}
	return out
}

// selfTimes returns, for every span called name, its duration minus
// the durations of its child spans (children of one span never
// overlap: a rank's calls are sequential), and the mean child count.
func (r *recorder) selfTimes(name string) (self []float64, childrenPer float64) {
	child := make([]time.Duration, len(r.spans))
	nchild := make([]int, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
			nchild[s.parent]++
		}
	}
	total := 0
	for i, s := range r.spans {
		if s.name == name {
			self = append(self, (s.end - s.start - child[i]).Seconds())
			total += nchild[i]
		}
	}
	if len(self) > 0 {
		childrenPer = float64(total) / float64(len(self))
	}
	return self, childrenPer
}

// tracedTransform is the spectral.Transform handed to the solver
// through WithTransform in traced runs: it records one span per
// transform call around the engine's own entry point.
type tracedTransform struct {
	inner    spectral.Transform
	rec      *recorder
	fwd, inv string
}

func (t *tracedTransform) FourierToPhysical(phys []float64, four []complex128) {
	id := t.rec.begin(t.inv)
	t.inner.FourierToPhysical(phys, four)
	t.rec.end(id)
}

func (t *tracedTransform) PhysicalToFourier(four []complex128, phys []float64) {
	id := t.rec.begin(t.fwd)
	t.inner.PhysicalToFourier(four, phys)
	t.rec.end(id)
}

func (t *tracedTransform) Slab() grid.Slab  { return t.inner.Slab() }
func (t *tracedTransform) NXH() int         { return t.inner.NXH() }
func (t *tracedTransform) FourierLen() int  { return t.inner.FourierLen() }
func (t *tracedTransform) PhysicalLen() int { return t.inner.PhysicalLen() }

// writeChromeTrace writes every rank's spans, one process per rank,
// with the metrics snapshot taken at the end of the traced segment, in
// the Chrome tracing format of the simulated Fig 10 timeline
// (artifacts/fig10_chrome_trace.json), so the two load side by side.
// Nested spans of a rank share its thread, which is how the viewers
// draw parent and child.
func writeChromeTrace(path string, recs []*recorder, snap metrics.Snapshot) error {
	tls := make([]trace.Timeline, len(recs))
	for r, rec := range recs {
		res := fmt.Sprintf("rank %d", r)
		spans := make([]sched.Span, 0, len(rec.spans))
		for _, s := range rec.spans {
			class, _, _ := strings.Cut(s.name, ".")
			spans = append(spans, sched.Span{Name: s.name, Class: class, Resource: res,
				Start: s.start.Seconds(), End: s.end.Seconds()})
		}
		tls[r] = trace.Timeline{Title: res, Spans: spans}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChromeTraceWithMetrics(f, tls, snap); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
