package fft

import (
	"bufio"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// The bitwise fixture pins every transform entry point to the exact
// output bits of the reference kernels: an FNV-64a hash over
// math.Float64bits of each Forward and Inverse output, for every
// length in bitwiseLengths and every layout in bitwiseCaseNames. Kernel
// rewrites (loop structure, copies, twiddle indexing) must keep the
// DIT factor order and the butterfly formulas, so the hashes must not
// move. Regenerate only for a deliberate change of the arithmetic:
//
//	go test ./internal/fft -run TestBitwiseFixture -update-bitwise
var updateBitwise = flag.Bool("update-bitwise", false, "rewrite testdata/bitwise.golden from the current kernels")

const bitwiseGolden = "testdata/bitwise.golden"

// bitwiseLengths is n ∈ 1…130 ∪ {192, 256, 729, 1000}: every codelet,
// radix-2/3/4/5 and generic-prime combine, Bluestein lengths (67, 71,
// …, 127), odd and even real lengths.
func bitwiseLengths() []int {
	var ns []int
	for n := 1; n <= 130; n++ {
		ns = append(ns, n)
	}
	return append(ns, 192, 256, 729, 1000)
}

// bitwiseHowmany is the batch size of the batched cases.
const bitwiseHowmany = 3

func hashComplex(v []complex128) uint64 {
	h := fnv.New64a()
	var b [16]byte
	for _, c := range v {
		binary.LittleEndian.PutUint64(b[:8], math.Float64bits(real(c)))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(imag(c)))
		h.Write(b[:])
	}
	return h.Sum64()
}

func hashFloat(v []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, f := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		h.Write(b[:])
	}
	return h.Sum64()
}

// c2cLayout is one batch layout of the fixture, with strides and
// distances as functions of the transform length.
type c2cLayout struct {
	name                           string
	istride, idist, ostride, odist func(n int) int
	inPlace                        bool
}

func konst(v int) func(int) int { return func(int) int { return v } }
func lenPlus(a, b int) func(int) int {
	return func(n int) int { return a*n + b }
}

var c2cLayouts = []c2cLayout{
	{name: "interleaved", istride: konst(bitwiseHowmany), idist: konst(1), ostride: konst(bitwiseHowmany), odist: konst(1)},
	{name: "interleaved-padded", istride: konst(bitwiseHowmany + 2), idist: konst(1), ostride: konst(bitwiseHowmany + 2), odist: konst(1)},
	{name: "contiguous", istride: konst(1), idist: lenPlus(1, 0), ostride: konst(1), odist: lenPlus(1, 0)},
	{name: "strided", istride: konst(2), idist: lenPlus(2, 3), ostride: konst(4), odist: konst(1)},
	{name: "transposing", istride: konst(bitwiseHowmany), idist: konst(1), ostride: konst(1), odist: lenPlus(1, 0)},
	{name: "inplace-interleaved", istride: konst(bitwiseHowmany), idist: konst(1), ostride: konst(bitwiseHowmany), odist: konst(1), inPlace: true},
	{name: "inplace-contiguous", istride: konst(1), idist: lenPlus(1, 0), ostride: konst(1), odist: lenPlus(1, 0), inPlace: true},
}

// span is the buffer length a layout addresses.
func span(n, howmany, stride, dist int) int {
	return (howmany-1)*dist + (n-1)*stride + 1
}

// bitwiseHashes computes the fixture: one "case n dir hash" entry per
// transform.
func bitwiseHashes() map[string]uint64 {
	out := map[string]uint64{}
	put := func(name string, n int, dir string, h uint64) {
		out[fmt.Sprintf("%s %d %s", name, n, dir)] = h
	}
	for _, n := range bitwiseLengths() {
		rng := rand.New(rand.NewSource(int64(n)))
		p := NewPlan(n)
		x := randComplex(rng, n)
		y := make([]complex128, n)
		p.Forward(y, x)
		put("plan", n, "fwd", hashComplex(y))
		p.Inverse(y, x)
		put("plan", n, "inv", hashComplex(y))
		p.Release()

		hm := bitwiseHowmany
		for _, l := range c2cLayouts {
			is, id, os, od := l.istride(n), l.idist(n), l.ostride(n), l.odist(n)
			b := NewBatch(n, hm, is, id, os, od)
			src := randComplex(rng, span(n, hm, is, id))
			for _, dir := range []Direction{Forward, Inverse} {
				in, dst := src, make([]complex128, span(n, hm, os, od))
				if l.inPlace {
					dst = append([]complex128(nil), src...)
					in = dst
				}
				if dir == Forward {
					b.Forward(dst, in)
				} else {
					b.Inverse(dst, in)
				}
				put("batch-"+l.name, n, dirName(dir), hashComplex(dst))
			}
			b.Release()
		}

		h := n/2 + 1
		rp := NewRealPlan(n)
		xr := make([]float64, n)
		for i := range xr {
			xr[i] = rng.NormFloat64()
		}
		spec := randComplex(rng, h)
		c := make([]complex128, h)
		rp.Forward(c, xr)
		put("realplan", n, "fwd", hashComplex(c))
		r := make([]float64, n)
		rp.Inverse(r, spec)
		put("realplan", n, "inv", hashFloat(r))
		rp.Release()

		for _, l := range []struct {
			name                           string
			rstride, rdist, cstride, cdist int
		}{
			{"padded", 1, n, 1, h},
			{"interleaved", hm, 1, hm, 1},
		} {
			rb := NewRealBatch(n, hm, l.rstride, l.rdist, l.cstride, l.cdist)
			rsrc := make([]float64, span(n, hm, l.rstride, l.rdist))
			for i := range rsrc {
				rsrc[i] = rng.NormFloat64()
			}
			csrc := randComplex(rng, span(h, hm, l.cstride, l.cdist))
			cdst := make([]complex128, len(csrc))
			rb.Forward(cdst, rsrc)
			put("realbatch-"+l.name, n, "fwd", hashComplex(cdst))
			rdst := make([]float64, len(rsrc))
			rb.Inverse(rdst, csrc)
			put("realbatch-"+l.name, n, "inv", hashFloat(rdst))
			rb.Release()
		}
	}
	return out
}

func dirName(d Direction) string {
	if d == Forward {
		return "fwd"
	}
	return "inv"
}

func TestBitwiseFixture(t *testing.T) {
	got := bitwiseHashes()
	if *updateBitwise {
		var sb strings.Builder
		sb.WriteString("# FNV-64a of math.Float64bits of fft outputs; see bitwise_test.go\n")
		for _, n := range bitwiseLengths() {
			for _, name := range bitwiseCaseNames() {
				for _, dir := range []string{"fwd", "inv"} {
					k := fmt.Sprintf("%s %d %s", name, n, dir)
					fmt.Fprintf(&sb, "%s %016x\n", k, got[k])
				}
			}
		}
		if err := os.WriteFile(bitwiseGolden, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(bitwiseGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]uint64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		var name, dir string
		var n int
		var h uint64
		if _, err := fmt.Sscanf(line, "%s %d %s %x", &name, &n, &dir, &h); err != nil {
			t.Fatalf("bad fixture line %q: %v", line, err)
		}
		want[fmt.Sprintf("%s %d %s", name, n, dir)] = h
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("fixture has %d entries, kernels produced %d", len(want), len(got))
	}
	bad := 0
	for k, w := range want {
		if g, ok := got[k]; !ok || g != w {
			bad++
			if bad <= 20 {
				t.Errorf("%s: hash %016x, fixture %016x", k, g, w)
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d transforms changed bits", bad, len(want))
	}
}

func bitwiseCaseNames() []string {
	names := []string{"plan"}
	for _, l := range c2cLayouts {
		names = append(names, "batch-"+l.name)
	}
	return append(names, "realplan", "realbatch-padded", "realbatch-interleaved")
}
