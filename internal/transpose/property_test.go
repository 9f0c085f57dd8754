package transpose

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: for random geometry, the slab pack→exchange→unpack chain
// followed by its reverse restores every rank's slab exactly.
func TestSlabTransposeRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 1 + rng.Intn(5)
		my := 1 + rng.Intn(4)
		mz := 1 + rng.Intn(4)
		ny := my * p
		nz := mz * p
		nxh := 1 + rng.Intn(6)
		bs := mz * my * nxh

		orig := make([][]complex128, p)
		send := make([][]complex128, p)
		for r := 0; r < p; r++ {
			slab := make([]complex128, mz*ny*nxh)
			for i := range slab {
				slab[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			orig[r] = slab
			packed := make([]complex128, len(slab))
			PackYZ(packed, slab, nxh, ny, mz, p)
			send[r] = packed
		}
		recv := exchange(send, p, bs)
		back := make([][]complex128, p)
		for r := 0; r < p; r++ {
			phys := make([]complex128, my*nz*nxh)
			UnpackYZ(phys, recv[r], nxh, nz, my, p)
			packed := make([]complex128, len(phys))
			PackZY(packed, phys, nxh, nz, my, p)
			back[r] = packed
		}
		recv2 := exchange(back, p, bs)
		for r := 0; r < p; r++ {
			dst := make([]complex128, mz*ny*nxh)
			UnpackZY(dst, recv2[r], nxh, ny, mz, p)
			for i := range dst {
				if dst[i] != orig[r][i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: every element of the packed buffer appears exactly once
// (pack is a permutation, never duplicating or dropping data).
func TestPackIsPermutationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 1 + rng.Intn(4)
		my := 1 + rng.Intn(3)
		mz := 1 + rng.Intn(3)
		ny := my * p
		nxh := 1 + rng.Intn(5)
		src := make([]complex128, mz*ny*nxh)
		for i := range src {
			src[i] = complex(float64(i)+1, 0) // unique nonzero values
		}
		dst := make([]complex128, len(src))
		PackYZ(dst, src, nxh, ny, mz, p)
		seen := map[complex128]int{}
		for _, v := range dst {
			seen[v]++
		}
		if len(seen) != len(src) {
			return false
		}
		for _, n := range seen {
			if n != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the column and row transposes of the pencil decomposition
// (the PencilLayout gathers) are mutual inverses for random process
// grids, uneven x splits included.
func TestPencilTransposeRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pr, pc := 1+rng.Intn(4), 1+rng.Intn(4)
		n := 2 * pr * pc * (1 + rng.Intn(2))
		lays := make([][]*PencilLayout, pr)
		xspec := make([][][]complex128, pr) // [yG][zG], x-complete
		for yG := range lays {
			lays[yG] = make([]*PencilLayout, pc)
			xspec[yG] = make([][]complex128, pc)
			for zG := range lays[yG] {
				l := NewPencilLayout(n, pr, pc, yG, zG)
				lays[yG][zG] = l
				x := make([]complex128, l.PadXLen)
				for i := 0; i < l.XSpecLen(); i++ {
					x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
				}
				xspec[yG][zG] = x
			}
		}
		type gather func(l *PencilLayout, dst []complex128, srcs [][]complex128)
		// col exchanges within each row group yG (peers vary zG), row
		// exchanges within each column group zG (peers vary yG).
		col := func(src [][][]complex128, size func(*PencilLayout) int, g gather) [][][]complex128 {
			out := make([][][]complex128, pr)
			for yG := range out {
				out[yG] = make([][]complex128, pc)
				for zG := range out[yG] {
					l := lays[yG][zG]
					out[yG][zG] = make([]complex128, size(l))
					g(l, out[yG][zG], src[yG])
				}
			}
			return out
		}
		row := func(src [][][]complex128, size func(*PencilLayout) int, g gather) [][][]complex128 {
			out := make([][][]complex128, pr)
			for yG := range out {
				out[yG] = make([][]complex128, pc)
			}
			for zG := 0; zG < pc; zG++ {
				srcs := make([][]complex128, pr)
				for yG := range srcs {
					srcs[yG] = src[yG][zG]
				}
				for yG := range out {
					l := lays[yG][zG]
					out[yG][zG] = make([]complex128, size(l))
					g(l, out[yG][zG], srcs)
				}
			}
			return out
		}
		b := col(xspec, (*PencilLayout).BLen, func(l *PencilLayout, dst []complex128, srcs [][]complex128) {
			PencilGatherColFwdRange(l, dst, srcs, 0, l.My)
		})
		c := row(b, (*PencilLayout).CLen, func(l *PencilLayout, dst []complex128, srcs [][]complex128) {
			PencilGatherRowFwdRange(l, dst, srcs, 0, l.Mz2)
		})
		b = row(c, (*PencilLayout).BLen, func(l *PencilLayout, dst []complex128, srcs [][]complex128) {
			PencilGatherRowInvRange(l, dst, srcs, 0, l.My)
		})
		back := col(b, func(l *PencilLayout) int { return l.PadXLen }, func(l *PencilLayout, dst []complex128, srcs [][]complex128) {
			PencilGatherColInvRange(l, dst, srcs, 0, l.My)
		})
		for yG := range lays {
			for zG, l := range lays[yG] {
				for i := 0; i < l.XSpecLen(); i++ {
					if back[yG][zG][i] != xspec[yG][zG][i] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
