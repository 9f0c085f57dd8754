// Package transpose implements the pack and unpack kernels that
// surround every MPI all-to-all in the DNS: the slab y↔z transposes of
// the paper's 1D-decomposed GPU code (Fig 2/Fig 6) and the row/column
// transposes of the 2D pencil decomposition (PencilLayout). Pack layouts
// are chosen so each destination receives one contiguous block, the
// property the paper exploits by fusing packing into a single strided
// device-to-host copy.
package transpose

// CopyStrided copies nrows rows of rowLen contiguous elements from src
// to dst, advancing by the given strides between rows — the software
// analogue of cudaMemcpy2D that both host packing and the simulated
// device copies share.
//
// Fully-contiguous transfers (both strides equal to the row length,
// cudaMemcpy2D degenerating to cudaMemcpy) collapse into a single
// copy, and the strided loop carries running offsets instead of
// recomputing r·stride slice bounds per row; BenchmarkCopyStrided
// pins both shapes.
//
//psdns:hotpath
func CopyStrided[T any](dst []T, dstStride int, src []T, srcStride, rowLen, nrows int) {
	if nrows <= 0 || rowLen <= 0 {
		return
	}
	if dstStride == rowLen && srcStride == rowLen {
		copy(dst[:rowLen*nrows], src[:rowLen*nrows])
		return
	}
	dOff, sOff := 0, 0
	for r := 0; r < nrows; r++ {
		copy(dst[dOff:dOff+rowLen], src[sOff:sOff+rowLen])
		dOff += dstStride
		sOff += srcStride
	}
}

// --- Slab transposes (1D decomposition) -------------------------------
//
// Fourier-side layout:  [mz][ny][nxh]  (x fastest, z-distributed)
// Physical-side layout: [my][nz][nxh]  (x fastest, y-distributed)
// with my = ny/p and nz = mz·p.

// PackYZ packs the Fourier-side slab src=[mz][ny][nxh] into p
// destination blocks of shape [mz][my][nxh]; block d carries y indices
// [d·my,(d+1)·my). dst must have length mz·ny·nxh.
func PackYZ[T any](dst, src []T, nxh, ny, mz, p int) {
	l := NewSlabLayout(nxh, ny, mz, p)
	l.check("PackYZ", len(dst), len(src))
	PackYZRange(&l, dst, src, 0, mz)
}

// UnpackYZ scatters the received blocks (block s = [mz][my][nxh] from
// rank s) into the physical-side slab dst=[my][nz][nxh].
func UnpackYZ[T any](dst, src []T, nxh, nz, my, p int) {
	l := NewSlabLayout(nxh, my*p, nz/p, p)
	l.check("UnpackYZ", len(dst), len(src))
	UnpackYZRange(&l, dst, src, 0, my)
}

// PackZY packs the physical-side slab src=[my][nz][nxh] into p blocks
// of shape [my][mz][nxh]; block d carries z indices [d·mz,(d+1)·mz).
func PackZY[T any](dst, src []T, nxh, nz, my, p int) {
	l := NewSlabLayout(nxh, my*p, nz/p, p)
	l.check("PackZY", len(dst), len(src))
	PackZYRange(&l, dst, src, 0, my)
}

// UnpackZY scatters the received blocks (block s = [my][mz][nxh] from
// rank s) into the Fourier-side slab dst=[mz][ny][nxh].
func UnpackZY[T any](dst, src []T, nxh, ny, mz, p int) {
	l := NewSlabLayout(nxh, ny, mz, p)
	l.check("UnpackZY", len(dst), len(src))
	UnpackZYRange(&l, dst, src, 0, mz)
}

// PackYZPencil packs only y indices [yLo,yHi) of the Fourier-side slab
// (one GPU-batched pencil of Fig 3) into per-destination sub-blocks of
// shape [mz][overlap][nxh], where overlap is the intersection of
// [yLo,yHi) with the destination's y range. Blocks are laid out
// back-to-back in destination order; the function returns the
// per-destination counts (in elements). This is the "pack one pencil,
// all-to-all one pencil" message layout of configuration B.
func PackYZPencil[T any](dst, src []T, nxh, ny, mz, p, yLo, yHi int) []int {
	counts := make([]int, p)
	PackYZPencilInto(counts, dst, src, nxh, ny, mz, p, yLo, yHi)
	return counts
}

// UnpackYZPencil places a pencil's worth of received blocks into the
// physical-side slab: block s holds z range [s·mz,(s+1)·mz) for the
// intersection of [yLo,yHi) with this rank's y range.
func UnpackYZPencil[T any](dst, src []T, nxh, nz, my, p, myLo, yLo, yHi int) {
	mz := nz / p
	lo := max(yLo, myLo)
	hi := min(yHi, myLo+my)
	if lo >= hi {
		return
	}
	w := hi - lo
	off := 0
	for s := 0; s < p; s++ {
		for iz := 0; iz < mz; iz++ {
			for iy := 0; iy < w; iy++ {
				dstOff := ((lo - myLo + iy) * nz * nxh) + (s*mz+iz)*nxh
				copy(dst[dstOff:dstOff+nxh], src[off:off+nxh])
				off += nxh
			}
		}
	}
}
