// Package pfft implements the distributed three-dimensional real-field
// Fourier transforms of the DNS on top of the in-process MPI runtime.
// Both engines transform real physical fields into conjugate-symmetric
// half-spectra (nxh = n/2+1 x bins), normalize by 1/N³ on the inverse,
// run the paper's axis order (forward x, z, y; inverse y, z, x) and
// implement the Real interface with bitwise-identical results:
//
//   - SlabReal: the 1D slab decomposition the paper's GPU code adopts,
//     one y↔z transpose-exchange per 3D transform, with a worker team
//     per rank, autotuned or pinned exchange strategies, an optional
//     single-precision wire and an asynchrony-tolerant mode.
//   - PencilReal: the Pr×Pc pencil decomposition, two
//     transpose-exchanges per 3D transform (over the column and row
//     communicators of the process grid); it runs past the slab
//     engine's P ≤ N rank ceiling.
//
// NewRealTuned picks between them (and among exchange strategies)
// through the whole-step autotuner.
//
// Layout conventions (x always fastest):
//
//	slab physical:    [my][nz][nx],     y-distributed over P ranks
//	slab Fourier:     [mz][ny][nxh],    z-distributed over P ranks
//	pencil physical:  [my][mz][nx],     y over Pr, z over Pc
//	pencil Fourier:   [mz2][wc][ny],    y complete and fastest; z
//	                                    re-split over Pr, x split
//	                                    (unevenly) over Pc
package pfft
