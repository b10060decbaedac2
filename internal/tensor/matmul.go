package tensor

import "fmt"

// The three matmul entry points have two backends. On amd64 with AVX2+FMA
// they run register-tiled micro-kernels (simd_amd64.s): A·B and Aᵀ·B share
// a 4×16 tile that stays in YMM registers across the whole k loop and is
// stored once, and A·Bᵀ uses a 3×4 tile of 8-lane dot products. Both read
// A and B in place, with no packing. Everywhere else the pure-Go kernels
// below run: two output rows per pass with the k loop unrolled 4×
// (axpy4x2 / axpy4) for A·B and Aᵀ·B and a scalar dot (dot1) for A·Bᵀ,
// written so the compiler eliminates every bounds check in the hot loops.
//
// Determinism contract: for a given binary on a given machine, the
// operation chain of every output element is fixed by (i, j, k) alone. On
// the SIMD path an A·B or Aᵀ·B element is an FMA chain in ascending p over
// p < k&^3 from +0, then an unfused multiply and add per remaining p; an
// A·Bᵀ element sums p ≡ l (mod 8) in lane l with FMAs, folds lanes l+4
// into l, FMAs the k%8 tail into lane 0 and returns (l0+l1)+(l2+l3). Tiles
// and workers only partition disjoint outputs, so results are
// bit-identical for any SetMaxWorkers value.

// matmulShapes panics unless a and b are 2-D and agree on the contracted
// dimension (dimension aShared of a against bShared of b). It is the shared
// validation helper for MatMul, MatMulBT, and MatMulAT.
func matmulShapes(op string, a, b *Tensor, aShared, bShared int) {
	if a.Dims() != 2 || b.Dims() != 2 || a.shape[aShared] != b.shape[bShared] {
		panic(fmt.Sprintf("tensor: %s shapes %v × %v invalid (%v)", op, a.shape, b.shape, ErrShape))
	}
}

func checkOutShape(op string, out *Tensor, m, n int) {
	if out.Dims() != 2 || out.shape[0] != m || out.shape[1] != n {
		panic(fmt.Sprintf("tensor: %s out shape %v, want [%d %d]", op, out.shape, m, n))
	}
}

// matmulMACsPerWorker is the least multiply-accumulate work worth handing
// to a worker, so tiny multiplies stay single-threaded.
const matmulMACsPerWorker = 1 << 15

// matmulRowsPerWorker picks a minimum per-goroutine row count for the
// pure-Go kernels.
func matmulRowsPerWorker(k, n int) int {
	work := k * n
	if work <= 0 {
		return 1
	}
	return max(matmulMACsPerWorker/work, 1)
}

// Output tile sizes of the SIMD kernels: gemmPanelSIMD (A·B, Aᵀ·B) and
// dotPanelSIMD (A·Bᵀ).
const (
	gemmTileRows, gemmTileCols = 4, 16
	dotTileRows, dotTileCols   = 3, 4
)

// gemmBlockBytes bounds the slice of B one pass of gemmPanelSIMD row blocks
// sweeps, so it stays in L2 while every row block of the pass reuses it.
// Unblocked, each row block of the k = 304 weight gradients streams all of
// B (304×2000 floats, 2.4 MB) again, and Aᵀ·B at 18×304×2000 ran slower
// than the axpy kernels it replaces.
const gemmBlockBytes = 256 << 10

// tileSplit partitions an m×n output across workers in whole tiles: by
// blocks of tr rows, or by strips of tc columns when the strips are more
// numerous. Each worker gets at least per units so tiny products stay
// serial.
type tileSplit struct {
	m, n, tr, tc, units, per int
	byRows                   bool
}

func newTileSplit(m, k, n, tr, tc int) tileSplit {
	s := tileSplit{m: m, n: n, tr: tr, tc: tc}
	rowBlocks, colStrips := (m+tr-1)/tr, (n+tc-1)/tc
	s.byRows = rowBlocks >= colStrips
	unitMACs := k * tc * m
	s.units = colStrips
	if s.byRows {
		s.units, unitMACs = rowBlocks, k*tr*n
	}
	s.per = max(matmulMACsPerWorker/unitMACs, 1)
	return s
}

// bounds maps the unit range [u0, u1) to its output rows and columns.
func (s tileSplit) bounds(u0, u1 int) (r0, r1, c0, c1 int) {
	if s.byRows {
		return u0 * s.tr, min(u1*s.tr, s.m), 0, s.n
	}
	return 0, s.m, u0 * s.tc, min(u1*s.tc, s.n)
}

// gemmSIMD computes dst = A·b on the register-tiled kernel, where b is
// [k, n] and A(i, p) = a[i*ars+p*acs], so A·B (ars = k, acs = 1) and Aᵀ·B
// (ars = 1, acs = m) share it.
func gemmSIMD(dst, a, b []float32, m, k, n, ars, acs int) {
	if k == 0 {
		zeroFloats(dst[:m*n])
		return
	}
	s := newTileSplit(m, k, n, gemmTileRows, gemmTileCols)
	if chunksFor(s.units, s.per) <= 1 {
		// Called directly, not through parallelFor, so the serial path
		// builds no escaping closure and allocates nothing.
		gemmTiles(dst, a, b, k, n, ars, acs, 0, m, 0, n)
		return
	}
	parallelFor(s.units, s.per, func(u0, u1 int) {
		r0, r1, c0, c1 := s.bounds(u0, u1)
		gemmTiles(dst, a, b, k, n, ars, acs, r0, r1, c0, c1)
	})
}

// gemmTiles computes output rows [r0, r1) × columns [c0, c1) of gemmSIMD,
// one gemmPanelSIMD call per 4-row block and column block.
func gemmTiles(dst, a, b []float32, k, n, ars, acs, r0, r1, c0, c1 int) {
	nc := max(gemmBlockBytes/(4*k)&^(gemmTileCols-1), gemmTileCols)
	for jc := c0; jc < c1; jc += nc {
		w := min(nc, c1-jc)
		for i := r0; i < r1; i += gemmTileRows {
			last := min(gemmTileRows, r1-i) - 1
			gemmPanelSIMD(&dst[i*n+jc], &a[i*ars], &b[jc], k, w, n, acs,
				min(1, last)*ars, min(2, last)*ars, min(3, last)*ars, last+1)
		}
	}
}

// dotSIMD computes dst = a·bᵀ for a [m, k] and b [n, k] on the 3×4 dot
// tile kernel.
func dotSIMD(dst, a, b []float32, m, k, n int) {
	if k == 0 {
		zeroFloats(dst[:m*n])
		return
	}
	s := newTileSplit(m, k, n, dotTileRows, dotTileCols)
	if chunksFor(s.units, s.per) <= 1 {
		dotTiles(dst, a, b, k, n, 0, m, 0, n)
		return
	}
	parallelFor(s.units, s.per, func(u0, u1 int) {
		r0, r1, c0, c1 := s.bounds(u0, u1)
		dotTiles(dst, a, b, k, n, r0, r1, c0, c1)
	})
}

// dotTiles computes output rows [r0, r1) × columns [c0, c1) of dotSIMD,
// one dotPanelSIMD call per 3-row block.
func dotTiles(dst, a, b []float32, k, n, r0, r1, c0, c1 int) {
	for i := r0; i < r1; i += dotTileRows {
		dotPanelSIMD(&dst[i*n+c0], &a[i*k], &b[c0*k], k, c1-c0, n, min(dotTileRows, r1-i))
	}
}

// MatMul returns a × b for a of shape [m, k] and b of shape [k, n].
func MatMul(a, b *Tensor) *Tensor {
	matmulShapes("MatMul", a, b, 1, 0)
	out := New(a.shape[0], b.shape[1])
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes out = a × b, reusing out's storage. out must be
// [m, n]; it is fully overwritten.
func MatMulInto(out, a, b *Tensor) {
	matmulShapes("MatMulInto", a, b, 1, 0)
	m, k, n := a.shape[0], a.shape[1], b.shape[1]
	checkOutShape("MatMulInto", out, m, n)
	if n == 0 || m == 0 {
		return
	}
	MatMulRawInto(out.Data, a.Data, b.Data, m, k, n)
}

// MatMulRawInto computes dst = a × b over raw row-major buffers: a is
// [m, k], b is [k, n], dst is [m, n] and fully overwritten. This is the
// allocation-free entry point for hot loops (im2col convolution, batched
// attention matmuls) that would otherwise build a view header per call.
func MatMulRawInto(dst, a, b []float32, m, k, n int) {
	checkRawSizes("MatMulRawInto", len(dst), len(a), len(b), m*n, m*k, k*n)
	if m == 0 || n == 0 {
		return
	}
	if simdAvailable {
		gemmSIMD(dst, a, b, m, k, n, k, 1)
		return
	}
	rpw := matmulRowsPerWorker(k, n)
	if chunksFor(m, rpw) <= 1 {
		// Serial fast path: calling the range function directly skips the
		// escaping closure a parallelFor call would construct — one heap
		// allocation per matmul, which is what made the per-image conv
		// loops allocate proportionally to the batch.
		matmulRowRange(dst, a, b, k, n, 0, m)
		return
	}
	parallelFor(m, rpw, func(r0, r1 int) {
		matmulRowRange(dst, a, b, k, n, r0, r1)
	})
}

func checkRawSizes(op string, ld, la, lb, wd, wa, wb int) {
	if ld < wd || la < wa || lb < wb {
		panic(fmt.Sprintf("tensor: %s buffer sizes %d/%d/%d, need %d/%d/%d", op, ld, la, lb, wd, wa, wb))
	}
}

// matmulRowRange computes output rows [r0, r1) of od = ad × bd.
// Rows are processed in pairs; per-element accumulation order is ascending
// p regardless of pairing, so chunk boundaries cannot change results.
func matmulRowRange(od, ad, bd []float32, k, n, r0, r1 int) {
	i := r0
	for ; i+2 <= r1; i += 2 {
		d0 := od[i*n : i*n+n]
		d1 := od[(i+1)*n : (i+1)*n+n]
		zeroFloats(d0)
		zeroFloats(d1)
		arow0 := ad[i*k : (i+1)*k]
		arow1 := ad[(i+1)*k : (i+2)*k]
		p := 0
		for ; p+4 <= k; p += 4 {
			axpy4x2Generic(d0, d1,
				bd[p*n:p*n+n], bd[(p+1)*n:(p+1)*n+n],
				bd[(p+2)*n:(p+2)*n+n], bd[(p+3)*n:(p+3)*n+n],
				arow0[p], arow0[p+1], arow0[p+2], arow0[p+3],
				arow1[p], arow1[p+1], arow1[p+2], arow1[p+3])
		}
		for ; p < k; p++ {
			axpy1(d0, bd[p*n:p*n+n], arow0[p])
			axpy1(d1, bd[p*n:p*n+n], arow1[p])
		}
	}
	for ; i < r1; i++ {
		d0 := od[i*n : i*n+n]
		zeroFloats(d0)
		arow := ad[i*k : (i+1)*k]
		p := 0
		for ; p+4 <= k; p += 4 {
			axpy4Generic(d0,
				bd[p*n:p*n+n], bd[(p+1)*n:(p+1)*n+n],
				bd[(p+2)*n:(p+2)*n+n], bd[(p+3)*n:(p+3)*n+n],
				arow[p], arow[p+1], arow[p+2], arow[p+3])
		}
		for ; p < k; p++ {
			axpy1(d0, bd[p*n:p*n+n], arow[p])
		}
	}
}

// MatMulBT returns a × bᵀ for a [m, k] and b [n, k]. This avoids
// materialising the transpose in backward passes.
func MatMulBT(a, b *Tensor) *Tensor {
	matmulShapes("MatMulBT", a, b, 1, 1)
	out := New(a.shape[0], b.shape[0])
	MatMulBTInto(out, a, b)
	return out
}

// MatMulBTInto computes out = a × bᵀ, reusing out's storage.
func MatMulBTInto(out, a, b *Tensor) {
	matmulShapes("MatMulBTInto", a, b, 1, 1)
	m, k, n := a.shape[0], a.shape[1], b.shape[0]
	checkOutShape("MatMulBTInto", out, m, n)
	if m == 0 || n == 0 {
		return
	}
	MatMulBTRawInto(out.Data, a.Data, b.Data, m, k, n)
}

// MatMulBTRawInto computes dst = a × bᵀ over raw row-major buffers: a is
// [m, k], b is [n, k], dst is [m, n] and fully overwritten.
func MatMulBTRawInto(dst, a, b []float32, m, k, n int) {
	checkRawSizes("MatMulBTRawInto", len(dst), len(a), len(b), m*n, m*k, n*k)
	if m == 0 || n == 0 {
		return
	}
	if simdAvailable {
		dotSIMD(dst, a, b, m, k, n)
		return
	}
	rpw := matmulRowsPerWorker(k, n)
	if chunksFor(m, rpw) <= 1 {
		matmulBTRowRange(dst, a, b, k, n, 0, m)
		return
	}
	parallelFor(m, rpw, func(r0, r1 int) {
		matmulBTRowRange(dst, a, b, k, n, r0, r1)
	})
}

func matmulBTRowRange(dst, a, b []float32, k, n, r0, r1 int) {
	for i := r0; i < r1; i++ {
		arow := a[i*k : (i+1)*k]
		orow := dst[i*n : i*n+n]
		for j := range orow {
			orow[j] = dot1(arow, b[j*k:j*k+k])
		}
	}
}

// MatMulAT returns aᵀ × b for a [k, m] and b [k, n]; used for weight
// gradients (dW = xᵀ·dy).
func MatMulAT(a, b *Tensor) *Tensor {
	matmulShapes("MatMulAT", a, b, 0, 0)
	out := New(a.shape[1], b.shape[1])
	MatMulATInto(out, a, b)
	return out
}

// MatMulATInto computes out = aᵀ × b, reusing out's storage.
func MatMulATInto(out, a, b *Tensor) {
	matmulShapes("MatMulATInto", a, b, 0, 0)
	k, m, n := a.shape[0], a.shape[1], b.shape[1]
	checkOutShape("MatMulATInto", out, m, n)
	if m == 0 || n == 0 {
		return
	}
	MatMulATRawInto(out.Data, a.Data, b.Data, m, k, n)
}

// MatMulATRawInto computes dst = aᵀ × b over raw row-major buffers: a is
// [k, m], b is [k, n], dst is [m, n] and fully overwritten.
func MatMulATRawInto(dst, a, b []float32, m, k, n int) {
	checkRawSizes("MatMulATRawInto", len(dst), len(a), len(b), m*n, k*m, k*n)
	if m == 0 || n == 0 {
		return
	}
	if simdAvailable {
		gemmSIMD(dst, a, b, m, k, n, 1, m)
		return
	}
	rpw := matmulRowsPerWorker(k, n)
	if chunksFor(m, rpw) <= 1 {
		matmulATRowRange(dst, a, b, m, k, n, 0, m)
		return
	}
	parallelFor(m, rpw, func(r0, r1 int) {
		matmulATRowRange(dst, a, b, m, k, n, r0, r1)
	})
}

func matmulATRowRange(dst, a, b []float32, m, k, n, r0, r1 int) {
	ad, bd, od := a, b, dst
	i := r0
	for ; i+2 <= r1; i += 2 {
		d0 := od[i*n : i*n+n]
		d1 := od[(i+1)*n : (i+1)*n+n]
		zeroFloats(d0)
		zeroFloats(d1)
		p := 0
		for ; p+4 <= k; p += 4 {
			axpy4x2Generic(d0, d1,
				bd[p*n:p*n+n], bd[(p+1)*n:(p+1)*n+n],
				bd[(p+2)*n:(p+2)*n+n], bd[(p+3)*n:(p+3)*n+n],
				ad[p*m+i], ad[(p+1)*m+i], ad[(p+2)*m+i], ad[(p+3)*m+i],
				ad[p*m+i+1], ad[(p+1)*m+i+1], ad[(p+2)*m+i+1], ad[(p+3)*m+i+1])
		}
		for ; p < k; p++ {
			axpy1(d0, bd[p*n:p*n+n], ad[p*m+i])
			axpy1(d1, bd[p*n:p*n+n], ad[p*m+i+1])
		}
	}
	for ; i < r1; i++ {
		d0 := od[i*n : i*n+n]
		zeroFloats(d0)
		p := 0
		for ; p+4 <= k; p += 4 {
			axpy4Generic(d0,
				bd[p*n:p*n+n], bd[(p+1)*n:(p+1)*n+n],
				bd[(p+2)*n:(p+2)*n+n], bd[(p+3)*n:(p+3)*n+n],
				ad[p*m+i], ad[(p+1)*m+i], ad[(p+2)*m+i], ad[(p+3)*m+i])
		}
		for ; p < k; p++ {
			axpy1(d0, bd[p*n:p*n+n], ad[p*m+i])
		}
	}
}

func zeroFloats(s []float32) {
	for i := range s {
		s[i] = 0
	}
}

// axpy4x2Generic computes, for j in [0, len(d0)):
//
//	d0[j] += a00*b0[j] + a01*b1[j] + a02*b2[j] + a03*b3[j]
//	d1[j] += a10*b0[j] + a11*b1[j] + a12*b2[j] + a13*b3[j]
//
// The reslicing below pins every slice to len(d0) so the compiler proves
// all inner-loop indexing in bounds (verified with -d=ssa/check_bce).
func axpy4x2Generic(d0, d1, b0, b1, b2, b3 []float32, a00, a01, a02, a03, a10, a11, a12, a13 float32) {
	q1 := b1[:len(d0)]
	q2 := b2[:len(d0)]
	q3 := b3[:len(d0)]
	e1 := d1[:len(d0)]
	q0 := b0[:len(d0)]
	for j := range d0 {
		v0, v1, v2, v3 := q0[j], q1[j], q2[j], q3[j]
		d0[j] += a00*v0 + a01*v1 + a02*v2 + a03*v3
		e1[j] += a10*v0 + a11*v1 + a12*v2 + a13*v3
	}
}

// axpy4Generic is the single-row version of axpy4x2Generic with an
// identical per-element operation chain, so row pairing cannot change
// results.
func axpy4Generic(d, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32) {
	q1 := b1[:len(d)]
	q2 := b2[:len(d)]
	q3 := b3[:len(d)]
	q0 := b0[:len(d)]
	for j := range d {
		d[j] += a0*q0[j] + a1*q1[j] + a2*q2[j] + a3*q3[j]
	}
}

// axpy1 handles the k%4 remainder rows: d[j] += av*b[j].
func axpy1(d, b []float32, av float32) {
	q := b[:len(d)]
	for j := range d {
		d[j] += av * q[j]
	}
}

// dot1 is the scalar dot product of the pure-Go MatMulBT. Four partial
// accumulators break the add latency chain; the final combine order is
// fixed.
func dot1(a, b []float32) float32 {
	q := b[:len(a)]
	var s0, s1, s2, s3 float32
	p := 0
	for ; p+4 <= len(a); p += 4 {
		s0 += a[p] * q[p]
		s1 += a[p+1] * q[p+1]
		s2 += a[p+2] * q[p+2]
		s3 += a[p+3] * q[p+3]
	}
	var st float32
	for ; p < len(a); p++ {
		st += a[p] * q[p]
	}
	return ((s0 + s1) + (s2 + s3)) + st
}
