//! Row-major dense matrix with the matmul variants backprop needs.
//!
//! The three matmuls (`matmul`, `matmul_at_b`, `matmul_a_bt`) share one
//! compute discipline:
//!
//! * **Persistent pool, no per-call spawn** — large products dispatch row
//!   chunks onto [`summit_pool::global`]'s parked workers under the calling
//!   thread's core budget ([`summit_pool::core_budget`]), replacing the old
//!   scoped `thread::spawn` per call. The exact partition
//!   ([`summit_pool::chunk_range`]) handles `rows % threads != 0` tails in
//!   one shared place instead of three copy-pasted chunking blocks.
//! * **Packed, cache-blocked microkernel** — the strided operand is packed
//!   once per call into a reused thread-local scratch (`B` in column panels
//!   for [`Matrix::matmul`], `Aᵀ` for [`Matrix::matmul_at_b`]), and the
//!   inner loop runs on one of two backends selected once per call:
//!   an explicit AVX2+FMA microkernel on the [`crate::simd`] `f32x8`
//!   wrapper (register-blocked 6×16 / 4×16 tiles, runtime-detected), or
//!   the branch-free 4×-unrolled scalar loop as the guaranteed fallback.
//! * **Prepacked operands** — a `B` that does not change between calls
//!   (a served model's frozen weights) is packed once into a
//!   [`PackedMatrix`], and [`Matrix::matmul_packed_into`] runs the same
//!   driver and kernels on it with no per-call pack. The product is bitwise
//!   the per-call-pack product.
//! * **Mixed precision** — every variant has a bf16-storage twin
//!   ([`Matrix::matmul_mixed_into`] and friends, or the [`Precision`] knob
//!   on the `*_into_prec` entry points): the packed operand is stored as
//!   bf16 (`u16`, round-to-nearest-even at pack time), converted back to
//!   f32 on load (exact), and **accumulated in f32** — the paper's
//!   mixed-precision storage lever with full-precision arithmetic.
//! * **Bit-identity across pool sizes** — every output element accumulates
//!   its terms in the same order on every path at every worker count: the
//!   row partition never splits an element's accumulation chain, and the
//!   SIMD kernels give each `(row, lane-group)` its own accumulator chain
//!   whose shape depends only on global geometry (panel offsets, block
//!   boundaries), never on the chunk split. Pooled results are therefore
//!   **bitwise equal** to the serial (`parts = 1`) kernel for every budget
//!   and both precisions. The scalar backend is additionally the
//!   cross-platform reference: SIMD results differ from it only within a
//!   documented ULP bound (FMA contraction + lane-tree reductions); see
//!   `tests/simd_properties.rs`.
//!
//! The `*_into` variants write into a caller-owned output matrix; combined
//! with the thread-local packing scratches (one f32, one bf16), a
//! steady-state pooled matmul at either precision performs **zero heap
//! allocations** (counting-allocator tests in `tests/tests/gemm_alloc.rs`).

use std::cell::RefCell;
use std::ops::Range;

use crate::simd::{self, Element, F32x8};

/// A dense, row-major `rows × cols` matrix of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

/// Storage precision of a GEMM's packed operand. Accumulation is always
/// f32; `Mixed` halves the packed panel's bytes (bf16 storage), mirroring
/// the paper's mixed-precision rate assumptions for the memory-bound side
/// of the roofline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// Full f32 storage end to end.
    #[default]
    F32,
    /// bf16 storage for the packed operand, f32 accumulation.
    Mixed,
}

/// A `k×n` right-hand `matmul` operand packed once into the column panels
/// [`Matrix::matmul`] otherwise builds on every call.
/// [`Matrix::matmul_packed_into`] multiplies by it with the same driver and
/// kernels, so its product is bitwise [`Matrix::matmul_into_prec`]'s at
/// [`PackedMatrix::precision`].
///
/// The f32 panels are a permutation of the matrix, so they can stand in for
/// it: [`PackedMatrix::row_major`] reads the original values back. At
/// [`Precision::Mixed`] the operand also holds their bf16 rounding, which
/// the product multiplies by instead.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedMatrix {
    rows: usize,
    cols: usize,
    f32_panels: Vec<f32>,
    bf16_panels: Option<Vec<u16>>,
}

impl PackedMatrix {
    /// Pack `b` into f32 panels.
    pub fn new(b: &Matrix) -> Self {
        Self::from_row_major(b.rows, b.cols, &b.data)
    }

    /// Pack a row-major `rows × cols` buffer straight into f32 panels — the
    /// one copy the packed form costs.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols` or a dimension is zero.
    pub fn from_row_major(rows: usize, cols: usize, data: &[f32]) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        assert_eq!(data.len(), rows * cols, "buffer length mismatch");
        PackedMatrix {
            rows,
            cols,
            f32_panels: packed_vec(data, rows, cols),
            bf16_panels: None,
        }
    }

    /// The same operand for products at `prec` (builder style). `Mixed`
    /// rounds the f32 panels to bf16 element by element — both share one
    /// layout — exactly as packing the matrix per call at `Mixed` would.
    #[must_use]
    pub fn with_precision(mut self, prec: Precision) -> Self {
        self.bf16_panels = (prec == Precision::Mixed).then(|| {
            self.f32_panels
                .iter()
                .map(|&v| simd::f32_to_bf16(v))
                .collect()
        });
        self
    }

    /// The storage precision products run at.
    pub fn precision(&self) -> Precision {
        if self.bf16_panels.is_some() {
            Precision::Mixed
        } else {
            Precision::F32
        }
    }

    /// Row count (the shared dimension `k` of a product).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count (the output width `n` of a product).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Every element in row-major order, read from the f32 panels: the
    /// original values at either precision.
    pub fn row_major(&self) -> impl Iterator<Item = f32> + '_ {
        (0..self.rows).flat_map(move |r| {
            (0..self.cols).map(move |c| {
                let jb = c - c % PANEL_COLS;
                let jw = (self.cols - jb).min(PANEL_COLS);
                self.f32_panels[jb * self.rows + r * jw + (c - jb)]
            })
        })
    }
}

/// Pack row-major `k×n` `src` into `B`'s column panels: panel `jb` holds
/// columns `[jb, jb + jw)` row-major at width `jw`, contiguous at offset
/// `jb·k` (every preceding full panel holds `PANEL_COLS·k` elements). The
/// bf16 element type rounds here, once per element.
fn pack_panels<E: Element>(src: &[f32], k: usize, n: usize, bp: &mut [E]) {
    for jb in (0..n).step_by(PANEL_COLS) {
        let jw = (n - jb).min(PANEL_COLS);
        let panel = &mut bp[jb * k..jb * k + k * jw];
        for kk in 0..k {
            let row = &src[kk * n + jb..kk * n + jb + jw];
            for (d, &s) in panel[kk * jw..(kk + 1) * jw].iter_mut().zip(row) {
                *d = E::pack(s);
            }
        }
    }
}

fn packed_vec<E: Element>(src: &[f32], k: usize, n: usize) -> Vec<E> {
    let mut bp = vec![E::pack(0.0); k * n];
    pack_panels(src, k, n, &mut bp);
    bp
}

/// Kernel backend selector — test hook for pinning SIMD-vs-scalar
/// agreement; production callers always use `Auto`.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// SIMD when the host supports it ([`simd::active`]), scalar otherwise.
    #[default]
    Auto,
    /// Force the scalar reference path.
    Scalar,
}

impl Backend {
    /// Resolve once per GEMM call so a single product never mixes kernels.
    fn use_simd(self) -> bool {
        self == Backend::Auto && simd::active()
    }
}

/// Row count above which matmuls parallelize over the compute pool.
const PAR_THRESHOLD: usize = 128;

/// Packed-`B` panel width for [`Matrix::matmul`]: 256 f32 columns keeps a
/// `k × 256` panel streaming through L2 while the output row segment being
/// accumulated stays in L1.
const PANEL_COLS: usize = 256;

/// Cache-blocking tile for the shared dimension of the transposed matmuls:
/// 64 rows × up to ~256 f32 columns ≈ 64 KB, comfortably inside L2 while
/// leaving room for the output row being accumulated.
const BLOCK_ROWS: usize = 64;

/// Row-block height of the SIMD `matmul` microkernel: 6 rows × two f32x8
/// column vectors = 12 in-register accumulators (plus 2 loaded B vectors
/// and 1 broadcast), filling the 16 ymm registers without spilling.
const MM_MR: usize = 6;

/// Row-block height of the SIMD `matmul_at_b` microkernel: 4 output rows ×
/// two f32x8 vectors = 8 accumulators, with two B-row loads and four
/// broadcasts per shared-dimension step.
const ATB_MR: usize = 4;

thread_local! {
    /// Per-thread f32 packing scratch, reused across calls so steady-state
    /// matmuls never allocate. Packing always happens on the dispatching
    /// thread (workers only read the packed panel through the kernel
    /// closure), so one scratch per thread suffices.
    static PACK_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// Per-thread bf16 packing scratch for the mixed-precision path.
    static BF16_SCRATCH: RefCell<Vec<u16>> = const { RefCell::new(Vec::new()) };
}

/// A packable GEMM storage element: ties the [`Element`] conversions to a
/// per-type thread-local scratch and the type's target-feature SIMD kernel
/// entry points (free functions, since `#[target_feature]` cannot sit on
/// trait methods).
trait PanelElem: Element {
    /// Borrow this thread's packing scratch for `Self` at `len` elements
    /// (growing it once if needed) for the duration of `f`.
    fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [Self]) -> R) -> R;

    /// # Safety
    /// CPU must support AVX2+FMA (callers check [`simd::active`]).
    unsafe fn mm_chunk_simd(
        a: &[f32],
        k: usize,
        bp: &[Self],
        n: usize,
        chunk: &mut [f32],
        range: Range<usize>,
    );

    /// # Safety
    /// CPU must support AVX2+FMA (callers check [`simd::active`]).
    unsafe fn atb_chunk_simd(
        at: &[Self],
        m: usize,
        b: &[f32],
        n: usize,
        chunk: &mut [f32],
        range: Range<usize>,
    );

    /// # Safety
    /// CPU must support AVX2+FMA (callers check [`simd::active`]).
    unsafe fn abt_chunk_simd(
        a: &[f32],
        k: usize,
        b: &[Self],
        n: usize,
        chunk: &mut [f32],
        range: Range<usize>,
    );
}

impl PanelElem for f32 {
    fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
        PACK_SCRATCH.with(|s| {
            let mut buf = s.borrow_mut();
            if buf.len() < len {
                buf.resize(len, 0.0);
            }
            f(&mut buf[..len])
        })
    }

    unsafe fn mm_chunk_simd(
        a: &[f32],
        k: usize,
        bp: &[f32],
        n: usize,
        chunk: &mut [f32],
        range: Range<usize>,
    ) {
        // SAFETY: forwarded contract — the CPU supports AVX2+FMA.
        unsafe { mm_chunk_simd_f32(a, k, bp, n, chunk, range) }
    }

    unsafe fn atb_chunk_simd(
        at: &[f32],
        m: usize,
        b: &[f32],
        n: usize,
        chunk: &mut [f32],
        range: Range<usize>,
    ) {
        // SAFETY: forwarded contract — the CPU supports AVX2+FMA.
        unsafe { atb_chunk_simd_f32(at, m, b, n, chunk, range) }
    }

    unsafe fn abt_chunk_simd(
        a: &[f32],
        k: usize,
        b: &[f32],
        n: usize,
        chunk: &mut [f32],
        range: Range<usize>,
    ) {
        // SAFETY: forwarded contract — the CPU supports AVX2+FMA.
        unsafe { abt_chunk_simd_f32(a, k, b, n, chunk, range) }
    }
}

impl PanelElem for u16 {
    fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [u16]) -> R) -> R {
        BF16_SCRATCH.with(|s| {
            let mut buf = s.borrow_mut();
            if buf.len() < len {
                buf.resize(len, 0);
            }
            f(&mut buf[..len])
        })
    }

    unsafe fn mm_chunk_simd(
        a: &[f32],
        k: usize,
        bp: &[u16],
        n: usize,
        chunk: &mut [f32],
        range: Range<usize>,
    ) {
        // SAFETY: forwarded contract — the CPU supports AVX2+FMA.
        unsafe { mm_chunk_simd_bf16(a, k, bp, n, chunk, range) }
    }

    unsafe fn atb_chunk_simd(
        at: &[u16],
        m: usize,
        b: &[f32],
        n: usize,
        chunk: &mut [f32],
        range: Range<usize>,
    ) {
        // SAFETY: forwarded contract — the CPU supports AVX2+FMA.
        unsafe { atb_chunk_simd_bf16(at, m, b, n, chunk, range) }
    }

    unsafe fn abt_chunk_simd(
        a: &[f32],
        k: usize,
        b: &[u16],
        n: usize,
        chunk: &mut [f32],
        range: Range<usize>,
    ) {
        // SAFETY: forwarded contract — the CPU supports AVX2+FMA.
        unsafe { abt_chunk_simd_bf16(a, k, b, n, chunk, range) }
    }
}

/// The chunk count for a product with `rows` output rows: serial below the
/// threshold, otherwise the calling thread's core budget.
fn auto_parts(rows: usize) -> usize {
    if rows < PAR_THRESHOLD {
        1
    } else {
        summit_pool::core_budget().min(rows)
    }
}

impl Matrix {
    /// A zero matrix.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from an owned buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols` or a dimension is zero.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        assert_eq!(data.len(), rows * cols, "buffer length mismatch");
        Matrix { rows, cols, data }
    }

    /// Build from row slices (test/helper constructor).
    ///
    /// # Panics
    /// Panics if rows are empty or ragged.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "need at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "rows must be non-empty");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element access.
    ///
    /// # Panics
    /// Panics on out-of-range indices (debug and release).
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "index out of range");
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    ///
    /// # Panics
    /// Panics on out-of-range indices.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(r < self.rows && c < self.cols, "index out of range");
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row out of range");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row out of range");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The backing buffer (row-major).
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The backing buffer, mutable.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// `self · other` (`m×k · k×n → m×n`) on the packed pooled kernel.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// [`Matrix::matmul`] into a caller-owned output (overwritten), the
    /// allocation-free steady-state entry point.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch or if `out` is not `m×n`.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        self.matmul_into_parts(other, out, auto_parts(self.rows));
    }

    /// [`Matrix::matmul`] with bf16 storage of the packed `B` operand and
    /// f32 accumulation.
    pub fn matmul_mixed(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_mixed_into(other, &mut out);
        out
    }

    /// [`Matrix::matmul_mixed`] into a caller-owned output (overwritten) —
    /// allocation-free in steady state like the f32 path.
    pub fn matmul_mixed_into(&self, other: &Matrix, out: &mut Matrix) {
        self.matmul_impl::<u16>(other, out, auto_parts(self.rows), Backend::Auto);
    }

    /// [`Matrix::matmul_into`] with an explicit [`Precision`] knob.
    pub fn matmul_into_prec(&self, other: &Matrix, out: &mut Matrix, prec: Precision) {
        match prec {
            Precision::F32 => self.matmul_into(other, out),
            Precision::Mixed => self.matmul_mixed_into(other, out),
        }
    }

    /// [`Matrix::matmul_into`] with an explicit chunk count — `parts = 1`
    /// is the serial reference path the property tests compare against.
    #[doc(hidden)]
    pub fn matmul_into_parts(&self, other: &Matrix, out: &mut Matrix, parts: usize) {
        self.matmul_impl::<f32>(other, out, parts, Backend::Auto);
    }

    /// Full control (tests): precision via the element type, explicit
    /// parts, forced backend.
    #[doc(hidden)]
    pub fn matmul_into_parts_backend(
        &self,
        other: &Matrix,
        out: &mut Matrix,
        parts: usize,
        prec: Precision,
        backend: Backend,
    ) {
        match prec {
            Precision::F32 => self.matmul_impl::<f32>(other, out, parts, backend),
            Precision::Mixed => self.matmul_impl::<u16>(other, out, parts, backend),
        }
    }

    fn matmul_impl<E: PanelElem>(
        &self,
        other: &Matrix,
        out: &mut Matrix,
        parts: usize,
        backend: Backend,
    ) {
        assert_eq!(self.cols, other.rows, "matmul inner dimension mismatch");
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, other.cols),
            "matmul output shape mismatch"
        );
        let (k, n) = (other.rows, other.cols);
        E::with_scratch(k * n, |bp| {
            pack_panels(&other.data, k, n, bp);
            self.matmul_panels(bp, n, out, parts, backend);
        });
    }

    /// `self · B` for a `B` packed ahead of time: bitwise
    /// [`Matrix::matmul_into_prec`] at the packed precision, without the
    /// per-call pack. Allocation-free.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch or if `out` is not `m×n`.
    pub fn matmul_packed_into(&self, packed: &PackedMatrix, out: &mut Matrix) {
        self.matmul_packed_into_parts_backend(packed, out, auto_parts(self.rows), Backend::Auto);
    }

    /// [`Matrix::matmul_packed_into`] with explicit parts and a forced
    /// backend (tests).
    #[doc(hidden)]
    pub fn matmul_packed_into_parts_backend(
        &self,
        packed: &PackedMatrix,
        out: &mut Matrix,
        parts: usize,
        backend: Backend,
    ) {
        assert_eq!(self.cols, packed.rows, "matmul inner dimension mismatch");
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, packed.cols),
            "matmul output shape mismatch"
        );
        match &packed.bf16_panels {
            Some(bp) => self.matmul_panels(bp, packed.cols, out, parts, backend),
            None => self.matmul_panels(&packed.f32_panels, packed.cols, out, parts, backend),
        }
    }

    /// The one `matmul` driver behind the per-call and the prepacked
    /// products: chunk the output rows over the pool and run the SIMD or
    /// scalar kernel against `B`'s packed panels `bp`.
    fn matmul_panels<E: PanelElem>(
        &self,
        bp: &[E],
        n: usize,
        out: &mut Matrix,
        parts: usize,
        backend: Backend,
    ) {
        let k = self.cols;
        let use_simd = backend.use_simd();
        let a = &self.data;
        out.data.fill(0.0);
        summit_pool::global().run_rows(&mut out.data, n, parts, |chunk, range| {
            if use_simd {
                // SAFETY: `use_simd` implies `simd::active()` verified
                // AVX2+FMA on this CPU.
                unsafe { E::mm_chunk_simd(a, k, bp, n, chunk, range) }
            } else {
                matmul_chunk(a, k, bp, n, chunk, range);
            }
        });
    }

    /// `selfᵀ · other` (`(m×k)ᵀ · m×n → k×n`). This is the weight-gradient
    /// product `Xᵀ · dY`, the backward-pass hot kernel: `Aᵀ` is packed once
    /// per call so each output row streams a contiguous operand, output
    /// rows are chunked over the pool, and the shared `m` dimension is
    /// cache-blocked (4×-unrolled scalar fallback, 4×16 SIMD tile).
    ///
    /// Every output element accumulates its `m` terms in ascending-`i`
    /// order on every path, so pooled and serial results are bit-identical.
    ///
    /// # Panics
    /// Panics on row-count mismatch.
    pub fn matmul_at_b(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, other.cols);
        self.matmul_at_b_into(other, &mut out);
        out
    }

    /// [`Matrix::matmul_at_b`] into a caller-owned output (overwritten).
    ///
    /// # Panics
    /// Panics on row-count mismatch or if `out` is not `k×n`.
    pub fn matmul_at_b_into(&self, other: &Matrix, out: &mut Matrix) {
        self.matmul_at_b_into_parts(other, out, auto_parts(self.cols));
    }

    /// [`Matrix::matmul_at_b`] with bf16 storage of the packed `Aᵀ` operand
    /// and f32 accumulation.
    pub fn matmul_at_b_mixed(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, other.cols);
        self.matmul_at_b_mixed_into(other, &mut out);
        out
    }

    /// [`Matrix::matmul_at_b_mixed`] into a caller-owned output.
    pub fn matmul_at_b_mixed_into(&self, other: &Matrix, out: &mut Matrix) {
        self.matmul_at_b_impl::<u16>(other, out, auto_parts(self.cols), Backend::Auto);
    }

    /// [`Matrix::matmul_at_b_into`] with an explicit [`Precision`] knob.
    pub fn matmul_at_b_into_prec(&self, other: &Matrix, out: &mut Matrix, prec: Precision) {
        match prec {
            Precision::F32 => self.matmul_at_b_into(other, out),
            Precision::Mixed => self.matmul_at_b_mixed_into(other, out),
        }
    }

    /// [`Matrix::matmul_at_b_into`] with an explicit chunk count.
    #[doc(hidden)]
    pub fn matmul_at_b_into_parts(&self, other: &Matrix, out: &mut Matrix, parts: usize) {
        self.matmul_at_b_impl::<f32>(other, out, parts, Backend::Auto);
    }

    /// Full control (tests): precision, explicit parts, forced backend.
    #[doc(hidden)]
    pub fn matmul_at_b_into_parts_backend(
        &self,
        other: &Matrix,
        out: &mut Matrix,
        parts: usize,
        prec: Precision,
        backend: Backend,
    ) {
        match prec {
            Precision::F32 => self.matmul_at_b_impl::<f32>(other, out, parts, backend),
            Precision::Mixed => self.matmul_at_b_impl::<u16>(other, out, parts, backend),
        }
    }

    fn matmul_at_b_impl<E: PanelElem>(
        &self,
        other: &Matrix,
        out: &mut Matrix,
        parts: usize,
        backend: Backend,
    ) {
        assert_eq!(self.rows, other.rows, "matmul_at_b row mismatch");
        assert_eq!(
            (out.rows, out.cols),
            (self.cols, other.cols),
            "matmul_at_b output shape mismatch"
        );
        let m = self.rows;
        let k = self.cols;
        let n = other.cols;
        let use_simd = backend.use_simd();
        out.data.fill(0.0);
        // Pack Aᵀ once per call: at[kk·m + i] = A[i, kk], so output row kk
        // reads its m coefficients contiguously (bf16-rounded on the mixed
        // path).
        E::with_scratch(m * k, |at| {
            for i in 0..m {
                let a_row = &self.data[i * k..(i + 1) * k];
                for (kk, &v) in a_row.iter().enumerate() {
                    at[kk * m + i] = E::pack(v);
                }
            }
            let b = &other.data;
            let at = &*at;
            summit_pool::global().run_rows(&mut out.data, n, parts, |chunk, range| {
                if use_simd {
                    // SAFETY: `use_simd` implies `simd::active()` verified
                    // AVX2+FMA on this CPU.
                    unsafe { E::atb_chunk_simd(at, m, b, n, chunk, range) }
                } else {
                    matmul_at_b_chunk(at, m, b, n, chunk, range);
                }
            });
        });
    }

    /// `self · otherᵀ` (`m×k · (n×k)ᵀ → m×n`) without materializing the
    /// transpose. This is the input-gradient product `dY · Wᵀ`, the other
    /// backward-pass hot kernel: both operands are row-contiguous already,
    /// so no packing is needed — output rows are chunked over the pool and
    /// the `other`-row loop is cache-blocked.
    ///
    /// Each output element is one ascending-`k` dot chain exactly as in
    /// [`crate::dot`] (on both backends — the SIMD kernel calls the same
    /// lane-level dot helper `dot` dispatches to), so pooled and serial
    /// results are bit-identical, and the kernel agrees bitwise with
    /// per-element [`crate::dot`] calls.
    ///
    /// # Panics
    /// Panics on column-count mismatch.
    pub fn matmul_a_bt(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.rows);
        self.matmul_a_bt_into(other, &mut out);
        out
    }

    /// [`Matrix::matmul_a_bt`] into a caller-owned output (overwritten).
    ///
    /// # Panics
    /// Panics on column-count mismatch or if `out` is not `m×n`.
    pub fn matmul_a_bt_into(&self, other: &Matrix, out: &mut Matrix) {
        self.matmul_a_bt_into_parts(other, out, auto_parts(self.rows));
    }

    /// [`Matrix::matmul_a_bt`] with bf16 storage of the `other` operand
    /// (converted once into the packing scratch) and f32 accumulation.
    pub fn matmul_a_bt_mixed(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.rows);
        self.matmul_a_bt_mixed_into(other, &mut out);
        out
    }

    /// [`Matrix::matmul_a_bt_mixed`] into a caller-owned output.
    pub fn matmul_a_bt_mixed_into(&self, other: &Matrix, out: &mut Matrix) {
        self.matmul_a_bt_mixed_impl(other, out, auto_parts(self.rows), Backend::Auto);
    }

    /// [`Matrix::matmul_a_bt_into`] with an explicit [`Precision`] knob.
    pub fn matmul_a_bt_into_prec(&self, other: &Matrix, out: &mut Matrix, prec: Precision) {
        match prec {
            Precision::F32 => self.matmul_a_bt_into(other, out),
            Precision::Mixed => self.matmul_a_bt_mixed_into(other, out),
        }
    }

    /// [`Matrix::matmul_a_bt_into`] with an explicit chunk count.
    #[doc(hidden)]
    pub fn matmul_a_bt_into_parts(&self, other: &Matrix, out: &mut Matrix, parts: usize) {
        self.matmul_a_bt_f32_impl(other, out, parts, Backend::Auto);
    }

    /// Full control (tests): precision, explicit parts, forced backend.
    #[doc(hidden)]
    pub fn matmul_a_bt_into_parts_backend(
        &self,
        other: &Matrix,
        out: &mut Matrix,
        parts: usize,
        prec: Precision,
        backend: Backend,
    ) {
        match prec {
            Precision::F32 => self.matmul_a_bt_f32_impl(other, out, parts, backend),
            Precision::Mixed => self.matmul_a_bt_mixed_impl(other, out, parts, backend),
        }
    }

    fn matmul_a_bt_assert(&self, other: &Matrix, out: &Matrix) {
        assert_eq!(self.cols, other.cols, "matmul_a_bt column mismatch");
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, other.rows),
            "matmul_a_bt output shape mismatch"
        );
    }

    /// f32 path: both operands are row-contiguous, no packing or copies.
    fn matmul_a_bt_f32_impl(
        &self,
        other: &Matrix,
        out: &mut Matrix,
        parts: usize,
        backend: Backend,
    ) {
        self.matmul_a_bt_assert(other, out);
        let k = self.cols;
        let n = other.rows;
        let use_simd = backend.use_simd();
        let a = &self.data;
        let b = &other.data;
        summit_pool::global().run_rows(&mut out.data, n, parts, |chunk, range| {
            if use_simd {
                // SAFETY: `use_simd` implies AVX2+FMA verified.
                unsafe { <f32 as PanelElem>::abt_chunk_simd(a, k, b, n, chunk, range) }
            } else {
                matmul_a_bt_chunk(a, k, b, n, chunk, range);
            }
        });
    }

    /// Mixed path: `other` is converted once (row-contiguous, bf16) into
    /// the reused bf16 scratch — the only copy this variant makes.
    fn matmul_a_bt_mixed_impl(
        &self,
        other: &Matrix,
        out: &mut Matrix,
        parts: usize,
        backend: Backend,
    ) {
        self.matmul_a_bt_assert(other, out);
        let k = self.cols;
        let n = other.rows;
        let use_simd = backend.use_simd();
        <u16 as PanelElem>::with_scratch(n * k, |bh| {
            for (d, &s) in bh.iter_mut().zip(&other.data) {
                *d = simd::f32_to_bf16(s);
            }
            let a = &self.data;
            let bh = &*bh;
            summit_pool::global().run_rows(&mut out.data, n, parts, |chunk, range| {
                if use_simd {
                    // SAFETY: `use_simd` implies AVX2+FMA verified.
                    unsafe { <u16 as PanelElem>::abt_chunk_simd(a, k, bh, n, chunk, range) }
                } else {
                    matmul_a_bt_chunk(a, k, bh, n, chunk, range);
                }
            });
        });
    }

    /// Explicit transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Element-wise in-place map.
    pub fn map_inplace(&mut self, mut f: impl FnMut(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// `self += other`, element-wise.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "add_assign shape mismatch"
        );
        crate::axpy(1.0, &other.data, &mut self.data);
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        crate::l2_norm(&self.data)
    }
}

// ---------------------------------------------------------------------------
// Scalar reference kernels (generic over panel storage; `E = f32` is the
// pre-SIMD kernel unchanged — `to_f32` is the identity there).
// ---------------------------------------------------------------------------

/// `matmul` kernel for one chunk of output rows: for each panel of packed
/// `B`, accumulate the chunk's rows with the shared dimension unrolled by
/// four. Per output element the adds run in ascending-`kk` order — one
/// scalar at a time into the same accumulator — so unrolling changes
/// instruction scheduling, never arithmetic order.
fn matmul_chunk<E: Element>(
    a: &[f32],
    k: usize,
    bp: &[E],
    n: usize,
    chunk: &mut [f32],
    range: Range<usize>,
) {
    for jb in (0..n).step_by(PANEL_COLS) {
        let jw = (n - jb).min(PANEL_COLS);
        let panel = &bp[jb * k..jb * k + k * jw];
        for (local, i) in range.clone().enumerate() {
            let a_row = &a[i * k..(i + 1) * k];
            let out_row = &mut chunk[local * n + jb..local * n + jb + jw];
            let mut kk = 0;
            while kk + 4 <= k {
                let a0 = a_row[kk];
                let a1 = a_row[kk + 1];
                let a2 = a_row[kk + 2];
                let a3 = a_row[kk + 3];
                let b0 = &panel[kk * jw..(kk + 1) * jw];
                let b1 = &panel[(kk + 1) * jw..(kk + 2) * jw];
                let b2 = &panel[(kk + 2) * jw..(kk + 3) * jw];
                let b3 = &panel[(kk + 3) * jw..(kk + 4) * jw];
                for ((((o, &v0), &v1), &v2), &v3) in
                    out_row.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3)
                {
                    *o += a0 * v0.to_f32();
                    *o += a1 * v1.to_f32();
                    *o += a2 * v2.to_f32();
                    *o += a3 * v3.to_f32();
                }
                kk += 4;
            }
            while kk < k {
                let a0 = a_row[kk];
                let b0 = &panel[kk * jw..(kk + 1) * jw];
                for (o, &v0) in out_row.iter_mut().zip(b0) {
                    *o += a0 * v0.to_f32();
                }
                kk += 1;
            }
        }
    }
}

/// `matmul_at_b` kernel for one chunk of output rows (a `kk` band): stream
/// the shared `m` dimension in cache blocks, four input rows per pass. The
/// packed `Aᵀ` makes each output row's coefficients contiguous; per output
/// element the accumulation order is ascending `i` on every path.
fn matmul_at_b_chunk<E: Element>(
    at: &[E],
    m: usize,
    b: &[f32],
    n: usize,
    chunk: &mut [f32],
    range: Range<usize>,
) {
    for ib in (0..m).step_by(BLOCK_ROWS) {
        let iend = (ib + BLOCK_ROWS).min(m);
        for (local, kk) in range.clone().enumerate() {
            let a_col = &at[kk * m..(kk + 1) * m];
            let out_row = &mut chunk[local * n..(local + 1) * n];
            let mut i = ib;
            while i + 4 <= iend {
                let a0 = a_col[i].to_f32();
                let a1 = a_col[i + 1].to_f32();
                let a2 = a_col[i + 2].to_f32();
                let a3 = a_col[i + 3].to_f32();
                let b0 = &b[i * n..(i + 1) * n];
                let b1 = &b[(i + 1) * n..(i + 2) * n];
                let b2 = &b[(i + 2) * n..(i + 3) * n];
                let b3 = &b[(i + 3) * n..(i + 4) * n];
                for ((((o, &v0), &v1), &v2), &v3) in
                    out_row.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3)
                {
                    *o += a0 * v0;
                    *o += a1 * v1;
                    *o += a2 * v2;
                    *o += a3 * v3;
                }
                i += 4;
            }
            while i < iend {
                let a0 = a_col[i].to_f32();
                let b0 = &b[i * n..(i + 1) * n];
                for (o, &v0) in out_row.iter_mut().zip(b0) {
                    *o += a0 * v0;
                }
                i += 1;
            }
        }
    }
}

/// `matmul_a_bt` kernel for one chunk of output rows: `other`-rows are
/// cache-blocked, and within a block four output columns are produced per
/// pass with four independent accumulators (each an ascending-`k` chain
/// identical to [`crate::dot`]'s scalar path).
fn matmul_a_bt_chunk<E: Element>(
    a: &[f32],
    k: usize,
    b: &[E],
    n: usize,
    chunk: &mut [f32],
    range: Range<usize>,
) {
    for jb in (0..n).step_by(BLOCK_ROWS) {
        let jend = (jb + BLOCK_ROWS).min(n);
        for (local, i) in range.clone().enumerate() {
            let a_row = &a[i * k..(i + 1) * k];
            let out_row = &mut chunk[local * n..(local + 1) * n];
            let mut j = jb;
            while j + 4 <= jend {
                let b0 = &b[j * k..(j + 1) * k];
                let b1 = &b[(j + 1) * k..(j + 2) * k];
                let b2 = &b[(j + 2) * k..(j + 3) * k];
                let b3 = &b[(j + 3) * k..(j + 4) * k];
                let mut c0 = 0.0f32;
                let mut c1 = 0.0f32;
                let mut c2 = 0.0f32;
                let mut c3 = 0.0f32;
                for ((((&av, &v0), &v1), &v2), &v3) in a_row.iter().zip(b0).zip(b1).zip(b2).zip(b3)
                {
                    c0 += av * v0.to_f32();
                    c1 += av * v1.to_f32();
                    c2 += av * v2.to_f32();
                    c3 += av * v3.to_f32();
                }
                out_row[j] = c0;
                out_row[j + 1] = c1;
                out_row[j + 2] = c2;
                out_row[j + 3] = c3;
                j += 4;
            }
            while j < jend {
                let b0 = &b[j * k..(j + 1) * k];
                let mut c0 = 0.0f32;
                for (&av, &v0) in a_row.iter().zip(b0) {
                    c0 += av * v0.to_f32();
                }
                out_row[j] = c0;
                j += 1;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// SIMD microkernels (AVX2+FMA via the f32x8 wrapper; called only when
// `simd::active()`). Each output element's accumulation chain depends only
// on global geometry (panel offsets, j-tile boundaries, shared-dimension
// blocks), never on how rows were chunked — that is the bit-identity-
// across-pool-sizes argument.
// ---------------------------------------------------------------------------

/// One `matmul` register tile: `RB` rows × `8·NV` columns at panel column
/// `j`, accumulating the full shared dimension in `RB·NV` registers before
/// one store. Per output element the chain is
/// `acc = fma(a[i,kk], b[kk,j], acc)` over ascending `kk` from zero — the
/// same chain in every tile shape, so neither the tile a row lands in nor
/// the chunk split can change a bit.
///
/// # Safety
/// Requires AVX2+FMA context; all indices in bounds (caller-maintained).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn mm_tile<E: Element, const RB: usize, const NV: usize>(
    ap: *const f32,
    k: usize,
    panel: *const E,
    jw: usize,
    cp: *mut f32,
    n: usize,
    jb: usize,
    a_row0: usize,
    c_row0: usize,
    j: usize,
) {
    // SAFETY: the caller is in an AVX2+FMA context and keeps rows
    // `a_row0..a_row0 + RB` of `a`, panel columns `j..j + 8·NV` and output
    // rows `c_row0..c_row0 + RB` in bounds.
    unsafe {
        let mut acc = [[F32x8::zero(); NV]; RB];
        let mut b = [F32x8::zero(); NV];
        for kk in 0..k {
            let bk = panel.add(kk * jw + j);
            for (v, bv) in b.iter_mut().enumerate() {
                *bv = E::load8(bk.add(8 * v));
            }
            for (t, av) in acc.iter_mut().enumerate() {
                let a = F32x8::splat(*ap.add((a_row0 + t) * k + kk));
                for (o, &bv) in av.iter_mut().zip(&b) {
                    *o = a.mul_add(bv, *o);
                }
            }
        }
        for (t, av) in acc.iter().enumerate() {
            let o = cp.add((c_row0 + t) * n + jb + j);
            for (v, a) in av.iter().enumerate() {
                a.store(o.add(8 * v));
            }
        }
    }
}

/// `matmul` row block: `RB` rows across one panel in `8·NV`-column tiles,
/// then 16-, 8- and 1-column tails. The scalar tail is the same fused chain
/// one lane at a time.
///
/// # Safety
/// Requires AVX2+FMA context; all indices in bounds (caller-maintained).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn mm_rows_simd<E: Element, const RB: usize, const NV: usize>(
    ap: *const f32,
    k: usize,
    panel: *const E,
    jw: usize,
    cp: *mut f32,
    n: usize,
    jb: usize,
    a_row0: usize,
    c_row0: usize,
) {
    // SAFETY: the caller is in an AVX2+FMA context with rows
    // `a_row0..a_row0 + RB` in bounds; every tile and tail below stays
    // within the panel's `jw` columns.
    unsafe {
        let mut j = 0;
        while j + 8 * NV <= jw {
            mm_tile::<E, RB, NV>(ap, k, panel, jw, cp, n, jb, a_row0, c_row0, j);
            j += 8 * NV;
        }
        while j + 16 <= jw {
            mm_tile::<E, RB, 2>(ap, k, panel, jw, cp, n, jb, a_row0, c_row0, j);
            j += 16;
        }
        if j + 8 <= jw {
            mm_tile::<E, RB, 1>(ap, k, panel, jw, cp, n, jb, a_row0, c_row0, j);
            j += 8;
        }
        while j < jw {
            for t in 0..RB {
                let mut s = 0.0f32;
                for kk in 0..k {
                    s = (*ap.add((a_row0 + t) * k + kk))
                        .mul_add((*panel.add(kk * jw + j)).to_f32(), s);
                }
                *cp.add((c_row0 + t) * n + jb + j) = s;
            }
            j += 1;
        }
    }
}

/// `matmul` SIMD chunk kernel: same panel walk as the scalar kernel, rows
/// in [`MM_MR`]×16 register tiles. The 1–5 rows left over run as one block
/// whose tile is widened to 8–12 accumulators (1×64, 2×32, 3×32, 4×16,
/// 5×16): enough independent FMA chains to hide their latency, and every
/// panel load is shared by all of the block's rows.
#[inline(always)]
unsafe fn mm_chunk_simd_impl<E: Element>(
    a: &[f32],
    k: usize,
    bp: &[E],
    n: usize,
    chunk: &mut [f32],
    range: Range<usize>,
) {
    let rows = range.len();
    let ap = a.as_ptr();
    let cp = chunk.as_mut_ptr();
    for jb in (0..n).step_by(PANEL_COLS) {
        let jw = (n - jb).min(PANEL_COLS);
        let panel = bp[jb * k..jb * k + k * jw].as_ptr();
        let mut r = 0;
        // SAFETY: the caller is in an AVX2+FMA context; `range` indexes
        // rows of `a` and `chunk` holds its `rows × n` outputs, so every
        // block below stays in bounds.
        unsafe {
            while r + MM_MR <= rows {
                mm_rows_simd::<E, MM_MR, 2>(ap, k, panel, jw, cp, n, jb, range.start + r, r);
                r += MM_MR;
            }
            let (a0, c0) = (range.start + r, r);
            match rows - r {
                0 => {}
                1 => mm_rows_simd::<E, 1, 8>(ap, k, panel, jw, cp, n, jb, a0, c0),
                2 => mm_rows_simd::<E, 2, 4>(ap, k, panel, jw, cp, n, jb, a0, c0),
                3 => mm_rows_simd::<E, 3, 4>(ap, k, panel, jw, cp, n, jb, a0, c0),
                4 => mm_rows_simd::<E, 4, 2>(ap, k, panel, jw, cp, n, jb, a0, c0),
                _ => mm_rows_simd::<E, 5, 2>(ap, k, panel, jw, cp, n, jb, a0, c0),
            }
        }
    }
}

/// `matmul_at_b` row block: `RB` output rows × 16/8/1 columns over one
/// shared-dimension cache block, register accumulation then one
/// `+=` into the output. Per element: per block, `o += (fma chain over
/// ascending i)` — block boundaries are global ([`BLOCK_ROWS`]), so the
/// chain shape is chunk-independent.
///
/// # Safety
/// Requires AVX2+FMA context; all indices in bounds (caller-maintained).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn atb_rows_simd<E: Element, const RB: usize>(
    at: *const E,
    m: usize,
    bp: *const f32,
    n: usize,
    cp: *mut f32,
    ib: usize,
    iend: usize,
    at_row0: usize,
    c_row0: usize,
) {
    // SAFETY: the caller is in an AVX2+FMA context and keeps `Aᵀ` rows
    // `at_row0..at_row0 + RB`, shared rows `ib..iend` of `b` and output rows
    // `c_row0..c_row0 + RB` in bounds; every column access is `< n`.
    unsafe {
        let mut j = 0;
        while j + 16 <= n {
            let mut acc = [[F32x8::zero(); 2]; RB];
            for i in ib..iend {
                let b = bp.add(i * n + j);
                let b0 = F32x8::load(b);
                let b1 = F32x8::load(b.add(8));
                for (t, av) in acc.iter_mut().enumerate() {
                    let a = F32x8::splat((*at.add((at_row0 + t) * m + i)).to_f32());
                    av[0] = a.mul_add(b0, av[0]);
                    av[1] = a.mul_add(b1, av[1]);
                }
            }
            for (t, av) in acc.iter().enumerate() {
                let o = cp.add((c_row0 + t) * n + j);
                F32x8::load(o).add(av[0]).store(o);
                F32x8::load(o.add(8)).add(av[1]).store(o.add(8));
            }
            j += 16;
        }
        while j + 8 <= n {
            let mut acc = [F32x8::zero(); RB];
            for i in ib..iend {
                let b0 = F32x8::load(bp.add(i * n + j));
                for (t, av) in acc.iter_mut().enumerate() {
                    let a = F32x8::splat((*at.add((at_row0 + t) * m + i)).to_f32());
                    *av = a.mul_add(b0, *av);
                }
            }
            for (t, av) in acc.iter().enumerate() {
                let o = cp.add((c_row0 + t) * n + j);
                F32x8::load(o).add(*av).store(o);
            }
            j += 8;
        }
        while j < n {
            for t in 0..RB {
                let mut s = 0.0f32;
                for i in ib..iend {
                    s = ((*at.add((at_row0 + t) * m + i)).to_f32()).mul_add(*bp.add(i * n + j), s);
                }
                *cp.add((c_row0 + t) * n + j) += s;
            }
            j += 1;
        }
    }
}

/// `matmul_at_b` SIMD chunk kernel: shared-dimension blocks outermost (as
/// in the scalar kernel), output rows in [`ATB_MR`]-high register tiles.
#[inline(always)]
unsafe fn atb_chunk_simd_impl<E: Element>(
    at: &[E],
    m: usize,
    b: &[f32],
    n: usize,
    chunk: &mut [f32],
    range: Range<usize>,
) {
    let rows = range.len();
    let atp = at.as_ptr();
    let bp = b.as_ptr();
    let cp = chunk.as_mut_ptr();
    for ib in (0..m).step_by(BLOCK_ROWS) {
        let iend = (ib + BLOCK_ROWS).min(m);
        let mut r = 0;
        // SAFETY: the caller is in an AVX2+FMA context; `range` indexes
        // rows of `Aᵀ` and `chunk` holds its `rows × n` outputs, so every
        // block below stays in bounds.
        unsafe {
            while r + ATB_MR <= rows {
                atb_rows_simd::<E, ATB_MR>(atp, m, bp, n, cp, ib, iend, range.start + r, r);
                r += ATB_MR;
            }
            while r < rows {
                atb_rows_simd::<E, 1>(atp, m, bp, n, cp, ib, iend, range.start + r, r);
                r += 1;
            }
        }
    }
}

/// `matmul_a_bt` SIMD chunk kernel: one [`simd::dot_lanes`] call per
/// output element (the exact helper [`crate::dot`] dispatches to), with
/// the scalar kernel's `other`-row cache blocking.
#[inline(always)]
unsafe fn abt_chunk_simd_impl<E: Element>(
    a: &[f32],
    k: usize,
    b: &[E],
    n: usize,
    chunk: &mut [f32],
    range: Range<usize>,
) {
    for jb in (0..n).step_by(BLOCK_ROWS) {
        let jend = (jb + BLOCK_ROWS).min(n);
        for (local, i) in range.clone().enumerate() {
            let a_row = &a[i * k..(i + 1) * k];
            let out_row = &mut chunk[local * n..(local + 1) * n];
            for (o, j) in out_row[jb..jend].iter_mut().zip(jb..jend) {
                // SAFETY: caller is in an AVX2+FMA context.
                *o = unsafe { simd::dot_lanes::<E>(a_row, &b[j * k..(j + 1) * k]) };
            }
        }
    }
}

// Target-feature entry points: `#[target_feature]` cannot sit on trait
// methods or (portably) on generic fns, so each (kernel, element) pair
// gets a monomorphic wrapper the `PanelElem` impls forward to. The
// `#[inline(always)]` impl bodies compile *inside* these wrappers and so
// inherit the enabled features.
macro_rules! simd_entry {
    ($name:ident, $impl_fn:ident, $e:ty, ($($arg:ident: $ty:ty),*)) => {
        /// # Safety
        /// The executing CPU must support AVX2+FMA.
        #[cfg_attr(target_arch = "x86_64", target_feature(enable = "avx2,fma"))]
        unsafe fn $name($($arg: $ty),*) {
            // SAFETY: this fn enables AVX2+FMA and the caller guarantees
            // the CPU has them.
            unsafe { $impl_fn::<$e>($($arg),*) }
        }
    };
}

simd_entry!(mm_chunk_simd_f32, mm_chunk_simd_impl, f32,
    (a: &[f32], k: usize, bp: &[f32], n: usize, chunk: &mut [f32], range: Range<usize>));
simd_entry!(mm_chunk_simd_bf16, mm_chunk_simd_impl, u16,
    (a: &[f32], k: usize, bp: &[u16], n: usize, chunk: &mut [f32], range: Range<usize>));
simd_entry!(atb_chunk_simd_f32, atb_chunk_simd_impl, f32,
    (at: &[f32], m: usize, b: &[f32], n: usize, chunk: &mut [f32], range: Range<usize>));
simd_entry!(atb_chunk_simd_bf16, atb_chunk_simd_impl, u16,
    (at: &[u16], m: usize, b: &[f32], n: usize, chunk: &mut [f32], range: Range<usize>));
simd_entry!(abt_chunk_simd_f32, abt_chunk_simd_impl, f32,
    (a: &[f32], k: usize, b: &[f32], n: usize, chunk: &mut [f32], range: Range<usize>));
simd_entry!(abt_chunk_simd_bf16, abt_chunk_simd_impl, u16,
    (a: &[f32], k: usize, b: &[u16], n: usize, chunk: &mut [f32], range: Range<usize>));

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_small() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.rows(), 2);
        assert_eq!(c.cols(), 2);
        assert_eq!(c.row(0), &[58.0, 64.0]);
        assert_eq!(c.row(1), &[139.0, 154.0]);
    }

    #[test]
    fn transposed_matmuls_agree_with_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.5, 2.0], &[3.0, 1.0, 0.0], &[2.0, 2.0, 1.0]]);
        let want_atb = a.transpose().matmul(&b);
        assert_eq!(a.matmul_at_b(&b), want_atb);

        let c = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]); // 2x2
        let d = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 0.5], &[0.0, 3.0]]); // 3x2
        let want_abt = c.matmul(&d.transpose());
        assert_eq!(c.matmul_a_bt(&d), want_abt);
    }

    #[test]
    fn parallel_matmul_matches_serial() {
        // Force the parallel path with > PAR_THRESHOLD rows.
        let m = 300;
        let k = 17;
        let n = 23;
        let a = Matrix::from_vec(m, k, (0..m * k).map(|i| (i % 13) as f32 - 6.0).collect());
        let b = Matrix::from_vec(k, n, (0..k * n).map(|i| (i % 7) as f32 * 0.25).collect());
        let par = a.matmul(&b);
        // Serial reference.
        let mut serial = Matrix::zeros(m, n);
        for i in 0..m {
            for kk in 0..k {
                for j in 0..n {
                    let v = serial.get(i, j) + a.get(i, kk) * b.get(kk, j);
                    serial.set(i, j, v);
                }
            }
        }
        for i in 0..m {
            for j in 0..n {
                assert!((par.get(i, j) - serial.get(i, j)).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn parallel_matmul_at_b_bit_identical_to_serial() {
        // Force the parallel path with > PAR_THRESHOLD output rows
        // (self.cols) and > BLOCK_ROWS shared rows so blocking engages.
        let m = 150;
        let k = 160;
        let n = 19;
        // Sprinkle exact zeros so dropping the old zero-skip branch is
        // exercised against the branch-free reference.
        let a = Matrix::from_vec(
            m,
            k,
            (0..m * k)
                .map(|i| {
                    if i % 5 == 0 {
                        0.0
                    } else {
                        (i % 13) as f32 - 6.0
                    }
                })
                .collect(),
        );
        let b = Matrix::from_vec(
            m,
            n,
            (0..m * n).map(|i| (i % 7) as f32 * 0.25 - 0.5).collect(),
        );
        let par = a.matmul_at_b(&b);
        // The pooled auto-backend result must match the serial (parts = 1)
        // auto-backend result bit-for-bit — the pool-invariance contract
        // holds on whichever backend the host selects.
        let mut serial = Matrix::zeros(k, n);
        a.matmul_at_b_into_parts(&b, &mut serial, 1);
        assert_eq!(par, serial);
        // And the scalar reference (branch-free ascending-i accumulation)
        // agrees within the documented tolerance — bitwise when the host
        // has no SIMD, within the FMA/reduction ULP bound otherwise.
        let mut reference = Matrix::zeros(k, n);
        for i in 0..m {
            for kk in 0..k {
                let av = a.get(i, kk);
                for j in 0..n {
                    let v = reference.get(kk, j) + av * b.get(i, j);
                    reference.set(kk, j, v);
                }
            }
        }
        for kk in 0..k {
            for j in 0..n {
                let (x, y) = (par.get(kk, j), reference.get(kk, j));
                assert!(
                    (x - y).abs() <= 1e-3 + y.abs() * 1e-5,
                    "({kk},{j}): {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn parallel_matmul_a_bt_bit_identical_to_serial() {
        // Force the parallel path with > PAR_THRESHOLD rows and
        // > BLOCK_ROWS columns in the output so the j-blocking engages.
        let m = 140;
        let k = 21;
        let n = 130;
        let a = Matrix::from_vec(
            m,
            k,
            (0..m * k).map(|i| (i % 11) as f32 * 0.5 - 2.0).collect(),
        );
        let b = Matrix::from_vec(n, k, (0..n * k).map(|i| (i % 9) as f32 - 4.0).collect());
        let par = a.matmul_a_bt(&b);
        // Serial reference: one `dot` per element — both backends route the
        // kernel and `dot` through the same per-element chain, so this is
        // bitwise on SIMD hosts and scalar hosts alike.
        let mut serial = Matrix::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                serial.set(i, j, crate::dot(a.row(i), b.row(j)));
            }
        }
        assert_eq!(par, serial);
    }

    #[test]
    fn into_variants_overwrite_stale_output() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let mut out = Matrix::from_rows(&[&[9.0, 9.0], &[9.0, 9.0]]);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a);
        a.matmul_at_b_into(&b, &mut out);
        assert_eq!(out, a.transpose().matmul(&b));
        a.matmul_a_bt_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b.transpose()));
    }

    #[test]
    fn mixed_matmuls_agree_with_f32_within_bf16_tolerance() {
        // bf16 keeps 8 mantissa bits → relative error ~2^-8 per stored
        // element of the packed operand; the identity-`B` product is exact.
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let id = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let mut out = Matrix::from_rows(&[&[9.0, 9.0], &[9.0, 9.0]]);
        a.matmul_mixed_into(&id, &mut out);
        assert_eq!(out, a, "identity is exact in bf16");
        a.matmul_at_b_mixed_into(&id, &mut out);
        assert_eq!(out, a.transpose(), "Aᵀ·I with bf16 Aᵀ of exact values");
        a.matmul_a_bt_mixed_into(&id, &mut out);
        assert_eq!(out, a);

        // Random-ish values: relative tolerance 2^-7 (one bf16 ulp of the
        // operand plus accumulation slack).
        let m = 50;
        let k = 40;
        let n = 30;
        let x = Matrix::from_vec(
            m,
            k,
            (0..m * k).map(|i| (i % 23) as f32 * 0.21 - 2.0).collect(),
        );
        let w = Matrix::from_vec(
            k,
            n,
            (0..k * n).map(|i| (i % 17) as f32 * 0.13 - 1.0).collect(),
        );
        let full = x.matmul(&w);
        let mixed = x.matmul_mixed(&w);
        for (f, g) in full.as_slice().iter().zip(mixed.as_slice()) {
            assert!(
                (f - g).abs() <= f.abs() * (1.0 / 128.0) + 0.05,
                "{f} vs {g}"
            );
        }
    }

    #[test]
    fn packed_operand_reads_back_and_multiplies_bitwise() {
        // 300 columns: one full 256-column panel plus a 44-column one.
        let (m, k, n) = (3, 5, 300);
        let a = Matrix::from_vec(
            m,
            k,
            (0..m * k).map(|i| (i % 7) as f32 * 0.3 - 1.0).collect(),
        );
        let b = Matrix::from_vec(k, n, (0..k * n).map(|i| (i as f32 * 0.37).sin()).collect());
        for prec in [Precision::F32, Precision::Mixed] {
            let p = PackedMatrix::new(&b).with_precision(prec);
            assert_eq!(p.precision(), prec);
            assert_eq!((p.rows(), p.cols()), (k, n));
            assert_eq!(p.row_major().collect::<Vec<_>>(), b.as_slice());
            let mut want = Matrix::zeros(m, n);
            let mut got = Matrix::from_vec(m, n, vec![9.0; m * n]);
            a.matmul_into_prec(&b, &mut want, prec);
            a.matmul_packed_into(&p, &mut got);
            assert_eq!(got, want, "{prec:?}");
        }
    }

    #[test]
    fn precision_knob_dispatches() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let mut f32_out = Matrix::zeros(2, 2);
        let mut mixed_out = Matrix::zeros(2, 2);
        a.matmul_into_prec(&b, &mut f32_out, Precision::F32);
        a.matmul_into_prec(&b, &mut mixed_out, Precision::Mixed);
        assert_eq!(f32_out, a);
        assert_eq!(mixed_out, a);
        a.matmul_at_b_into_prec(&b, &mut f32_out, Precision::F32);
        a.matmul_at_b_into_prec(&b, &mut mixed_out, Precision::Mixed);
        assert_eq!(f32_out, mixed_out);
        a.matmul_a_bt_into_prec(&b, &mut f32_out, Precision::F32);
        a.matmul_a_bt_into_prec(&b, &mut mixed_out, Precision::Mixed);
        assert_eq!(f32_out, mixed_out);
    }

    #[test]
    #[should_panic(expected = "output shape mismatch")]
    fn matmul_into_rejects_wrong_output_shape() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 4);
        let mut out = Matrix::zeros(2, 3);
        a.matmul_into(&b, &mut out);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn mismatched_matmul_rejected() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn add_assign_and_norm() {
        let mut a = Matrix::from_rows(&[&[3.0, 0.0]]);
        let b = Matrix::from_rows(&[&[0.0, 4.0]]);
        a.add_assign(&b);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-6);
    }
}
