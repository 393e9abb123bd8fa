//! The SIMD kernel contracts, property-tested:
//!
//! 1. **ULP agreement** — the auto backend (SIMD where detected) agrees
//!    with the forced scalar reference within the documented bound on
//!    random shapes, including every remainder path (cols % 16, % 8 ≠ 0,
//!    rows below the register-tile height, the 64-column small-batch tile
//!    and the 256-column panel boundary).
//! 2. **Bit-identity across pool sizes 1→8** — for both precisions and
//!    both backends, the chunked result equals the `parts = 1` result
//!    bitwise at every worker count, and the prepacked product
//!    ([`PackedMatrix`]) equals the per-call-pack product bitwise.
//! 3. **BLAS-1 dispatch agreement** — `dot`/`axpy`/`scale`/`l2_norm` and
//!    the elementwise kernels match their scalar definitions within the
//!    same bound (`scale`, `relu`, `add_bias` exactly).
//!
//! The documented ULP bound: each output element is one length-`k` fused
//! chain per backend; FMA contraction and the 8-lane reduction tree
//! reassociate, so SIMD-vs-scalar error is bounded by a small multiple of
//! `k·ε·|a|·|b|`. We assert `|simd − scalar| ≤ rel·|scalar| + abs` with
//! `rel = 16·k·ε` and a small absolute floor — loose enough to be
//! portable, tight enough that a wrong element (not a rounding
//! difference) fails instantly.

use proptest::prelude::*;
use summit_tensor::matrix::Backend;
use summit_tensor::{Matrix, PackedMatrix, Precision};

fn mat(rows: usize, cols: usize, seed: u64) -> Matrix {
    let data = (0..rows * cols)
        .map(|i| {
            let v = seed
                .wrapping_add(i as u64)
                .wrapping_mul(6364136223846793005)
                .rotate_left(17);
            ((v % 2000) as f32 - 1000.0) * 1e-3
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

fn assert_close(auto: &Matrix, scalar: &Matrix, k: usize, what: &str) {
    let rel = 16.0 * k as f32 * f32::EPSILON;
    for (i, (a, s)) in auto.as_slice().iter().zip(scalar.as_slice()).enumerate() {
        assert!(
            (a - s).abs() <= s.abs() * rel + 1e-5,
            "{what}: element {i}: auto {a} vs scalar {s} (k = {k})"
        );
    }
}

/// Run one variant with full control. Variant 3 is `matmul` against a
/// [`PackedMatrix`] packed at `prec`.
fn run(
    a: &Matrix,
    b: &Matrix,
    out: &mut Matrix,
    variant: usize,
    parts: usize,
    prec: Precision,
    backend: Backend,
) {
    match variant {
        0 => a.matmul_into_parts_backend(b, out, parts, prec, backend),
        1 => a.matmul_at_b_into_parts_backend(b, out, parts, prec, backend),
        2 => a.matmul_a_bt_into_parts_backend(b, out, parts, prec, backend),
        _ => {
            let packed = PackedMatrix::new(b).with_precision(prec);
            a.matmul_packed_into_parts_backend(&packed, out, parts, backend)
        }
    }
}

/// Output shape of a variant.
fn out_shape(a: &Matrix, b: &Matrix, variant: usize) -> (usize, usize) {
    match variant {
        1 => (a.cols(), b.cols()),
        2 => (a.rows(), b.rows()),
        _ => (a.rows(), b.cols()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Auto (SIMD where detected) vs forced scalar, all three variants,
    /// f32: within the ULP bound on shapes that hit every remainder lane
    /// (cols % 8 ≠ 0 included by the range, rows < the 6/4-row tiles
    /// included by the minimum, columns past the 64-wide small-batch tile
    /// and the 256-column panel).
    #[test]
    fn simd_agrees_with_scalar_within_ulp_bound(
        m in 1usize..40,
        k in 1usize..70,
        n in 1usize..300,
        variant in 0usize..3,
        seed in 0u64..1000,
    ) {
        let (a, b) = match variant {
            0 => (mat(m, k, seed), mat(k, n, seed + 1)),
            1 => (mat(m, k, seed), mat(m, n, seed + 1)),
            _ => (mat(m, k, seed), mat(n, k, seed + 1)),
        };
        let (or, oc) = out_shape(&a, &b, variant);
        let mut auto = Matrix::zeros(or, oc);
        let mut scalar = Matrix::zeros(or, oc);
        run(&a, &b, &mut auto, variant, 1, Precision::F32, Backend::Auto);
        run(&a, &b, &mut scalar, variant, 1, Precision::F32, Backend::Scalar);
        let shared = if variant == 1 { a.rows() } else { a.cols() };
        assert_close(&auto, &scalar, shared, "f32");
    }

    /// Same agreement for the mixed path: both backends see identical
    /// bf16-rounded panels, so the only divergence is again FMA/reduction
    /// order.
    #[test]
    fn mixed_simd_agrees_with_mixed_scalar(
        m in 1usize..32,
        k in 1usize..48,
        n in 1usize..32,
        variant in 0usize..3,
        seed in 0u64..1000,
    ) {
        let (a, b) = match variant {
            0 => (mat(m, k, seed), mat(k, n, seed + 1)),
            1 => (mat(m, k, seed), mat(m, n, seed + 1)),
            _ => (mat(m, k, seed), mat(n, k, seed + 1)),
        };
        let (or, oc) = out_shape(&a, &b, variant);
        let mut auto = Matrix::zeros(or, oc);
        let mut scalar = Matrix::zeros(or, oc);
        run(&a, &b, &mut auto, variant, 1, Precision::Mixed, Backend::Auto);
        run(&a, &b, &mut scalar, variant, 1, Precision::Mixed, Backend::Scalar);
        let shared = if variant == 1 { a.rows() } else { a.cols() };
        assert_close(&auto, &scalar, shared, "mixed");
    }

    /// Bit-identity across pool sizes 1→8 for every (variant, precision,
    /// backend) combination: the chunk split must never change a single
    /// bit of any output element. The prepacked product (variant 3) is
    /// held to the per-call-pack serial product at every pool size.
    #[test]
    fn bit_identical_across_pool_sizes_1_to_8(
        m in 1usize..48,
        k in 1usize..40,
        n in 1usize..300,
        variant in 0usize..4,
        seed in 0u64..1000,
    ) {
        let (a, b) = match variant {
            1 => (mat(m, k, seed), mat(m, n, seed + 1)),
            2 => (mat(m, k, seed), mat(n, k, seed + 1)),
            _ => (mat(m, k, seed), mat(k, n, seed + 1)),
        };
        let (or, oc) = out_shape(&a, &b, variant);
        let reference = if variant == 3 { 0 } else { variant };
        for prec in [Precision::F32, Precision::Mixed] {
            for backend in [Backend::Auto, Backend::Scalar] {
                let mut serial = Matrix::zeros(or, oc);
                run(&a, &b, &mut serial, reference, 1, prec, backend);
                for parts in 1..=8 {
                    let mut pooled = Matrix::zeros(or, oc);
                    run(&a, &b, &mut pooled, variant, parts, prec, backend);
                    prop_assert_eq!(
                        pooled.as_slice(),
                        serial.as_slice(),
                        "variant {} {:?} {:?} differs at parts = {}",
                        variant, prec, backend, parts
                    );
                }
            }
        }
    }

    /// The deduped BLAS-1 entry points agree with their scalar
    /// definitions: `scale` exactly (one multiply per element), `dot`,
    /// `l2_norm`, and `axpy` within the fused-chain bound.
    #[test]
    fn blas1_dispatch_agrees_with_scalar_definitions(
        len in 0usize..200,
        alpha in -4.0f32..4.0,
        seed in 0u64..1000,
    ) {
        let x: Vec<f32> = (0..len).map(|i| ((i as u64 + seed) % 31) as f32 * 0.13 - 2.0).collect();
        let y: Vec<f32> = (0..len).map(|i| ((i as u64 + seed) % 17) as f32 * 0.21 - 1.5).collect();
        let bound = 16.0 * (len.max(1)) as f32 * f32::EPSILON;

        let d = summit_tensor::dot(&x, &y);
        let d_ref: f32 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        prop_assert!((d - d_ref).abs() <= d_ref.abs() * bound + 1e-5);

        let nrm = summit_tensor::l2_norm(&x);
        let nrm_ref = x.iter().map(|v| v * v).sum::<f32>().sqrt();
        prop_assert!((nrm - nrm_ref).abs() <= nrm_ref.abs() * bound + 1e-5);

        let mut y_simd = y.clone();
        summit_tensor::axpy(alpha, &x, &mut y_simd);
        for (i, (got, (&xi, &yi))) in y_simd.iter().zip(x.iter().zip(&y)).enumerate() {
            let want = yi + alpha * xi;
            prop_assert!(
                (got - want).abs() <= want.abs() * 4.0 * f32::EPSILON + 1e-6,
                "axpy element {}: {} vs {}", i, got, want
            );
        }

        let mut s_simd = x.clone();
        summit_tensor::scale(&mut s_simd, alpha);
        let s_ref: Vec<f32> = x.iter().map(|v| v * alpha).collect();
        prop_assert_eq!(s_simd, s_ref, "scale must be bit-identical");
    }

    /// The elementwise ops (`relu_inplace`, `add_bias`) are bit-identical
    /// to their scalar definitions on both backends.
    #[test]
    fn elementwise_dispatch_is_bit_identical(
        rows in 1usize..20,
        cols in 1usize..40,
        seed in 0u64..1000,
    ) {
        let x = mat(rows, cols, seed);
        let bias: Vec<f32> = (0..cols).map(|i| (i as f32 * 0.31).sin()).collect();

        let mut relu = x.clone();
        summit_tensor::ops::relu_inplace(&mut relu);
        for (got, &v) in relu.as_slice().iter().zip(x.as_slice()) {
            prop_assert_eq!(*got, v.max(0.0));
        }

        let mut biased = x.clone();
        summit_tensor::ops::add_bias(&mut biased, &bias);
        for r in 0..rows {
            for (c, &bc) in bias.iter().enumerate() {
                prop_assert_eq!(biased.get(r, c), x.get(r, c) + bc);
            }
        }
    }
}

/// The mixed path's storage error is exactly bf16 rounding of the packed
/// operand: with the other operand an identity, the product recovers the
/// bf16-rounded values bit-for-bit.
#[test]
fn mixed_storage_error_is_exactly_bf16_rounding() {
    let k = 37;
    let vals: Vec<f32> = (0..k).map(|i| (i as f32 * 0.617).tan()).collect();
    let b = Matrix::from_vec(k, 1, vals.clone());
    let mut ident = Matrix::zeros(k, k);
    for i in 0..k {
        ident.set(i, i, 1.0);
    }
    let got = ident.matmul_mixed(&b);
    for (g, &v) in got.as_slice().iter().zip(&vals) {
        let want = summit_tensor::simd::bf16_to_f32(summit_tensor::simd::f32_to_bf16(v));
        assert_eq!(
            g.to_bits(),
            want.to_bits(),
            "{v} stored as {g}, want {want}"
        );
    }
}
