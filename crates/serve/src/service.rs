//! Measured service-time model of one replica's batched forward.
//!
//! The serving simulator needs a cost for "one micro-batch of `b`
//! requests on one replica". Rather than inventing constants, the model is
//! **calibrated from executed forwards**: [`calibrate`] times
//! [`ServableModel::forward_batch`] across a sweep of batch sizes on the
//! live host and least-squares fits the affine model
//!
//! ```text
//! service(b) = base_s + b · per_row_s
//! ```
//!
//! which is exactly the shape the prepacked GEMM path produces: `base_s`
//! is the per-call overhead the micro-batcher amortizes (dispatch, layer
//! set-up, and streaming every weight panel once whatever the batch size)
//! and `per_row_s` is the marginal row cost. The weights are packed once
//! when the replica is built, so no request pays for packing. The same
//! fit also yields the batched-vs-sequential speedup the serving plane's
//! headline quotes: sequential throughput is `1/service(1)`, batched
//! throughput at `b` is `b/service(b)`.

use summit_dl::inference::ServableModel;
use summit_tensor::Matrix;

/// Affine per-batch service-time model, seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceModel {
    /// Per-dispatch overhead independent of batch size.
    pub base_s: f64,
    /// Marginal cost per batched request.
    pub per_row_s: f64,
}

impl ServiceModel {
    /// Service time of a `b`-request micro-batch.
    pub fn batch_seconds(&self, b: usize) -> f64 {
        self.base_s + b as f64 * self.per_row_s
    }

    /// Steady-state throughput of one replica running fixed batches of
    /// `b`: `b / service(b)` requests per second.
    pub fn batch_rps(&self, b: usize) -> f64 {
        b as f64 / self.batch_seconds(b)
    }

    /// Peak single-replica throughput over batch sizes `1..=max_batch`
    /// (monotone in `b` for an affine model, but computed by scan so a
    /// future non-affine model keeps this correct).
    pub fn peak_rps(&self, max_batch: usize) -> f64 {
        (1..=max_batch.max(1))
            .map(|b| self.batch_rps(b))
            .fold(0.0, f64::max)
    }

    /// Least-squares fit of the affine model to measured
    /// `(batch, seconds)` points.
    ///
    /// # Panics
    /// Panics on fewer than two distinct batch sizes (the affine model is
    /// under-determined).
    pub fn fit(points: &[(usize, f64)]) -> Self {
        assert!(points.len() >= 2, "need at least two calibration points");
        let n = points.len() as f64;
        let sx: f64 = points.iter().map(|&(b, _)| b as f64).sum();
        let sy: f64 = points.iter().map(|&(_, t)| t).sum();
        let sxx: f64 = points.iter().map(|&(b, _)| (b as f64) * (b as f64)).sum();
        let sxy: f64 = points.iter().map(|&(b, t)| b as f64 * t).sum();
        let denom = n * sxx - sx * sx;
        assert!(
            denom.abs() > f64::EPSILON,
            "need at least two distinct batch sizes"
        );
        let per_row = (n * sxy - sx * sy) / denom;
        let base = (sy - per_row * sx) / n;
        // Timing noise can drive either coefficient slightly negative on
        // a fast model; clamp to a sane floor so queueing math stays
        // well-defined.
        ServiceModel {
            base_s: base.max(1e-9),
            per_row_s: per_row.max(1e-9),
        }
    }
}

/// A deterministic pool of `k` feature rows of width `dim` — the request
/// payloads every plane (executed server, sharded replicas, calibration)
/// draws from, keyed by `request_id % k`.
pub fn feature_pool(dim: usize, k: usize, seed: u64) -> Vec<Vec<f32>> {
    (0..k)
        .map(|r| {
            (0..dim)
                .map(|c| {
                    let x = (r as u64 * 1_000_003 + c as u64)
                        .wrapping_mul(seed | 1)
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15);
                    ((x >> 40) as f32 / (1u64 << 24) as f32) - 0.5
                })
                .collect()
        })
        .collect()
}

/// Build the `batch × dim` input matrix for a set of request ids, drawing
/// rows from the shared feature pool.
pub fn batch_matrix(pool: &[Vec<f32>], ids: &[u64]) -> Matrix {
    let dim = pool[0].len();
    let mut data = Vec::with_capacity(ids.len() * dim);
    for &id in ids {
        data.extend_from_slice(&pool[id as usize % pool.len()]);
    }
    Matrix::from_vec(ids.len(), dim, data)
}

/// One calibration point: executed timing of a batch size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationPoint {
    /// Micro-batch size.
    pub batch: usize,
    /// Best-of-iters wall seconds for one batched forward.
    pub seconds: f64,
    /// Throughput `batch / seconds`.
    pub rps: f64,
}

/// Time `model.forward_batch` at each batch size (best of `iters` runs,
/// after one warmup) and fit the [`ServiceModel`]. Returns the raw points
/// alongside the fit so benches can report both.
pub fn calibrate(
    model: &ServableModel,
    batches: &[usize],
    iters: usize,
    seed: u64,
) -> (Vec<CalibrationPoint>, ServiceModel) {
    let pool = feature_pool(model.input_dim(), 64, seed);
    let mut points = Vec::with_capacity(batches.len());
    for &b in batches {
        let ids: Vec<u64> = (0..b as u64).collect();
        let x = batch_matrix(&pool, &ids);
        let mut best = f64::INFINITY;
        // Warmup primes the pool workers and the caches.
        let _ = model.forward_batch(&x);
        for _ in 0..iters.max(1) {
            let t0 = std::time::Instant::now();
            let out = model.forward_batch(&x);
            best = best.min(t0.elapsed().as_secs_f64());
            std::hint::black_box(out.as_slice()[0]);
        }
        points.push(CalibrationPoint {
            batch: b,
            seconds: best,
            rps: b as f64 / best,
        });
    }
    let fit = ServiceModel::fit(
        &points
            .iter()
            .map(|p| (p.batch, p.seconds))
            .collect::<Vec<_>>(),
    );
    (points, fit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_recovers_an_affine_model() {
        let truth = ServiceModel {
            base_s: 2.0e-4,
            per_row_s: 3.0e-5,
        };
        let points: Vec<(usize, f64)> = [1usize, 2, 4, 8, 16, 32]
            .iter()
            .map(|&b| (b, truth.batch_seconds(b)))
            .collect();
        let fit = ServiceModel::fit(&points);
        assert!((fit.base_s - truth.base_s).abs() < 1e-9);
        assert!((fit.per_row_s - truth.per_row_s).abs() < 1e-9);
    }

    #[test]
    fn batched_throughput_beats_sequential_in_the_model() {
        let m = ServiceModel {
            base_s: 1.0e-3,
            per_row_s: 1.0e-5,
        };
        // Amortizing a 100:1 overhead: batch-16 rate far exceeds matvec rate.
        assert!(m.batch_rps(16) > 3.0 * m.batch_rps(1));
        assert!((m.peak_rps(16) - m.batch_rps(16)).abs() < 1e-9);
    }

    #[test]
    fn feature_pool_is_deterministic_and_bounded() {
        let a = feature_pool(8, 4, 7);
        let b = feature_pool(8, 4, 7);
        assert_eq!(a, b);
        assert!(a.iter().flatten().all(|v| v.abs() <= 0.5));
        let x = batch_matrix(&a, &[0, 5, 2]);
        assert_eq!(x.rows(), 3);
        assert_eq!(x.row(1), a[1].as_slice());
    }
}
