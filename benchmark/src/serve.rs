//! The `serve` leg: open-loop exponential arrivals into the executed
//! serving plane at one fixed sub-saturation rate, plus the traced
//! service-time probes.

use std::time::Instant;

use summit_dl::{MlpSpec, ServableModel};
use summit_serve::{
    run_executed,
    service::{batch_matrix, feature_pool},
    BatchConfig, CurvePoint, ExecutedConfig,
};
use summit_tensor::Matrix;

use crate::stats::summarize;
use crate::trace::Recorder;
use crate::Report;

/// Offered rate, requests/s: below the single-replica knee on two cores,
/// where tail latency repeats from run to run.
pub const RATE_RPS: f64 = 2_000.0;
const SPEC: (usize, [usize; 2], usize) = (256, [512, 512], 128);

pub struct Inputs {
    pub model: ServableModel,
    pub seed: u64,
    pool: Vec<Vec<f32>>,
}

impl Inputs {
    pub fn build(seed: u64) -> Self {
        let spec = MlpSpec::new(SPEC.0, &SPEC.1, SPEC.2);
        let model =
            ServableModel::from_spec_params(&spec, &spec.build(seed ^ 0x5e7e).flat_params());
        Inputs {
            pool: feature_pool(model.input_dim(), 64, seed),
            model,
            seed,
        }
    }

    fn config(&self, requests: usize, point: u64) -> ExecutedConfig {
        ExecutedConfig {
            rate_rps: RATE_RPS,
            requests,
            replicas: 1,
            batch: BatchConfig::default(),
            seed: self
                .seed
                .wrapping_add(point.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        }
    }

    fn batch(&self, b: usize) -> Matrix {
        batch_matrix(&self.pool, &(0..b as u64).collect::<Vec<_>>())
    }
}

/// Conservation: every issued request completed, was rejected or was shed.
/// Refused and shed requests count as failed operations.
fn check(report: &mut Report, p: &CurvePoint) {
    let conserved = p.completed + p.rejected + p.shed == p.issued;
    report.check(
        p.issued,
        conserved,
        format!(
            "serve: completed {} + rejected {} + shed {} vs issued {}",
            p.completed, p.rejected, p.shed, p.issued
        ),
    );
    report.failed_ops(p.rejected + p.shed, "serve requests refused or shed");
}

/// Load points at the fixed rate. Each point of `requests` requests has its
/// own arrival seed; a run reports the median over its points of each
/// point's p50 and p99, so a burst of host noise moves one point, not the
/// run.
pub struct Leg {
    requests: usize,
    points: Vec<CurvePoint>,
}

impl Leg {
    pub fn start(requests: usize) -> Self {
        Leg {
            requests,
            points: Vec::new(),
        }
    }

    pub fn unit(&mut self, inp: &Inputs, report: &mut Report) {
        let cfg = inp.config(self.requests, self.points.len() as u64);
        let p = run_executed(&inp.model, &cfg);
        check(report, &p);
        self.points.push(p);
    }

    fn medians(&self) -> (f64, f64) {
        let p50: Vec<f64> = self.points.iter().map(|p| p.p50_ms).collect();
        let p99: Vec<f64> = self.points.iter().map(|p| p.p99_ms).collect();
        (summarize(&p50).median, summarize(&p99).median)
    }

    pub fn finish(self, report: &mut Report) {
        let (p50, p99) = self.medians();
        let issued: u64 = self.points.iter().map(|p| p.issued).sum();
        let worst = self.points.iter().map(|p| p.p99_ms).fold(0.0, f64::max);
        println!(
            "serve: {} load points of {} requests at {RATE_RPS} rps offered ({issued} issued): median p50 {p50:.4} ms, median p99 {p99:.4} ms, worst point p99 {worst:.4} ms",
            self.points.len(),
            self.requests
        );
        report.metric("serve_p50_ms", p50, "ms");
    }
}

/// Median seconds of `forward_batch` at batch `b`, each call a span.
fn service_s(inp: &Inputs, b: usize, rec: &mut Recorder, id: u64) -> f64 {
    let x = inp.batch(b);
    std::hint::black_box(inp.model.forward_batch(&x));
    let mut samples = Vec::new();
    let t_all = Instant::now();
    while samples.len() < 50 || t_all.elapsed().as_secs_f64() < 0.1 {
        let s = rec.open("serve.forward_batch", id, None);
        std::hint::black_box(inp.model.forward_batch(&x));
        rec.close(s);
        samples.push(rec.spans[s].dur_ns() as f64 / 1e9);
    }
    summarize(&samples).median
}

/// The traced leg: each load point under a span, then the service-time
/// probes.
pub struct Traced {
    leg: Leg,
    rec: Recorder,
}

impl Traced {
    pub fn start(requests: usize, epoch: Instant) -> Self {
        Traced {
            leg: Leg::start(requests),
            rec: Recorder::new(epoch),
        }
    }

    pub fn unit(&mut self, inp: &Inputs, report: &mut Report) {
        let id = self.leg.points.len() as u64;
        let s = self.rec.open("serve.load_point", id, None);
        self.leg.unit(inp, report);
        self.rec.close(s);
    }

    pub fn finish(mut self, inp: &Inputs, report: &mut Report) -> Recorder {
        let rec = &mut self.rec;
        let flops_per_row =
            2.0 * (SPEC.0 * SPEC.1[0] + SPEC.1[0] * SPEC.1[1] + SPEC.1[1] * SPEC.2) as f64;
        for (b, name) in [
            (1, "tensor.serve_b1_gflops"),
            (16, "tensor.serve_b16_gflops"),
        ] {
            let s = service_s(inp, b, rec, b as u64);
            report.metric(name, b as f64 * flops_per_row / s / 1e9, "GFLOP/s");
        }
        let points = &self.leg.points;
        let n = points.len() as f64;
        let mean_batch = points.iter().map(|p| p.mean_batch).sum::<f64>() / n;
        let (p50, p99) = self.leg.medians();
        report.metric("serve_p99_ms", p99, "ms");
        let service_ms = service_s(inp, mean_batch.round().max(1.0) as usize, rec, 0) * 1e3;
        report.metric("serve.mean_batch", mean_batch, "requests");
        report.metric(
            "serve.rejected",
            points.iter().map(|p| p.rejected).sum::<u64>() as f64,
            "count",
        );
        report.metric(
            "serve.shed",
            points.iter().map(|p| p.shed).sum::<u64>() as f64,
            "count",
        );
        report.metric(
            "serve.achieved_rps",
            points.iter().map(|p| p.achieved_rps).sum::<f64>() / n,
            "1/s",
        );
        report.metric("serve.service_ms", service_ms, "ms");
        report.metric("serve.wait_p50_ms", p50 - service_ms, "ms");
        self.rec
    }
}
