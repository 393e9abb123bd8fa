//! The `train` legs: data-parallel training steps at p = 1 and p = 2, the
//! traced replay of the serial step, and the isolated GEMM and allreduce
//! probes at the step's exact shapes.

use std::time::Instant;

use summit_comm::{collectives::ring_allreduce_bucketed, world::TrafficStats, ReduceOp, World};
use summit_dl::trainer::ParallelOutcome;
use summit_dl::{
    data::blobs, trainer::slice_rows, DataParallelTrainer, FusionConfig, LrSchedule, Mlp, MlpSpec,
    Optimizer, OverlapConfig, Sgd,
};
use summit_pool::ComputeStats;
use summit_tensor::{ops, Matrix, Precision};

use crate::stats::summarize;
use crate::trace::Recorder;
use crate::Report;

/// Global batch, fixed across world sizes.
pub const GLOBAL_BATCH: usize = 128;
const INPUTS: usize = 256;
const HIDDEN: [usize; 2] = [512, 512];
const CLASSES: usize = 16;

pub struct Inputs {
    pub x: Matrix,
    pub y: Vec<usize>,
    pub model: Mlp,
    pub steps: usize,
    world1: World,
    world2: World,
}

impl Inputs {
    /// Seeded blobs with `steps` global batches, the initial model and the
    /// two worlds the legs run in.
    pub fn build(seed: u64, steps: usize) -> Self {
        let task = blobs(steps * GLOBAL_BATCH, INPUTS, CLASSES, 1.0, seed);
        Inputs {
            x: task.x,
            y: task.y,
            model: MlpSpec::new(INPUTS, &HIDDEN, CLASSES).build(seed ^ 0x5eed),
            steps,
            world1: World::new(1),
            world2: World::new(2),
        }
    }
}

fn optimizer() -> Box<dyn Optimizer> {
    Box::new(Sgd::new(0.05, 0.9, 0.0))
}

/// One closed-loop call of `run_in` over the whole dataset (one epoch of
/// `steps` back-to-back steps). Returns the outcome and ms per step.
fn call(inp: &mut Inputs, ranks: usize, overlap: bool) -> (ParallelOutcome, f64) {
    let dp = DataParallelTrainer::new(ranks, GLOBAL_BATCH / ranks)
        .with_overlap(OverlapConfig { enabled: overlap });
    let world = if ranks == 1 {
        &mut inp.world1
    } else {
        &mut inp.world2
    };
    let model = &inp.model;
    let t0 = Instant::now();
    let out = dp.run_in(
        world,
        || model.clone(),
        optimizer,
        LrSchedule::Constant,
        &inp.x,
        &inp.y,
        1,
    );
    let ms = t0.elapsed().as_secs_f64() * 1e3 / f64::from(out.steps.max(1));
    (out, ms)
}

/// Check one outcome: the full step count ran, the loss is finite, and at
/// p = 2 the replicas are bitwise identical.
fn check(report: &mut Report, inp: &Inputs, out: &ParallelOutcome, p: usize) {
    let ok = out.steps as usize == inp.steps
        && out.loss.is_finite()
        && (p == 1 || out.max_divergence == 0.0);
    report.check(
        inp.steps as u64,
        ok,
        format!(
            "train p = {p}: {} steps, loss {}, max_divergence {}",
            out.steps, out.loss, out.max_divergence
        ),
    );
}

/// The end-to-end leg: step times of `run_in` at p = 1 and p = 2.
#[derive(Default)]
pub struct Leg {
    p1: Vec<f64>,
    p2: Vec<f64>,
}

impl Leg {
    /// Warm-up: pool workers spawn and packing scratch grows on first use.
    pub fn start(inp: &mut Inputs) -> Self {
        call(inp, 1, true);
        call(inp, 2, true);
        Leg::default()
    }

    /// One closed-loop call at each world size.
    pub fn unit(&mut self, inp: &mut Inputs, report: &mut Report) {
        let (out, ms) = call(inp, 1, true);
        check(report, inp, &out, 1);
        self.p1.push(ms);
        let (out, ms) = call(inp, 2, true);
        check(report, inp, &out, 2);
        self.p2.push(ms);
    }

    /// Print the step times. They are not result metrics of the untraced
    /// run: their spread on a shared host exceeds any allowed bound, so
    /// the traced run reports them unbounded (see `README.md`).
    pub fn finish(self, inp: &Inputs) {
        let (s1, s2) = (summarize(&self.p1), summarize(&self.p2));
        println!("train_p1_step_ms: {s1} ({} steps per sample)", inp.steps);
        println!("train_p2_step_ms: {s2} ({} steps per sample)", inp.steps);
    }
}

/// Span names of the traced step, in ledger order.
const STEP_LAYERS: [(&str, &str); 7] = [
    ("slice", "dl.slice_ms"),
    ("forward", "dl.forward_ms"),
    ("loss", "dl.loss_ms"),
    ("backward", "dl.backward_ms"),
    ("grad_flatten", "dl.grad_flatten_ms"),
    ("allreduce", "comm.allreduce_ms"),
    ("optimizer", "dl.optimizer_ms"),
];

/// The trainer's serial p = 2 step, replayed call by call through the
/// public API with a span around each call. Returns each rank's final
/// parameters and span recorder.
fn traced_replay(inp: &mut Inputs, epoch: Instant, first_id: u64) -> Vec<(Vec<f32>, Recorder)> {
    let per_rank = GLOBAL_BATCH / 2;
    let bucket = FusionConfig::default().bucket_elems();
    let (x, y, model, steps) = (&inp.x, &inp.y, &inp.model, inp.steps);
    inp.world2.execute(|rank| {
        let mut rec = Recorder::new(epoch);
        let mut model = model.clone();
        let mut opt = optimizer();
        let mut flat = vec![0.0f32; model.param_count()];
        for s in 0..steps {
            let id = first_id + s as u64;
            let step = rec.open("step", id, None);
            let start = s * GLOBAL_BATCH + rank.id() * per_rank;
            let bx = rec.leaf("slice", id, Some(step), || {
                slice_rows(x, start, start + per_rank)
            });
            let logits = rec.leaf("forward", id, Some(step), || model.forward(&bx));
            let (_, dlogits) = rec.leaf("loss", id, Some(step), || {
                ops::softmax_cross_entropy(logits, &y[start..start + per_rank])
            });
            rec.leaf("backward", id, Some(step), || {
                model.zero_grads();
                model.backward(&dlogits);
            });
            rec.leaf("grad_flatten", id, Some(step), || {
                model.flat_grads_into(&mut flat)
            });
            rec.leaf("allreduce", id, Some(step), || {
                ring_allreduce_bucketed(rank, &mut flat, ReduceOp::Sum, bucket)
            });
            rec.leaf("grad_flatten", id, Some(step), || {
                let inv = 1.0 / rank.size() as f32;
                flat.iter_mut().for_each(|g| *g *= inv);
                model.set_flat_grads(&flat);
            });
            rec.leaf("optimizer", id, Some(step), || {
                model.for_each_group(|g, params, grads| opt.step_group(g, 1.0, params, grads));
                opt.advance();
            });
            rec.close(step);
        }
        (model.flat_params(), rec)
    })
}

fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The traced train leg: rank 0's spans of the replayed serial step, and
/// the untraced calls it is checked and compared against.
pub struct Traced {
    p1_ms: Vec<f64>,
    p2_ms: Vec<f64>,
    pool: ComputeStats,
    pool_wall_s: f64,
    traffic: TrafficStats,
    comm_s: f64,
    exposed_s: f64,
    overlap_steps: f64,
    serial_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    rank0: Recorder,
    calls: u64,
}

impl Traced {
    pub fn start(inp: &mut Inputs, epoch: Instant) -> Self {
        call(inp, 2, true);
        Traced {
            p1_ms: Vec::new(),
            p2_ms: Vec::new(),
            pool: ComputeStats::default(),
            pool_wall_s: 0.0,
            traffic: TrafficStats::default(),
            comm_s: 0.0,
            exposed_s: 0.0,
            overlap_steps: 0.0,
            serial_ms: Vec::new(),
            traced_ms: Vec::new(),
            rank0: Recorder::new(epoch),
            calls: 0,
        }
    }

    /// One untraced p = 1 call, whose compute-pool counters are kept; one
    /// untraced p = 2 call with the default overlap; one untraced p = 2
    /// call on the serial path; and one traced replay of the serial path,
    /// whose final parameters must equal the default's bit for bit (the
    /// trainer documents overlap on and off as bit-identical).
    pub fn unit(&mut self, inp: &mut Inputs, report: &mut Report) {
        let (out, ms) = call(inp, 1, true);
        check(report, inp, &out, 1);
        self.p1_ms.push(ms);
        let c = out.compute;
        self.pool.tasks_dispatched += c.tasks_dispatched;
        self.pool.tasks_stolen += c.tasks_stolen;
        self.pool.parks += c.parks;
        self.pool.busy_nanos += c.busy_nanos;
        self.pool.max_concurrency = c.max_concurrency;
        self.pool_wall_s += ms * f64::from(out.steps) / 1e3;

        let (reference, ms) = call(inp, 2, true);
        check(report, inp, &reference, 2);
        self.p2_ms.push(ms);
        self.traffic = inp.world2.last_traffic();
        self.comm_s += reference.comm_seconds;
        self.exposed_s += reference.exposed_comm_seconds;
        self.overlap_steps += f64::from(reference.steps);
        let (out, ms) = call(inp, 2, false);
        check(report, inp, &out, 2);
        self.serial_ms.push(ms);
        let t0 = Instant::now();
        let mut ranks = traced_replay(inp, self.rank0.epoch(), self.calls * inp.steps as u64);
        self.traced_ms
            .push(t0.elapsed().as_secs_f64() * 1e3 / inp.steps as f64);
        let identical = ranks
            .iter()
            .all(|(params, _)| bits_equal(params, &reference.params));
        report.check(
            inp.steps as u64,
            identical,
            "traced replay's final params are bit-identical to run_in's",
        );
        self.rank0.absorb(ranks.swap_remove(0).1);
        self.calls += 1;
    }

    /// The ledger and the isolated probes. Returns rank 0's spans for the
    /// trace file.
    pub fn finish(self, inp: &mut Inputs, report: &mut Report) -> Recorder {
        let Traced {
            p1_ms,
            p2_ms,
            pool,
            pool_wall_s,
            traffic,
            comm_s,
            exposed_s,
            overlap_steps,
            serial_ms,
            traced_ms,
            rank0,
            calls,
        } = self;
        let steps = inp.steps as f64;

        // Ledger: mean self time per step of every layer, which by
        // construction sums to the mean traced step.
        let nesting = rank0.nesting_errors();
        report.check(
            1,
            nesting.is_empty(),
            format!("span nesting: {}", nesting.join("; ")),
        );
        let traced_steps = (calls * inp.steps as u64) as f64;
        let selfs = rank0.self_seconds();
        let per_step = |name: &str| selfs.get(name).copied().unwrap_or(0.0) * 1e3 / traced_steps;
        let step_ms = rank0.total_seconds("step") * 1e3 / traced_steps;
        let mut layer_sum = 0.0;
        println!("train ledger (rank 0 of the traced p = 2 serial step, {traced_steps} steps):");
        for (span, metric) in STEP_LAYERS {
            let ms = per_step(span);
            layer_sum += ms;
            println!(
                "  {metric:<22} {ms:>9.4} ms  {:>5.1}%",
                100.0 * ms / step_ms
            );
            report.metric(metric, ms, "ms");
        }
        let unattributed = per_step("step");
        layer_sum += unattributed;
        println!(
            "  {:<22} {unattributed:>9.4} ms  {:>5.1}%",
            "dl.unattributed_ms",
            100.0 * unattributed / step_ms
        );
        println!(
            "  {:<22} {step_ms:>9.4} ms  (layers sum to {layer_sum:.4} ms)",
            "traced step"
        );
        report.check(
            1,
            (layer_sum - step_ms).abs() <= 1e-6 * step_ms,
            format!("ledger sums to {layer_sum} ms, traced step is {step_ms} ms"),
        );
        report.metric("dl.unattributed_ms", unattributed, "ms");
        report.metric("dl.traced_step_ms", step_ms, "ms");

        let serial = summarize(&serial_ms).median;
        let traced = summarize(&traced_ms).median;
        println!(
            "tracing overhead: traced replay {traced:.4} ms/step − untraced serial run_in {serial:.4} ms/step = {:.4} ms/step ({:+.2}% of the untraced base)",
            traced - serial,
            100.0 * (traced - serial) / serial
        );

        let gemm_ms = step_gemm_ms(&inp.x, GLOBAL_BATCH / 2, 1);
        report.metric("dl.gemm_share", gemm_ms / step_ms, "ratio");

        report.metric("comm.exposed_ms", exposed_s * 1e3 / overlap_steps, "ms");
        report.metric("comm.hidden_frac", 1.0 - exposed_s / comm_s, "ratio");
        report.metric(
            "comm.messages_per_step",
            traffic.messages_sent as f64 / steps,
            "count",
        );
        report.metric(
            "comm.bytes_per_step",
            traffic.bytes_sent as f64 / steps,
            "B",
        );
        report.metric(
            "comm.parked_messages",
            traffic.messages_parked as f64,
            "count",
        );
        report.metric("comm.allreduce_gbs", allreduce_gbs(inp), "GB/s");

        report.metric("train_p1_step_ms", summarize(&p1_ms).median, "ms");
        report.metric("train_p2_step_ms", summarize(&p2_ms).median, "ms");
        pool_metrics(&pool, pool_wall_s, p1_ms.len() as f64 * steps, report);
        gemm_rates(inp, report);
        rank0
    }
}

/// Compute-pool counters per p = 1 step, where the pool splits each
/// GEMM; `busy_frac` is busy time over wall time times the rank's lanes.
fn pool_metrics(total: &ComputeStats, wall_s: f64, steps: f64, report: &mut Report) {
    let lanes = summit_pool::rank_budget_from_env(1) as f64;
    report.metric(
        "pool.tasks_dispatched",
        total.tasks_dispatched as f64 / steps,
        "count",
    );
    report.metric(
        "pool.tasks_stolen",
        total.tasks_stolen as f64 / steps,
        "count",
    );
    report.metric("pool.parks", total.parks as f64 / steps, "count");
    report.metric(
        "pool.busy_frac",
        total.busy_seconds() / (wall_s * lanes),
        "ratio",
    );
    report.metric(
        "pool.max_concurrency",
        total.max_concurrency as f64,
        "count",
    );
}

/// Median seconds of `f` over at least `min` runs and 0.1 s.
fn time_median(min: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut samples = Vec::new();
    let t_all = Instant::now();
    while samples.len() < min || t_all.elapsed().as_secs_f64() < 0.1 {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_secs_f64());
    }
    summarize(&samples).median
}

/// The three GEMM kinds of one step, per layer `(in, out)` at batch `m`:
/// forward `x·W`, weight gradient `xᵀ·dy`, input gradient `dy·Wᵀ`.
#[derive(Clone, Copy, PartialEq)]
enum Gemm {
    Forward,
    WeightGrad,
    InputGrad,
}

/// Seconds for one step's worth of `kind` GEMMs at batch `m` (all three
/// layers), with FLOPs and computed bytes (each operand read once, the
/// output written once).
fn gemm_pass(kind: Gemm, x: &Matrix, m: usize) -> (f64, f64, f64) {
    let dims: Vec<(usize, usize)> = {
        let mut d = vec![INPUTS];
        d.extend_from_slice(&HIDDEN);
        d.push(CLASSES);
        d.windows(2).map(|w| (w[0], w[1])).collect()
    };
    let seed_mat = |r: usize, c: usize| {
        let src = x.as_slice();
        Matrix::from_vec(r, c, (0..r * c).map(|i| src[i % src.len()]).collect())
    };
    let mut flops = 0.0;
    let mut bytes = 0.0;
    let mut ops_list = Vec::new();
    for &(i, o) in &dims {
        let (a, b, out) = match kind {
            Gemm::Forward => (seed_mat(m, i), seed_mat(i, o), Matrix::zeros(m, o)),
            Gemm::WeightGrad => (seed_mat(m, i), seed_mat(m, o), Matrix::zeros(i, o)),
            Gemm::InputGrad => (seed_mat(m, o), seed_mat(i, o), Matrix::zeros(m, i)),
        };
        flops += 2.0 * (m * i * o) as f64;
        bytes += 4.0 * (a.as_slice().len() + b.as_slice().len() + out.as_slice().len()) as f64;
        ops_list.push((a, b, out));
    }
    let secs = time_median(5, || {
        for (a, b, out) in &mut ops_list {
            match kind {
                Gemm::Forward => a.matmul_into_prec(b, out, Precision::F32),
                Gemm::WeightGrad => a.matmul_at_b_into_prec(b, out, Precision::F32),
                Gemm::InputGrad => a.matmul_a_bt_into_prec(b, out, Precision::F32),
            }
            std::hint::black_box(out.as_slice());
        }
    });
    (secs, flops, bytes)
}

/// Milliseconds of all GEMMs of one rank's step at batch `m` under a core
/// budget of `lanes`.
fn step_gemm_ms(x: &Matrix, m: usize, lanes: usize) -> f64 {
    summit_pool::with_core_budget(lanes, || {
        [Gemm::Forward, Gemm::WeightGrad, Gemm::InputGrad]
            .into_iter()
            .map(|k| gemm_pass(k, x, m).0 * 1e3)
            .sum()
    })
}

/// GFLOP/s and computed FLOP/byte of each GEMM kind at the p = 1 step's
/// shapes, on the whole machine as the p = 1 trainer runs them.
fn gemm_rates(inp: &Inputs, report: &mut Report) {
    let lanes = summit_pool::rank_budget_from_env(1);
    for (kind, name) in [
        (Gemm::Forward, "tensor.matmul"),
        (Gemm::WeightGrad, "tensor.matmul_at_b"),
        (Gemm::InputGrad, "tensor.matmul_a_bt"),
    ] {
        let (secs, flops, bytes) =
            summit_pool::with_core_budget(lanes, || gemm_pass(kind, &inp.x, GLOBAL_BATCH));
        report.metric(format!("{name}_gflops"), flops / secs / 1e9, "GFLOP/s");
        report.metric(format!("{name}_flop_per_byte"), flops / bytes, "FLOP/B");
    }
}

/// Algorithm bandwidth of an isolated p = 2 ring allreduce at the
/// gradient's size and fusion bucket.
fn allreduce_gbs(inp: &mut Inputs) -> f64 {
    let n = inp.model.param_count();
    let bucket = FusionConfig::default().bucket_elems();
    let src: Vec<f32> = inp.x.as_slice().iter().cycle().take(n).copied().collect();
    let secs = inp.world2.execute(|rank| {
        let mut buf = src.clone();
        let mut samples = Vec::new();
        for i in 0..40 {
            buf.copy_from_slice(&src);
            rank.barrier();
            let t0 = Instant::now();
            ring_allreduce_bucketed(rank, &mut buf, ReduceOp::Sum, bucket);
            if i >= 5 {
                samples.push(t0.elapsed().as_secs_f64());
            }
        }
        summarize(&samples).median
    });
    (4 * n) as f64 / secs[0] / 1e9
}
