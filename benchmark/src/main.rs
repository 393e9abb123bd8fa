//! The repository benchmark.
//!
//! ```text
//! summit-ledger --workload <train|sim|serve> --seed <n> --seconds <s> --trace <0|1> [--size full|small]
//! ```
//!
//! Every run executes all three planes — data-parallel training, the
//! full-machine collective simulator and the executed serving plane — so
//! every metric is measured on every workload; the workload names the
//! plane that gets three times the share of the run the other two get (see
//! [`schedule`]). With `--trace 0` the last line of standard
//! output is a JSON object holding every bounded end-to-end metric; with
//! `--trace 1` it holds every per-layer metric, the unbounded end-to-end
//! ones included, and the spans behind them are written as a Chrome trace
//! file. Any failed correctness check makes
//! the exit code nonzero. See `README.md` beside this file.

mod host;
mod serve;
mod sim;
mod stats;
mod trace;
mod train;

use std::fmt::Display;
use std::process::ExitCode;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    Train,
    Sim,
    Serve,
}

/// Problem sizes. `Small` exists for the self-test only.
#[derive(Clone, Copy)]
struct Size {
    /// Global batches per `run_in` call (steps per sample).
    train_steps: usize,
    /// Ring world size; the sweep runs at these world sizes.
    sim_p: usize,
    sweep_sizes: &'static [usize],
    /// Requests per serve load point.
    serve_requests: usize,
    /// Set-up repetitions behind the `setup_s` median.
    setup_reps: usize,
}

const FULL: Size = Size {
    train_steps: 16,
    sim_p: 27_648,
    sweep_sizes: &[27_648, 20_736, 13_824, 6_912],
    serve_requests: 1_000,
    setup_reps: 9,
};

const SMALL: Size = Size {
    train_steps: 2,
    sim_p: 1_536,
    sweep_sizes: &[1_536, 768],
    serve_requests: 300,
    setup_reps: 2,
};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut size = FULL;
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "train" => Workload::Train,
                    "sim" => Workload::Sim,
                    "serve" => Workload::Serve,
                    _ => return Err(format!("unknown workload {value}")),
                })
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds must be non-negative, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            "--size" => {
                size = match value.as_str() {
                    "full" => FULL,
                    "small" => SMALL,
                    _ => return Err(format!("--size takes full or small, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        size,
    })
}

/// Metrics and correctness counts of one run.
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    correct: bool,
}

impl Report {
    fn new() -> Self {
        Report {
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            correct: true,
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        if !value.is_finite() {
            self.correct = false;
            eprintln!("FAILED: metric {name} is not finite ({value})");
        }
        self.metrics.push((name, value, unit));
    }

    /// Record a correctness check covering `ops` attempted operations, all
    /// of which count as failed when `ok` is false.
    pub fn check(&mut self, ops: u64, ok: bool, what: impl Display) {
        self.attempted += ops;
        if !ok {
            self.failed += ops;
            self.correct = false;
            eprintln!("FAILED: {what}");
        }
    }

    /// Count `n` already-attempted operations as failed without a broken
    /// output (refused or shed requests).
    pub fn failed_ops(&mut self, n: u64, what: &str) {
        if n > 0 {
            self.failed += n;
            eprintln!("FAILED: {n} {what}");
        }
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() {
                    format!("{value:?}")
                } else {
                    "null".to_string()
                };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct && self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

struct Inputs {
    train: train::Inputs,
    sim: sim::Inputs,
    serve: serve::Inputs,
}

/// Build every plane's inputs `reps` times and keep the last; returns the
/// set-up seconds and the `FlowNet::new` seconds of each repetition.
fn setup(args: &Args) -> (Inputs, Vec<f64>, Vec<f64>) {
    let (mut setup_s, mut flownet_s) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..args.size.setup_reps {
        let t0 = Instant::now();
        let train = train::Inputs::build(args.seed, args.size.train_steps);
        let (sim, flownet) = sim::Inputs::build(args.seed, args.size.sim_p, args.size.sweep_sizes);
        let serve = serve::Inputs::build(args.seed);
        setup_s.push(t0.elapsed().as_secs_f64());
        flownet_s.push(flownet);
        last = Some(Inputs { train, sim, serve });
    }
    (
        last.expect("at least one set-up repetition"),
        setup_s,
        flownet_s,
    )
}

/// The planes' legs, untraced or traced, driven one unit at a time.
trait Legs {
    fn run(&mut self, unit: Unit, inputs: &mut Inputs, report: &mut Report);
}

struct Plain {
    train: train::Leg,
    sim: sim::Leg,
    serve: serve::Leg,
}

impl Legs for Plain {
    fn run(&mut self, unit: Unit, inputs: &mut Inputs, report: &mut Report) {
        match unit {
            Unit::Train => self.train.unit(&mut inputs.train, report),
            Unit::Sweep => self.sim.sweep(&inputs.sim, report),
            Unit::Ring => self.sim.ring(&inputs.sim, report),
            Unit::Serve => self.serve.unit(&inputs.serve, report),
        }
    }
}

struct Traced {
    train: train::Traced,
    sim: sim::Traced,
    serve: serve::Traced,
}

impl Legs for Traced {
    fn run(&mut self, unit: Unit, inputs: &mut Inputs, report: &mut Report) {
        match unit {
            Unit::Train => self.train.unit(&mut inputs.train, report),
            Unit::Sweep => self.sim.sweep(&inputs.sim, report),
            Unit::Ring => self.sim.ring(&inputs.sim, report),
            Unit::Serve => self.serve.unit(&inputs.serve, report),
        }
    }
}

/// The interleaved units: a train unit is one p = 1 and one p = 2
/// `run_in` call, a sweep unit one pass over the sweep, a ring unit one
/// full-machine ring, a serve unit one load point.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Unit {
    Train,
    Sweep,
    Ring,
    Serve,
}

/// Share of the run each unit's plane gets, before the named plane's
/// weight is multiplied by [`FOCUS`]. The ring and sweep split the sim
/// plane; the ring's part is large enough that a run of 35 s fits two
/// full-machine rings, so no workload reports the ring from one sample.
const WEIGHTS: [(Unit, Workload, f64); 4] = [
    (Unit::Train, Workload::Train, 1.0),
    (Unit::Sweep, Workload::Sim, 0.3),
    (Unit::Ring, Workload::Sim, 0.9),
    (Unit::Serve, Workload::Serve, 1.0),
];
const FOCUS: f64 = 3.0;

/// Interleave the units until `--seconds` have passed and each ran twice:
/// the next unit is always the one furthest below its share of the time
/// so far, so every plane's samples spread over the whole run and a burst
/// of host noise lands on all of them alike.
fn schedule(
    legs: &mut impl Legs,
    inputs: &mut Inputs,
    report: &mut Report,
    args: &Args,
    start: Instant,
) {
    let mut used = [0.0f64; 4];
    let mut runs = [0usize; 4];
    let weight = |i: usize| {
        let (_, plane, w) = WEIGHTS[i];
        if plane == args.workload {
            w * FOCUS
        } else {
            w
        }
    };
    while start.elapsed().as_secs_f64() < args.seconds || runs.iter().any(|&n| n < 2) {
        let i = (0..WEIGHTS.len())
            .min_by(|&a, &b| (used[a] / weight(a)).total_cmp(&(used[b] / weight(b))))
            .expect("four units");
        let t0 = Instant::now();
        legs.run(WEIGHTS[i].0, inputs, report);
        used[i] += t0.elapsed().as_secs_f64();
        runs[i] += 1;
    }
    let summary: Vec<String> = (0..WEIGHTS.len())
        .map(|i| format!("{:?} {} × ({:.1} s)", WEIGHTS[i].0, runs[i], used[i]))
        .collect();
    println!("units run: {}", summary.join(", "));
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: summit-ledger --workload <train|sim|serve> --seed <n> --seconds <s> --trace <0|1> [--size full|small]");
            return ExitCode::from(2);
        }
    };
    let fingerprint = host::Fingerprint::detect();
    println!(
        "workload {:?}, seed {}, {} s, trace {}",
        args.workload, args.seed, args.seconds, args.trace
    );

    let mut report = Report::new();
    let (mut inputs, setup_s, flownet_s) = setup(&args);
    let setup = stats::summarize(&setup_s);
    println!("setup_s: {setup}");

    let start = Instant::now();
    let tracks = if args.trace {
        let mut legs = Traced {
            train: train::Traced::start(&mut inputs.train, start),
            sim: sim::Traced::start(start),
            serve: serve::Traced::start(args.size.serve_requests, start),
        };
        schedule(&mut legs, &mut inputs, &mut report, &args, start);
        vec![
            (
                "train rank 0",
                legs.train.finish(&mut inputs.train, &mut report),
            ),
            ("sim", legs.sim.finish(&mut report)),
            ("serve", legs.serve.finish(&inputs.serve, &mut report)),
        ]
    } else {
        let mut legs = Plain {
            train: train::Leg::start(&mut inputs.train),
            sim: sim::Leg::default(),
            serve: serve::Leg::start(args.size.serve_requests),
        };
        schedule(&mut legs, &mut inputs, &mut report, &args, start);
        legs.train.finish(&inputs.train);
        legs.sim.finish(&inputs.sim);
        legs.serve.finish(&mut report);
        Vec::new()
    };
    println!("measured for {:.2} s", start.elapsed().as_secs_f64());

    if args.trace {
        report.metric(
            "machine.flownet_new_s",
            stats::summarize(&flownet_s).median,
            "s",
        );
        let header = format!(
            "{{\"workload\": \"{:?}\", \"seed\": {}, \"host\": {}}}",
            args.workload,
            args.seed,
            fingerprint.to_json()
        );
        let refs: Vec<(&str, &trace::Recorder)> = tracks.iter().map(|(n, r)| (*n, r)).collect();
        let json = trace::chrome_trace_json(&refs, &header);
        let written = host::output_dir().and_then(|dir| {
            let path = dir
                .join(format!("{:?}-seed{}.trace.json", args.workload, args.seed).to_lowercase());
            std::fs::write(&path, json).map(|()| path)
        });
        match written {
            Ok(path) => println!("trace: {}", path.display()),
            Err(e) => report.check(1, false, format!("writing the trace file: {e}")),
        }
    } else {
        report.metric("setup_s", setup.median, "s");
        report.metric("peak_rss_mb", host::peak_rss_mb(), "MB");
    }

    let ok = report.correct && report.failed == 0;
    println!("host: {}", fingerprint.to_json());
    println!("{}", report.to_json());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
