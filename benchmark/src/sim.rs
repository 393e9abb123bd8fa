//! The `sim` legs: the full-machine ring allreduce and a sweep of log-p
//! and rooted collectives over several world sizes, on the routed fat tree
//! (and, traced, on uniform links to split engine from fabric).

use std::time::Instant;

use summit_comm::{sim, Collective};
use summit_machine::{ClusterModel, FlowNet};

use crate::stats::summarize;
use crate::trace::Recorder;
use crate::Report;

/// One simulated collective with its closed-form event count.
pub struct Case {
    pub name: &'static str,
    pub collective: Collective,
    pub p: usize,
    pub elems: usize,
    pub expected: u64,
}

pub struct Inputs {
    pub cluster: ClusterModel,
    pub ring: Case,
    pub sweep: Vec<Case>,
}

/// SplitMix64 step: the seeded choices of the sweep.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn ceil_log2(p: u64) -> u64 {
    u64::from(p.next_power_of_two().trailing_zeros())
}

/// The sweep at world size `p`. The seed picks each payload where the
/// event count does not depend on it; Rabenseifner's payload must divide
/// by the power-of-two core and the alltoall block stays under the Bruck
/// threshold, so those two are fixed.
fn sweep_at(p: usize, rng: &mut u64) -> Vec<Case> {
    let pu = p as u64;
    let core = 1u64 << (63 - pu.leading_zeros());
    let (lg, rem) = (u64::from(core.trailing_zeros()), pu - core);
    let mut elems = || 4096 + (mix(rng) % 28_672) as usize;
    vec![
        Case {
            name: "recursive_doubling",
            collective: Collective::RecursiveDoubling,
            p,
            elems: elems(),
            expected: core * lg + 2 * rem,
        },
        Case {
            name: "rabenseifner",
            collective: Collective::Rabenseifner,
            p,
            elems: 16_384,
            expected: 2 * core * lg + 2 * rem,
        },
        Case {
            name: "bruck_alltoall",
            collective: Collective::Alltoall,
            p,
            elems: 1,
            expected: pu * ceil_log2(pu),
        },
        Case {
            name: "binomial_broadcast",
            collective: Collective::BinomialBroadcast { root: 0 },
            p,
            elems: elems(),
            expected: pu - 1,
        },
        Case {
            name: "binomial_reduce",
            collective: Collective::BinomialReduce { root: 0 },
            p,
            elems: elems(),
            expected: pu - 1,
        },
        Case {
            name: "tree_allreduce",
            collective: Collective::TreeAllreduce,
            p,
            elems: elems(),
            expected: 2 * (pu - 1),
        },
        Case {
            name: "scatter",
            collective: Collective::Scatter { root: 0 },
            p,
            elems: elems(),
            expected: pu - 1,
        },
        Case {
            name: "gather",
            collective: Collective::Gather { root: 0 },
            p,
            elems: elems(),
            expected: pu - 1,
        },
    ]
}

impl Inputs {
    /// The ring at `p` ranks and the sweep over `sizes`, in a seeded
    /// order. Also builds the routed fabric state once, the way every
    /// routed simulation does, so its cost lands in set-up.
    pub fn build(seed: u64, p: usize, sizes: &[usize]) -> (Self, f64) {
        let cluster = ClusterModel::summit();
        let t0 = Instant::now();
        std::hint::black_box(FlowNet::new(cluster, p));
        let flownet_s = t0.elapsed().as_secs_f64();
        let mut rng = seed;
        let mut sweep: Vec<Case> = sizes.iter().flat_map(|&s| sweep_at(s, &mut rng)).collect();
        for i in (1..sweep.len()).rev() {
            sweep.swap(i, (mix(&mut rng) % (i as u64 + 1)) as usize);
        }
        let ring = Case {
            name: "ring_allreduce",
            collective: Collective::RingAllreduce {
                bucket_elems: usize::MAX,
            },
            p,
            elems: 1024,
            expected: 2 * (p as u64 - 1) * 1024.min(p as u64),
        };
        (
            Inputs {
                cluster,
                ring,
                sweep,
            },
            flownet_s,
        )
    }
}

/// Routed simulation of one case; checks its event count.
fn routed(case: &Case, cluster: ClusterModel, report: &mut Report) -> sim::FabricReport {
    let out = sim::simulate_on(case.collective, case.p, case.elems, cluster);
    report.check(
        1,
        out.events == case.expected,
        format!(
            "{} at p = {}: {} events, closed form {}",
            case.name, case.p, out.events, case.expected
        ),
    );
    out
}

/// The end-to-end leg: wall seconds of routed ring and sweep passes.
#[derive(Default)]
pub struct Leg {
    ring: Vec<f64>,
    sweep: Vec<f64>,
}

impl Leg {
    pub fn ring(&mut self, inp: &Inputs, report: &mut Report) {
        let t0 = Instant::now();
        routed(&inp.ring, inp.cluster, report);
        self.ring.push(t0.elapsed().as_secs_f64());
    }

    pub fn sweep(&mut self, inp: &Inputs, report: &mut Report) {
        let t0 = Instant::now();
        for case in &inp.sweep {
            routed(case, inp.cluster, report);
        }
        self.sweep.push(t0.elapsed().as_secs_f64());
    }

    /// Print the wall times. They are not result metrics of the untraced
    /// run: their spread on a shared host exceeds any allowed bound, so
    /// the traced run reports them unbounded (see `README.md`).
    pub fn finish(self, inp: &Inputs) {
        let (r, s) = (summarize(&self.ring), summarize(&self.sweep));
        println!(
            "sim_ring_wall_s: {r} ({} at p = {}, {} events)",
            inp.ring.name, inp.ring.p, inp.ring.expected
        );
        println!(
            "sim_sweep_wall_s: {s} ({} collectives per pass)",
            inp.sweep.len()
        );
    }
}

/// Totals of one traced leg over all its passes.
#[derive(Default)]
struct Totals {
    passes: u64,
    events: u64,
    routed_s: f64,
    uniform_s: f64,
    /// Routed wall seconds of each pass.
    routed_per_pass: Vec<f64>,
}

impl Totals {
    fn per_pass(&self, seconds: f64) -> f64 {
        seconds / self.passes as f64
    }
}

/// The traced leg: each case routed, then on uniform links, each under its
/// own span. Schedule advance plus matching is the uniform-link wall;
/// fabric routing is routed minus uniform.
pub struct Traced {
    rec: Recorder,
    ring: Totals,
    sweep: Totals,
    /// Spine, intra-leaf and NVLink messages of one ring plus one sweep.
    fabric: [u64; 3],
}

impl Traced {
    pub fn start(epoch: Instant) -> Self {
        Traced {
            rec: Recorder::new(epoch),
            ring: Totals::default(),
            sweep: Totals::default(),
            fabric: [0; 3],
        }
    }

    fn pass(&mut self, cases: &[&Case], inp: &Inputs, report: &mut Report, ring: bool) {
        let (name, totals) = if ring {
            ("sim.ring", &mut self.ring)
        } else {
            ("sim.sweep", &mut self.sweep)
        };
        let rec = &mut self.rec;
        let id = totals.passes;
        let leg = rec.open(name, id, None);
        let mut fabric = [0u64; 3];
        let mut routed_pass = 0.0;
        for case in cases {
            let r = rec.open("sim.routed", id, Some(leg));
            let f = routed(case, inp.cluster, report);
            rec.close(r);
            let u = rec.open("sim.uniform", id, Some(leg));
            let uni = sim::simulate(
                case.collective,
                case.p,
                case.elems,
                inp.cluster.tree.injection,
            );
            rec.close(u);
            report.check(
                1,
                uni.total_messages() == f.events,
                format!(
                    "{} at p = {}: uniform {} events, routed {}",
                    case.name,
                    case.p,
                    uni.total_messages(),
                    f.events
                ),
            );
            totals.events += f.events;
            routed_pass += rec.spans[r].dur_ns() as f64 / 1e9;
            totals.uniform_s += rec.spans[u].dur_ns() as f64 / 1e9;
            fabric[0] += f.spine_messages;
            fabric[1] += f.intra_leaf_messages;
            fabric[2] += f.nvlink_messages;
        }
        rec.close(leg);
        totals.routed_s += routed_pass;
        totals.routed_per_pass.push(routed_pass);
        if totals.passes == 0 {
            for (acc, n) in self.fabric.iter_mut().zip(fabric) {
                *acc += n;
            }
        }
        totals.passes += 1;
    }

    pub fn ring(&mut self, inp: &Inputs, report: &mut Report) {
        self.pass(&[&inp.ring], inp, report, true);
    }

    pub fn sweep(&mut self, inp: &Inputs, report: &mut Report) {
        let cases: Vec<&Case> = inp.sweep.iter().collect();
        self.pass(&cases, inp, report, false);
    }

    pub fn finish(self, report: &mut Report) -> Recorder {
        let (ring, sweep) = (&self.ring, &self.sweep);
        let ring_fabric = ring.per_pass(ring.routed_s - ring.uniform_s);
        let sweep_fabric = sweep.per_pass(sweep.routed_s - sweep.uniform_s);
        let (ring_routed, sweep_routed) =
            (ring.per_pass(ring.routed_s), sweep.per_pass(sweep.routed_s));
        let engine = ring.per_pass(ring.uniform_s) + sweep.per_pass(sweep.uniform_s);
        println!(
            "sim ledger per pass: ring routed {ring_routed:.3} s = engine {:.3} s + fabric {ring_fabric:.3} s; sweep routed {sweep_routed:.3} s = engine {:.3} s + fabric {sweep_fabric:.3} s",
            ring.per_pass(ring.uniform_s),
            sweep.per_pass(sweep.uniform_s),
        );
        report.metric(
            "sim_ring_wall_s",
            summarize(&ring.routed_per_pass).median,
            "s",
        );
        report.metric(
            "sim_sweep_wall_s",
            summarize(&sweep.routed_per_pass).median,
            "s",
        );
        report.metric(
            "sim.ring_events_per_s",
            ring.events as f64 / ring.routed_s,
            "events/s",
        );
        report.metric(
            "sim.sweep_events_per_s",
            sweep.events as f64 / sweep.routed_s,
            "events/s",
        );
        report.metric("sim.engine_s", engine, "s");
        report.metric("machine.fabric_s", ring_fabric + sweep_fabric, "s");
        report.metric(
            "machine.fabric_share",
            (ring_fabric + sweep_fabric) / (ring_routed + sweep_routed),
            "ratio",
        );
        report.metric(
            "machine.ring_fabric_share",
            ring_fabric / ring_routed,
            "ratio",
        );
        report.metric(
            "machine.sweep_fabric_share",
            sweep_fabric / sweep_routed,
            "ratio",
        );
        report.metric("machine.spine_messages", self.fabric[0] as f64, "count");
        report.metric(
            "machine.intra_leaf_messages",
            self.fabric[1] as f64,
            "count",
        );
        report.metric("machine.nvlink_messages", self.fabric[2] as f64, "count");
        self.rec
    }
}
