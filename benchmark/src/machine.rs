//! The single-machine workloads: `compute-slice`, `ring-480` and
//! `sparse-480`.
//!
//! Each run repeats one fixed-work *job* (set up a machine, run it in
//! fixed chunks of simulated time) until the time budget is spent. Every
//! chunk is one timed sample; every job is one request.

use std::hint::black_box;
use std::time::{Duration, Instant};

use swallow::board::PowerMonitor;
use swallow::xcore::{Core, CoreConfig};
use swallow::{
    EngineMode, GridSpec, NodeId, Program, SwallowSystem, SystemBuilder, Time, TimeDelta,
};
use swallow_bench::experiments::heavy_mix_program;
use swallow_workloads::{collectives, Placement};

use crate::spans::Recorder;
use crate::stats::Pick;
use crate::{
    fits, host, job_cost, median, ratio, time_setups, Outcome, Sample, SplitMix, MIN_SETUPS,
};

/// Hardware threads every heavy-mix core runs.
const MIX_THREADS: usize = 4;
/// Busy-core stride of `sparse-480`.
const SPARSE_STRIDE: usize = 10;
/// `ring-480`: every core of the machine, this many exchange rounds.
const RING_NODES: usize = 480;
const RING_ROUNDS: u32 = 60;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    ComputeSlice,
    Ring480,
    Sparse480,
}

enum Job {
    /// Fixed simulated span, run as `run_for(chunk)` calls.
    Span(TimeDelta),
    /// `run_until_quiescent(chunk)` calls until quiescent, within a budget.
    Quiescent(TimeDelta),
}

struct Shape {
    slices: (u16, u16),
    chunk: TimeDelta,
    job: Job,
}

impl Kind {
    fn shape(self) -> Shape {
        match self {
            Kind::ComputeSlice => Shape {
                slices: (1, 1),
                chunk: TimeDelta::from_us(100),
                job: Job::Span(TimeDelta::from_ms(8)),
            },
            Kind::Ring480 => Shape {
                slices: (6, 5),
                chunk: TimeDelta::from_ns(250),
                job: Job::Quiescent(TimeDelta::from_ms(1)),
            },
            Kind::Sparse480 => Shape {
                slices: (6, 5),
                chunk: TimeDelta::from_us(50),
                job: Job::Span(TimeDelta::from_us(1500)),
            },
        }
    }

    /// The workload's own engine; `None` runs the simulator's default.
    fn engine(self) -> Option<EngineMode> {
        match self {
            Kind::Sparse480 => Some(parallel(sparse_threads())),
            _ => None,
        }
    }
}

fn parallel(threads: usize) -> EngineMode {
    EngineMode::Parallel { threads }
}

/// Host threads of the timed `sparse-480` job: every CPU but one, which
/// is left to the rest of the host. A shard whose thread is descheduled
/// stalls every peer waiting on its watermark, so at `nproc` threads the
/// job times the host's scheduler as much as the engine.
fn sparse_threads() -> usize {
    host::nproc().saturating_sub(1).max(1)
}

/// The thread count `sparse-480`'s result is checked against: one, or two
/// when the job itself runs on one.
fn sparse_check_threads() -> usize {
    if sparse_threads() == 1 {
        2
    } else {
        1
    }
}

/// Everything a job's programs are generated from.
#[derive(Clone, Copy)]
struct Inputs {
    kind: Kind,
    seed: u64,
}

impl Inputs {
    /// Cores that run the heavy mix (empty for the ring).
    fn mix_nodes(&self, cores: usize) -> Vec<NodeId> {
        match self.kind {
            Kind::ComputeSlice => (0..cores).map(|n| NodeId(n as u16)).collect(),
            // The seed picks which tenth of the machine is busy.
            Kind::Sparse480 => (self.seed as usize % SPARSE_STRIDE..cores)
                .step_by(SPARSE_STRIDE)
                .map(|n| NodeId(n as u16))
                .collect(),
            Kind::Ring480 => Vec::new(),
        }
    }
}

/// A generated job: the heavy mix or the ring's placement.
enum Programs {
    Mix(Program),
    Ring(Placement),
}

fn grid(shape: &Shape) -> GridSpec {
    GridSpec {
        slices_x: shape.slices.0,
        slices_y: shape.slices.1,
    }
}

/// Seeded data words of one heavy-mix core: the words each thread's loop
/// loads (`0x1000 + 64·thread`, first four words). Control flow never
/// depends on them, so the seed changes data, not work.
fn mix_data(seed: u64, node: NodeId) -> Vec<(u32, u32)> {
    let mut rng = SplitMix(seed ^ (u64::from(node.0) << 32));
    (0..MIX_THREADS as u32)
        .flat_map(|t| (0..4).map(move |w| 0x1000 + 64 * t + 4 * w))
        .map(|addr| (addr, rng.next_u64() as u32))
        .collect()
}

fn poke(core: &mut Core, data: &[(u32, u32)]) {
    for &(addr, value) in data {
        core.sram_mut()
            .write_u32(addr, value)
            .expect("data words lie inside SRAM");
    }
}

/// Generates, builds and loads one machine, one span per phase.
fn setup(
    inputs: Inputs,
    decode_cache: bool,
    engine: Option<EngineMode>,
    rec: &mut Recorder,
) -> (SwallowSystem, Programs) {
    let shape = inputs.kind.shape();
    rec.span("setup", |rec| {
        let programs = rec.span("setup.gen", |_| match inputs.kind {
            Kind::Ring480 => Programs::Ring(
                collectives::stencil_exchange(RING_NODES, RING_ROUNDS, grid(&shape))
                    .expect("the ring fits the machine"),
            ),
            _ => Programs::Mix(heavy_mix_program(MIX_THREADS)),
        });
        let mut system = rec.span("setup.build", |_| {
            let mut builder = SystemBuilder::new()
                .slices(shape.slices.0, shape.slices.1)
                .decode_cache(decode_cache);
            if let Some(engine) = engine {
                builder = builder.engine(engine);
            }
            builder.build().expect("a non-empty grid builds")
        });
        rec.span("setup.load", |_| match &programs {
            Programs::Ring(placement) => placement.apply(&mut system).expect("ring programs fit"),
            Programs::Mix(program) => {
                for node in inputs.mix_nodes(system.core_count()) {
                    system.load_program(node, program).expect("heavy mix fits");
                    poke(
                        system.machine_mut().core_mut(node),
                        &mix_data(inputs.seed, node),
                    );
                }
            }
        });
        (system, programs)
    })
}

/// One run-API call, timed. With the recorder on, the call is a span
/// named by whether tokens were in flight when it started, followed by a
/// timed ledger read.
fn call(
    system: &mut SwallowSystem,
    rec: &mut Recorder,
    f: impl FnOnce(&mut SwallowSystem) -> bool,
) -> (Sample, bool) {
    let name = match (rec.is_on(), system.machine().fabric().is_idle()) {
        (false, _) => "board.run",
        (true, true) => "board.run.quiet",
        (true, false) => "board.run.inflight",
    };
    let (t0, i0) = (system.now(), system.machine().total_instret());
    let k0 = system.machine().fabric().delivered_data_tokens();
    let start = Instant::now();
    let done = rec.span(name, |rec| {
        let done = f(system);
        rec.set_sim_ps(system.now().saturating_since(t0).as_ps());
        done
    });
    let host_s = start.elapsed().as_secs_f64();
    if rec.is_on() {
        rec.span("energy.ledger_read", |_| {
            black_box(system.machine().machine_ledger().total());
        });
    }
    let sample = Sample {
        host_s,
        sim_ps: system.now().saturating_since(t0).as_ps(),
        instret: system.machine().total_instret() - i0,
        tokens: system.machine().fabric().delivered_data_tokens() - k0,
    };
    (sample, done)
}

/// Runs the job; returns its chunk samples and whether it finished (the
/// ring must reach quiescence within its budget).
fn run_job(system: &mut SwallowSystem, kind: Kind, rec: &mut Recorder) -> (Vec<Sample>, bool) {
    let shape = kind.shape();
    let chunk = shape.chunk;
    let mut samples = Vec::new();
    match shape.job {
        Job::Span(total) => {
            for _ in 0..total.as_ps() / chunk.as_ps() {
                samples.push(
                    call(system, rec, |s| {
                        s.run_for(chunk);
                        false
                    })
                    .0,
                );
            }
            (samples, true)
        }
        Job::Quiescent(budget) => {
            let deadline = system.now() + budget;
            loop {
                let (sample, done) = call(system, rec, |s| s.run_until_quiescent(chunk));
                if sample.sim_ps > 0 {
                    samples.push(sample);
                }
                if done || system.now() >= deadline {
                    return (samples, done);
                }
            }
        }
    }
}

/// The end state two runs of the same job must share.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Print {
    now_ps: u64,
    instret: u64,
    energy_bits: u64,
    output_hash: u64,
}

impl Print {
    fn of(system: &SwallowSystem) -> Print {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for node in system.nodes() {
            for b in system.output(node).bytes().chain([0xff]) {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        Print {
            now_ps: system.now().as_ps(),
            instret: system.machine().total_instret(),
            energy_bits: system
                .machine()
                .machine_ledger()
                .total()
                .as_joules()
                .to_bits(),
            output_hash: hash,
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"now_ps\": {}, \"instret\": {}, \"energy_bits\": \"{:016x}\", \"output_hash\": \"{:016x}\"}}",
            self.now_ps, self.instret, self.energy_bits, self.output_hash
        )
    }
}

/// Checks a finished job; returns `(attempted, failed)` operations.
fn oracle(
    inputs: Inputs,
    system: &SwallowSystem,
    programs: &Programs,
    finished: bool,
) -> (u64, u64) {
    match programs {
        // Every node prints its left neighbour's word from RING_ROUNDS back.
        Programs::Ring(_) => {
            let n = RING_NODES;
            let failed = (0..n)
                .filter(|&i| {
                    let want = (i + n - RING_ROUNDS as usize % n) % n;
                    !finished || system.output(NodeId(i as u16)) != format!("{want}\n")
                })
                .count();
            (n as u64, failed as u64)
        }
        // No trap, and a standalone core with the same program and data
        // retires exactly the instructions every in-machine core did.
        Programs::Mix(program) => {
            let nodes = inputs.mix_nodes(system.core_count());
            let mut alone = Core::new(CoreConfig::swallow(nodes[0]));
            alone.load_program(program).expect("heavy mix fits");
            poke(&mut alone, &mix_data(inputs.seed, nodes[0]));
            alone.run_until(system.now());
            let machine = system.machine();
            let failed = nodes
                .iter()
                .filter(|&&n| {
                    let core = machine.core(n);
                    core.trap().is_some() || core.instret() != alone.instret()
                })
                .count();
            (nodes.len() as u64, failed as u64)
        }
    }
}

/// Timed run: repeat the job for `seconds`, then report the end-to-end
/// metrics.
pub fn timed(kind: Kind, seed: u64, seconds: f64) -> Outcome {
    let inputs = Inputs { kind, seed };
    let mut out = Outcome::default();
    let mut rec = Recorder::off();
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    // One untimed set-up first, so the allocator is in the state every
    // later set-up sees.
    black_box(setup(inputs, true, kind.engine(), &mut rec));
    let (mut setups, mut jobs) = (Vec::new(), Vec::new());
    let mut first: Option<Print> = None;
    let mut last = None;
    while fits(start, budget, last) {
        let t = Instant::now();
        time_setups(&mut setups, || setup(inputs, true, kind.engine(), &mut rec));
        let (mut system, programs) = setup(inputs, true, kind.engine(), &mut rec);
        let (chunks, finished) = run_job(&mut system, kind, &mut rec);
        jobs.push(chunks);
        out.tally(oracle(inputs, &system, &programs, finished));
        // Every repeat of the job ends in the same state.
        let print = Print::of(&system);
        let first = first.get_or_insert_with(|| print.clone());
        out.tally((1, u64::from(*first != print)));
        last = Some(t.elapsed());
    }
    while setups.len() < MIN_SETUPS {
        time_setups(&mut setups, || setup(inputs, true, kind.engine(), &mut rec));
    }
    let first = first.expect("at least one job ran");
    if kind == Kind::Sparse480 {
        // Same instructions and ledger bits at another thread count.
        let (mut system, _) = setup(
            inputs,
            true,
            Some(parallel(sparse_check_threads())),
            &mut rec,
        );
        run_job(&mut system, kind, &mut rec);
        out.tally((1, u64::from(Print::of(&system) != first)));
    }
    out.fingerprint = first.to_json();
    out.record_timed(&setups, &jobs, 1, Pick::Fastest);
    out
}

/// Host nanoseconds per instruction of one standalone core running the
/// heavy mix (no machine around it), median of five slices.
pub fn alone_ns_per_instr() -> f64 {
    let mut core = Core::new(CoreConfig::swallow(NodeId(0)));
    core.load_program(&heavy_mix_program(MIX_THREADS))
        .expect("heavy mix fits");
    let slice = TimeDelta::from_us(400);
    let mut per_instr = Vec::new();
    for k in 1..=5u64 {
        let i0 = core.instret();
        let t = Instant::now();
        core.run_until(Time::ZERO + slice.saturating_mul(k));
        per_instr.push(t.elapsed().as_nanos() as f64 / (core.instret() - i0) as f64);
    }
    median(&per_instr)
}

/// Host nanoseconds per `PowerMonitor::update` on a fresh monitor for
/// `system`'s grid, with idle cores and `system`'s fabric; median of five
/// batches.
pub fn monitor_ns_per_update(system: &SwallowSystem) -> f64 {
    let machine = system.machine();
    let window = machine.monitor().window();
    let mut monitor = PowerMonitor::new(machine.spec(), window);
    let mut cores: Vec<Core> = machine
        .nodes()
        .map(|n| Core::new(CoreConfig::swallow(n)))
        .collect();
    const BATCH: u64 = 40;
    let mut per_call = Vec::new();
    for b in 0..5u64 {
        let t = Instant::now();
        for k in 1..=BATCH {
            let at = Time::ZERO + window.saturating_mul(b * BATCH + k);
            monitor.update(at, &mut cores, machine.fabric());
        }
        per_call.push(t.elapsed().as_nanos() as f64 / BATCH as f64);
    }
    black_box(&monitor);
    median(&per_call)
}

/// Repeats of each job in a traced run.
pub const TRACE_REPEATS: usize = 3;

/// Traced run: the job untraced and traced, alternately (every repeat
/// must reach the same fingerprint), the cache-off rerun and for
/// `sparse-480` the one- and two-thread reruns, plus the per-layer side
/// measurements.
pub fn traced(kind: Kind, seed: u64) -> (Outcome, Recorder) {
    let inputs = Inputs { kind, seed };
    let mut out = Outcome::default();
    let mut off = Recorder::off();
    let mut rec = Recorder::new();

    let engine = kind.engine();
    let pick = Pick::Fastest;
    let mut first: Option<Print> = None;
    let mut same = |out: &mut Outcome, system: &SwallowSystem| {
        let print = Print::of(system);
        let first = first.get_or_insert_with(|| print.clone());
        out.tally((1, u64::from(*first != print)));
    };
    let mut rerun = |out: &mut Outcome, decode_cache: bool, engine: Option<EngineMode>| {
        let (mut system, _) = setup(inputs, decode_cache, engine, &mut off);
        let (samples, _) = run_job(&mut system, kind, &mut off);
        same(out, &system);
        samples
    };

    for _ in 0..MIN_SETUPS {
        black_box(setup(inputs, true, engine, &mut rec));
    }
    // Untraced and traced repeats alternate, so both see the same host.
    let (mut plain, mut traced, mut nocache) = (vec![], vec![], vec![]);
    let (mut serial, mut dual) = (vec![], vec![]);
    let mut last = None;
    for _ in 0..TRACE_REPEATS {
        plain.push(rerun(&mut out, true, engine));
        let (mut system, programs) = setup(inputs, true, engine, &mut Recorder::off());
        let (samples, finished) = rec.span("job", |rec| run_job(&mut system, kind, rec));
        traced.push(samples);
        out.tally(oracle(inputs, &system, &programs, finished));
        last = Some(system);
        nocache.push(rerun(&mut out, false, engine));
        if kind == Kind::Sparse480 {
            serial.push(rerun(&mut out, true, Some(parallel(1))));
            dual.push(rerun(&mut out, true, Some(parallel(2))));
        }
    }
    let system = last.expect("traced repeats ran");
    same(&mut out, &system);
    out.fingerprint = Print::of(&system).to_json();
    let plain_s = job_cost(&plain, pick);
    let traced_s = job_cost(&traced, pick);
    let nocache_s = job_cost(&nocache, pick);
    let scaling = if serial.is_empty() {
        0.0
    } else {
        job_cost(&serial, pick) / job_cost(&dual, pick)
    };

    let machine = system.machine();
    let fabric = machine.fabric();
    let sim_ps = system.now().as_ps();
    let instret = machine.total_instret();
    let cycles: u64 = machine.nodes().map(|n| machine.core(n).cycles()).sum();
    let tokens = fabric.delivered_data_tokens();
    let busy_ps: u64 = fabric.link_stats().map(|s| s.busy_time.as_ps()).sum();
    let (windows, rounds) = machine.negotiation_stats();
    let alone = alone_ns_per_instr();
    // Span totals cover every traced repeat; the machine counts one.
    let inflight_ns = rec.total_ns("board.run.inflight") as f64 / TRACE_REPEATS as f64;
    let per_sim_us = |name: &str| {
        ratio(
            rec.total_ns(name) as f64 / 1e3,
            rec.total_sim_ps(name) as f64 / 1e6,
        )
    };
    let m = &mut out.metrics;
    m.insert("xcore.alone_ns_per_instr", alone);
    m.insert("xcore.share", ratio(instret as f64 * alone, plain_s * 1e9));
    m.insert("xcore.instret", instret as f64);
    m.insert("xcore.ipc", ratio(instret as f64, cycles as f64));
    m.insert("isa.predecode_speedup", nocache_s / plain_s);
    m.insert(
        "board.host_us_per_sim_us.inflight",
        per_sim_us("board.run.inflight"),
    );
    m.insert(
        "board.host_us_per_sim_us.quiet",
        per_sim_us("board.run.quiet"),
    );
    m.insert("noc.tokens", tokens as f64);
    m.insert("noc.host_ns_per_token", ratio(inflight_ns, tokens as f64));
    m.insert(
        "noc.link_util",
        ratio(busy_ps as f64, fabric.link_count() as f64 * sim_ps as f64),
    );
    m.insert(
        "noc.failed",
        (fabric.total_retransmits() + fabric.total_dropped_tokens() + fabric.unroutable_tokens())
            as f64,
    );
    m.insert("board.shard.windows", windows as f64);
    m.insert(
        "board.shard.rounds_per_window",
        ratio(rounds as f64, windows as f64),
    );
    m.insert("board.shard.scaling_2v1", scaling);
    m.insert(
        "board.monitor.updates",
        (sim_ps / machine.monitor().window().as_ps()) as f64,
    );
    m.insert(
        "board.monitor.ns_per_update",
        monitor_ns_per_update(&system),
    );
    for name in [
        "bridge.frames_in",
        "bridge.frames_out",
        "bridge.rejected",
        "bridge.peak_backlog",
        "fleet.steps_per_request",
        "fleet.host_us_per_step",
        "fleet.inject_late_ns",
        "fleet.p99_us.r100k",
        "fleet.p99_us.r400k",
        "fleet.max_rps_p99_20us",
        "fleet.uj_per_request.r400k",
        "energy.idle_frac",
    ] {
        m.insert(name, 0.0);
    }
    out.record_traced(&rec, plain_s, traced_s);
    (out, rec)
}
