//! `serve-fleet`: two one-slice machines serving open-loop Poisson
//! traffic through their Ethernet bridges, swept over a rate ladder.
//!
//! The timed job calls `swallow_fleet::run` once per ladder rate (two
//! machines on two host threads), each call one timed sample, and checks
//! served requests, right replies and energy conservation. The traced
//! run drives the same machines with `Driver` on one thread, one span per
//! `Driver::step`, and must reproduce every machine's `Fingerprint` and
//! the modelled results exactly.

use std::hint::black_box;
use std::time::{Duration, Instant};

use swallow::sim::LatencySketch;
use swallow::{SwallowSystem, SystemBuilder};
use swallow_bench::experiments::fleet::check_conservation;
use swallow_fleet::{ArrivalKind, DriveOutcome, Driver, Fingerprint, FleetSpec, Request};
use swallow_workloads::serve::{self, ServeSpec};

use crate::machine::{monitor_ns_per_update, TRACE_REPEATS};
use crate::spans::Recorder;
use crate::stats::Pick;
use crate::{fits, host, job_cost, ratio, time_setups, Outcome, Sample, MIN_SETUPS};

/// Per-machine arrival rates of the ladder, requests per second.
const RATES: [f64; 4] = [100e3, 200e3, 400e3, 800e3];
/// Requests per machine per rate: with two machines, a p99 has at least
/// ten samples beyond it.
const REQUESTS: u32 = 500;
/// The latency limit `fleet.max_rps_p99_20us` is judged against.
const P99_LIMIT_PS: u64 = 20_000_000;

fn spec(seed: u64, rate_rps: f64) -> FleetSpec {
    FleetSpec {
        machines: 2,
        slices: (1, 1),
        workers: 4,
        requests: REQUESTS,
        work: 4,
        arrivals: ArrivalKind::Poisson,
        rate_rps,
        seed,
        threads: host::nproc().min(2),
        metrics: true,
        ..FleetSpec::default()
    }
}

/// Modelled-design results of one ladder: deterministic for a seed, so
/// any simulator-only change must leave them bit-identical.
#[derive(Clone, Debug, Default, PartialEq)]
struct Model {
    /// p99 latency from scheduled arrival, per rate, picoseconds.
    p99_ps: Vec<u64>,
    /// Whole-fleet µJ per served request, per rate.
    uj_per_request: Vec<f64>,
}

impl Model {
    fn at(&self, rate: f64) -> usize {
        RATES
            .iter()
            .position(|&r| r == rate)
            .expect("rate is on the ladder")
    }

    /// The highest ladder rate whose p99 meets the limit (0 if none does).
    fn max_rps(&self) -> f64 {
        RATES
            .iter()
            .zip(&self.p99_ps)
            .filter(|(_, &p99)| p99 <= P99_LIMIT_PS)
            .map(|(&r, _)| r)
            .fold(0.0, f64::max)
    }

    fn insert_into(&self, m: &mut crate::Metrics) {
        m.insert(
            "fleet.p99_us.r100k",
            self.p99_ps[self.at(100e3)] as f64 / 1e6,
        );
        m.insert(
            "fleet.p99_us.r400k",
            self.p99_ps[self.at(400e3)] as f64 / 1e6,
        );
        m.insert("fleet.max_rps_p99_20us", self.max_rps());
        m.insert(
            "fleet.uj_per_request.r400k",
            self.uj_per_request[self.at(400e3)],
        );
    }

    fn to_json(&self) -> String {
        let mut m = crate::Metrics::new();
        self.insert_into(&mut m);
        let fields: Vec<String> = m.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// One pass over the ladder.
#[derive(Default)]
struct Ladder {
    /// Timed samples: one per rate from `swallow_fleet::run`, one per
    /// step from `Driver`.
    calls: Vec<Sample>,
    served: u64,
    instret: u64,
    prints: Vec<Fingerprint>,
    model: Model,
    attempted: u64,
    failed: u64,
}

impl Ladder {
    fn same_run(&self, other: &Ladder) -> bool {
        self.prints == other.prints && self.model == other.model
    }
}

/// The timed job: `swallow_fleet::run` per rate, checked per rate.
fn fleet_ladder(seed: u64) -> Ladder {
    let mut ladder = Ladder::default();
    for rate in RATES {
        let spec = spec(seed, rate);
        let t = Instant::now();
        let result = swallow_fleet::run(&spec).expect("the fleet spec is valid");
        let mut call = Sample {
            host_s: t.elapsed().as_secs_f64(),
            ..Sample::default()
        };
        for outcome in &result.machines {
            call.sim_ps += outcome.fingerprint.now_ps;
            call.instret += outcome.fingerprint.instret;
            ladder.prints.push(outcome.fingerprint);
        }
        ladder.instret += call.instret;
        ladder.calls.push(call);
        // Every request served, every reply right, energy conserved.
        ladder.attempted += result.offered + 1;
        ladder.failed += result.offered - result.completed
            + result.wrong
            + u64::from(check_conservation(&result).is_err());
        ladder.served += result.completed;
        ladder
            .model
            .p99_ps
            .push(result.latency_ps(0.99).unwrap_or(0));
        ladder
            .model
            .uj_per_request
            .push(result.joules_per_request() * 1e6);
    }
    ladder
}

/// Generates the service and builds and loads every machine of `spec`
/// the way `swallow_fleet::run` does. `decode_cache: None` keeps the
/// simulator's default.
fn setup(spec: &FleetSpec, decode_cache: Option<bool>, rec: &mut Recorder) -> Vec<SwallowSystem> {
    rec.span("setup", |rec| {
        let service = ServeSpec {
            workers: spec.workers,
            max_requests: spec.provisioned(),
            work: spec.work,
        };
        let placement = rec.span("setup.gen", |_| {
            serve::generate(&service, spec.grid()).expect("the service fits a slice")
        });
        (0..spec.machines)
            .map(|m| {
                let mut system = rec.span("setup.build", |_| {
                    let mut builder = SystemBuilder::new()
                        .slices(spec.slices.0, spec.slices.1)
                        .engine(spec.engine)
                        .bridge();
                    if spec.metrics {
                        builder = builder.metrics();
                    }
                    if let Some(on) = decode_cache {
                        builder = builder.decode_cache(on);
                    }
                    builder.build().expect("a one-slice machine builds")
                });
                rec.span("setup.load", |_| {
                    placement.apply(&mut system).expect("the service fits");
                });
                system
                    .machine_mut()
                    .bridge_mut()
                    .expect("fleet machines carry a bridge")
                    .set_tag(m as u32);
                system
            })
            .collect()
    })
}

/// What the traced path counts besides spans.
#[derive(Default)]
struct Counts {
    inject_late_ps: u64,
    cycles: u64,
    tokens: u64,
    link_busy_ps: u64,
    link_capacity_ps: u64,
    noc_failed: u64,
    monitor_updates: u64,
    frames_in: u64,
    frames_out: u64,
    rejected: u64,
    peak_backlog: u64,
    idle_j: f64,
    total_j: f64,
}

/// `swallow_fleet::drive`, one span per step. With the recorder on, each
/// step is named by whether tokens were in flight when it started, and is
/// followed by a timed ledger read.
fn drive(
    system: &mut SwallowSystem,
    arrivals: &[Request],
    spec: &FleetSpec,
    rec: &mut Recorder,
    counts: &mut Counts,
    steps: &mut Vec<Sample>,
) -> DriveOutcome {
    let mut driver = Driver::new(arrivals, spec.work, spec.drain);
    let mut due = 0;
    while !driver.done(system) {
        let t0 = system.now();
        let machine = system.machine();
        let (i0, k0) = (
            machine.total_instret(),
            machine.fabric().delivered_data_tokens(),
        );
        let name = if rec.is_on() {
            // Arrivals due by now are injected by this step; how late.
            while due < arrivals.len() && arrivals[due].at <= t0 {
                let late = t0.saturating_since(arrivals[due].at).as_ps();
                counts.inject_late_ps = counts.inject_late_ps.max(late);
                due += 1;
            }
            if system.machine().fabric().is_idle() {
                "fleet.step.quiet"
            } else {
                "fleet.step.inflight"
            }
        } else {
            "fleet.step"
        };
        let start = Instant::now();
        rec.span(name, |rec| {
            driver.step(system);
            rec.set_sim_ps(system.now().saturating_since(t0).as_ps());
        });
        let host_s = start.elapsed().as_secs_f64();
        let machine = system.machine();
        steps.push(Sample {
            host_s,
            sim_ps: system.now().saturating_since(t0).as_ps(),
            instret: machine.total_instret() - i0,
            tokens: machine.fabric().delivered_data_tokens() - k0,
        });
        if rec.is_on() {
            rec.span("energy.ledger_read", |_| {
                black_box(system.machine().machine_ledger().total());
            });
        }
    }
    driver.finish(system)
}

/// The traced path: every machine of every rate driven with `Driver` on
/// this thread, checked like the fleet.
fn driver_ladder(
    seed: u64,
    decode_cache: Option<bool>,
    rec: &mut Recorder,
    counts: &mut Counts,
) -> Ladder {
    let mut ladder = Ladder::default();
    let mut off = Recorder::off();
    for rate in RATES {
        let spec = spec(seed, rate);
        let schedules = spec.schedules();
        let mut sketch = LatencySketch::new();
        let mut total_j = 0.0;
        let mut served = 0;
        for (m, mut system) in setup(&spec, decode_cache, &mut off).into_iter().enumerate() {
            let outcome = rec.span("fleet.machine", |rec| {
                drive(
                    &mut system,
                    &schedules[m],
                    &spec,
                    rec,
                    counts,
                    &mut ladder.calls,
                )
            });
            ladder.instret += outcome.fingerprint.instret;
            ladder.prints.push(outcome.fingerprint);
            let offered = schedules[m].len() as u64;
            ladder.attempted += offered;
            ladder.failed += offered - outcome.completions.len() as u64 + u64::from(outcome.wrong);
            for c in &outcome.completions {
                sketch.record(c.latency.as_ps());
            }
            served += outcome.completions.len() as u64;
            total_j += outcome.total_energy_j;
            counts.idle_j += outcome.idle_energy_j;
            counts.total_j += outcome.total_energy_j;
            let machine = system.machine();
            let fabric = machine.fabric();
            let now_ps = system.now().as_ps();
            counts.cycles += machine
                .nodes()
                .map(|n| machine.core(n).cycles())
                .sum::<u64>();
            counts.tokens += fabric.delivered_data_tokens();
            counts.link_busy_ps += fabric
                .link_stats()
                .map(|s| s.busy_time.as_ps())
                .sum::<u64>();
            counts.link_capacity_ps += fabric.link_count() as u64 * now_ps;
            counts.noc_failed += fabric.total_retransmits()
                + fabric.total_dropped_tokens()
                + fabric.unroutable_tokens();
            counts.monitor_updates += now_ps / machine.monitor().window().as_ps();
            let stats = machine
                .bridge()
                .expect("fleet machines carry a bridge")
                .stats();
            counts.frames_in += stats.frames_sent;
            counts.frames_out += stats.frames_received;
            counts.rejected += stats.frames_rejected;
            counts.peak_backlog = counts.peak_backlog.max(stats.peak_backlog);
        }
        ladder.served += served;
        ladder.model.p99_ps.push(sketch.quantile(0.99).unwrap_or(0));
        ladder.model.uj_per_request.push(
            if served == 0 {
                0.0
            } else {
                total_j / served as f64
            } * 1e6,
        );
    }
    ladder
}

/// Timed run: fleet ladders for `seconds`, then the end-to-end metrics.
pub fn timed(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut off = Recorder::off();
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    // One untimed set-up first, so the allocator is in the state every
    // later set-up sees.
    black_box(setup(&spec(seed, RATES[0]), None, &mut off));
    let (mut setups, mut jobs) = (Vec::new(), Vec::new());
    let mut first: Option<Ladder> = None;
    let mut last = None;
    while fits(start, budget, last) {
        let t = Instant::now();
        time_setups(&mut setups, || setup(&spec(seed, RATES[0]), None, &mut off));
        let mut ladder = fleet_ladder(seed);
        last = Some(t.elapsed());
        out.tally((ladder.attempted, ladder.failed));
        jobs.push(std::mem::take(&mut ladder.calls));
        // Every ladder of a seed takes the same trajectory.
        match &first {
            None => first = Some(ladder),
            Some(f) => out.tally((1, u64::from(!ladder.same_run(f)))),
        }
    }
    while setups.len() < MIN_SETUPS {
        time_setups(&mut setups, || setup(&spec(seed, RATES[0]), None, &mut off));
    }
    let first = first.expect("one ladder ran");
    out.fingerprint = first_print(&first);
    out.note("model", first.model.to_json());
    // One `swallow_fleet::run` lasts about half a second on two threads:
    // no repeat finds the host uncontended, so the fastest is noise.
    out.record_timed(&setups, &jobs, first.served, Pick::Median);
    out
}

fn first_print(ladder: &Ladder) -> String {
    let rows: Vec<String> = ladder
        .prints
        .iter()
        .map(|p| {
            format!(
                "{{\"now_ps\": {}, \"instret\": {}, \"energy_bits\": \"{:016x}\", \"frames_in\": {}, \"frames_out\": {}, \"rejected\": {}}}",
                p.now_ps, p.instret, p.energy_bits, p.frames_in, p.frames_out, p.rejected
            )
        })
        .collect();
    format!("[{}]", rows.join(", "))
}

/// Traced run: the fleet ladder (reference), the `Driver` ladder
/// untraced and traced, and a cache-off `Driver` ladder.
pub fn traced(seed: u64, alone_ns_per_instr: f64) -> (Outcome, Recorder) {
    let mut out = Outcome::default();
    let mut off = Recorder::off();
    let mut rec = Recorder::new();

    let reference = fleet_ladder(seed);
    out.tally((reference.attempted, reference.failed));
    for _ in 0..MIN_SETUPS {
        black_box(setup(&spec(seed, RATES[0]), None, &mut rec));
    }
    // Untraced and traced repeats alternate, so both see the same host.
    let (mut plain, mut traced, mut nocache) = (vec![], vec![], vec![]);
    let mut counts = Counts::default();
    let mut last = None;
    for _ in 0..TRACE_REPEATS {
        let ladder = driver_ladder(seed, None, &mut off, &mut Counts::default());
        out.tally((ladder.attempted, ladder.failed));
        out.tally((1, u64::from(!ladder.same_run(&reference))));
        plain.push(ladder.calls);
        counts = Counts::default();
        let ladder = rec.span("job", |rec| driver_ladder(seed, None, rec, &mut counts));
        out.tally((ladder.attempted, ladder.failed));
        out.tally((1, u64::from(!ladder.same_run(&reference))));
        traced.push(ladder.calls.clone());
        last = Some(ladder);
        let ladder = driver_ladder(seed, Some(false), &mut off, &mut Counts::default());
        out.tally((1, u64::from(ladder.prints != reference.prints)));
        nocache.push(ladder.calls);
    }
    let traced_ladder = last.expect("traced repeats ran");
    out.fingerprint = first_print(&traced_ladder);
    out.note("model", traced_ladder.model.to_json());
    let pick = Pick::Fastest;
    let (plain_s, traced_s) = (job_cost(&plain, pick), job_cost(&traced, pick));
    let nocache_s = job_cost(&nocache, pick);
    let traced = traced_ladder;

    let instret = traced.instret as f64;
    // Span totals cover every traced repeat; the counts cover the last.
    let repeats = TRACE_REPEATS as f64;
    let step_ns = (rec.total_ns("fleet.step.inflight") + rec.total_ns("fleet.step.quiet")) as f64;
    let steps = traced.calls.len() as f64;
    let per_sim_us = |name: &str| {
        ratio(
            rec.total_ns(name) as f64 / 1e3,
            rec.total_sim_ps(name) as f64 / 1e6,
        )
    };
    let one = setup(&spec(seed, RATES[0]), None, &mut off);
    let m = &mut out.metrics;
    m.insert("xcore.alone_ns_per_instr", alone_ns_per_instr);
    m.insert(
        "xcore.share",
        ratio(instret * alone_ns_per_instr, plain_s * 1e9),
    );
    m.insert("xcore.instret", instret);
    m.insert("xcore.ipc", ratio(instret, counts.cycles as f64));
    m.insert("isa.predecode_speedup", nocache_s / plain_s);
    m.insert(
        "board.host_us_per_sim_us.inflight",
        per_sim_us("fleet.step.inflight"),
    );
    m.insert(
        "board.host_us_per_sim_us.quiet",
        per_sim_us("fleet.step.quiet"),
    );
    m.insert("noc.tokens", counts.tokens as f64);
    m.insert(
        "noc.host_ns_per_token",
        ratio(
            rec.total_ns("fleet.step.inflight") as f64 / repeats,
            counts.tokens as f64,
        ),
    );
    m.insert(
        "noc.link_util",
        ratio(counts.link_busy_ps as f64, counts.link_capacity_ps as f64),
    );
    m.insert("noc.failed", counts.noc_failed as f64);
    m.insert("board.shard.windows", 0.0);
    m.insert("board.shard.rounds_per_window", 0.0);
    m.insert("board.shard.scaling_2v1", 0.0);
    m.insert("board.monitor.updates", counts.monitor_updates as f64);
    m.insert(
        "board.monitor.ns_per_update",
        monitor_ns_per_update(&one[0]),
    );
    m.insert("bridge.frames_in", counts.frames_in as f64);
    m.insert("bridge.frames_out", counts.frames_out as f64);
    m.insert("bridge.rejected", counts.rejected as f64);
    m.insert("bridge.peak_backlog", counts.peak_backlog as f64);
    m.insert(
        "fleet.steps_per_request",
        ratio(steps, traced.served as f64),
    );
    m.insert(
        "fleet.host_us_per_step",
        ratio(step_ns / repeats / 1e3, steps),
    );
    m.insert("fleet.inject_late_ns", counts.inject_late_ps as f64 / 1e3);
    traced.model.insert_into(m);
    m.insert("energy.idle_frac", ratio(counts.idle_j, counts.total_j));
    out.record_traced(&rec, plain_s, traced_s);
    (out, rec)
}
