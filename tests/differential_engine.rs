//! Differential tests: the parallel engine must be observationally
//! identical to the cycle-by-cycle lock-step reference.
//!
//! Both engines process exactly the same grid-aligned instants at which
//! anything can happen (occupied issue slots, wake-ups, fabric hops and
//! link launches, bridge pacing, monitor updates); the parallel engine
//! merely skips the instants in between, on which nothing can move, and
//! batches independent spans into windows on host threads. These tests pin that equivalence down for
//! representative workloads: identical retired instruction counts,
//! identical final simulated time, identical program outputs, and
//! machine energy ledgers equal to within floating-point association
//! error. Core energy is integer counts (edges, per-class issue cycles)
//! priced when read, so a skipped edge and a ticked edge are the same
//! count and every *core* ledger is bit-identical across engines; the
//! tolerance covers the machine-level sums (link energy, the power
//! monitor's conversion-loss integration), which group their terms
//! differently. The parallel engine is additionally required to be
//! *bit-identical* across repeated runs at every tested thread count.
//! Serving through the Ethernet bridge is compared on the fleet driver's
//! completion log too: every reply's tag, payload and arrival instant.
//!
//! Set `SWALLOW_ENGINE` (`lockstep` | `parallel`, with `SWALLOW_THREADS`
//! for the latter) to pin the suite to one engine — the CI matrix uses
//! this to get a dedicated parallel leg.

mod common;

use swallow_repro::swallow::energy::NodeCategory;
use swallow_repro::swallow::sim::DetRng;
use swallow_repro::swallow::{
    Assembler, EngineMode, FaultPlan, NodeId, RouterKind, SwallowSystem, SystemBuilder, Time,
    TimeDelta, TraceLog,
};
use swallow_repro::swallow_fleet::{drive, generate_arrivals, ArrivalKind};
use swallow_repro::swallow_workloads::serve::{self, ServeSpec};
use swallow_repro::swallow_workloads::{client_server, farm, pipeline};
use swallow_testkit::proptest::prelude::*;

/// Relative energy tolerance between the engines (f64 association only).
const ENERGY_RTOL: f64 = 1e-9;

/// Thread counts every scenario is exercised at under the parallel
/// engine: degenerate (1), even splits (2, 4) and an uneven split (7)
/// that leaves shards of different sizes on a 16-core slice.
const PARALLEL_THREADS: [usize; 4] = [1, 2, 4, 7];

/// Everything observable about a finished run. `PartialEq` compares
/// energy bit-for-bit — used for the repeated-run determinism check,
/// not for cross-engine comparison (which allows `ENERGY_RTOL`).
#[derive(Debug, Clone, PartialEq)]
struct Fingerprint {
    quiescent: bool,
    now_ps: u64,
    instret: u64,
    outputs: Vec<String>,
    energy: Vec<(NodeCategory, f64)>,
}

fn fingerprint(system: &SwallowSystem, quiescent: bool) -> Fingerprint {
    Fingerprint {
        quiescent,
        now_ps: system.now().as_ps(),
        instret: system.perf_report().instret,
        outputs: system
            .nodes()
            .map(|n| system.output(n).to_owned())
            .collect(),
        energy: system
            .power_report()
            .ledger
            .iter()
            .map(|(cat, e)| (cat, e.as_joules()))
            .collect(),
    }
}

fn assert_equivalent(engine: EngineMode, got: &Fingerprint, ls: &Fingerprint) {
    assert_eq!(
        got.quiescent, ls.quiescent,
        "{engine:?}: quiescence verdicts differ"
    );
    assert_eq!(
        got.now_ps, ls.now_ps,
        "{engine:?}: final simulated time differs"
    );
    assert_eq!(
        got.instret, ls.instret,
        "{engine:?}: retired instruction counts differ"
    );
    assert_eq!(
        got.outputs, ls.outputs,
        "{engine:?}: program outputs differ"
    );
    for (&(cat, a), &(_, b)) in got.energy.iter().zip(&ls.energy) {
        let scale = a.abs().max(b.abs()).max(f64::MIN_POSITIVE);
        assert!(
            (a - b).abs() <= ENERGY_RTOL * scale,
            "{engine:?}: {cat} energy diverged: {a} J vs lock-step {b} J"
        );
    }
}

/// Runs the same setup under lock-step and every engine under test,
/// checking each fingerprint against the reference. Parallel engines run
/// twice and must be bit-identical across runs. Returns the first
/// engine's fingerprint and the lock-step one.
fn run_differential_with(
    budget: TimeDelta,
    builder: impl Fn() -> SystemBuilder,
    mut setup: impl FnMut(&mut SwallowSystem),
) -> (Fingerprint, Fingerprint) {
    let mut run = |engine: EngineMode| {
        let mut system = builder().engine(engine).build().expect("builds");
        setup(&mut system);
        let quiescent = system.run_until_quiescent(budget);
        fingerprint(&system, quiescent)
    };
    let ls = run(EngineMode::LockStep);
    let mut first = None;
    for engine in common::engines_under_test(&PARALLEL_THREADS) {
        let fp = if engine == EngineMode::LockStep {
            ls.clone()
        } else {
            run(engine)
        };
        assert_equivalent(engine, &fp, &ls);
        if matches!(engine, EngineMode::Parallel { .. }) {
            let again = run(engine);
            assert_eq!(fp, again, "{engine:?}: repeated runs must be bit-identical");
        }
        first.get_or_insert(fp);
    }
    (first.expect("at least one engine under test"), ls)
}

/// Loads the six-stage pipeline every pipeline scenario runs.
fn load_pipeline(system: &mut SwallowSystem, spec: &pipeline::PipelineSpec) {
    pipeline::generate(spec, system.machine().spec())
        .expect("generates")
        .apply(system)
        .expect("loads");
}

/// The long-timer scenario: three cores sleep for tens of thousands of
/// timer ticks, then print whether they woke early (`0` = on time).
const LONG_TIMERS: [(u16, u32); 3] = [(0, 50_000), (7, 63_456), (15, 65_001)];

fn load_long_timers(system: &mut SwallowSystem) {
    for (node, ticks) in LONG_TIMERS {
        let program = Assembler::new()
            .assemble(&format!(
                "
                    getr  r0, timer
                    in    r1, r0
                    add   r2, r1, {ticks}
                    tmwait r0, r2
                    in    r3, r0
                    lsu   r4, r3, r2      # woke early? must be 0
                    print r4
                    freet
                "
            ))
            .expect("assembles");
        system.load_program(NodeId(node), &program).expect("fits");
    }
}

/// [`run_differential_with`] on the default one-slice builder.
fn run_differential(
    budget: TimeDelta,
    setup: impl FnMut(&mut SwallowSystem),
) -> (Fingerprint, Fingerprint) {
    run_differential_with(budget, SystemBuilder::new, setup)
}

#[test]
fn pipeline_runs_identically_under_both_engines() {
    let spec = pipeline::PipelineSpec {
        stages: 6,
        items: 24,
        work_per_item: 3,
    };
    let (ff, _) = run_differential(TimeDelta::from_ms(20), |system| {
        load_pipeline(system, &spec);
    });
    assert!(ff.quiescent, "pipeline must drain");
    assert_eq!(
        ff.outputs[5].trim(),
        pipeline::checksum(&spec).to_string(),
        "and still compute the right checksum"
    );
}

#[test]
fn farm_runs_identically_under_both_engines() {
    let spec = farm::FarmSpec {
        workers: 5,
        tasks: 20,
        work_per_task: 4,
    };
    let (ff, _) = run_differential(TimeDelta::from_ms(20), |system| {
        farm::generate(&spec, system.machine().spec())
            .expect("generates")
            .apply(system)
            .expect("loads");
    });
    assert!(ff.quiescent, "farm must drain");
    assert_eq!(ff.outputs[0].trim(), farm::expected_sum(&spec).to_string());
}

#[test]
fn ping_pong_runs_identically_under_both_engines() {
    // Request/reply round trips: latency-bound, so almost all simulated
    // time is idle — the regime where the parallel engine's fast-forward
    // quiet path does the most work.
    let spec = client_server::ServiceSpec {
        clients: 2,
        requests_per_client: 8,
    };
    let (ff, _) = run_differential(TimeDelta::from_ms(50), |system| {
        client_server::generate(&spec, system.machine().spec())
            .expect("generates")
            .apply(system)
            .expect("loads");
    });
    assert!(ff.quiescent, "ping-pong must drain");
    for i in 0..2 {
        assert_eq!(
            ff.outputs[i + 1].trim(),
            client_server::expected_client_sum(&spec, i).to_string()
        );
    }
}

#[test]
fn long_timer_sleeps_fast_forward_to_the_same_instant() {
    // Sleeps far longer than any workload message gap: the parallel
    // engine's quiet path jumps hundreds of thousands of ticks at once
    // here, yet must land on exactly the wake instants lock-step reaches.
    let (ff, _) = run_differential(TimeDelta::from_ms(10), load_long_timers);
    assert!(ff.quiescent);
    for (node, _) in LONG_TIMERS {
        assert_eq!(
            ff.outputs[node as usize].trim(),
            "0",
            "core {node} woke early"
        );
    }
}

#[test]
fn idle_machine_burns_identical_energy() {
    // A fully idle slice for 200 µs: every tick of every core is skipped
    // in one step, and the ledgers must still agree to 1e-9.
    let run = |engine: EngineMode| {
        let mut system = SystemBuilder::new().engine(engine).build().expect("builds");
        system.run_for(TimeDelta::from_us(200));
        fingerprint(&system, true)
    };
    let ls = run(EngineMode::LockStep);
    let mut total = 0.0;
    for engine in common::engines_under_test(&PARALLEL_THREADS) {
        let fp = run(engine);
        assert_equivalent(engine, &fp, &ls);
        total = fp.energy.iter().map(|(_, j)| j).sum::<f64>();
    }
    assert!(total > 0.0, "idle energy must still be charged");
}

/// Runs `scenario` under lock-step and every engine under test and
/// requires every core's ledger to match lock-step's bit for bit.
fn assert_core_ledgers_bit_identical(name: &str, scenario: impl Fn(&mut SwallowSystem)) {
    let run = |engine: EngineMode| {
        let mut system = SystemBuilder::new().engine(engine).build().expect("builds");
        scenario(&mut system);
        let machine = system.machine();
        machine
            .nodes()
            .map(|n| machine.core(n).ledger().entry_bits())
            .collect::<Vec<_>>()
    };
    let ls = run(EngineMode::LockStep);
    assert!(ls.iter().all(|bits| bits.iter().any(|&b| b != 0)));
    for engine in common::engines_under_test(&[1, 2, 4]) {
        let got = run(engine);
        let differing: Vec<usize> = (0..ls.len()).filter(|&i| got[i] != ls[i]).collect();
        assert!(
            differing.is_empty(),
            "{name}, {engine:?}: core ledgers differ from lock-step on cores {differing:?}"
        );
    }
}

#[test]
fn core_ledgers_are_bit_identical_across_engines() {
    // Core energy is counted (edges, per-class issue cycles) and priced
    // when read, so however an engine advances a core — edge by edge,
    // skipped in one step, in windows on any number of host threads —
    // equal counts give equal bits. No tolerance here.
    let spec = pipeline::PipelineSpec {
        stages: 6,
        items: 24,
        work_per_item: 3,
    };
    assert_core_ledgers_bit_identical("pipeline", |system| {
        load_pipeline(system, &spec);
        assert!(system.run_until_quiescent(TimeDelta::from_ms(20)));
    });
    assert_core_ledgers_bit_identical("idle 200 µs", |system| {
        system.run_for(TimeDelta::from_us(200));
    });
    assert_core_ledgers_bit_identical("long timers", |system| {
        load_long_timers(system);
        assert!(system.run_until_quiescent(TimeDelta::from_ms(10)));
    });
}

/// What a served run is compared on: the fleet driver's fingerprint,
/// every core's ledger bits, every completion's
/// `(tag, reply, completed_at)`, the link retransmits and the merged
/// trace — every link launch, token receipt and thread schedule at its
/// instant, which shows a launch a single edge late even where the
/// replies absorb it.
#[derive(Debug, PartialEq)]
struct ServeRun {
    fingerprint: swallow_fleet::Fingerprint,
    ledgers: Vec<[u64; 5]>,
    replies: Vec<(u32, u32, Time)>,
    retransmits: u64,
    trace: TraceLog,
}

/// Serves 60 Poisson requests at `rate_rps` through the bridge under
/// lock-step and every engine under test, and requires every engine's
/// [`ServeRun`] to equal lock-step's. Bridge pacing, reply tokens queued
/// behind the bridge-facing link and workers issuing on one slot in four
/// all take part. Returns lock-step's run.
fn assert_serve_identical(rate_rps: f64, faults: impl Fn(&SwallowSystem) -> FaultPlan) -> ServeRun {
    let spec = ServeSpec {
        workers: 4,
        max_requests: 60,
        work: 4,
    };
    let arrivals = generate_arrivals(
        ArrivalKind::Poisson,
        rate_rps,
        spec.max_requests,
        0,
        &mut DetRng::seed_from(42),
    );
    let run = |engine: EngineMode| {
        let build = |plan: FaultPlan| {
            SystemBuilder::new()
                .engine(engine)
                .bridge()
                .tracing_capacity(1 << 16)
                .faults(plan)
                .build()
                .expect("builds")
        };
        let plan = faults(&build(FaultPlan::new()));
        let mut system = build(plan);
        serve::generate(&spec, system.machine().spec())
            .expect("generates")
            .apply(&mut system)
            .expect("loads");
        let outcome = drive(&mut system, &arrivals, spec.work, TimeDelta::from_us(300));
        assert_eq!(
            outcome.wrong, 0,
            "{engine:?}: every reply matches the oracle"
        );
        let machine = system.machine();
        ServeRun {
            fingerprint: outcome.fingerprint,
            ledgers: machine
                .nodes()
                .map(|n| machine.core(n).ledger().entry_bits())
                .collect(),
            replies: outcome
                .completions
                .iter()
                .map(|c| (c.tag, c.reply, c.completed_at))
                .collect(),
            retransmits: machine.fault_counters().retransmits,
            trace: system.trace_log(),
        }
    };
    let ls = run(EngineMode::LockStep);
    assert_eq!(
        ls.replies.len(),
        spec.max_requests as usize,
        "every request served"
    );
    for engine in common::engines_under_test(&[1, 2, 4]) {
        let got = run(engine);
        let differing: Vec<usize> = (0..ls.ledgers.len())
            .filter(|&i| got.ledgers[i] != ls.ledgers[i])
            .collect();
        assert!(
            differing.is_empty(),
            "{rate_rps} rps, {engine:?}: core ledgers differ on cores {differing:?}"
        );
        if let Some(i) = (0..ls.trace.records.len())
            .find(|&i| got.trace.records.get(i) != ls.trace.records.get(i))
        {
            panic!(
                "{rate_rps} rps, {engine:?}: trace record {i} differs: {:?} vs lock-step {:?}",
                got.trace.records.get(i),
                ls.trace.records[i]
            );
        }
        assert_eq!(got, ls, "{rate_rps} rps, {engine:?}: served runs differ");
    }
    ls
}

#[test]
fn bridge_serve_runs_identically_under_both_engines() {
    let fault_free = |_: &SwallowSystem| FaultPlan::new();
    assert_serve_identical(100_000.0, fault_free);
    assert_serve_identical(3_000_000.0, fault_free);
    // Corrupt windows on the link into the bridge and on every link out
    // of a worker while replies stream out. A failed attempt leaves
    // nothing on the wire, so only its `busy_until` says when the queued
    // reply token or the worker's own output may try again — exactly the
    // instant the quiet path jumps to. Short enough (fewer than
    // `MAX_LINK_RETRIES` token times) that every link survives.
    let corrupt = assert_serve_identical(3_000_000.0, |system| {
        let machine = system.machine();
        let bridge = machine.bridge().expect("fitted").node();
        let workers = 1..=4;
        machine
            .link_descs()
            .iter()
            .filter(|d| d.to == bridge || workers.contains(&d.from.0))
            .fold(FaultPlan::new(), |plan, d| {
                plan.corrupt_window(
                    Time::ZERO + TimeDelta::from_ns(11_000),
                    d.id,
                    TimeDelta::from_ns(300),
                )
            })
    });
    assert!(
        corrupt.retransmits > 0,
        "the corrupt window must hit reply traffic"
    );
}

#[test]
fn parallel_agrees_on_shortest_paths_routing() {
    // Same pipeline, but routed breadth-first instead of vertical-first:
    // different hop counts and link orderings must not perturb the
    // negotiated horizons or the reconciliation order.
    let spec = pipeline::PipelineSpec {
        stages: 6,
        items: 16,
        work_per_item: 3,
    };
    let (fp, _) = run_differential_with(
        TimeDelta::from_ms(20),
        || SystemBuilder::new().router(RouterKind::ShortestPaths),
        |system| load_pipeline(system, &spec),
    );
    assert!(fp.quiescent, "pipeline must drain under shortest-paths");
    assert_eq!(fp.outputs[5].trim(), pipeline::checksum(&spec).to_string());
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 10, // each case is two whole-machine runs
        .. ProptestConfig::default()
    })]

    /// Random wake schedules: cores sleep for arbitrary spans and then
    /// must all wake — the quiet path may never jump past a wake instant,
    /// and has to agree with lock-step on when each wake happened.
    #[test]
    fn fast_forward_never_skips_a_wake(
        schedule in proptest::collection::vec((0u16..16, 1u32..60_000), 1..6),
    ) {
        let mut nodes_used = Vec::new();
        let (ff, _) = run_differential(TimeDelta::from_ms(10), |system| {
            nodes_used.clear();
            for &(node, ticks) in &schedule {
                if nodes_used.contains(&node) {
                    continue; // one sleeper per core
                }
                nodes_used.push(node);
                let program = Assembler::new()
                    .assemble(&format!(
                        "
                            getr  r0, timer
                            in    r1, r0
                            add   r2, r1, {ticks}
                            tmwait r0, r2
                            in    r3, r0
                            lsu   r4, r3, r2
                            print r4
                            freet
                        "
                    ))
                    .expect("assembles");
                system.load_program(NodeId(node), &program).expect("fits");
            }
        });
        prop_assert!(ff.quiescent, "all sleepers must wake and drain");
        for &node in &nodes_used {
            prop_assert_eq!(
                ff.outputs[node as usize].trim(),
                "0",
                "core {} skipped past its wake instant",
                node
            );
        }
    }
}
