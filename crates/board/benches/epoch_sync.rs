//! Synchronisation cost of the parallel engine's pairwise watermark
//! negotiation, swept over host thread counts on a compute-bound slice.
//!
//! The workload is the shape the negotiation exists for: every core
//! spinning, no communication, so shards pay one pool dispatch per
//! ~1 µs monitor window and synchronise through lock-free round slots in
//! between. On a single-CPU host the absolute numbers compress (workers
//! time-slice), so read the sweep for its shape, not its scaling.

use swallow_board::{EngineMode, Machine, MachineConfig};
use swallow_isa::Assembler;
use swallow_sim::TimeDelta;
use swallow_testkit::criterion::{criterion_group, criterion_main, Criterion};

/// Simulated span per timed sample: several monitor windows, so every
/// thread count crosses its serial boundaries a representative number of
/// times.
const SPAN_US: u64 = 5;

fn busy_machine(threads: usize) -> Machine {
    let program = Assembler::new()
        .assemble(
            "
                ldc   r0, 0
            lp: add   r0, r0, 1
                bu    lp
            ",
        )
        .expect("spin assembles");
    let mut machine = Machine::new(MachineConfig {
        engine: EngineMode::Parallel { threads },
        ..MachineConfig::one_slice()
    });
    machine.load_program_all(&program).expect("fits");
    machine
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("epoch_sync");
    g.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        g.bench_function(&format!("negotiated/{threads}"), |b| {
            b.iter(|| {
                let mut machine = busy_machine(threads);
                machine.run_for(TimeDelta::from_us(SPAN_US));
                machine.total_instret()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
