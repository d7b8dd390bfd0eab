//! The core's energy ledger is integer counts priced when read: clock
//! edges and per-class issue cycles since the last settle, times the
//! constants in force, plus the joules settled whenever those constants
//! changed. These tests pin down that the counting is exact where it
//! should be (settling, skipped versus ticked edges) and that it agrees
//! with a reference that sums every edge's charges one by one.

use swallow_energy::core_power::IDLE_NETWORK_FRACTION;
use swallow_energy::{CorePowerModel, Energy, EnergyLedger, NodeCategory, Voltage};
use swallow_isa::{Assembler, EnergyClass, NodeId};
use swallow_sim::{Frequency, TimeDelta};
use swallow_xcore::{Core, CoreConfig};

/// Four threads of ALU, memory, multiply, timer-read (Comm) and branch
/// work, shaped like the calibrated heavy mix. No divides, so every
/// retired instruction is one issue cycle.
const MIX: &str = "
        ldc   r5, 3
        ldap  r6, worker
    spawn:
        bf    r5, worker
        tspawn r7, r6, r5
        sub   r5, r5, 1
        bu    spawn
    worker:
        getr  r11, timer
        ldc   r10, 0x1000
        ldc   r0, 0
    mix:
        add   r1, r1, 1
        xor   r3, r3, r1
        shl   r4, r1, 3
        ldw   r9, r10[0]
        stw   r9, r10[1]
        mul   r9, r1, r4
        in    r9, r11
        bt    r0, mix
        bu    mix
";

fn core_with(src: &str) -> Core {
    let program = Assembler::new().assemble(src).expect("assembles");
    let mut core = Core::new(CoreConfig::swallow(NodeId(0)));
    core.load_program(&program).expect("fits in SRAM");
    core
}

fn tick_n(core: &mut Core, n: u64) {
    for _ in 0..n {
        core.tick(core.next_tick_at());
    }
}

fn class_cycles(core: &Core) -> [u64; 8] {
    let mut out = [0; 8];
    for class in EnergyClass::ALL {
        out[class as usize] = core.class_counts().get(class);
    }
    assert_eq!(out[EnergyClass::Div as usize], 0, "divides cost 32 cycles");
    out
}

/// `edges` clock edges and `cycles[c]` issue cycles per class priced at
/// one power model and clock period — the conversion a settle or a read
/// makes, term for term.
fn priced(power: &CorePowerModel, period: TimeDelta, edges: u64, cycles: [u64; 8]) -> EnergyLedger {
    let clk = power.idle_cycle_energy();
    let static_cycle = power.static_power() * period + clk * (1.0 - IDLE_NETWORK_FRACTION);
    let clk_net = clk * IDLE_NETWORK_FRACTION;
    let mut compute = Energy::ZERO;
    let mut comm = Energy::ZERO;
    let mut classes = EnergyClass::ALL;
    classes.sort_by_key(|&c| c as usize);
    for class in classes {
        let energy = power.slot_energy(class) * cycles[class as usize] as f64;
        if class == EnergyClass::Comm {
            comm = energy;
        } else {
            compute += energy;
        }
    }
    let mut ledger = EnergyLedger::new();
    ledger.charge(NodeCategory::Static, static_cycle * edges as f64);
    ledger.charge(NodeCategory::Network, clk_net * edges as f64 + comm);
    ledger.charge(NodeCategory::Compute, compute);
    ledger
}

fn sub(a: [u64; 8], b: [u64; 8]) -> [u64; 8] {
    std::array::from_fn(|i| a[i] - b[i])
}

/// Runs `edges` edges and checks the ledger grew by exactly those edges
/// and issue cycles priced at the core's current constants.
fn run_phase(core: &mut Core, settled: EnergyLedger, edges: u64) -> EnergyLedger {
    let (cycle0, counts0) = (core.cycles(), class_cycles(core));
    assert_eq!(
        core.ledger().entry_bits(),
        settled.entry_bits(),
        "a settle must not move the ledger"
    );
    tick_n(core, edges);
    let expected = settled
        + priced(
            &core.power_model(),
            core.frequency().period(),
            core.cycles() - cycle0,
            sub(class_cycles(core), counts0),
        );
    assert_eq!(core.ledger().entry_bits(), expected.entry_bits());
    expected
}

#[test]
fn settling_across_a_frequency_change_is_exact() {
    let mut core = core_with(MIX);
    let before = run_phase(&mut core, EnergyLedger::new(), 30_011);
    core.set_frequency(Frequency::from_mhz(250));
    let after = run_phase(&mut core, before, 20_003);
    assert!(after.total().as_joules() > before.total().as_joules());
}

#[test]
fn settling_across_a_power_model_derate_and_restore_is_exact() {
    let mut core = core_with(MIX);
    let nominal = core.power_model();
    let mut ledger = run_phase(&mut core, EnergyLedger::new(), 10_007);
    core.set_power_model(nominal.at_voltage(Voltage::from_volts(0.8)));
    ledger = run_phase(&mut core, ledger, 10_009);
    core.set_power_model(nominal);
    run_phase(&mut core, ledger, 10_037);
}

#[test]
fn skipped_and_ticked_idle_edges_give_identical_ledgers() {
    // Some work first so the ledger has compute and comm terms, then the
    // thread parks in `waiteu` for good: every later edge is idle.
    let src = "
        getr  r11, timer
        ldc   r1, 40
    loop:
        in    r9, r11
        mul   r2, r1, r1
        sub   r1, r1, 1
        bt    r1, loop
        waiteu
    ";
    let mut ticked = core_with(src);
    tick_n(&mut ticked, 2_000);
    assert_eq!(ticked.ready_threads(), 0, "parked in waiteu");
    let mut skipped = core_with(src);
    tick_n(&mut skipped, 2_000);

    let idle = 1_000_003u64;
    tick_n(&mut ticked, idle);
    let period = skipped.frequency().period();
    // Skips every edge strictly before the limit: exactly `idle` edges.
    skipped.skip_idle_until(skipped.local_now() + period * (idle + 1));
    assert_eq!(skipped.cycles(), ticked.cycles());
    assert_eq!(skipped.local_now(), ticked.local_now());
    assert_eq!(skipped.ledger().entry_bits(), ticked.ledger().entry_bits());
}

#[test]
fn counted_ledger_matches_per_edge_summation() {
    // The reference sums charges as they happen: every edge adds its
    // static and clock-tree charge, every retire adds its class charge,
    // one f64 add at a time. Counting then pricing must agree to
    // rounding, across a mid-run DVFS change.
    let mut core = core_with(MIX);
    let mut reference = EnergyLedger::new();
    let mut counts = class_cycles(&core);
    for (mhz, volts, edges) in [(500, 1.0, 40_000u64), (250, 0.85, 30_000)] {
        core.set_frequency(Frequency::from_mhz(mhz));
        core.set_power_model(CorePowerModel::swallow().at_voltage(Voltage::from_volts(volts)));
        let power = core.power_model();
        let clk = power.idle_cycle_energy();
        let static_cycle =
            power.static_power() * core.frequency().period() + clk * (1.0 - IDLE_NETWORK_FRACTION);
        for _ in 0..edges {
            core.tick(core.next_tick_at());
            reference.charge(NodeCategory::Static, static_cycle);
            reference.charge(NodeCategory::Network, clk * IDLE_NETWORK_FRACTION);
            let now = class_cycles(&core);
            for class in EnergyClass::ALL {
                let retired = now[class as usize] - counts[class as usize];
                if retired > 0 {
                    let category = if class == EnergyClass::Comm {
                        NodeCategory::Network
                    } else {
                        NodeCategory::Compute
                    };
                    reference.charge(category, power.slot_energy(class) * retired as f64);
                }
            }
            counts = now;
        }
    }
    let ledger = core.ledger();
    for category in [
        NodeCategory::Compute,
        NodeCategory::Static,
        NodeCategory::Network,
    ] {
        let (got, want) = (
            ledger.get(category).as_joules(),
            reference.get(category).as_joules(),
        );
        assert!(want > 0.0, "{category} must be charged");
        assert!(
            (got - want).abs() <= 1e-12 * want,
            "{category}: counted {got} J vs summed {want} J"
        );
    }
}
