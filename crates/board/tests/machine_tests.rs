//! Whole-machine tests: programs running on real cores, communicating
//! across the lattice through the token-level fabric, with the power tree
//! watching.

use swallow_board::machine::SNAPSHOT_VERSION;
use swallow_board::{EngineMode, Machine, MachineConfig, RouterKind};
use swallow_faults::FaultPlan;
use swallow_isa::{Assembler, NodeId, Program};
use swallow_sim::{CodecError, Frequency, Time, TimeDelta};

fn asm(src: &str) -> Program {
    Assembler::new().assemble(src).expect("assembles")
}

/// A program that sends one word to chanend 0 of `dest_node` and exits.
fn sender(dest_node: u16, value: u32) -> Program {
    asm(&format!(
        "
            getr  r0, chanend
            ldc   r1, {dest_node}
            shl   r1, r1, 16
            add   r1, r1, 2        # chanend type code, index 0
            setd  r0, r1
            ldc   r2, {value}
            out   r0, r2
            outct r0, end
            freet
        "
    ))
}

/// A program that receives one word on its first chanend and prints it.
fn receiver() -> Program {
    asm("
        getr  r0, chanend
        in    r1, r0
        chkct r0, end
        print r1
        freet
    ")
}

#[test]
fn one_slice_boots_sixteen_cores() {
    let mut machine = Machine::new(MachineConfig::one_slice());
    assert_eq!(machine.core_count(), 16);
    machine
        .load_program_all(&asm("ldc r0, 1\n print r0\n freet"))
        .expect("fits");
    assert!(machine.run_until_quiescent(TimeDelta::from_us(10)));
    for node in machine.nodes().collect::<Vec<_>>() {
        assert_eq!(machine.core(node).output(), "1\n");
    }
}

#[test]
fn in_package_word_transfer() {
    // Nodes 0 (vertical layer) and 1 (horizontal layer) share a package.
    let mut machine = Machine::new(MachineConfig::one_slice());
    machine
        .load_program(NodeId(0), &sender(1, 777))
        .expect("fits");
    machine.load_program(NodeId(1), &receiver()).expect("fits");
    assert!(machine.run_until_quiescent(TimeDelta::from_us(50)));
    assert_eq!(machine.core(NodeId(1)).output(), "777\n");
    assert_eq!(machine.fabric().unroutable_tokens(), 0);
}

#[test]
fn vertical_neighbour_transfer_uses_board_wire() {
    // Package (0,0) V-core is node 0; package (0,1) V-core is node 8.
    let mut machine = Machine::new(MachineConfig::one_slice());
    machine
        .load_program(NodeId(0), &sender(8, 4242))
        .expect("fits");
    machine.load_program(NodeId(8), &receiver()).expect("fits");
    assert!(machine.run_until_quiescent(TimeDelta::from_us(50)));
    assert_eq!(machine.core(NodeId(8)).output(), "4242\n");
    // The South board link between them carried the packet.
    let south_used = machine
        .fabric()
        .link_stats()
        .any(|s| s.from == NodeId(0) && s.to == NodeId(8) && s.data_tokens == 4);
    assert!(south_used);
}

#[test]
fn cross_layer_cross_column_route() {
    // H-layer node of package (0,0) is node 1; H-layer of (3,1) is node
    // 15: a route needing horizontal travel and layer transitions.
    let mut machine = Machine::new(MachineConfig::one_slice());
    machine
        .load_program(NodeId(0), &sender(15, 31337))
        .expect("fits");
    machine.load_program(NodeId(15), &receiver()).expect("fits");
    assert!(machine.run_until_quiescent(TimeDelta::from_us(100)));
    assert_eq!(machine.core(NodeId(15)).output(), "31337\n");
    assert_eq!(machine.fabric().unroutable_tokens(), 0);
}

#[test]
fn every_core_sends_to_node_zero() {
    // A 15-to-1 gather: every non-zero core sends its node id; node 0
    // sums 15 words from its single chanend (senders share the route
    // serially because each closes with END).
    let mut machine = Machine::new(MachineConfig::one_slice());
    let gather = asm("
            getr  r0, chanend
            ldc   r3, 15          # messages expected
            ldc   r4, 0           # sum
        gl:
            in    r1, r0
            chkct r0, end
            add   r4, r4, r1
            sub   r3, r3, 1
            bt    r3, gl
            print r4
            freet
    ");
    machine.load_program(NodeId(0), &gather).expect("fits");
    for n in 1..16u16 {
        machine
            .load_program(NodeId(n), &sender(0, n as u32))
            .expect("fits");
    }
    assert!(machine.run_until_quiescent(TimeDelta::from_ms(2)));
    // 1 + 2 + ... + 15 = 120.
    assert_eq!(machine.core(NodeId(0)).output(), "120\n");
}

#[test]
fn latency_shapes_follow_the_paper() {
    // §V.C: core-local fastest, in-package next, cross-package slowest.
    // Measure one-way delivery time of a single word by watching for the
    // receiver's output.
    let one_way = |src: u16, dst: u16| -> TimeDelta {
        let mut machine = Machine::new(MachineConfig::one_slice());
        if src == dst {
            // Core-local: two chanends on one core, two threads.
            machine
                .load_program(
                    NodeId(src),
                    &asm("
                        getr  r0, chanend
                        getr  r1, chanend
                        setd  r0, r1
                        ldap  r2, rx
                        tspawn r3, r2, r1
                        ldc   r4, 9
                        out   r0, r4
                        freet
                    rx:
                        in    r5, r0
                        print r5
                        freet
                    "),
                )
                .expect("fits");
        } else {
            machine
                .load_program(NodeId(src), &sender(dst, 9))
                .expect("fits");
            machine
                .load_program(NodeId(dst), &receiver())
                .expect("fits");
        }
        let deadline = TimeDelta::from_us(100);
        while machine.now() < swallow_sim::Time::ZERO + deadline {
            machine.step();
            if !machine.core(NodeId(dst)).output().is_empty() {
                break;
            }
        }
        assert_eq!(machine.core(NodeId(dst)).output(), "9\n", "{src}->{dst}");
        machine.now().since(swallow_sim::Time::ZERO)
    };
    let local = one_way(0, 0);
    let in_package = one_way(0, 1);
    let cross_package = one_way(0, 8);
    assert!(local < in_package, "{local} !< {in_package}");
    assert!(
        in_package < cross_package,
        "{in_package} !< {cross_package}"
    );
}

#[test]
fn power_monitor_reads_idle_slice() {
    let mut machine = Machine::new(MachineConfig::one_slice());
    // No programs: cores are quiescent but leak static+clock power only
    // if ticked; idle cores tick at their clock.
    machine.run_for(TimeDelta::from_us(10));
    let load = machine.monitor().slice_load_power(0).as_watts();
    // 16 cores × 113 mW idle + 160 mW support = 1.97 W.
    assert!((load - 1.97).abs() < 0.1, "slice load = {load} W");
    let input = machine.monitor().machine_input_power().as_watts();
    assert!(input > load, "conversion losses must appear at the input");
    assert!((2.0..3.2).contains(&input), "input = {input} W");
}

#[test]
fn program_measures_its_own_power() {
    // The Swallow self-measurement feature (§II): a program reads its own
    // slice's rail power through a probe resource.
    let mut machine = Machine::new(MachineConfig::one_slice());
    machine
        .load_program(
            NodeId(3),
            &asm("
                getr  r0, probe
                ldc   r1, 0
                setd  r0, r1          # channel 0: first core rail
                getr  r2, timer
                in    r3, r2
                add   r3, r3, 300     # wait 3 us: two monitor updates
                tmwait r2, r3
                in    r4, r0          # read rail power in microwatts
                print r4
                freet
            "),
        )
        .expect("fits");
    assert!(machine.run_until_quiescent(TimeDelta::from_us(50)));
    let text = machine.core(NodeId(3)).output();
    let microwatts: i64 = text.trim().parse().expect("a number");
    // Rail 0 carries four mostly idle cores: ≈450 mW give or take.
    assert!(
        (200_000..900_000).contains(&microwatts),
        "self-measured {microwatts} uW"
    );
}

#[test]
fn bridge_streams_data_both_ways() {
    let mut config = MachineConfig::one_slice();
    config.bridge = true;
    let mut machine = Machine::new(config);
    let bridge_chan = machine.bridge().expect("fitted").chanend();

    // Core 0: receive one word from the host, double it, send it back.
    machine
        .load_program(
            NodeId(0),
            &asm(&format!(
                "
                    getr  r0, chanend
                    ldc   r1, {dest}
                    setd  r0, r1
                    in    r2, r0
                    chkct r0, end
                    add   r2, r2, r2
                    out   r0, r2
                    outct r0, end
                    freet
                ",
                dest = bridge_chan.raw()
            )),
        )
        .expect("fits");

    // Host: send 21 to core 0's chanend 0.
    let core_chan = swallow_isa::ResourceId::new(NodeId(0), 0, swallow_isa::ResType::Chanend);
    {
        let bridge = machine.bridge_mut().expect("fitted");
        bridge.send_word(core_chan, 21);
        bridge.send_ct(core_chan, swallow_isa::ControlToken::END);
    }
    assert!(machine.run_until_quiescent(TimeDelta::from_us(200)));
    let words = machine.bridge().expect("fitted").received_words();
    assert_eq!(words, vec![42]);
}

#[test]
fn faulted_cables_break_routes_under_full_injection() {
    let mut config = MachineConfig::grid(2, 1);
    config.router = RouterKind::ShortestPaths;
    config.ffc_fault_rate = 1.0;
    let mut machine = Machine::new(config);
    assert!(machine.faulted_cables() > 0);
    // Slice 0 core sends to slice 1 core (package column 4 = node 8*...
    // node_at(4,0,V)): no surviving path, token is counted unroutable.
    let dst = machine
        .spec()
        .node_at(4, 0, swallow_noc::routing::Layer::Vertical);
    machine
        .load_program(NodeId(0), &sender(dst.raw(), 5))
        .expect("fits");
    machine.load_program(dst, &receiver()).expect("fits");
    machine.run_for(TimeDelta::from_us(50));
    assert!(machine.fabric().unroutable_tokens() > 0);
    assert_eq!(machine.core(dst).output(), "");
}

#[test]
fn partial_faults_route_around_with_shortest_paths() {
    let mut config = MachineConfig::grid(2, 1);
    config.router = RouterKind::ShortestPaths;
    config.ffc_fault_rate = 0.5;
    config.fault_seed = 7;
    let mut machine = Machine::new(config);
    let faulted = machine.faulted_cables();
    assert!(faulted > 0 && faulted < 4, "faulted = {faulted}");
    let dst = machine
        .spec()
        .node_at(7, 1, swallow_noc::routing::Layer::Horizontal);
    machine
        .load_program(NodeId(0), &sender(dst.raw(), 5))
        .expect("fits");
    machine.load_program(dst, &receiver()).expect("fits");
    assert!(machine.run_until_quiescent(TimeDelta::from_us(200)));
    assert_eq!(machine.core(dst).output(), "5\n");
}

#[test]
fn heterogeneous_frequencies_coexist() {
    let mut machine = Machine::new(MachineConfig::one_slice());
    machine.set_core_frequency(NodeId(2), Frequency::from_mhz(100));
    machine
        .load_program(NodeId(2), &sender(3, 64))
        .expect("fits");
    machine.load_program(NodeId(3), &receiver()).expect("fits");
    assert!(machine.run_until_quiescent(TimeDelta::from_us(100)));
    assert_eq!(machine.core(NodeId(3)).output(), "64\n");
}

#[test]
fn machine_ledger_collects_all_categories() {
    use swallow_energy::NodeCategory;
    let mut machine = Machine::new(MachineConfig::one_slice());
    machine
        .load_program(NodeId(0), &sender(8, 1))
        .expect("fits");
    machine.load_program(NodeId(8), &receiver()).expect("fits");
    machine.run_for(TimeDelta::from_us(5));
    let ledger = machine.machine_ledger();
    for cat in NodeCategory::ALL {
        assert!(
            ledger.get(cat).as_joules() > 0.0,
            "{cat} has no energy after a communicating run"
        );
    }
    // Static dominates a mostly idle slice.
    assert!(ledger.fraction(NodeCategory::Static) > 0.3);
}

#[test]
fn parallel_engine_delivers_across_the_slice() {
    // Communication forces the parallel engine through its early-stop
    // and reconcile paths; the message must still land.
    let mut machine = Machine::new(MachineConfig {
        engine: EngineMode::Parallel { threads: 4 },
        ..MachineConfig::one_slice()
    });
    machine
        .load_program(NodeId(0), &sender(14, 4242))
        .expect("fits");
    machine.load_program(NodeId(14), &receiver()).expect("fits");
    assert!(machine.run_until_quiescent(TimeDelta::from_us(50)));
    assert_eq!(machine.core(NodeId(14)).output(), "4242\n");
}

#[test]
fn parallel_engine_is_deterministic_across_runs_and_thread_counts() {
    let run = |threads: usize| {
        let mut machine = Machine::new(MachineConfig {
            engine: EngineMode::Parallel { threads },
            ..MachineConfig::one_slice()
        });
        for n in 0..8u16 {
            machine
                .load_program(NodeId(n), &sender(n + 8, 1000 + u32::from(n)))
                .expect("fits");
            machine
                .load_program(NodeId(n + 8), &receiver())
                .expect("fits");
        }
        assert!(machine.run_until_quiescent(TimeDelta::from_us(100)));
        let outputs: Vec<String> = machine
            .nodes()
            .map(|n| machine.core(n).output().to_owned())
            .collect();
        (
            machine.now(),
            machine.total_instret(),
            outputs,
            machine.machine_ledger().total().as_joules(),
        )
    };
    let reference = run(4);
    for n in 8..16 {
        assert_eq!(reference.2[n], format!("{}\n", 992 + n));
    }
    // Same thread count: bit-identical. Different shard counts: identical
    // up to energy association (the ledger sums over the same charges).
    assert_eq!(run(4), reference);
    for threads in [1usize, 2, 7] {
        let other = run(threads);
        assert_eq!(other.0, reference.0, "time differs at {threads} threads");
        assert_eq!(other.1, reference.1, "instret differs at {threads} threads");
        assert_eq!(other.2, reference.2, "output differs at {threads} threads");
        assert!((other.3 - reference.3).abs() <= 1e-9 * reference.3);
    }
}

#[test]
fn negotiated_windows_match_lockstep_and_negotiation_engages() {
    // A compute-bound machine (every core spinning, no communication)
    // is exactly the shape the pairwise negotiation exists for: the
    // parallel engine must actually run windows (not fall back to its
    // quiet-path step), and its results must match lock-step bit-for-bit
    // in time/instret/output and to 1e-9 in energy. Every core halts on
    // the same edge, so `run_until_quiescent` must also land on the
    // exact quiescence instant lock-step reports — the drained-window
    // commit rule.
    let busy = asm("
            ldc   r0, 0
            ldc   r1, 200
        lp: add   r0, r0, 1
            sub   r1, r1, 1
            bt    r1, lp
            print r0
            freet
    ");
    let run = |engine: EngineMode| {
        let mut machine = Machine::new(MachineConfig {
            engine,
            ..MachineConfig::one_slice()
        });
        machine.load_program_all(&busy).expect("fits");
        assert!(machine.run_until_quiescent(TimeDelta::from_us(50)));
        let outputs: Vec<String> = machine
            .nodes()
            .map(|n| machine.core(n).output().to_owned())
            .collect();
        (
            machine.now(),
            machine.total_instret(),
            outputs,
            machine.machine_ledger().total().as_joules(),
            machine.negotiation_stats(),
        )
    };
    let parallel = EngineMode::Parallel { threads: 4 };
    let reference = run(EngineMode::LockStep);
    let neg = run(parallel);
    let (windows, rounds) = neg.4;
    assert!(windows > 0, "negotiation must engage on busy cores");
    assert!(rounds >= windows, "each window runs at least one round");
    assert_eq!(reference.4, (0, 0), "lock-step must not negotiate");
    assert_eq!(neg.0, reference.0, "parallel must stop at lock-step's t_q");
    assert_eq!(neg.1, reference.1, "instret differs from lock-step");
    assert_eq!(neg.2, reference.2, "outputs differ from lock-step");
    assert!((neg.3 - reference.3).abs() <= 1e-9 * reference.3.max(f64::MIN_POSITIVE));
    // Determinism: repeat runs are bit-identical, energy included.
    let again = run(parallel);
    assert_eq!(neg, again, "negotiated runs must be bit-identical");
}

#[test]
fn engine_can_switch_to_parallel_mid_run() {
    let mut machine = Machine::new(MachineConfig::one_slice());
    machine
        .load_program_all(&asm("ldc r0, 7\n print r0\n freet"))
        .expect("fits");
    machine.run_for(TimeDelta::from_ns(100));
    machine.set_engine(EngineMode::Parallel { threads: 2 });
    assert!(machine.run_until_quiescent(TimeDelta::from_us(10)));
    for node in machine.nodes().collect::<Vec<_>>() {
        assert_eq!(machine.core(node).output(), "7\n");
    }
}

/// A one-slice request/reply service behind the bridge, the shape the
/// fleet serves: core 0 forwards each `[tag, value]` frame round-robin to
/// three workers, each worker squares the value four times and sends
/// `[tag, result]` straight back to the bridge. `requests` frames arrive
/// 10 µs apart; the machine runs in 10 µs chunks until every reply is in.
/// Returns the machine and the replies received.
fn serve_requests(engine: EngineMode, requests: u32) -> (Machine, Vec<u32>) {
    let mut config = MachineConfig::one_slice();
    config.bridge = true;
    config.engine = engine;
    let mut machine = Machine::new(config);
    let bridge = machine.bridge().expect("fitted").chanend().raw();
    let chanend =
        |node: u16| swallow_isa::ResourceId::new(NodeId(node), 0, swallow_isa::ResType::Chanend);
    let (worker0, stride) = (chanend(1).raw(), chanend(2).raw() - chanend(1).raw());
    let dispatcher = asm(&format!(
        "
            getr  r0, chanend
            getr  r1, chanend
            ldc   r2, 0
            ldc   r6, {requests}
            ldc   r10, {stride}
            ldc   r11, {worker0}
        next:
            in    r3, r0
            in    r4, r0
            chkct r0, end
            mul   r5, r2, r10
            add   r5, r5, r11
            setd  r1, r5
            out   r1, r3
            out   r1, r4
            outct r1, end
            add   r2, r2, 1
            sub   r5, r2, 3
            bt    r5, kept
            ldc   r2, 0
        kept:
            sub   r6, r6, 1
            bt    r6, next
            freet
        "
    ));
    machine.load_program(NodeId(0), &dispatcher).expect("fits");
    for w in 0..3u32 {
        let budget = requests / 3 + u32::from(w < requests % 3);
        let worker = asm(&format!(
            "
                getr  r0, chanend
                getr  r1, chanend
                ldc   r2, {bridge}
                setd  r1, r2
                ldc   r6, {budget}
            serve:
                in    r3, r0
                in    r4, r0
                chkct r0, end
                mul   r4, r4, r4
                mul   r4, r4, r4
                mul   r4, r4, r4
                mul   r4, r4, r4
                out   r1, r3
                out   r1, r4
                outct r1, end
                sub   r6, r6, 1
                bt    r6, serve
                freet
            "
        ));
        machine
            .load_program(NodeId(w as u16 + 1), &worker)
            .expect("fits");
    }
    for tag in 0..requests {
        let frame = [tag, tag + 3];
        assert!(machine
            .bridge_mut()
            .expect("fitted")
            .send_frame(chanend(0), &frame));
        machine.run_for(TimeDelta::from_us(10));
    }
    assert!(machine.run_until_quiescent(TimeDelta::from_us(500)));
    let words = machine.bridge().expect("fitted").received_words();
    (machine, words)
}

#[test]
fn quiet_path_skips_edges_nothing_can_move_on() {
    // Link time dominates a served request: reply tokens wait behind the
    // bridge-facing link, the bridge paces its output at 80 Mbit/s and
    // one-thread workers issue on one edge in four. The quiet path jumps
    // straight to each instant at which a token or an issue slot can
    // move, so it processes a small fraction of lock-step's grid
    // instants and still lands on the same replies, instant and ledger.
    let requests = 30;
    let (lockstep, ls_words) = serve_requests(EngineMode::LockStep, requests);
    let (quiet, words) = serve_requests(EngineMode::default(), requests);
    let mut replies: Vec<&[u32]> = words.chunks(2).collect();
    replies.sort_unstable();
    let expected: Vec<[u32; 2]> = (0..requests)
        .map(|tag| [tag, (tag + 3).wrapping_pow(16)])
        .collect();
    assert_eq!(replies, expected, "every request answered correctly");
    assert_eq!(words, ls_words, "replies in lock-step's order");
    assert_eq!(quiet.now(), lockstep.now());
    assert_eq!(
        quiet.machine_ledger().total().as_joules().to_bits(),
        lockstep.machine_ledger().total().as_joules().to_bits()
    );
    // Lock-step processes every grid instant. The quiet path processed
    // 82 874 of them here while it still stepped every edge on which a
    // token waited for a link or a thread for its issue slot; it now
    // processes 3 176.
    assert_eq!(lockstep.edges_processed(), lockstep.now().as_ps() / 2_000);
    let edges = quiet.edges_processed();
    assert!(edges * 5 <= 82_874, "{edges} edges processed");
    // Observability only: a restored machine counts from zero.
    let restored = Machine::restore(&quiet.snapshot()).expect("restores");
    assert_eq!(restored.edges_processed(), 0);
}

#[test]
fn quiet_path_retries_when_the_failed_attempt_frees_the_link() {
    // A lone sender whose first hop is corrupt: after each failed attempt
    // nothing is on the wire and no thread is ready, so only the failed
    // attempt's `busy_until` says when the pending output may try again.
    // The quiet path must land on exactly those instants.
    let run = |engine: EngineMode| {
        let links: Vec<_> = Machine::new(MachineConfig::one_slice())
            .link_descs()
            .iter()
            .filter(|d| d.from == NodeId(0) && d.to == NodeId(1))
            .map(|d| d.id)
            .collect();
        let mut config = MachineConfig::one_slice();
        config.engine = engine;
        config.faults = links.into_iter().fold(FaultPlan::new(), |plan, link| {
            plan.corrupt_window(Time::ZERO, link, TimeDelta::from_ns(300))
        });
        let mut machine = Machine::new(config);
        machine
            .load_program(NodeId(0), &sender(1, 777))
            .expect("fits");
        machine.load_program(NodeId(1), &receiver()).expect("fits");
        assert!(machine.run_until_quiescent(TimeDelta::from_us(10)));
        (
            machine.now(),
            machine.core(NodeId(1)).output().to_owned(),
            machine.fault_counters().retransmits,
            machine.core(NodeId(1)).ledger().entry_bits(),
        )
    };
    let ls = run(EngineMode::LockStep);
    assert_eq!(ls.1, "777\n");
    assert!(ls.2 > 0, "the sender's first hop was retried");
    assert_eq!(run(EngineMode::default()), ls);
}

// --- snapshot / restore -----------------------------------------------------

/// A machine mid-gather: every non-zero core streams words at node 0, so
/// a snapshot taken a few microseconds in catches live channel state.
fn busy_machine() -> Machine {
    let mut machine = Machine::new(MachineConfig::one_slice());
    let gather = asm("
            getr  r0, chanend
            ldc   r3, 15
            ldc   r4, 0
        gl:
            in    r1, r0
            chkct r0, end
            add   r4, r4, r1
            sub   r3, r3, 1
            bt    r3, gl
            print r4
            freet
    ");
    machine.load_program(NodeId(0), &gather).expect("fits");
    for n in 1..16u16 {
        machine
            .load_program(NodeId(n), &sender(0, n as u32))
            .expect("fits");
    }
    machine
}

#[test]
fn snapshot_restore_snapshot_is_byte_identical() {
    let mut machine = busy_machine();
    machine.run_for(TimeDelta::from_ns(500));
    let image = machine.snapshot();
    let restored = Machine::restore(&image).expect("valid image");
    assert_eq!(restored.now(), machine.now());
    assert_eq!(restored.total_instret(), machine.total_instret());
    assert_eq!(restored.snapshot(), image, "re-snapshot must be identical");
}

#[test]
fn restored_machine_continues_bit_identically() {
    let mut original = busy_machine();
    original.run_for(TimeDelta::from_ns(700));
    let image = original.snapshot();
    assert!(original.run_until_quiescent(TimeDelta::from_ms(2)));
    let mut restored = Machine::restore(&image).expect("valid image");
    assert!(restored.run_until_quiescent(TimeDelta::from_ms(2)));
    assert_eq!(restored.now(), original.now());
    assert_eq!(restored.total_instret(), original.total_instret());
    for node in original.nodes().collect::<Vec<_>>() {
        assert_eq!(restored.core(node).output(), original.core(node).output());
    }
    assert_eq!(restored.core(NodeId(0)).output(), "120\n");
    let a = original.machine_ledger().total().as_joules();
    let b = restored.machine_ledger().total().as_joules();
    assert!((a - b).abs() <= 1e-9 * a.abs().max(f64::MIN_POSITIVE));
}

#[test]
fn snapshot_restores_under_every_engine() {
    let mut original = busy_machine();
    original.run_for(TimeDelta::from_ns(700));
    let image = original.snapshot();
    assert!(original.run_until_quiescent(TimeDelta::from_ms(2)));
    for engine in [
        EngineMode::LockStep,
        EngineMode::Parallel { threads: 1 },
        EngineMode::Parallel { threads: 4 },
    ] {
        let mut restored = Machine::restore(&image).expect("valid image");
        restored.set_engine(engine);
        assert!(restored.run_until_quiescent(TimeDelta::from_ms(2)));
        assert_eq!(restored.now(), original.now(), "{engine:?}");
        assert_eq!(restored.total_instret(), original.total_instret());
        assert_eq!(restored.core(NodeId(0)).output(), "120\n");
    }
}

#[test]
fn version_2_snapshots_are_rejected() {
    // Version 3 writes core energy as counts where version 2 wrote a
    // ledger: an older image must fail on its header, not misparse.
    let mut machine = busy_machine();
    machine.run_for(TimeDelta::from_ns(500));
    let mut image = machine.snapshot();
    assert_eq!(image[8..12], SNAPSHOT_VERSION.to_le_bytes());
    image[8..12].copy_from_slice(&2u32.to_le_bytes());
    assert_eq!(
        Machine::restore(&image).err(),
        Some(CodecError::BadVersion { found: 2 })
    );
}

#[test]
fn truncated_and_corrupt_snapshots_are_rejected() {
    let mut machine = busy_machine();
    machine.run_for(TimeDelta::from_ns(500));
    let image = machine.snapshot();
    // Every truncation point in the header plus a spread through the
    // body must fail cleanly.
    for len in (0..64).chain((64..image.len()).step_by(image.len() / 53)) {
        assert!(Machine::restore(&image[..len]).is_err(), "len {len}");
    }
    // Single-byte corruption anywhere is caught (FNV-1a over each
    // section payload; tags/lengths are checked structurally).
    for at in (0..image.len()).step_by(image.len() / 97) {
        let mut bad = image.clone();
        bad[at] ^= 0x40;
        assert!(Machine::restore(&bad).is_err(), "corrupt byte {at}");
    }
}
