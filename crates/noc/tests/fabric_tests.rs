//! Fabric behaviour tests: wormhole ownership, credit flow control, link
//! aggregation, packet overhead and energy accounting.

use swallow_energy::WireClass;
use swallow_isa::{ControlToken, NodeId, ResType, ResourceId, Token};
use swallow_noc::endpoints::{TestEndpoints, TEST_CHANENDS};
use swallow_noc::routing::LinkDesc;
use swallow_noc::{CoreEndpoints, Direction, Fabric, FabricBuilder, LinkParams, TableRouter};
use swallow_sim::{Time, TimeDelta};

fn chan(node: u16, idx: u8) -> ResourceId {
    ResourceId::new(NodeId(node), idx, ResType::Chanend)
}

/// Builds a two-node fabric with `pairs` parallel on-chip link pairs.
fn two_nodes(pairs: usize) -> (Fabric, TestEndpoints) {
    let mut b = FabricBuilder::new(2);
    for _ in 0..pairs {
        b.link_two_way(
            NodeId(0),
            NodeId(1),
            Direction::East,
            LinkParams::from_class(WireClass::OnChip),
        );
    }
    let router = TableRouter::shortest_paths(2, b.link_descs());
    (b.build(Box::new(router)), TestEndpoints::new(2))
}

/// Steps the fabric every 2 ns until idle and all output queues drained
/// (or the time budget expires). Returns the final simulated time.
fn run(fabric: &mut Fabric, eps: &mut TestEndpoints, budget_ns: u64) -> Time {
    let step = TimeDelta::from_ns(2);
    let mut now = Time::ZERO;
    for _ in 0..budget_ns / 2 {
        now += step;
        fabric.step(now, eps);
        let drained = (0..eps.out.len()).all(|n| eps.out[n].iter().all(|q| q.is_empty()));
        if drained && fabric.is_idle() {
            break;
        }
    }
    now
}

#[test]
fn single_word_crosses_one_link() {
    let (mut fabric, mut eps) = two_nodes(1);
    eps.queue_word(NodeId(0), 0, chan(1, 3), 0xCAFE_F00D);
    eps.queue_token(NodeId(0), 0, chan(1, 3), Token::Ctrl(ControlToken::END));
    let end = run(&mut fabric, &mut eps, 100_000);
    assert_eq!(eps.received_words(NodeId(1), 3), vec![0xCAFE_F00D]);
    assert_eq!(fabric.unroutable_tokens(), 0);
    // 3 header + 4 data + 1 END tokens at 32 ns = 256 ns on the wire.
    let expected = TimeDelta::from_ns(8 * 32);
    assert!(
        end.since(Time::ZERO) >= expected
            && end.since(Time::ZERO) <= expected + TimeDelta::from_ns(40),
        "took {end}"
    );
    let stats: Vec<_> = fabric.link_stats().collect();
    let east = stats.iter().find(|s| s.data_tokens > 0).expect("used link");
    assert_eq!(east.data_tokens, 4);
    assert_eq!(east.ctrl_tokens, 1);
    assert_eq!(east.header_tokens, 3);
}

#[test]
fn packet_overhead_approaches_paper_figure() {
    // "The overhead of packet data reduces throughput to approximately
    // 87% of the link speed, but is dependent upon the packet size."
    // 8-word packets: 32 data tokens per 3 header + 1 END = 32/36 = 88.9%.
    let (mut fabric, mut eps) = two_nodes(1);
    let packets = 50;
    for _ in 0..packets {
        for w in 0..8u32 {
            eps.queue_word(NodeId(0), 0, chan(1, 0), w);
        }
        eps.queue_token(NodeId(0), 0, chan(1, 0), Token::Ctrl(ControlToken::END));
    }
    let end = run(&mut fabric, &mut eps, 10_000_000);
    assert_eq!(eps.received_words(NodeId(1), 0).len(), packets * 8);
    let stats = fabric
        .link_stats()
        .find(|s| s.data_tokens > 0)
        .expect("used");
    let total_tokens = stats.data_tokens + stats.ctrl_tokens + stats.header_tokens;
    let efficiency = stats.data_tokens as f64 / total_tokens as f64;
    assert!(
        (efficiency - 32.0 / 36.0).abs() < 0.01,
        "efficiency = {efficiency}"
    );
    // Wall-clock efficiency agrees: payload bits / (elapsed × raw rate).
    let elapsed = end.since(Time::ZERO).as_secs_f64();
    let payload_rate = (stats.data_tokens * 8) as f64 / elapsed;
    assert!(
        payload_rate / 250e6 > 0.80 && payload_rate / 250e6 < 0.92,
        "payload rate = {payload_rate}"
    );
}

#[test]
fn open_route_blocks_other_flows_until_end() {
    let (mut fabric, mut eps) = two_nodes(1);
    // Flow A (chanend 0) sends one word and holds the route open.
    eps.queue_word(NodeId(0), 0, chan(1, 0), 0xAAAA_AAAA);
    // Flow B (chanend 1) wants the same link.
    eps.queue_word(NodeId(0), 1, chan(1, 1), 0xBBBB_BBBB);
    eps.queue_token(NodeId(0), 1, chan(1, 1), Token::Ctrl(ControlToken::END));
    let step = TimeDelta::from_ns(2);
    let mut now = Time::ZERO;
    for _ in 0..2_000 {
        now += step;
        fabric.step(now, &mut eps);
    }
    // A arrived, B is stuck behind the open circuit.
    assert_eq!(eps.received_words(NodeId(1), 0), vec![0xAAAA_AAAA]);
    assert!(eps.received(NodeId(1), 1).is_empty(), "B should be blocked");
    // A closes the route; B now proceeds.
    eps.queue_token(NodeId(0), 0, chan(1, 0), Token::Ctrl(ControlToken::END));
    run(&mut fabric, &mut eps, 100_000);
    assert_eq!(eps.received_words(NodeId(1), 1), vec![0xBBBB_BBBB]);
}

#[test]
fn aggregated_links_carry_concurrent_flows() {
    // With two parallel links, two simultaneous circuits both make
    // progress ("a new communication will use the next unused link").
    let (mut fabric, mut eps) = two_nodes(2);
    for w in 0..16u32 {
        eps.queue_word(NodeId(0), 0, chan(1, 0), w);
        eps.queue_word(NodeId(0), 1, chan(1, 1), w + 100);
    }
    let step = TimeDelta::from_ns(2);
    let mut now = Time::ZERO;
    for _ in 0..1_500 {
        now += step;
        fabric.step(now, &mut eps);
    }
    // Both flows have delivered data despite neither sending END.
    assert!(!eps.received(NodeId(1), 0).is_empty(), "flow A starved");
    assert!(!eps.received(NodeId(1), 1).is_empty(), "flow B starved");
    // And both physical links saw traffic.
    let used = fabric.link_stats().filter(|s| s.data_tokens > 0).count();
    assert_eq!(used, 2);
}

#[test]
fn with_one_link_second_flow_waits() {
    // The control for the aggregation test: same load, single link pair.
    let (mut fabric, mut eps) = two_nodes(1);
    for w in 0..16u32 {
        eps.queue_word(NodeId(0), 0, chan(1, 0), w);
        eps.queue_word(NodeId(0), 1, chan(1, 1), w + 100);
    }
    let step = TimeDelta::from_ns(2);
    let mut now = Time::ZERO;
    for _ in 0..1_500 {
        now += step;
        fabric.step(now, &mut eps);
    }
    assert!(!eps.received(NodeId(1), 0).is_empty());
    assert!(eps.received(NodeId(1), 1).is_empty(), "no END: B must wait");
}

#[test]
fn credit_stall_preserves_tokens() {
    let (mut fabric, mut eps) = two_nodes(1);
    eps.in_capacity = 0; // receiver refuses everything
    for w in 0..8u32 {
        eps.queue_word(NodeId(0), 0, chan(1, 0), w);
    }
    let step = TimeDelta::from_ns(2);
    let mut now = Time::ZERO;
    for _ in 0..5_000 {
        now += step;
        fabric.step(now, &mut eps);
    }
    assert!(eps.received(NodeId(1), 0).is_empty());
    // The credit window bounds what left the source: at most RX_CAPACITY
    // tokens are in the network.
    let queued: usize = eps.out[0][0].len();
    assert!(
        queued >= 32 - swallow_noc::fabric::RX_CAPACITY,
        "too many tokens absorbed: {queued} left"
    );
    // Open the tap: everything flows, nothing was lost.
    eps.in_capacity = 8;
    run(&mut fabric, &mut eps, 1_000_000);
    let words = eps.received_words(NodeId(1), 0);
    assert_eq!(words, (0..8).collect::<Vec<u32>>());
}

#[test]
fn multi_hop_line_delivers_in_order() {
    let mut b = FabricBuilder::new(3);
    let params = LinkParams::from_class(WireClass::BoardVertical);
    b.link_two_way(NodeId(0), NodeId(1), Direction::South, params);
    b.link_two_way(NodeId(1), NodeId(2), Direction::South, params);
    let router = TableRouter::shortest_paths(3, b.link_descs());
    let mut fabric = b.build(Box::new(router));
    let mut eps = TestEndpoints::new(3);
    for w in 0..5u32 {
        eps.queue_word(NodeId(0), 0, chan(2, 7), w * 3);
    }
    eps.queue_token(NodeId(0), 0, chan(2, 7), Token::Ctrl(ControlToken::END));
    run(&mut fabric, &mut eps, 10_000_000);
    assert_eq!(eps.received_words(NodeId(2), 7), vec![0, 3, 6, 9, 12]);
    assert_eq!(fabric.unroutable_tokens(), 0);
    // Both hops carried the full packet (and their own headers).
    for s in fabric.link_stats().filter(|s| s.data_tokens > 0) {
        assert_eq!(s.data_tokens, 20);
        assert_eq!(s.header_tokens, 3);
        assert_eq!(s.ctrl_tokens, 1);
    }
}

#[test]
fn core_local_traffic_takes_the_loopback() {
    let (mut fabric, mut eps) = two_nodes(1);
    eps.queue_word(NodeId(0), 0, chan(0, 1), 77);
    run(&mut fabric, &mut eps, 10_000);
    assert_eq!(eps.received_words(NodeId(0), 1), vec![77]);
    // No physical link was used.
    assert!(fabric.link_stats().all(|s| s.data_tokens == 0));
    assert_eq!(fabric.total_energy(), swallow_energy::Energy::ZERO);
}

#[test]
fn unroutable_tokens_are_counted_not_wedged() {
    // Node 1 has no route back to node 0.
    let mut b = FabricBuilder::new(2);
    b.link_one_way(
        NodeId(0),
        NodeId(1),
        Direction::East,
        LinkParams::from_class(WireClass::OnChip),
    );
    let router = TableRouter::shortest_paths(2, b.link_descs());
    let mut fabric = b.build(Box::new(router));
    let mut eps = TestEndpoints::new(2);
    eps.queue_word(NodeId(1), 0, chan(0, 0), 5);
    eps.queue_word(NodeId(1), 1, chan(0, 0), 6); // also unroutable
    run(&mut fabric, &mut eps, 10_000);
    assert_eq!(fabric.unroutable_tokens(), 8);
    assert!(fabric.is_idle());
}

#[test]
fn link_energy_matches_table_i_per_bit() {
    let (mut fabric, mut eps) = two_nodes(1);
    let words = 256u32;
    for w in 0..words {
        eps.queue_word(NodeId(0), 0, chan(1, 0), w);
    }
    eps.queue_token(NodeId(0), 0, chan(1, 0), Token::Ctrl(ControlToken::END));
    run(&mut fabric, &mut eps, 100_000_000);
    let stats = fabric
        .link_stats()
        .find(|s| s.data_tokens > 0)
        .expect("used");
    assert_eq!(stats.data_tokens as u32, words * 4);
    // Raw per-bit energy (payload + header + ctrl overhead amortised over
    // payload bits) is within a few percent of Table I's 5.6 pJ/bit for a
    // long packet.
    let per_bit = stats.energy_per_payload_bit().as_picojoules();
    let expected = WireClass::OnChip.energy_per_bit().as_picojoules();
    assert!(
        per_bit >= expected && per_bit < expected * 1.05,
        "per_bit = {per_bit} vs {expected}"
    );
}

#[test]
fn vertical_first_router_on_a_package_pair_reaches_everything() {
    use swallow_noc::routing::{Coord, Layer};
    // Two packages side by side: nodes 0/1 (pkg 0: V, H), 2/3 (pkg 1).
    let coords = vec![
        Coord {
            x: 0,
            y: 0,
            layer: Layer::Vertical,
        },
        Coord {
            x: 0,
            y: 0,
            layer: Layer::Horizontal,
        },
        Coord {
            x: 1,
            y: 0,
            layer: Layer::Vertical,
        },
        Coord {
            x: 1,
            y: 0,
            layer: Layer::Horizontal,
        },
    ];
    let mut b = FabricBuilder::new(4);
    let internal = LinkParams::from_class(WireClass::OnChip);
    let board = LinkParams::from_class(WireClass::BoardHorizontal);
    b.link_two_way(NodeId(0), NodeId(1), Direction::Internal, internal);
    b.link_two_way(NodeId(2), NodeId(3), Direction::Internal, internal);
    b.link_two_way(NodeId(1), NodeId(3), Direction::East, board);
    let descs: Vec<LinkDesc> = b.link_descs().to_vec();
    let router = TableRouter::vertical_first(&coords, &descs);
    let mut fabric = b.build(Box::new(router));
    let mut eps = TestEndpoints::new(4);
    // Every node sends to every other node.
    for src in 0..4u16 {
        for dst in 0..4u16 {
            if src == dst {
                continue;
            }
            eps.queue_word(
                NodeId(src),
                dst as u8,
                chan(dst, src as u8),
                (src as u32) << 8 | dst as u32,
            );
            eps.queue_token(
                NodeId(src),
                dst as u8,
                chan(dst, src as u8),
                Token::Ctrl(ControlToken::END),
            );
        }
    }
    run(&mut fabric, &mut eps, 10_000_000);
    assert_eq!(fabric.unroutable_tokens(), 0);
    for src in 0..4u16 {
        for dst in 0..4u16 {
            if src == dst {
                continue;
            }
            assert_eq!(
                eps.received_words(NodeId(dst), src as u8),
                vec![(src as u32) << 8 | dst as u32],
                "{src} -> {dst}"
            );
        }
    }
}

/// A four-switch line `0 ═ 1 — 2 ≈ 3` (two aggregated on-chip pairs, one
/// on-chip pair, one off-board FFC pair) loaded with crossing packets:
/// a long flow whose slow last hop backs tokens up into credit stalls,
/// a flow contending with it for `1 → 2` (ownership blocks), reverse
/// traffic, core-local loopback, and a corrupt window on `1 → 2` whose
/// retries reschedule that link.
fn contended_line() -> (Fabric, TestEndpoints) {
    let mut b = FabricBuilder::new(4);
    let on_chip = LinkParams::from_class(WireClass::OnChip);
    b.link_two_way(NodeId(0), NodeId(1), Direction::East, on_chip);
    b.link_two_way(NodeId(0), NodeId(1), Direction::East, on_chip);
    let (one_two, _) = b.link_two_way(NodeId(1), NodeId(2), Direction::East, on_chip);
    let ffc = LinkParams::from_class(WireClass::OffBoardFfc);
    b.link_two_way(NodeId(2), NodeId(3), Direction::East, ffc);
    let router = TableRouter::shortest_paths(4, b.link_descs());
    let mut fabric = b.build(Box::new(router));
    fabric.set_link_corrupt_until(one_two, Time::ZERO + TimeDelta::from_ns(400));
    let mut eps = TestEndpoints::new(4);
    let flows: [(u16, u8, ResourceId, u32); 5] = [
        (0, 0, chan(3, 0), 6),
        (0, 1, chan(2, 1), 4),
        (3, 0, chan(0, 2), 3),
        (1, 0, chan(1, 4), 2),
        (2, 2, chan(3, 1), 2),
    ];
    for (node, chanend, dest, words) in flows {
        for w in 0..words {
            eps.queue_word(NodeId(node), chanend, dest, w << 8 | chanend as u32);
        }
        eps.queue_token(NodeId(node), chanend, dest, Token::Ctrl(ControlToken::END));
    }
    (fabric, eps)
}

/// One flow over a single on-chip link with a corrupt window: between
/// retries nothing is in flight, so only the failed attempt's
/// `busy_until` says when to try again.
fn lone_retry() -> (Fabric, TestEndpoints) {
    let (mut fabric, mut eps) = two_nodes(1);
    fabric.set_link_corrupt_until(
        swallow_noc::LinkId::from_raw(0),
        Time::ZERO + TimeDelta::from_ns(300),
    );
    eps.queue_word(NodeId(0), 0, chan(1, 3), 0xCAFE_F00D);
    eps.queue_token(NodeId(0), 0, chan(1, 3), Token::Ctrl(ControlToken::END));
    (fabric, eps)
}

/// Every change of a receive archive, stamped with the step instant.
fn note_arrivals(eps: &TestEndpoints, now: Time, seen: &mut [usize], log: &mut Vec<(Time, usize)>) {
    let lens = eps.inbox.iter().flatten().map(Vec::len);
    for (i, len) in lens.enumerate() {
        if len != seen[i] {
            seen[i] = len;
            log.push((now, i));
        }
    }
}

/// The fabric's own next instant plus every pending output head's
/// launch-ready instant: what the machine's quiet path jumps to.
fn next_instant(fabric: &Fabric, eps: &TestEndpoints, now: Time) -> Option<Time> {
    let mut next = fabric.next_event_at(now);
    for node in 0..eps.out.len() {
        let node = NodeId(node as u16);
        eps.for_each_tx_pending(node, &mut |chanend| {
            let (dest, _) = eps.tx_front(node, chanend).expect("pending");
            let at = fabric.injection_ready_at(now, node, chanend, dest);
            next = Some(next.map_or(at, |n: Time| n.min(at)));
        });
    }
    next
}

#[test]
fn stepping_only_at_horizons_matches_stepping_every_instant() {
    for (name, scenario) in [
        (
            "contended line",
            contended_line as fn() -> (Fabric, TestEndpoints),
        ),
        ("lone retry", lone_retry),
    ] {
        assert_horizon_stepping_exact(name, scenario);
    }
}

/// Steps `scenario` at every 2 ns instant and, separately, only at the
/// instants [`next_instant`] names; both must deliver the same tokens at
/// the same instants and end with the same link statistics, and the
/// sparse run must step far fewer instants.
fn assert_horizon_stepping_exact(name: &str, scenario: fn() -> (Fabric, TestEndpoints)) {
    let step = TimeDelta::from_ns(2);
    let end = Time::ZERO + TimeDelta::from_us(20);
    let slots = 4 * TEST_CHANENDS;

    let (mut dense, mut dense_eps) = scenario();
    let (mut dense_log, mut seen) = (Vec::new(), vec![0; slots]);
    let mut now = Time::ZERO;
    let mut dense_steps = 0;
    while now < end {
        now += step;
        dense.step(now, &mut dense_eps);
        note_arrivals(&dense_eps, now, &mut seen, &mut dense_log);
        dense_steps += 1;
    }

    let (mut sparse, mut sparse_eps) = scenario();
    let (mut sparse_log, mut seen) = (Vec::new(), vec![0; slots]);
    let mut now = Time::ZERO;
    let mut sparse_steps = 0;
    while let Some(at) = next_instant(&sparse, &sparse_eps, now) {
        let at = at.align_up_to(Time::ZERO, step).max(now + step);
        if at > end {
            break;
        }
        now = at;
        sparse.step(now, &mut sparse_eps);
        note_arrivals(&sparse_eps, now, &mut seen, &mut sparse_log);
        sparse_steps += 1;
    }

    assert!(
        dense.is_idle() && sparse.is_idle(),
        "{name}: everything delivered"
    );
    assert_eq!(dense.unroutable_tokens(), 0, "{name}");
    assert!(
        dense.total_retransmits() > 0,
        "{name}: the corrupt window was hit"
    );
    assert_eq!(
        sparse_log, dense_log,
        "{name}: deliveries at different instants"
    );
    assert_eq!(sparse_eps.inbox, dense_eps.inbox, "{name}");
    let stats = |f: &Fabric| f.link_stats().collect::<Vec<_>>();
    assert_eq!(
        stats(&sparse),
        stats(&dense),
        "{name}: link statistics differ"
    );
    assert!(
        sparse_steps * 4 < dense_steps,
        "{name}: {sparse_steps} of {dense_steps} instants stepped"
    );
}
