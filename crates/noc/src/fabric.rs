//! The switching fabric.
//!
//! One switch per core (§IV.D); switches are connected by directed
//! [`links`](crate::link) and exchange eight-bit tokens. The model is
//! token-accurate:
//!
//! * **Wormhole routing**: an output link is *owned* by the flow (source
//!   channel end) whose packet is crossing it, from the three-token route
//!   header until an END/PAUSE control token passes. A route that is never
//!   closed becomes a dedicated circuit (§V.B).
//! * **Credit flow control**: a token is only launched when the receiving
//!   side has buffer space for it (window = [`RX_CAPACITY`]); head-of-line
//!   blocking in the input queues is what produces the contention effects
//!   of §V.D.
//! * **Link aggregation**: when the router offers several links in one
//!   direction, a new packet takes the first link not owned by another
//!   flow.
//! * **Energy**: every token (header included) charges the wire-class
//!   energy from Table I to its link.
//!
//! The fabric is advanced by [`Fabric::step`], typically once per core
//! clock; token rates are enforced by per-link `busy_until` timestamps, so
//! the step cadence only bounds reaction latency, not bandwidth.

use crate::endpoints::CoreEndpoints;
use crate::link::{Direction, LinkId, LinkParams, HEADER_TOKENS};
use crate::routing::{LinkDesc, Router};
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use swallow_energy::Energy;
use swallow_isa::{ControlToken, NodeId, ResType, ResourceId, Token};
use swallow_sim::{
    ByteReader, ByteWriter, CodecError, Time, TimeDelta, TraceEvent, TraceSink, Tracer,
};

/// Multiply-rotate hashing for the fabric's maps, whose keys are a few
/// small integers (flow, node and chanend ids) looked up on every launch
/// attempt and every horizon query: far cheaper than the default
/// SipHash, and seed-free. The keys are ids the topology bounds, so no
/// input can grow a map, or a collision chain, past nodes × chanends.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u16(&mut self, n: u16) {
        self.write_u64(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Receive-buffer capacity per link input port (the credit window).
pub const RX_CAPACITY: usize = 8;
/// Capacity of the core-local loopback queue.
pub const LOOPBACK_CAPACITY: usize = 8;
/// Latency of the core-local loopback path (§V.C: data reaches the network
/// hardware in three core cycles; a core-local word lands in ≈50 ns
/// including instruction overhead).
pub const LOOPBACK_DELAY: TimeDelta = TimeDelta::from_ns(6);
/// Consecutive failed launch attempts after which a link is declared
/// dead (persistent-error escalation): the switch gives up retrying and
/// reports the link for rerouting, like a cable whose errors never stop.
pub const MAX_LINK_RETRIES: u32 = 16;

struct Link {
    from: NodeId,
    to: NodeId,
    dir: Direction,
    params: LinkParams,
    busy_until: Time,
    owner: Option<u32>,
    /// Tokens on the wire: (arrival time, token, flow, destination).
    /// The destination is captured at injection — like the route header
    /// on real hardware — so a later `setd` on the source chanend cannot
    /// divert tokens already in flight.
    in_flight: VecDeque<(Time, Token, u32, ResourceId)>,
    /// Tokens received, awaiting forwarding by the `to` switch.
    rx: VecDeque<(Token, u32, ResourceId)>,
    data_tokens: u64,
    ctrl_tokens: u64,
    header_tokens: u64,
    energy: Energy,
    busy_time: TimeDelta,
    /// True while the link is unplugged (scheduled fault or retry
    /// escalation): it accepts no launches, but in-flight and queued
    /// tokens drain normally — the cable is cut between packets.
    down: bool,
    /// Launches before this instant are detected as corrupt and retried.
    corrupt_until: Time,
    /// Data tokens launched before this instant are lost on the wire.
    drop_until: Time,
    /// Consecutive failed launch attempts (escalates at
    /// [`MAX_LINK_RETRIES`]).
    retry_streak: u32,
    retransmits: u64,
    dropped_tokens: u64,
}

impl Link {
    /// Remaining credit: tokens we may launch without overrunning the
    /// receiver.
    fn credit(&self) -> usize {
        RX_CAPACITY.saturating_sub(self.in_flight.len() + self.rx.len())
    }
}

/// Public per-link statistics snapshot.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkStats {
    /// Link identity.
    pub id: LinkId,
    /// Transmitting node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Compass tag.
    pub dir: Direction,
    /// Payload (data) tokens carried.
    pub data_tokens: u64,
    /// Control tokens carried.
    pub ctrl_tokens: u64,
    /// Route-header tokens carried.
    pub header_tokens: u64,
    /// Energy dissipated on the wires.
    pub energy: Energy,
    /// Total time the link spent transmitting.
    pub busy_time: TimeDelta,
    /// Tokens retransmitted after a detected corruption (energy spent,
    /// counted in `energy`/`busy_time`, payload re-sent later).
    pub retransmits: u64,
    /// Data tokens lost in a drop window.
    pub dropped_tokens: u64,
    /// True while the link is unplugged.
    pub down: bool,
}

impl LinkStats {
    /// Energy per *payload* bit actually delivered (headers amortised in).
    pub fn energy_per_payload_bit(&self) -> Energy {
        let bits = self.data_tokens * 8;
        if bits == 0 {
            Energy::ZERO
        } else {
            Energy::from_joules(self.energy.as_joules() / bits as f64)
        }
    }
}

enum TxResult {
    Started,
    Busy,
    Unroutable,
    /// The token was launched into a drop window and lost on the wire:
    /// the sender's view is identical to [`TxResult::Started`] (energy
    /// spent, queue popped), the payload never lands.
    Dropped,
}

/// What the link's error-detection model says about a launch attempt.
enum LaunchGate {
    Clear,
    Retry,
    Drop,
}

/// Builds a [`Fabric`].
///
/// ```
/// use swallow_noc::{FabricBuilder, Direction, LinkParams, TableRouter};
/// use swallow_energy::WireClass;
/// use swallow_isa::NodeId;
///
/// let mut b = FabricBuilder::new(2);
/// b.link_two_way(
///     NodeId(0),
///     NodeId(1),
///     Direction::East,
///     LinkParams::from_class(WireClass::OnChip),
/// );
/// let router = TableRouter::shortest_paths(2, b.link_descs());
/// let fabric = b.build(Box::new(router));
/// assert_eq!(fabric.link_count(), 2);
/// ```
pub struct FabricBuilder {
    nodes: usize,
    links: Vec<Link>,
    descs: Vec<LinkDesc>,
}

impl FabricBuilder {
    /// A fabric over `nodes` switches (node ids `0..nodes`).
    pub fn new(nodes: usize) -> Self {
        FabricBuilder {
            nodes,
            links: Vec::new(),
            descs: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Adds one directed link.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn link_one_way(
        &mut self,
        from: NodeId,
        to: NodeId,
        dir: Direction,
        params: LinkParams,
    ) -> LinkId {
        assert!(
            (from.raw() as usize) < self.nodes && (to.raw() as usize) < self.nodes,
            "link endpoint out of range"
        );
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link {
            from,
            to,
            dir,
            params,
            busy_until: Time::ZERO,
            owner: None,
            in_flight: VecDeque::new(),
            rx: VecDeque::new(),
            data_tokens: 0,
            ctrl_tokens: 0,
            header_tokens: 0,
            energy: Energy::ZERO,
            busy_time: TimeDelta::ZERO,
            down: false,
            corrupt_until: Time::ZERO,
            drop_until: Time::ZERO,
            retry_streak: 0,
            retransmits: 0,
            dropped_tokens: 0,
        });
        self.descs.push(LinkDesc { id, from, to, dir });
        id
    }

    /// Adds a link pair `a→b` (tagged `dir`) and `b→a` (opposite tag).
    pub fn link_two_way(
        &mut self,
        a: NodeId,
        b: NodeId,
        dir: Direction,
        params: LinkParams,
    ) -> (LinkId, LinkId) {
        let ab = self.link_one_way(a, b, dir, params);
        let ba = self.link_one_way(b, a, dir.opposite(), params);
        (ab, ba)
    }

    /// The topology so far (for router construction).
    pub fn link_descs(&self) -> &[LinkDesc] {
        &self.descs
    }

    /// Finalises the fabric with a routing strategy.
    pub fn build(self, router: Box<dyn Router>) -> Fabric {
        let mut incoming = vec![Vec::new(); self.nodes];
        let mut outgoing = vec![Vec::new(); self.nodes];
        for d in &self.descs {
            outgoing[d.from.raw() as usize].push(d.id);
            incoming[d.to.raw() as usize].push(d.id);
        }
        Fabric {
            nodes: self.nodes,
            links: self.links,
            incoming,
            outgoing,
            router,
            loopback: (0..self.nodes).map(|_| VecDeque::new()).collect(),
            dest_owner: IdMap::default(),
            sticky: IdMap::default(),
            unroutable: 0,
            in_network: 0,
            tx_scratch: Vec::new(),
            tracer: Tracer::Off,
            escalated: Vec::new(),
            delivered_data: 0,
        }
    }
}

/// The live network.
pub struct Fabric {
    nodes: usize,
    links: Vec<Link>,
    incoming: Vec<Vec<LinkId>>,
    outgoing: Vec<Vec<LinkId>>,
    router: Box<dyn Router>,
    /// Core-local deliveries in flight: (arrival, dest chanend, token, flow).
    loopback: Vec<VecDeque<(Time, u8, Token, u32)>>,
    /// Per destination chanend: the flow whose packet currently owns
    /// delivery (wormhole ownership of the final hop). Key: node<<8 | ch.
    dest_owner: IdMap<u32, u32>,
    /// Sticky link binding: once a flow has carried a packet towards a
    /// destination over some link out of a switch, its later packets to
    /// the same destination use the same link. This preserves a channel's
    /// token order end-to-end (XS1 channels are serial); link aggregation
    /// balances *distinct* flows across parallel links, which is exactly
    /// how §V.B describes its use.
    sticky: IdMap<(u32, NodeId, NodeId), LinkId>,
    unroutable: u64,
    /// Tokens currently inside the network (on a wire, in a receive
    /// queue, or in a loopback queue). Maintained incrementally so
    /// idleness checks and the fast-forward event query are O(1) when
    /// the network is empty.
    in_network: usize,
    /// Reusable buffer for the per-node injection scan (avoids a heap
    /// allocation per step).
    tx_scratch: Vec<u8>,
    /// Trace sink for [`TraceEvent::LinkTransit`] records. The fabric is
    /// only stepped from the control thread (serially, even under the
    /// parallel engine), so one sink covers every link deterministically.
    tracer: Tracer,
    /// Links whose retry streak crossed [`MAX_LINK_RETRIES`] and were
    /// declared down; drained by the board layer, which reroutes around
    /// them and books the failure.
    escalated: Vec<LinkId>,
    /// Data tokens delivered into a destination chanend (loopback and
    /// link paths alike) — the numerator of the delivered-token rate.
    delivered_data: u64,
}

impl Fabric {
    /// Number of switches.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Number of directed links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Tokens dropped because no route existed (should stay zero on a
    /// well-formed system; asserted by tests).
    pub fn unroutable_tokens(&self) -> u64 {
        self.unroutable
    }

    /// True when no token is on a wire, in a receive queue or in a
    /// loopback queue. O(1): the population is counted incrementally.
    pub fn is_idle(&self) -> bool {
        debug_assert_eq!(
            self.in_network,
            self.links
                .iter()
                .map(|l| l.in_flight.len() + l.rx.len())
                .sum::<usize>()
                + self.loopback.iter().map(|q| q.len()).sum::<usize>(),
            "in-network token counter out of sync"
        );
        self.in_network == 0
    }

    /// All-pairs minimum routed token latency between switches, in
    /// picoseconds: entry `i * node_count + j` is the smallest sum of
    /// per-hop token times over any path of *live* (not-down) links from
    /// `i` to `j`, `0` on the diagonal and `u64::MAX` when no live path
    /// exists. This is the parallel engine's conservative lookahead per
    /// pair: a token leaving `i` cannot land at `j` earlier than
    /// `dist(i, j)` after its emission, whatever route the router picks,
    /// because every hop costs at least its link's token time (`3·Ts +
    /// Tt` link-clock cycles, §V.C) and forwarding only adds delay.
    /// Off-board FFC hops (4× the on-chip token time, Table I) therefore
    /// give distant pairs far longer conservative horizons than the
    /// fastest wire alone would. The core-local loopback path never
    /// leaves its node, so it never bounds a cross-node entry.
    ///
    /// The matrix is a property of the live topology only — it must be
    /// recomputed whenever a link goes down or comes back up (fault
    /// injection, retry escalation, recovery), alongside the route
    /// recompute the board layer already performs. A *stale-down* matrix
    /// (computed before a link died) is still conservative — removing a
    /// link can only lengthen real latencies — but a stale-up one is not.
    ///
    /// Cost: one Dijkstra per source over the live adjacency, so roughly
    /// `O(nodes · links · log nodes)`; intended for topology-change
    /// cadence, not per-epoch use.
    pub fn min_latency_matrix_ps(&self) -> Vec<u64> {
        let n = self.nodes;
        // Live adjacency, cheapest parallel link per (from, to) pair.
        let mut adj: Vec<Vec<(u32, u64)>> = vec![Vec::new(); n];
        for link in &self.links {
            if link.down {
                continue;
            }
            let from = link.from.raw() as usize;
            let to = link.to.raw() as u32;
            let w = link.params.token_time.as_ps();
            match adj[from].iter_mut().find(|(t, _)| *t == to) {
                Some((_, best)) => *best = (*best).min(w),
                None => adj[from].push((to, w)),
            }
        }
        let mut dist = vec![u64::MAX; n * n];
        let mut heap = std::collections::BinaryHeap::new();
        for src in 0..n {
            let row = &mut dist[src * n..(src + 1) * n];
            row[src] = 0;
            heap.clear();
            heap.push(std::cmp::Reverse((0u64, src as u32)));
            while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
                if d > row[u as usize] {
                    continue;
                }
                for &(v, w) in &adj[u as usize] {
                    let nd = d + w;
                    if nd < row[v as usize] {
                        row[v as usize] = nd;
                        heap.push(std::cmp::Reverse((nd, v)));
                    }
                }
            }
        }
        dist
    }

    /// The earliest instant at which the fabric itself has work to do,
    /// given no further core activity: the earliest wire or loopback
    /// arrival, and for every token queued at a switch the instant it
    /// can next move — `now` for a delivery to the switch's own core, the
    /// launch-ready instant ([`Fabric::launch_ready_at`]) for a token
    /// bound onwards. `None` when the network is empty.
    ///
    /// This is the network half of the fast-forward contract: strictly
    /// before the returned instant, [`Fabric::step`] without new core
    /// traffic is a no-op.
    pub fn next_event_at(&self, now: Time) -> Option<Time> {
        if self.in_network == 0 {
            return None;
        }
        let mut earliest = Time::MAX;
        for link in &self.links {
            if let Some(&(_, flow, dest)) = link.rx.front() {
                let at = if dest.node() == link.to {
                    now
                } else {
                    self.launch_ready_at(now, link.to, flow, dest)
                };
                if at <= now {
                    return Some(now);
                }
                earliest = earliest.min(at);
            }
            if let Some(&(arrival, ..)) = link.in_flight.front() {
                if arrival <= now {
                    return Some(now);
                }
                earliest = earliest.min(arrival);
            }
        }
        for queue in &self.loopback {
            if let Some(&(arrival, ..)) = queue.front() {
                if arrival <= now {
                    return Some(now);
                }
                earliest = earliest.min(arrival);
            }
        }
        Some(earliest)
    }

    /// When the token at the head of `node`'s chanend `chanend` output
    /// queue, bound for `dest`, can next enter the network: `now` for a
    /// core-local destination (the loopback path has no link time),
    /// otherwise the launch-ready instant ([`Fabric::launch_ready_at`])
    /// of the chanend's flow at its own switch. The injection half of the
    /// fast-forward contract.
    pub fn injection_ready_at(
        &self,
        now: Time,
        node: NodeId,
        chanend: u8,
        dest: ResourceId,
    ) -> Time {
        if dest.node() == node {
            return now;
        }
        self.launch_ready_at(now, node, chanend_flow(node, chanend), dest)
    }

    /// The instant from which a token of `flow` queued at switch `at` and
    /// bound for `dest` on another switch can launch, if nothing else in
    /// the network changes first: the `busy_until` of the link
    /// [`Fabric::try_transmit`] would take — the flow's sticky link, else
    /// the earliest free router candidate — provided that link is up, has
    /// credit and is not held by another packet. Every other block (an
    /// owned or credit-less link, a dead sticky link, no route) waits on
    /// another token's progress or needs the attempt itself, so it
    /// answers `now`.
    ///
    /// Exact, not just conservative: before the returned instant every
    /// attempt is a side-effect-free `Busy`. Only a launch on a link moves
    /// its `busy_until` or takes its ownership or credit, and none can
    /// start before `busy_until`; a retry in a corrupt or drop window
    /// sets `busy_until` to the next attempt's instant.
    fn launch_ready_at(&self, now: Time, at: NodeId, flow: u32, dest: ResourceId) -> Time {
        let ready = match self.sticky.get(&(flow, at, dest.node())) {
            Some(&bound) => {
                let link = &self.links[bound.0 as usize];
                let held = link.owner.is_some_and(|owner| owner != flow);
                (!link.down && !held && link.credit() >= 1).then_some(link.busy_until)
            }
            None => self
                .router
                .candidates(at, dest.node())
                .iter()
                .map(|lid| &self.links[lid.0 as usize])
                .filter(|link| !link.down && link.owner.is_none() && link.credit() >= 1)
                .map(|link| link.busy_until)
                .min(),
        };
        ready.map_or(now, |free| free.max(now))
    }

    /// Replaces the fabric's trace sink.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The fabric's trace sink.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Per-link statistics.
    pub fn link_stats(&self) -> impl Iterator<Item = LinkStats> + '_ {
        self.links.iter().enumerate().map(|(i, l)| LinkStats {
            id: LinkId(i as u32),
            from: l.from,
            to: l.to,
            dir: l.dir,
            data_tokens: l.data_tokens,
            ctrl_tokens: l.ctrl_tokens,
            header_tokens: l.header_tokens,
            energy: l.energy,
            busy_time: l.busy_time,
            retransmits: l.retransmits,
            dropped_tokens: l.dropped_tokens,
            down: l.down,
        })
    }

    /// Takes a link out of service ("hot-unplug"). New launches are
    /// refused, wormhole routes bound to it are unbound so their flows
    /// re-open over another link, and tokens already on the wire or in
    /// the receive queue drain normally. Idempotent; an out-of-range id
    /// is ignored. Returns true when the link state changed.
    pub fn set_link_down(&mut self, lid: LinkId) -> bool {
        let Some(link) = self.links.get_mut(lid.0 as usize) else {
            return false;
        };
        if link.down {
            return false;
        }
        link.down = true;
        link.owner = None;
        link.retry_streak = 0;
        self.sticky.retain(|_, &mut bound| bound != lid);
        true
    }

    /// Puts a downed link back in service. Idempotent; out-of-range ids
    /// are ignored. Returns true when the link state changed.
    pub fn set_link_up(&mut self, lid: LinkId) -> bool {
        let Some(link) = self.links.get_mut(lid.0 as usize) else {
            return false;
        };
        let was_down = link.down;
        link.down = false;
        link.retry_streak = 0;
        was_down
    }

    /// True while the link is out of service.
    pub fn link_is_down(&self, lid: LinkId) -> bool {
        self.links.get(lid.0 as usize).is_some_and(|link| link.down)
    }

    /// Opens a corruption window on a link: every launch strictly before
    /// `until` is detected as corrupt and retried (energy spent, payload
    /// re-sent). Extends, never shortens, an existing window.
    pub fn set_link_corrupt_until(&mut self, lid: LinkId, until: Time) {
        if let Some(link) = self.links.get_mut(lid.0 as usize) {
            link.corrupt_until = link.corrupt_until.max(until);
        }
    }

    /// Opens a drop window on a link: data tokens launched strictly
    /// before `until` are lost on the wire (control tokens are retried
    /// instead, so routes still close). Extends an existing window.
    pub fn set_link_drop_until(&mut self, lid: LinkId, until: Time) {
        if let Some(link) = self.links.get_mut(lid.0 as usize) {
            link.drop_until = link.drop_until.max(until);
        }
    }

    /// Replaces the routing strategy — the board layer's hook for
    /// recomputing tables around dead links. Sticky flow bindings and
    /// wormhole ownerships survive: flows already crossing a live link
    /// keep it, new packets follow the new tables.
    pub fn set_router(&mut self, router: Box<dyn Router>) {
        self.router = router;
    }

    /// True when a retry escalation is waiting to be handled.
    pub fn has_escalations(&self) -> bool {
        !self.escalated.is_empty()
    }

    /// Drains the links declared dead by retry escalation into `out`
    /// (each already marked down; the caller reroutes and books them).
    pub fn take_escalated(&mut self, out: &mut Vec<LinkId>) {
        out.append(&mut self.escalated);
    }

    /// Total tokens retransmitted after detected corruptions.
    pub fn total_retransmits(&self) -> u64 {
        self.links.iter().map(|l| l.retransmits).sum()
    }

    /// Total data tokens lost in drop windows.
    pub fn total_dropped_tokens(&self) -> u64 {
        self.links.iter().map(|l| l.dropped_tokens).sum()
    }

    /// Total data tokens delivered into destination chanends.
    pub fn delivered_data_tokens(&self) -> u64 {
        self.delivered_data
    }

    /// Total wire energy dissipated so far.
    pub fn total_energy(&self) -> Energy {
        self.links.iter().map(|l| l.energy).sum()
    }

    /// Total wire energy attributable to links transmitting *from* a node
    /// (how the board charges network energy to nodes).
    pub fn energy_from_node(&self, node: NodeId) -> Energy {
        self.outgoing[node.raw() as usize]
            .iter()
            .map(|&id| self.links[id.0 as usize].energy)
            .sum()
    }

    /// Advances the fabric to `now`: lands arrivals, forwards queued
    /// tokens, injects core traffic and delivers to cores.
    pub fn step<E: CoreEndpoints>(&mut self, now: Time, cores: &mut E) {
        if self.in_network > 0 {
            self.land_arrivals(now);
            self.deliver_loopback(now, cores);
            self.forward_rx(now, cores);
        }
        self.inject_from_cores(now, cores);
    }

    fn land_arrivals(&mut self, now: Time) {
        for link in &mut self.links {
            while let Some(&(arrival, token, flow, dest)) = link.in_flight.front() {
                if arrival <= now && link.rx.len() < RX_CAPACITY {
                    link.rx.push_back((token, flow, dest));
                    link.in_flight.pop_front();
                } else {
                    break;
                }
            }
        }
    }

    fn deliver_loopback<E: CoreEndpoints>(&mut self, now: Time, cores: &mut E) {
        for node in 0..self.nodes {
            while let Some(&(arrival, chanend, token, flow)) = self.loopback[node].front() {
                if arrival <= now
                    && Self::try_deliver(
                        &mut self.dest_owner,
                        cores,
                        NodeId(node as u16),
                        chanend,
                        token,
                        flow,
                    )
                {
                    self.loopback[node].pop_front();
                    self.in_network -= 1;
                    if matches!(token, Token::Data(_)) {
                        self.delivered_data += 1;
                    }
                } else {
                    break;
                }
            }
        }
    }

    /// Delivers one token into a destination chanend, honouring the
    /// per-chanend packet ownership: once a flow's token lands, the
    /// chanend belongs to that flow until its END/PAUSE arrives (the
    /// final-hop half of wormhole routing — packets never interleave at
    /// the receiver).
    fn try_deliver<E: CoreEndpoints>(
        dest_owner: &mut IdMap<u32, u32>,
        cores: &mut E,
        node: NodeId,
        chanend: u8,
        token: Token,
        flow: u32,
    ) -> bool {
        let key = (node.raw() as u32) << 8 | chanend as u32;
        if let Some(&owner) = dest_owner.get(&key) {
            if owner != flow {
                return false; // another packet holds the chanend
            }
        }
        if !cores.can_accept(node, chanend, 1) || !cores.deliver(node, chanend, token) {
            return false;
        }
        if token.closes_route() {
            dest_owner.remove(&key);
        } else {
            dest_owner.insert(key, flow);
        }
        true
    }

    fn forward_rx<E: CoreEndpoints>(&mut self, now: Time, cores: &mut E) {
        for node in 0..self.nodes {
            for i in 0..self.incoming[node].len() {
                let lid = self.incoming[node][i];
                while let Some(&(token, flow, dest)) = self.links[lid.0 as usize].rx.front() {
                    if dest.node().raw() as usize == node {
                        if Self::try_deliver(
                            &mut self.dest_owner,
                            cores,
                            dest.node(),
                            dest.index(),
                            token,
                            flow,
                        ) {
                            self.links[lid.0 as usize].rx.pop_front();
                            self.in_network -= 1;
                            if matches!(token, Token::Data(_)) {
                                self.delivered_data += 1;
                            }
                        } else {
                            break; // head-of-line blocked on the core
                        }
                    } else {
                        match self.try_transmit(now, NodeId(node as u16), token, flow, dest) {
                            TxResult::Started | TxResult::Dropped => {
                                self.links[lid.0 as usize].rx.pop_front();
                                self.in_network -= 1;
                            }
                            TxResult::Busy => break,
                            TxResult::Unroutable => {
                                self.links[lid.0 as usize].rx.pop_front();
                                self.in_network -= 1;
                                self.unroutable += 1;
                            }
                        }
                    }
                }
            }
        }
    }

    fn inject_from_cores<E: CoreEndpoints>(&mut self, now: Time, cores: &mut E) {
        let mut pending = std::mem::take(&mut self.tx_scratch);
        for node in 0..self.nodes {
            let node_id = NodeId(node as u16);
            if !cores.has_tx_pending(node_id) {
                continue;
            }
            pending.clear();
            cores.for_each_tx_pending(node_id, &mut |ch| pending.push(ch));
            for &chanend in &pending {
                while let Some((dest, token)) = cores.tx_front(node_id, chanend) {
                    let flow = chanend_flow(node_id, chanend);
                    if dest.node() == node_id {
                        // Core-local: loopback path, no serial link.
                        if self.loopback[node].len() < LOOPBACK_CAPACITY {
                            cores.tx_pop(node_id, chanend);
                            self.loopback[node].push_back((
                                now + LOOPBACK_DELAY,
                                dest.index(),
                                token,
                                flow,
                            ));
                            self.in_network += 1;
                        } else {
                            break;
                        }
                    } else {
                        match self.try_transmit(now, node_id, token, flow, dest) {
                            TxResult::Started | TxResult::Dropped => {
                                cores.tx_pop(node_id, chanend);
                            }
                            TxResult::Busy => break,
                            TxResult::Unroutable => {
                                cores.tx_pop(node_id, chanend);
                                self.unroutable += 1;
                            }
                        }
                    }
                }
            }
        }
        self.tx_scratch = pending;
    }

    fn try_transmit(
        &mut self,
        now: Time,
        at: NodeId,
        token: Token,
        flow: u32,
        dest: ResourceId,
    ) -> TxResult {
        let candidates = self.router.candidates(at, dest.node());
        if candidates.is_empty() {
            return TxResult::Unroutable;
        }
        // A flow is bound to one link per switch for its lifetime: the
        // link its first packet took. Without this, two packets of one
        // channel could race over parallel aggregated links and arrive
        // interleaved — XS1 channels are strictly serial.
        if let Some(&bound) = self.sticky.get(&(flow, at, dest.node())) {
            if self.links[bound.0 as usize].down {
                // The bound link died under the flow: unbind it and fall
                // through to fresh selection below. The rebind re-opens
                // the route with a full three-token header — the energy
                // cost of the reroute is charged where it is spent.
                self.sticky.remove(&(flow, at, dest.node()));
                let link = &mut self.links[bound.0 as usize];
                if link.owner == Some(flow) {
                    link.owner = None;
                }
            } else {
                let link = &self.links[bound.0 as usize];
                return match link.owner {
                    Some(owner) if owner == flow => {
                        if self.can_launch(bound, now) {
                            self.commit_launch(bound, now, token, flow, dest, false)
                        } else {
                            TxResult::Busy
                        }
                    }
                    Some(_) => TxResult::Busy, // another packet holds our link
                    None => {
                        if self.can_launch(bound, now) {
                            self.bind_and_launch(bound, now, at, token, flow, dest)
                        } else {
                            TxResult::Busy
                        }
                    }
                };
            }
        }
        // First packet of this flow here (or a rebind after its link
        // died): take the first free link ("the next unused link", §V.B)
        // and bind to it. A retry-gated attempt leaves the faulty link
        // busy for a token time, so the next attempt naturally picks the
        // following aggregated link if one is free.
        for lid in candidates.iter() {
            let link = &self.links[lid.0 as usize];
            if !link.down && link.owner.is_none() && self.can_launch(lid, now) {
                return self.bind_and_launch(lid, now, at, token, flow, dest);
            }
        }
        TxResult::Busy
    }

    /// What the error-detection model says about launching `token` on
    /// `lid` at `now`, charging the cost of a failed attempt. A corrupt
    /// launch spends one token's wire time and energy and will be
    /// retried by the caller's next step; [`MAX_LINK_RETRIES`]
    /// consecutive failures declare the link dead (escalation).
    fn launch_gate(&mut self, lid: LinkId, now: Time, token: Token) -> LaunchGate {
        let link = &mut self.links[lid.0 as usize];
        if now < link.drop_until && matches!(token, Token::Data(_)) {
            return LaunchGate::Drop;
        }
        if now < link.corrupt_until || now < link.drop_until {
            // Corrupt window — or a control token in a drop window,
            // which is retried rather than lost so routes still close
            // (a lost END would wedge the wormhole forever).
            link.retransmits += 1;
            link.retry_streak += 1;
            link.energy += link.params.token_energy();
            link.busy_time += link.params.token_time;
            link.busy_until = now + link.params.token_time;
            let streak = link.retry_streak;
            if self.tracer.is_enabled() {
                self.tracer.emit(
                    now,
                    TraceEvent::LinkRetry {
                        link: lid.0,
                        streak,
                    },
                );
            }
            if streak >= MAX_LINK_RETRIES {
                // Persistent errors: give up on the link. Ownership and
                // sticky bindings are cleared here; the board layer
                // drains `escalated`, reroutes and books the failure.
                self.set_link_down(lid);
                self.escalated.push(lid);
            }
            return LaunchGate::Retry;
        }
        link.retry_streak = 0;
        LaunchGate::Clear
    }

    /// Launches on an unowned link, binding ownership and the sticky
    /// flow association first — unless the launch gate refuses, in which
    /// case nothing is bound and the caller retries later.
    fn bind_and_launch(
        &mut self,
        lid: LinkId,
        now: Time,
        at: NodeId,
        token: Token,
        flow: u32,
        dest: ResourceId,
    ) -> TxResult {
        match self.launch_gate(lid, now, token) {
            LaunchGate::Retry => TxResult::Busy,
            gate => {
                self.links[lid.0 as usize].owner = Some(flow);
                self.sticky.insert((flow, at, dest.node()), lid);
                self.launch(lid, now, token, flow, dest, true);
                self.finish_gated(gate, lid)
            }
        }
    }

    /// Launches on a link the flow already owns, subject to the gate.
    fn commit_launch(
        &mut self,
        lid: LinkId,
        now: Time,
        token: Token,
        flow: u32,
        dest: ResourceId,
        header: bool,
    ) -> TxResult {
        match self.launch_gate(lid, now, token) {
            LaunchGate::Retry => TxResult::Busy,
            gate => {
                self.launch(lid, now, token, flow, dest, header);
                self.finish_gated(gate, lid)
            }
        }
    }

    /// After a gated launch: on a drop, take the token back off the wire
    /// — the sender saw a normal launch (energy spent, ownership moved),
    /// the payload is gone.
    fn finish_gated(&mut self, gate: LaunchGate, lid: LinkId) -> TxResult {
        match gate {
            LaunchGate::Clear => TxResult::Started,
            LaunchGate::Retry => unreachable!("retries never reach launch"),
            LaunchGate::Drop => {
                let link = &mut self.links[lid.0 as usize];
                link.in_flight.pop_back();
                link.dropped_tokens += 1;
                self.in_network -= 1;
                if self.tracer.is_enabled() {
                    let at = self.links[lid.0 as usize].busy_until;
                    self.tracer.emit(at, TraceEvent::TokenDrop { link: lid.0 });
                }
                TxResult::Dropped
            }
        }
    }

    fn can_launch(&self, lid: LinkId, now: Time) -> bool {
        let link = &self.links[lid.0 as usize];
        !link.down && link.busy_until <= now && link.credit() >= 1
    }

    fn launch(
        &mut self,
        lid: LinkId,
        now: Time,
        token: Token,
        flow: u32,
        dest: ResourceId,
        header: bool,
    ) {
        let link = &mut self.links[lid.0 as usize];
        let mut start = now;
        if header {
            // Three header tokens open the route at this hop (§V.B).
            let header_time = link.params.token_time * HEADER_TOKENS;
            start = now + header_time;
            link.header_tokens += HEADER_TOKENS;
            link.energy += link.params.token_energy() * HEADER_TOKENS as f64;
            link.busy_time += header_time;
        }
        let arrival = start + link.params.token_time;
        link.in_flight.push_back((arrival, token, flow, dest));
        self.in_network += 1;
        let link = &mut self.links[lid.0 as usize];
        link.busy_until = arrival;
        link.busy_time += link.params.token_time;
        link.energy += link.params.token_energy();
        match token {
            Token::Data(_) => link.data_tokens += 1,
            Token::Ctrl(_) => link.ctrl_tokens += 1,
        }
        if token.closes_route() {
            link.owner = None;
        }
        if self.tracer.is_enabled() {
            let link = &self.links[lid.0 as usize];
            self.tracer.emit(
                start,
                TraceEvent::LinkTransit {
                    link: lid.0,
                    from: link.from.0,
                    to: link.to.0,
                    ctrl: matches!(token, Token::Ctrl(_)),
                    busy: link.params.token_time,
                },
            );
        }
    }

    // --- snapshot ---------------------------------------------------------

    /// Serializes the mutable (architectural) state of the fabric into
    /// `w`: per-link wire/queue/fault state and statistics, loopback
    /// queues, wormhole ownerships and sticky flow bindings. The static
    /// topology (endpoints, directions, wire parameters) and the router
    /// are *not* written — both are rebuilt deterministically from the
    /// machine configuration on restore — and neither are the derived
    /// in-network counter, scratch buffers, tracer or undrained
    /// escalations (snapshots are taken at step boundaries, where the
    /// escalation queue is empty).
    pub fn encode_state(&self, w: &mut ByteWriter) {
        debug_assert!(
            self.escalated.is_empty(),
            "snapshot with undrained link escalations"
        );
        w.u64(self.links.len() as u64);
        for link in &self.links {
            w.u64(link.busy_until.as_ps());
            match link.owner {
                None => w.u8(0),
                Some(flow) => {
                    w.u8(1);
                    w.u32(flow);
                }
            }
            w.u64(link.in_flight.len() as u64);
            for &(arrival, token, flow, dest) in &link.in_flight {
                w.u64(arrival.as_ps());
                write_token(w, token);
                w.u32(flow);
                w.u32(dest.raw());
            }
            w.u64(link.rx.len() as u64);
            for &(token, flow, dest) in &link.rx {
                write_token(w, token);
                w.u32(flow);
                w.u32(dest.raw());
            }
            w.u64(link.data_tokens);
            w.u64(link.ctrl_tokens);
            w.u64(link.header_tokens);
            w.f64_bits(link.energy.as_joules());
            w.u64(link.busy_time.as_ps());
            w.bool(link.down);
            w.u64(link.corrupt_until.as_ps());
            w.u64(link.drop_until.as_ps());
            w.u32(link.retry_streak);
            w.u64(link.retransmits);
            w.u64(link.dropped_tokens);
        }
        w.u64(self.loopback.len() as u64);
        for queue in &self.loopback {
            w.u64(queue.len() as u64);
            for &(arrival, chanend, token, flow) in queue {
                w.u64(arrival.as_ps());
                w.u8(chanend);
                write_token(w, token);
                w.u32(flow);
            }
        }
        // HashMaps are written in sorted key order so identical fabric
        // state always serializes to identical bytes.
        let mut owners: Vec<(u32, u32)> = self.dest_owner.iter().map(|(&k, &v)| (k, v)).collect();
        owners.sort_unstable();
        w.u64(owners.len() as u64);
        for (key, flow) in owners {
            w.u32(key);
            w.u32(flow);
        }
        let mut sticky: Vec<((u32, NodeId, NodeId), LinkId)> =
            self.sticky.iter().map(|(&k, &v)| (k, v)).collect();
        sticky.sort_unstable_by_key(|&((flow, from, to), _)| (flow, from.0, to.0));
        w.u64(sticky.len() as u64);
        for ((flow, from, to), lid) in sticky {
            w.u32(flow);
            w.u16(from.0);
            w.u16(to.0);
            w.u32(lid.0);
        }
        w.u64(self.unroutable);
        w.u64(self.delivered_data);
    }

    /// Overlays the state written by [`Fabric::encode_state`] onto this
    /// fabric, which must have been rebuilt from the same topology (the
    /// link and node counts are validated). The in-network token counter
    /// is recomputed from the restored queues.
    pub fn restore_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        let links = r.len_prefixed(1)?;
        if links != self.links.len() {
            return Err(CodecError::Invalid("fabric link count mismatch"));
        }
        for link in &mut self.links {
            link.busy_until = Time::from_ps(r.u64()?);
            link.owner = match r.u8()? {
                0 => None,
                1 => Some(r.u32()?),
                _ => return Err(CodecError::Invalid("link owner tag out of range")),
            };
            let in_flight = r.len_prefixed(14)?;
            if in_flight > RX_CAPACITY {
                return Err(CodecError::Invalid("link wire queue overfull"));
            }
            link.in_flight.clear();
            for _ in 0..in_flight {
                let arrival = Time::from_ps(r.u64()?);
                let token = read_token(r)?;
                let flow = r.u32()?;
                let dest = ResourceId::from_raw(r.u32()?);
                link.in_flight.push_back((arrival, token, flow, dest));
            }
            let rx = r.len_prefixed(6)?;
            if link.in_flight.len() + rx > RX_CAPACITY {
                return Err(CodecError::Invalid("link receive queue overfull"));
            }
            link.rx.clear();
            for _ in 0..rx {
                let token = read_token(r)?;
                let flow = r.u32()?;
                let dest = ResourceId::from_raw(r.u32()?);
                link.rx.push_back((token, flow, dest));
            }
            link.data_tokens = r.u64()?;
            link.ctrl_tokens = r.u64()?;
            link.header_tokens = r.u64()?;
            link.energy = Energy::from_joules(r.f64_bits()?);
            link.busy_time = TimeDelta::from_ps(r.u64()?);
            link.down = r.bool()?;
            link.corrupt_until = Time::from_ps(r.u64()?);
            link.drop_until = Time::from_ps(r.u64()?);
            link.retry_streak = r.u32()?;
            link.retransmits = r.u64()?;
            link.dropped_tokens = r.u64()?;
        }
        let nodes = r.len_prefixed(1)?;
        if nodes != self.nodes {
            return Err(CodecError::Invalid("fabric node count mismatch"));
        }
        for queue in &mut self.loopback {
            let len = r.len_prefixed(12)?;
            if len > LOOPBACK_CAPACITY {
                return Err(CodecError::Invalid("loopback queue overfull"));
            }
            queue.clear();
            for _ in 0..len {
                let arrival = Time::from_ps(r.u64()?);
                let chanend = r.u8()?;
                let token = read_token(r)?;
                let flow = r.u32()?;
                queue.push_back((arrival, chanend, token, flow));
            }
        }
        let owners = r.len_prefixed(8)?;
        self.dest_owner.clear();
        for _ in 0..owners {
            let key = r.u32()?;
            let flow = r.u32()?;
            if self.dest_owner.insert(key, flow).is_some() {
                return Err(CodecError::Invalid("duplicate chanend ownership"));
            }
        }
        let sticky = r.len_prefixed(12)?;
        self.sticky.clear();
        for _ in 0..sticky {
            let flow = r.u32()?;
            let from = NodeId(r.u16()?);
            let to = NodeId(r.u16()?);
            let lid = LinkId(r.u32()?);
            if lid.0 as usize >= self.links.len() {
                return Err(CodecError::Invalid("sticky binding to unknown link"));
            }
            if self.sticky.insert((flow, from, to), lid).is_some() {
                return Err(CodecError::Invalid("duplicate sticky binding"));
            }
        }
        self.unroutable = r.u64()?;
        self.delivered_data = r.u64()?;
        self.in_network = self
            .links
            .iter()
            .map(|l| l.in_flight.len() + l.rx.len())
            .sum::<usize>()
            + self.loopback.iter().map(|q| q.len()).sum::<usize>();
        self.escalated.clear();
        Ok(())
    }
}

/// The flow a chanend's output belongs to: its own resource id, the
/// identity wormhole ownership and sticky bindings are keyed by.
fn chanend_flow(node: NodeId, chanend: u8) -> u32 {
    ResourceId::new(node, chanend, ResType::Chanend).raw()
}

fn write_token(w: &mut ByteWriter, t: Token) {
    match t {
        Token::Data(b) => {
            w.u8(0);
            w.u8(b);
        }
        Token::Ctrl(ct) => {
            w.u8(1);
            w.u8(ct.0);
        }
    }
}

fn read_token(r: &mut ByteReader<'_>) -> Result<Token, CodecError> {
    match r.u8()? {
        0 => Ok(Token::Data(r.u8()?)),
        1 => Ok(Token::Ctrl(ControlToken(r.u8()?))),
        _ => Err(CodecError::Invalid("token tag out of range")),
    }
}

impl std::fmt::Debug for Fabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fabric")
            .field("nodes", &self.nodes)
            .field("links", &self.links.len())
            .field("unroutable", &self.unroutable)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TableRouter;
    use swallow_energy::WireClass;

    const NOW: Time = Time::from_ps(1_000_000);
    const FREE_AT: Time = Time::from_ps(1_032_000);

    /// A three-switch line `0 — 1 — 2` of on-chip link pairs, holding one
    /// data token of flow 7 in switch 1's receive queue, bound for
    /// switch 2; the onward link `1 → 2` is busy until [`FREE_AT`].
    fn head_behind_busy_link() -> (Fabric, LinkId) {
        let mut b = FabricBuilder::new(3);
        let params = LinkParams::from_class(WireClass::OnChip);
        let (into_1, _) = b.link_two_way(NodeId(0), NodeId(1), Direction::East, params);
        let (onward, _) = b.link_two_way(NodeId(1), NodeId(2), Direction::East, params);
        let router = TableRouter::shortest_paths(3, b.link_descs());
        let mut fabric = b.build(Box::new(router));
        let dest = ResourceId::new(NodeId(2), 0, ResType::Chanend);
        fabric.links[into_1.0 as usize]
            .rx
            .push_back((Token::Data(1), 7, dest));
        fabric.in_network = 1;
        fabric.links[onward.0 as usize].busy_until = FREE_AT;
        (fabric, onward)
    }

    #[test]
    fn a_head_behind_a_busy_link_waits_for_its_busy_until() {
        let (mut fabric, onward) = head_behind_busy_link();
        assert_eq!(fabric.next_event_at(NOW), Some(FREE_AT));
        // The flow is bound to the busy link, and mid-packet owns it:
        // still just link time.
        fabric.sticky.insert((7, NodeId(1), NodeId(2)), onward);
        assert_eq!(fabric.next_event_at(NOW), Some(FREE_AT));
        fabric.links[onward.0 as usize].owner = Some(7);
        assert_eq!(fabric.next_event_at(NOW), Some(FREE_AT));
        // Once the link is free the head moves now.
        assert_eq!(fabric.next_event_at(FREE_AT), Some(FREE_AT));
    }

    #[test]
    fn ownership_and_credit_blocks_answer_now() {
        // Another packet holds the link: its END decides, not link time.
        let (mut fabric, onward) = head_behind_busy_link();
        fabric.links[onward.0 as usize].owner = Some(8);
        assert_eq!(fabric.next_event_at(NOW), Some(NOW));
        // The same through a sticky binding.
        fabric.sticky.insert((7, NodeId(1), NodeId(2)), onward);
        assert_eq!(fabric.next_event_at(NOW), Some(NOW));

        // No credit: the receiver's progress decides, even though every
        // token on the wire lands later than the link frees.
        let (mut fabric, onward) = head_behind_busy_link();
        let dest = ResourceId::new(NodeId(2), 0, ResType::Chanend);
        let later = FREE_AT + TimeDelta::from_ns(500);
        let link = &mut fabric.links[onward.0 as usize];
        for _ in 0..RX_CAPACITY {
            link.in_flight.push_back((later, Token::Data(2), 9, dest));
        }
        fabric.in_network += RX_CAPACITY;
        assert_eq!(fabric.next_event_at(NOW), Some(NOW));

        // A dead link: the next attempt reroutes (or finds no route).
        let (mut fabric, onward) = head_behind_busy_link();
        fabric.links[onward.0 as usize].down = true;
        assert_eq!(fabric.next_event_at(NOW), Some(NOW));
    }

    #[test]
    fn injection_heads_follow_the_same_rule() {
        let (fabric, _) = head_behind_busy_link();
        let remote = ResourceId::new(NodeId(2), 0, ResType::Chanend);
        assert_eq!(
            fabric.injection_ready_at(NOW, NodeId(1), 3, remote),
            FREE_AT
        );
        // Core-local output takes the loopback path: no link time.
        let local = ResourceId::new(NodeId(1), 0, ResType::Chanend);
        assert_eq!(fabric.injection_ready_at(NOW, NodeId(1), 3, local), NOW);
    }
}
