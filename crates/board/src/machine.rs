//! A whole Swallow machine: cores + fabric + power tree + bridge.
//!
//! [`Machine`] owns everything `swallow-xcore`, `swallow-noc` and the
//! power models provide, assembled per the [`topology`](crate::topology)
//! rules. It is the engine under the public `swallow` crate's
//! `SwallowSystem` facade.
//!
//! Two engines advance the machine (see [`EngineMode`]):
//!
//! * **Lock-step**: one base clock period per [`Machine::step`], every
//!   subsystem visited every step — the reference semantics, kept as the
//!   oracle the differential suites compare against.
//! * **Parallel** (default, one host thread): windowed execution. Cores
//!   are sharded (chip-granular, see [`crate::shard`]) across a fixed
//!   pool of host threads, and between serial instants (the power
//!   monitor's cadence, the run deadline, the edge before a fault) the
//!   shards negotiate pairwise how far each may run ahead — never past an
//!   instant a peer's token could reach it at (DESIGN.md §3.12). A core
//!   that *emits* stops at that instant and a deterministic serial
//!   reconciliation replays the affected grid instants exactly as
//!   lock-step would. Whenever a window cannot pay for itself (pending
//!   output, tokens in flight, fewer than two runnable cores) the engine
//!   takes one event-driven quiet-path step instead: it jumps `now`
//!   straight to the next instant at which a token or an issue slot can
//!   move, skipping the edges in between in one step (core energy is
//!   counted per edge, so a skipped edge costs exactly what a ticked one
//!   does). All processing
//!   stays on the base-clock grid, so results are bit-identical run to
//!   run, equal across thread counts, and equal to lock-step: core
//!   ledgers bit for bit, machine totals within f64 association error.
//!   See DESIGN.md §3.7, §3.8.

use crate::ethernet::EthernetBridge;
use crate::metrics::MetricsHub;
use crate::power::{PowerMonitor, DEFAULT_MONITOR_WINDOW};
use crate::resilience::FaultEngine;
use crate::shard::{EpochPool, ShardPlan};
use crate::snapshot;
use crate::topology::{build_topology, GridSpec, TopologyOptions};
use std::fmt;
use std::iter;
use swallow_energy::{DvfsTable, EnergyLedger, NodeCategory};
use swallow_faults::{FaultCounters, FaultKind, FaultPlan};
use swallow_isa::{NodeId, Program, ResourceId, Token};
use swallow_noc::{CoreEndpoints, Fabric, LinkDesc, LinkId, TableRouter};
use swallow_sim::{
    ByteReader, ByteWriter, CodecError, Frequency, Time, TimeDelta, TraceEvent, TraceLog,
    TraceSink, Tracer,
};
use swallow_xcore::{Core, CoreConfig, LoadError};

/// Routing strategy selection.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RouterKind {
    /// The paper's vertical-first dimension-order routing (§V.A). Assumes
    /// a fully wired lattice.
    #[default]
    VerticalFirst,
    /// Breadth-first shortest paths — tolerant of faulted cables and
    /// custom wirings.
    ShortestPaths,
}

/// Simulation engine selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineMode {
    /// Advance one base clock period at a time, visiting every subsystem
    /// every step. The reference engine, kept for differential testing.
    LockStep,
    /// Windowed execution: shard the cores chip-granularly across
    /// `threads` host threads and let the shards negotiate how far each
    /// may run ahead between serial instants, taking event-driven
    /// quiet-path steps whenever a window cannot pay for itself.
    /// `threads == 0` means one thread per available host CPU; one
    /// thread is entirely thread-free. Deterministic and cycle-exact
    /// with respect to lock-step (energy within f64 association error).
    Parallel {
        /// Host worker threads (0 = available parallelism).
        threads: usize,
    },
}

impl Default for EngineMode {
    /// The windowed engine on the calling thread alone.
    fn default() -> Self {
        EngineMode::Parallel { threads: 1 }
    }
}

/// Machine configuration.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Machine size in slices.
    pub grid: GridSpec,
    /// Initial core clock for every core.
    pub frequency: Frequency,
    /// Routing strategy.
    pub router: RouterKind,
    /// Fit an Ethernet bridge on the south edge.
    pub bridge: bool,
    /// Package-internal link pairs (4 on real hardware; ablation knob).
    pub internal_link_pairs: usize,
    /// Fraction of inter-slice FFC cables that fail at assembly.
    pub ffc_fault_rate: f64,
    /// Seed for cable fault injection.
    pub fault_seed: u64,
    /// Power-monitor cadence.
    pub monitor_window: TimeDelta,
    /// Simulation engine.
    pub engine: EngineMode,
    /// Per-component trace ring capacity; `None` leaves tracing off (the
    /// zero-cost default).
    pub trace_capacity: Option<usize>,
    /// Record per-supply metrics time series on the monitor cadence.
    pub metrics: bool,
    /// Scheduled fault injections (empty = fault-free; an empty plan
    /// costs one comparison per processed edge and perturbs nothing).
    pub faults: FaultPlan,
    /// Per-core predecoded-instruction cache (architecturally invisible;
    /// defaults to on unless `SWALLOW_DECODE_CACHE=off`).
    pub decode_cache: bool,
}

impl MachineConfig {
    /// One slice at the stock 500 MHz — the smallest real Swallow unit.
    pub fn one_slice() -> Self {
        MachineConfig {
            grid: GridSpec::ONE_SLICE,
            frequency: Frequency::from_mhz(500),
            router: RouterKind::VerticalFirst,
            bridge: false,
            internal_link_pairs: crate::topology::INTERNAL_LINK_PAIRS,
            ffc_fault_rate: 0.0,
            fault_seed: 0,
            monitor_window: DEFAULT_MONITOR_WINDOW,
            engine: EngineMode::default(),
            trace_capacity: None,
            metrics: false,
            faults: FaultPlan::new(),
            decode_cache: swallow_xcore::decode_cache_default(),
        }
    }

    /// A grid of `x × y` slices.
    pub fn grid(x: u16, y: u16) -> Self {
        MachineConfig {
            grid: GridSpec {
                slices_x: x,
                slices_y: y,
            },
            ..Self::one_slice()
        }
    }
}

/// The core/bridge side of the fabric boundary.
struct Endpoints {
    cores: Vec<Core>,
    bridge: Option<EthernetBridge>,
    bridge_node: Option<NodeId>,
    /// Injection gate: a core whose local clock is *past* this instant
    /// keeps its pending output invisible to the fabric. The machine sets
    /// the gate to the step instant before every `Fabric::step`, so a
    /// core that ran ahead under the parallel engine and emitted at a
    /// *later* instant cannot have that token injected early — the
    /// replay visits its emission instant separately, exactly as
    /// lock-step would. Lock-step and the quiet path keep every core at
    /// `now`, so the gate never hides anything there.
    tx_gate_ps: u64,
}

impl Endpoints {
    /// True when `node`'s pending output is visible at the current gate.
    fn tx_visible(&self, node: NodeId) -> bool {
        self.cores
            .get(node.raw() as usize)
            .map(|core| core.local_now().as_ps() <= self.tx_gate_ps)
            .unwrap_or(true)
    }

    /// The earliest instant at which the fabric can take a token from a
    /// core or the bridge: for every pending output head, the instant its
    /// link can launch ([`Fabric::injection_ready_at`]) — for the bridge
    /// no earlier than its 80 Mbit/s pacing allows. `None` when nothing
    /// is pending, `now` as soon as one head can move now or waits on
    /// something other than link time. Cores are read at their own
    /// clocks, which the quiet path keeps at the machine's `now`.
    fn next_injection_at(&self, fabric: &Fabric, now: Time) -> Option<Time> {
        let bridge = self.bridge.as_ref().and_then(|bridge| {
            let (dest, _) = bridge.tx_head()?;
            let ready = fabric.injection_ready_at(now, bridge.node(), 0, dest);
            Some(ready.max(bridge.next_tx_at()))
        });
        let cores = self
            .cores
            .iter()
            .filter(|core| core.has_tx_pending())
            .flat_map(|core| {
                core.tx_pending().filter_map(move |chanend| {
                    let (dest, _) = core.tx_front(chanend)?;
                    Some(fabric.injection_ready_at(now, core.node(), chanend, dest))
                })
            });
        let mut earliest = None;
        for at in bridge.into_iter().chain(cores) {
            if at <= now {
                return Some(now);
            }
            earliest = Some(earliest.map_or(at, |e: Time| e.min(at)));
        }
        earliest
    }
}

impl CoreEndpoints for Endpoints {
    fn has_tx_pending(&self, node: NodeId) -> bool {
        if Some(node) == self.bridge_node {
            return self
                .bridge
                .as_ref()
                .map(|b| b.ep_tx_front().is_some())
                .unwrap_or(false);
        }
        self.cores
            .get(node.raw() as usize)
            .map(|core| core.has_tx_pending())
            .unwrap_or(false)
            && self.tx_visible(node)
    }

    fn for_each_tx_pending(&self, node: NodeId, visit: &mut dyn FnMut(u8)) {
        if Some(node) == self.bridge_node {
            if self
                .bridge
                .as_ref()
                .map(|b| b.ep_tx_front().is_some())
                .unwrap_or(false)
            {
                visit(0);
            }
            return;
        }
        if !self.tx_visible(node) {
            return;
        }
        if let Some(core) = self.cores.get(node.raw() as usize) {
            for chanend in core.tx_pending() {
                visit(chanend);
            }
        }
    }

    fn tx_front(&self, node: NodeId, chanend: u8) -> Option<(ResourceId, Token)> {
        if Some(node) == self.bridge_node {
            return self.bridge.as_ref()?.ep_tx_front();
        }
        self.cores.get(node.raw() as usize)?.tx_front(chanend)
    }

    fn tx_pop(&mut self, node: NodeId, chanend: u8) -> Option<(ResourceId, Token)> {
        if Some(node) == self.bridge_node {
            return self.bridge.as_mut()?.ep_tx_pop();
        }
        self.cores.get_mut(node.raw() as usize)?.tx_pop(chanend)
    }

    fn can_accept(&self, node: NodeId, chanend: u8, n: usize) -> bool {
        if Some(node) == self.bridge_node {
            return true; // host memory backs the bridge
        }
        self.cores
            .get(node.raw() as usize)
            .map(|c| c.can_accept(chanend, n))
            .unwrap_or(false)
    }

    fn deliver(&mut self, node: NodeId, chanend: u8, token: Token) -> bool {
        if Some(node) == self.bridge_node {
            if let Some(b) = self.bridge.as_mut() {
                b.ep_deliver(token);
                return true;
            }
            return false;
        }
        match self.cores.get_mut(node.raw() as usize) {
            Some(core) => core.deliver(chanend, token).is_ok(),
            None => false,
        }
    }
}

/// Lazily built state of the parallel engine: the shard plan, the worker
/// pool and the negotiation's lookahead matrix.
struct ParState {
    /// The thread count the plan was built for (to detect engine swaps).
    threads: usize,
    plan: ShardPlan,
    pool: EpochPool,
    /// `shards × shards` minimum routed pair latency in ps (row-major by
    /// source shard): the negotiation's lookahead matrix. Rebuilt lazily
    /// whenever routes change (see `Machine::refresh_pair_latency`).
    pair_latency_ps: Vec<u64>,
    /// The matrix reflects a stale topology and must be recomputed
    /// before the next negotiated window.
    pair_latency_dirty: bool,
    /// Negotiated windows run and watermark rounds summed (observability).
    windows: u64,
    rounds: u64,
}

/// A fully assembled Swallow machine.
///
/// ```
/// use swallow_board::{Machine, MachineConfig};
/// let machine = Machine::new(MachineConfig::one_slice());
/// assert_eq!(machine.core_count(), 16);
/// ```
pub struct Machine {
    /// The configuration the machine was built from, kept verbatim: a
    /// snapshot embeds it so [`Machine::restore`] can rebuild the same
    /// deterministic topology before overlaying the mutable state.
    config: MachineConfig,
    spec: GridSpec,
    eps: Endpoints,
    fabric: Fabric,
    monitor: PowerMonitor,
    now: Time,
    base_period: TimeDelta,
    faulted_cables: usize,
    engine: EngineMode,
    /// Dense-mode hint maintained by `process_edge`: true when the last
    /// processed edge left some core with a ready thread issuing at the
    /// very next grid instant, in which case the next-activity scan would
    /// necessarily answer `immediate` and fast-forward degenerates to
    /// lock-step (see `ff_advance`).
    dense: bool,
    /// Grid instants run through `process_edge` (observability only: not
    /// snapshotted, so a restored machine counts from zero).
    edges: u64,
    par: Option<ParState>,
    metrics: MetricsHub,
    /// Link descriptions as built — the basis for recomputing routes
    /// around dead links (ids match the live fabric's).
    descs: Vec<LinkDesc>,
    /// Scheduled-fault cursor and recovery bookkeeping.
    faults: FaultEngine,
    /// Machine-level trace sink (fault, reroute and brownout events).
    tracer: Tracer,
    /// Reusable buffer for links the fabric escalated to dead.
    escalated_scratch: Vec<LinkId>,
}

impl Machine {
    /// Builds and wires a machine.
    pub fn new(config: MachineConfig) -> Self {
        let saved_config = config.clone();
        let topo = build_topology(
            config.grid,
            &TopologyOptions {
                bridge: config.bridge,
                internal_link_pairs: config.internal_link_pairs,
                ffc_fault_rate: config.ffc_fault_rate,
                fault_seed: config.fault_seed,
            },
        );
        let router: Box<dyn swallow_noc::Router> = match config.router {
            RouterKind::VerticalFirst => {
                let descs = topo.builder.link_descs();
                let mut table = TableRouter::vertical_first(&topo.coords, descs);
                // The bridge hangs off one reserved South header, so
                // dimension-order routing cannot discover it from any
                // other column (vertical-first steers South immediately,
                // but the only South link below the last lattice row is
                // in the bridge's own column). Alias its routes through
                // the attach node: every core reaches the bridge exactly
                // as it reaches the attach core, plus the one direct hop.
                if let Some(bridge) = topo.bridge {
                    if let Some(attach) = descs.iter().find(|d| d.to == bridge).map(|d| d.from) {
                        let direct: swallow_noc::Candidates = descs
                            .iter()
                            .filter(|d| d.from == attach && d.to == bridge)
                            .map(|d| d.id)
                            .collect();
                        table.alias_dest_via(bridge, attach, direct);
                    }
                }
                Box::new(table)
            }
            RouterKind::ShortestPaths => Box::new(TableRouter::shortest_paths(
                topo.builder.node_count(),
                topo.builder.link_descs(),
            )),
        };
        let bridge_node = topo.bridge;
        let descs = topo.builder.link_descs().to_vec();
        let fabric = topo.builder.build(router);
        let cores: Vec<Core> = config
            .grid
            .nodes()
            .map(|node| {
                let mut cc = CoreConfig::swallow(node);
                cc.frequency = config.frequency;
                let mut core = Core::new(cc);
                core.set_decode_cache(config.decode_cache);
                core
            })
            .collect();
        let base_period = config.frequency.period();
        let mut machine = Machine {
            config: saved_config,
            spec: config.grid,
            eps: Endpoints {
                cores,
                bridge: bridge_node.map(EthernetBridge::new),
                bridge_node,
                tx_gate_ps: u64::MAX,
            },
            fabric,
            monitor: PowerMonitor::new(config.grid, config.monitor_window),
            now: Time::ZERO,
            base_period,
            faulted_cables: topo.faulted_cables,
            engine: config.engine,
            dense: false,
            edges: 0,
            par: None,
            metrics: MetricsHub::new(config.grid, config.metrics),
            descs,
            faults: FaultEngine::new(config.faults),
            tracer: Tracer::Off,
            escalated_scratch: Vec::new(),
        };
        if let Some(capacity) = config.trace_capacity {
            machine.set_tracing(capacity);
        }
        machine
    }

    // --- structure ---------------------------------------------------------

    /// Number of processor cores.
    pub fn core_count(&self) -> usize {
        self.eps.cores.len()
    }

    /// The machine's slice layout.
    pub fn spec(&self) -> GridSpec {
        self.spec
    }

    /// Inter-slice cables lost to fault injection.
    pub fn faulted_cables(&self) -> usize {
        self.faulted_cables
    }

    /// Access to one core.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a core node.
    pub fn core(&self, node: NodeId) -> &Core {
        &self.eps.cores[node.raw() as usize]
    }

    /// Mutable access to one core.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a core node.
    pub fn core_mut(&mut self, node: NodeId) -> &mut Core {
        &mut self.eps.cores[node.raw() as usize]
    }

    /// All core node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        self.spec.nodes()
    }

    /// The network fabric (statistics, link inspection).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// The power monitor (rails, ADC traces, losses).
    pub fn monitor(&self) -> &PowerMonitor {
        &self.monitor
    }

    /// Mutable power monitor (to fit ADC boards).
    pub fn monitor_mut(&mut self) -> &mut PowerMonitor {
        &mut self.monitor
    }

    /// The Ethernet bridge, when fitted.
    pub fn bridge(&self) -> Option<&EthernetBridge> {
        self.eps.bridge.as_ref()
    }

    /// Mutable bridge access (to send/receive host data).
    pub fn bridge_mut(&mut self) -> Option<&mut EthernetBridge> {
        self.eps.bridge.as_mut()
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    // --- boot ----------------------------------------------------------------

    /// Loads a program onto one core and starts its thread 0.
    ///
    /// # Errors
    ///
    /// [`LoadError`] if the image exceeds the core's SRAM.
    pub fn load_program(&mut self, node: NodeId, program: &Program) -> Result<(), LoadError> {
        self.core_mut(node).load_program(program)
    }

    /// Loads the same program onto every core.
    ///
    /// # Errors
    ///
    /// [`LoadError`] if the image exceeds a core's SRAM.
    pub fn load_program_all(&mut self, program: &Program) -> Result<(), LoadError> {
        for core in &mut self.eps.cores {
            core.load_program(program)?;
        }
        Ok(())
    }

    /// Changes one core's clock (per-core DFS, §III.B).
    pub fn set_core_frequency(&mut self, node: NodeId, f: Frequency) {
        self.core_mut(node).set_frequency(f);
        self.recompute_base_period();
    }

    /// Re-derives the machine's base clock grid from the fastest core
    /// (after any per-core frequency change, including brownouts).
    fn recompute_base_period(&mut self) {
        self.base_period = self
            .eps
            .cores
            .iter()
            .map(|c| c.frequency().period())
            .min()
            .expect("at least one core");
    }

    // --- execution -------------------------------------------------------------

    /// The active simulation engine.
    pub fn engine(&self) -> EngineMode {
        self.engine
    }

    /// Switches the simulation engine. Safe at any instant: both engines
    /// process the same grid instants; the parallel engine merely skips
    /// the empty ones and batches busy ones into windows.
    pub fn set_engine(&mut self, engine: EngineMode) {
        self.engine = engine;
    }

    /// Advances the whole machine by one base clock period (the lock-step
    /// primitive; every advance funnels through the same edge processing).
    pub fn step(&mut self) {
        self.now += self.base_period;
        self.process_edge();
    }

    /// Processes the clock edge at `self.now`: runs every core up to
    /// `now`, advances the bridge and fabric, and fires the power monitor
    /// when due.
    fn process_edge(&mut self) {
        self.edges += 1;
        // Scheduled faults land first, serially, on the grid instant —
        // before any core runs or token moves — so every engine sees an
        // identical fault timeline (see DESIGN.md §3.10). One branch
        // when the plan is empty.
        if self.faults.pending(self.now) {
            self.apply_due_faults();
        }
        for core in &mut self.eps.cores {
            // Cores may run slower than the base clock; tick on their
            // edges only. `run_until` also stops if the core halts
            // mid-span rather than spinning on a dead core.
            core.run_until(self.now);
        }
        if let Some(bridge) = self.eps.bridge.as_mut() {
            bridge.set_now(self.now);
        }
        // The fabric scan is pure bookkeeping when nothing is in the
        // network and nothing wants to inject; skipping it then is
        // behaviour-preserving in both engines.
        let bridge_pending = self
            .eps
            .bridge
            .as_ref()
            .map(|b| b.tx_backlog() > 0)
            .unwrap_or(false);
        if !self.fabric.is_idle()
            || bridge_pending
            || self.eps.cores.iter().any(|c| c.has_tx_pending())
        {
            // Gate injections at the edge instant: a core that ran ahead
            // under the parallel engine and emitted later must not have
            // its token picked up now (see `Endpoints::tx_gate_ps`).
            self.eps.tx_gate_ps = self.now.as_ps();
            self.fabric.step(self.now, &mut self.eps);
            // A link that exhausted its retry budget during this step is
            // dead: account for it and route around it immediately.
            if self.fabric.has_escalations() {
                self.handle_escalations();
            }
        }
        if self.now >= self.monitor.next_update() {
            self.monitor
                .update(self.now, &mut self.eps.cores, &self.fabric);
            let fc = self.fault_counters();
            self.metrics
                .sample(self.now, &self.eps.cores, &self.fabric, &self.monitor);
            self.metrics.record_faults(fc);
        }
        self.refresh_dense();
    }

    /// Refreshes the dense-mode hint: a ready thread issuing at the very
    /// next grid instant pins the next activity to `immediate`, so
    /// fast-forward can skip its scan. Early-exits at the first busy
    /// core, and goes false the moment the machine drains.
    fn refresh_dense(&mut self) {
        let immediate = self.now + self.base_period;
        self.dense = self.eps.cores.iter().any(|c| {
            c.ready_threads() > 0 && c.next_interesting_at().is_some_and(|at| at <= immediate)
        });
    }

    /// The earliest instant at or after `now` when anything can happen:
    /// a core's next issue slot or wake, the instant a queued token or a
    /// pending core or bridge output head can launch, a fabric arrival,
    /// a scheduled fault, or the monitor cadence. Always finite — the
    /// monitor bounds it — so fast-forward never overshoots an accounting
    /// boundary.
    fn next_activity_at(&self) -> Time {
        let immediate = self.now + self.base_period;
        let mut earliest = self.monitor.next_update();
        // Scheduled faults (and the end of an active brownout) are
        // activity: fast-forward must land on their grid instants. The
        // sources are scanned lazily, likeliest to end the scan first: a
        // core issuing at the next edge already set the dense hint, so
        // cores come last.
        let sources = self
            .faults
            .next_at()
            .into_iter()
            .chain(iter::once_with(|| self.eps.next_injection_at(&self.fabric, self.now)).flatten())
            .chain(iter::once_with(|| self.fabric.next_event_at(self.now)).flatten())
            .chain(self.eps.cores.iter().filter_map(Core::next_interesting_at));
        for at in sources {
            if at <= immediate {
                return immediate;
            }
            earliest = earliest.min(at);
        }
        earliest
    }

    /// First base-clock grid instant at or after `target` (and strictly
    /// after `now`). Keeping every processed instant on the grid is what
    /// makes fast-forward results identical to lock-step.
    fn grid_align(&self, target: Time) -> Time {
        if target <= self.now + self.base_period {
            return self.now + self.base_period;
        }
        let span = target.since(self.now).as_ps();
        let base = self.base_period.as_ps();
        self.now + TimeDelta::from_ps(span.div_ceil(base) * base)
    }

    /// Fast-forward by one event: jump to the next grid instant where
    /// anything can happen (capped at `deadline`), analytically skipping
    /// every core's edges up to it, then process that edge.
    fn ff_advance(&mut self, deadline: Time) {
        // Busy machines tick on every edge: when the dense hint is set,
        // the scan below would answer `immediate`, so this advance is
        // exactly a lock-step edge. Processing an edge is always sound
        // (lock-step processes all of them), so a stale hint can only
        // cost one extra edge, never correctness — and `process_edge`
        // clears it the moment the machine drains.
        if self.dense {
            self.step();
            return;
        }
        let target = self.grid_align(self.next_activity_at().min(deadline));
        if target > self.now + self.base_period {
            for core in &mut self.eps.cores {
                core.skip_idle_until(target);
            }
        }
        self.now = target;
        self.process_edge();
    }

    // --- parallel engine -----------------------------------------------------

    /// Builds (or rebuilds, after a thread-count change) the shard plan
    /// and worker pool.
    fn ensure_par(&mut self, threads: usize) {
        let rebuild = match &self.par {
            Some(st) => st.threads != threads,
            None => true,
        };
        if !rebuild {
            return;
        }
        // Affinity-aware plan: shard boundaries land on the slow
        // inter-slice cables, which is what keeps the negotiation's
        // pair-latency matrix sparse (long horizons between shards).
        let plan = ShardPlan::affinity(self.spec, threads);
        let pool = EpochPool::new(&plan);
        self.par = Some(ParState {
            threads,
            plan,
            pool,
            pair_latency_ps: Vec::new(),
            pair_latency_dirty: true,
            windows: 0,
            rounds: 0,
        });
    }

    /// Rebuilds the shard-pair lookahead matrix from the live fabric:
    /// `L[p][s]` is the minimum routed latency from any core of shard `p`
    /// to any distinct core of shard `s` (ps; `u64::MAX` when the shards
    /// are partitioned, which clears the pair from negotiation). Called
    /// lazily when routes changed — a link-down between refreshes only
    /// *lengthens* true latencies, so a stale matrix stays conservative,
    /// and every `set_link_up` path funnels through
    /// `reroute_and_quarantine`, which marks the matrix dirty before any
    /// shortened path can exist.
    fn refresh_pair_latency(&mut self) {
        let Some(st) = self.par.as_mut() else { return };
        if !st.pair_latency_dirty {
            return;
        }
        let node_dist = self.fabric.min_latency_matrix_ps();
        let n = self.fabric.node_count();
        let shards = st.plan.shard_count();
        let mut matrix = vec![u64::MAX; shards * shards];
        for p in 0..shards {
            for s in 0..shards {
                let mut best = u64::MAX;
                for &(alo, ahi) in st.plan.runs(p) {
                    for i in alo..ahi {
                        for &(blo, bhi) in st.plan.runs(s) {
                            for j in blo..bhi {
                                if i != j {
                                    best = best.min(node_dist[i * n + j]);
                                }
                            }
                        }
                    }
                }
                matrix[p * shards + s] = best;
            }
        }
        st.pair_latency_ps = matrix;
        st.pair_latency_dirty = false;
    }

    /// Negotiation observability: `(windows, rounds)` — pairwise windows
    /// run and watermark rounds summed over shards. Zero under lock-step.
    pub fn negotiation_stats(&self) -> (u64, u64) {
        self.par
            .as_ref()
            .map(|st| (st.windows, st.rounds))
            .unwrap_or((0, 0))
    }

    /// Grid instants processed so far — every lock-step step, quiet-path
    /// jump and window commit edge, but not the serial replay inside a
    /// window. The quiet path's host cost is roughly proportional to it.
    /// Observability only: not part of a snapshot, and zero after
    /// [`Machine::restore`].
    pub fn edges_processed(&self) -> u64 {
        self.edges
    }

    /// One pairwise-negotiated advance (DESIGN.md §3.12): pick the next
    /// instant that *must* be processed serially — the power monitor's
    /// cadence, the run deadline, or the edge before a scheduled fault —
    /// and let the shards negotiate their way to it in lock-free
    /// watermark rounds ([`EpochPool::run_negotiated`]). The pool
    /// condvar is paid once per window instead of once per 32 ns epoch,
    /// which is what makes busy-machine scaling monotone in threads.
    ///
    /// Falls back to [`Self::ff_advance`] whenever the window could not
    /// pay for a dispatch or the quiet-machine preconditions fail:
    /// pending core output, tokens in flight or bridge backlog (the
    /// fabric only steps serially), fewer than two runnable cores, or a
    /// window shorter than two grid periods.
    ///
    /// Correctness: within the window shards interact with nothing
    /// (fabric idle on entry, horizons bound cross-shard reachability,
    /// an emission stops the window for everyone within one round), so
    /// each shard's cores run with lock-step-identical results up to the
    /// committed target; an emission is then replayed serially by
    /// [`Self::reconcile`].
    fn negotiated_advance(&mut self, deadline: Time) {
        let immediate = self.now + self.base_period;
        let mut runnable = 0usize;
        let mut any_tx = false;
        for core in &self.eps.cores {
            if core.has_tx_pending() {
                any_tx = true;
                break;
            }
            if core.ready_threads() > 0 {
                runnable += 1;
            }
        }
        let bridge_pending = self
            .eps
            .bridge
            .as_ref()
            .map(|b| b.tx_backlog() > 0)
            .unwrap_or(false);
        if any_tx || runnable < 2 || bridge_pending || !self.fabric.is_idle() {
            self.ff_advance(deadline);
            return;
        }
        let mut serial_bound = self.grid_align(self.monitor.next_update().min(deadline));
        if let Some(at) = self.faults.next_at() {
            // Stop the window strictly before the fault's grid instant:
            // faults apply serially, before any core crosses them.
            let edge = self.grid_align(at);
            serial_bound = serial_bound.min(Time::from_ps(
                edge.as_ps().saturating_sub(self.base_period.as_ps()),
            ));
        }
        if serial_bound <= immediate {
            self.ff_advance(deadline);
            return;
        }
        self.refresh_pair_latency();
        let outcome = {
            let st = self.par.as_mut().expect("parallel state initialised");
            st.windows += 1;
            let params = crate::shard::NegotiationParams {
                serial_bound,
                anchor: self.now,
                period: self.base_period,
                pair_latency_ps: &st.pair_latency_ps,
            };
            st.pool.run_negotiated(&mut self.eps.cores, &params)
        };
        {
            let st = self.par.as_mut().expect("parallel state initialised");
            st.rounds += outcome.rounds;
        }
        let mut target = outcome.target;
        if outcome.drained && !outcome.emitted {
            // The machine went quiescent *inside* the window: every core
            // is frozen at its last transition edge (halt, or block on
            // external input that nothing will feed — the fabric was idle
            // on entry and nothing emitted). Commit the latest of those
            // edges — the instant lock-step detects quiescence —
            // rather than the window bound, so `run_until_quiescent`
            // stops at the same `now` as lock-step.
            let last = self
                .eps
                .cores
                .iter()
                .map(|c| c.local_now())
                .max()
                .unwrap_or(self.now);
            target = self.grid_align(last).min(target);
        }
        debug_assert!(target > self.now && target <= serial_bound);
        if outcome.emitted {
            self.reconcile(target);
        }
        self.now = target;
        // Cores frozen below the commit (externally blocked, or idle the
        // whole window) catch up in one skip before the edge runs; their
        // energy is counted per edge, so how the span is chunked cannot
        // change it.
        for core in &mut self.eps.cores {
            if !core.has_tx_pending() {
                core.skip_idle_until(self.now);
            }
        }
        self.process_edge();
    }

    /// Serial replay of the grid instants inside a window where a core
    /// emitted: injects and delivers exactly as lock-step would, on the
    /// same instants, while cores that stayed silent keep their window
    /// results untouched. The cursor advances at least one base period per
    /// injection attempt, mirroring lock-step's per-instant retry of
    /// tokens the fabric reports busy.
    fn reconcile(&mut self, target: Time) {
        let mut cursor = self.now;
        loop {
            // Earliest instant below `target` at which anything is due:
            // a stopped core's pending output or a fabric event
            // (including loopback returns created by earlier injections).
            let mut pending: Option<Time> = None;
            for core in &self.eps.cores {
                if core.has_tx_pending() {
                    let at = core.local_now();
                    pending = Some(pending.map_or(at, |p| p.min(at)));
                }
            }
            if let Some(at) = self.fabric.next_event_at(cursor) {
                if at < target {
                    pending = Some(pending.map_or(at, |p| p.min(at)));
                }
            }
            let Some(at) = pending else {
                // Nothing due below the horizon: cores interrupted by the
                // replay resume their isolated run (stopping again on a
                // fresh emission).
                let mut stopped = false;
                for core in &mut self.eps.cores {
                    if core.local_now() < target && !core.has_tx_pending() && core.run_epoch(target)
                    {
                        stopped = true;
                    }
                }
                if !stopped {
                    return;
                }
                continue;
            };
            let t = self.grid_align(at).max(cursor + self.base_period);
            if t >= target {
                // Remaining work lands on the horizon edge itself, which
                // `negotiated_advance` processes next.
                return;
            }
            for core in &mut self.eps.cores {
                if core.local_now() < t {
                    core.run_until(t);
                }
            }
            if let Some(bridge) = self.eps.bridge.as_mut() {
                bridge.set_now(t);
            }
            // The gate hides output from any core that stopped at a
            // *later* emission instant, so this step injects exactly the
            // tokens lock-step would inject at `t` — later emissions are
            // visited by their own loop iterations.
            self.eps.tx_gate_ps = t.as_ps();
            self.fabric.step(t, &mut self.eps);
            cursor = t;
        }
    }

    /// Runs for a fixed span of simulated time.
    pub fn run_for(&mut self, span: TimeDelta) {
        let deadline = self.now + span;
        match self.engine {
            EngineMode::LockStep => {
                while self.now < deadline {
                    self.step();
                }
            }
            EngineMode::Parallel { threads } => {
                self.ensure_par(threads);
                while self.now < deadline {
                    self.negotiated_advance(deadline);
                }
            }
        }
    }

    /// Runs until every core is quiescent and the network has drained, or
    /// the budget expires. Returns true when quiescent.
    ///
    /// The parallel engine's quiet path performs no heap allocation per
    /// step: quiescence is a scan of per-core counters, idle spans are
    /// skipped analytically, and the fabric reuses its injection buffer.
    pub fn run_until_quiescent(&mut self, budget: TimeDelta) -> bool {
        let deadline = self.now + budget;
        if let EngineMode::Parallel { threads } = self.engine {
            self.ensure_par(threads);
        }
        while self.now < deadline {
            if self.is_quiescent() {
                return true;
            }
            match self.engine {
                EngineMode::LockStep => self.step(),
                EngineMode::Parallel { .. } => self.negotiated_advance(deadline),
            }
        }
        self.is_quiescent()
    }

    /// True when no core can make progress and no token is in flight.
    /// O(cores): every per-core check is a cached counter.
    pub fn is_quiescent(&self) -> bool {
        self.fabric.is_idle()
            && self
                .eps
                .bridge
                .as_ref()
                .map(|b| b.tx_backlog() == 0)
                .unwrap_or(true)
            && self
                .eps
                .cores
                .iter()
                .all(|c| c.is_quiescent() && !c.has_tx_pending())
    }

    // --- faults & resilience -------------------------------------------------

    /// Applies every scheduled fault due at or before `now`, in plan
    /// order, then recomputes routes once if any link topology changed.
    /// Events naming an out-of-range link or core are ignored (the plan
    /// may have been written for a larger machine).
    fn apply_due_faults(&mut self) {
        // The end of a brownout is itself a due instant: restore the
        // saved clocks/models before applying anything newly scheduled.
        if self.faults.derated && self.now >= self.faults.derate_end {
            self.restore_brownout();
        }
        let mut reroute = false;
        while let Some(ev) = self.faults.pop_due(self.now) {
            match ev.kind {
                FaultKind::LinkDown(link) => {
                    if self.fabric.set_link_down(link) {
                        self.faults.counters.link_downs += 1;
                        self.tracer.emit(
                            self.now,
                            TraceEvent::LinkFault {
                                link: link.raw(),
                                up: false,
                            },
                        );
                        reroute = true;
                    }
                }
                FaultKind::LinkUp(link) => {
                    if self.fabric.set_link_up(link) {
                        self.faults.counters.link_ups += 1;
                        self.tracer.emit(
                            self.now,
                            TraceEvent::LinkFault {
                                link: link.raw(),
                                up: true,
                            },
                        );
                        // Restored capacity: recompute so routes may use
                        // it again. Cores already quarantined stay dead —
                        // a rejoined island does not resurrect them.
                        reroute = true;
                    }
                }
                FaultKind::LinkCorrupt { link, until } => {
                    self.fabric.set_link_corrupt_until(link, until);
                }
                FaultKind::LinkDrop { link, until } => {
                    self.fabric.set_link_drop_until(link, until);
                }
                FaultKind::CoreStall { core, until } => {
                    if let Some(c) = self.eps.cores.get_mut(core.raw() as usize) {
                        c.fault_stall_until(until);
                        self.faults.counters.core_stalls += 1;
                        self.tracer.emit(
                            self.now,
                            TraceEvent::CoreFault {
                                core: core.raw(),
                                kind: "stall",
                            },
                        );
                    }
                }
                FaultKind::CoreKill(core) => {
                    if let Some(c) = self.eps.cores.get_mut(core.raw() as usize) {
                        if !c.is_halted() {
                            c.fault_kill();
                            self.faults.counters.core_kills += 1;
                            self.tracer.emit(
                                self.now,
                                TraceEvent::CoreFault {
                                    core: core.raw(),
                                    kind: "kill",
                                },
                            );
                        }
                    }
                }
                FaultKind::Brownout { milli, until } => {
                    self.start_brownout(milli, until);
                }
            }
        }
        if reroute {
            self.reroute_and_quarantine();
        }
    }

    /// Enters a supply brownout: every core's clock is derated to
    /// `milli`/1000 of its current frequency and its power model moved
    /// to the DVFS voltage for the derated clock (a browned-out supply
    /// forces the lower operating point, §III.B). Clocks and models are
    /// saved and restored bit-exactly at `until`. An overlapping
    /// brownout only extends the window — derating twice would compound.
    fn start_brownout(&mut self, milli: u32, until: Time) {
        if self.faults.derated {
            self.faults.derate_end = self.faults.derate_end.max(until);
            return;
        }
        self.faults.counters.brownouts += 1;
        self.faults.derated = true;
        self.faults.derate_end = until;
        self.faults.nominal.clear();
        self.faults.nominal_power.clear();
        let table = DvfsTable::swallow();
        let mut derated_hz = 0u64;
        for core in &mut self.eps.cores {
            let nominal = core.frequency();
            self.faults.nominal.push(nominal);
            self.faults.nominal_power.push(core.power_model());
            let hz = (nominal.as_hz().saturating_mul(milli as u64) / 1000).max(1);
            let derated = Frequency::from_hz(hz);
            derated_hz = derated.as_hz();
            core.set_frequency(derated);
            core.set_power_model(core.power_model().at_voltage(table.voltage_at(derated)));
        }
        self.recompute_base_period();
        self.tracer.emit(
            self.now,
            TraceEvent::Brownout {
                active: true,
                hz: derated_hz,
            },
        );
    }

    /// Leaves a brownout: restores every core's saved clock and power
    /// model exactly.
    fn restore_brownout(&mut self) {
        for (i, core) in self.eps.cores.iter_mut().enumerate() {
            core.set_frequency(self.faults.nominal[i]);
            core.set_power_model(self.faults.nominal_power[i]);
        }
        self.faults.derated = false;
        self.recompute_base_period();
        let hz = self
            .eps
            .cores
            .first()
            .map(|c| c.frequency().as_hz())
            .unwrap_or(0);
        self.tracer
            .emit(self.now, TraceEvent::Brownout { active: false, hz });
    }

    /// Accounts for links the fabric just escalated to dead (retry
    /// budget exhausted) and routes around them.
    fn handle_escalations(&mut self) {
        let mut escalated = std::mem::take(&mut self.escalated_scratch);
        self.fabric.take_escalated(&mut escalated);
        for link in escalated.drain(..) {
            self.faults.counters.link_downs += 1;
            self.tracer.emit(
                self.now,
                TraceEvent::LinkFault {
                    link: link.raw(),
                    up: false,
                },
            );
        }
        self.escalated_scratch = escalated;
        self.reroute_and_quarantine();
    }

    /// Rebuilds the routing table over the surviving links and
    /// quarantines cores the machine's majority can no longer exchange
    /// tokens with. Recovery routing is always a recomputed
    /// shortest-path table, whatever [`RouterKind`] the machine was
    /// built with — the dimension-order router assumes a fully wired
    /// lattice, which no longer holds ("new routing algorithms can
    /// simply be programmed", §V.A).
    fn reroute_and_quarantine(&mut self) {
        let alive: Vec<LinkDesc> = self
            .descs
            .iter()
            .copied()
            .filter(|d| !self.fabric.link_is_down(d.id))
            .collect();
        let dead = (self.descs.len() - alive.len()) as u32;
        let n = self.fabric.node_count();
        self.fabric
            .set_router(Box::new(TableRouter::shortest_paths(n, &alive)));
        self.faults.counters.reroutes += 1;
        self.tracer
            .emit(self.now, TraceEvent::RouteRecompute { dead_links: dead });
        // The negotiation's lookahead matrix mirrors the routed topology;
        // recompute it before the next window (lazily — fault storms may
        // reroute many times between windows).
        if let Some(st) = self.par.as_mut() {
            st.pair_latency_dirty = true;
        }
        let keep = crate::resilience::largest_mutual_component(n, &alive);
        for (i, core) in self.eps.cores.iter_mut().enumerate() {
            if !keep.get(i).copied().unwrap_or(false) && !core.is_halted() {
                core.fault_kill();
                self.faults.counters.quarantined_cores += 1;
                self.tracer.emit(
                    self.now,
                    TraceEvent::CoreFault {
                        core: i as u16,
                        kind: "quarantine",
                    },
                );
            }
        }
    }

    /// Cumulative fault/resilience counters: the board-side events
    /// (downs, kills, brownouts, reroutes, quarantines) merged with the
    /// fabric's live retry/drop/delivery totals.
    pub fn fault_counters(&self) -> FaultCounters {
        let mut c = self.faults.counters;
        c.retransmits = self.fabric.total_retransmits();
        c.dropped_tokens = self.fabric.total_dropped_tokens();
        c.delivered_tokens = self.fabric.delivered_data_tokens();
        c
    }

    /// The machine's links as built (ids match the live fabric) — the
    /// basis for writing targeted fault plans.
    pub fn link_descs(&self) -> &[LinkDesc] {
        &self.descs
    }

    // --- accounting ---------------------------------------------------------------

    /// Total instructions retired machine-wide.
    pub fn total_instret(&self) -> u64 {
        self.eps.cores.iter().map(|c| c.instret()).sum()
    }

    /// The full energy ledger of one node: core-level categories plus the
    /// node's share of link, conversion-loss and support energy.
    pub fn node_ledger(&self, node: NodeId) -> EnergyLedger {
        let mut ledger = self.core(node).ledger();
        ledger.charge(NodeCategory::Network, self.fabric.energy_from_node(node));
        let slice = self.spec.slice_of(node);
        let per_node = 1.0 / crate::topology::CORES_PER_SLICE as f64;
        ledger.charge(
            NodeCategory::Supply,
            self.monitor.loss_energy(slice) * per_node,
        );
        ledger.charge(
            NodeCategory::Other,
            self.monitor.support_energy(slice) * per_node,
        );
        ledger
    }

    /// The machine-wide energy ledger.
    pub fn machine_ledger(&self) -> EnergyLedger {
        self.nodes().map(|n| self.node_ledger(n)).sum()
    }

    // --- observability ------------------------------------------------------

    /// Attaches a trace ring of `capacity` records to every core, the
    /// fabric and the power monitor. Each component owns its sink, so
    /// under the parallel engine a core's tracer travels with it onto its
    /// shard thread and per-component record order stays deterministic —
    /// the rings are merged in fixed component order by
    /// [`Machine::collect_trace`].
    pub fn set_tracing(&mut self, capacity: usize) {
        for core in &mut self.eps.cores {
            core.set_tracer(Tracer::ring_with_capacity(capacity));
        }
        self.fabric.set_tracer(Tracer::ring_with_capacity(capacity));
        self.monitor
            .set_tracer(Tracer::ring_with_capacity(capacity));
        self.tracer = Tracer::ring_with_capacity(capacity);
    }

    /// Merges every component's trace ring into one chronological
    /// [`TraceLog`]: cores in node order, then the fabric, then the power
    /// monitor, then the machine's own fault/resilience ring,
    /// stable-sorted by time — deterministic run to run.
    pub fn collect_trace(&self) -> TraceLog {
        let mut log = TraceLog::new();
        for core in &self.eps.cores {
            if let Some(ring) = core.tracer().ring() {
                log.absorb(ring);
            }
        }
        if let Some(ring) = self.fabric.tracer().ring() {
            log.absorb(ring);
        }
        if let Some(ring) = self.monitor.tracer().ring() {
            log.absorb(ring);
        }
        if let Some(ring) = self.tracer.ring() {
            log.absorb(ring);
        }
        log.finish();
        log
    }

    /// The metrics hub (per-supply energy time series).
    pub fn metrics(&self) -> &MetricsHub {
        &self.metrics
    }

    /// Mutable metrics hub (to enable sampling).
    pub fn metrics_mut(&mut self) -> &mut MetricsHub {
        &mut self.metrics
    }

    /// Closes the metrics time series at the current instant: forces a
    /// final (possibly partial-window) power-monitor update so loss and
    /// support energy are integrated up to `now`, then records the
    /// residual rows. After this, the hub's integrated energy equals
    /// [`Machine::machine_ledger`]'s total up to f64 association. Call
    /// once at the end of a run, before exporting.
    pub fn flush_metrics(&mut self) {
        if !self.metrics.is_enabled() {
            return;
        }
        self.monitor
            .update(self.now, &mut self.eps.cores, &self.fabric);
        let fc = self.fault_counters();
        self.metrics
            .sample(self.now, &self.eps.cores, &self.fabric, &self.monitor);
        self.metrics.record_faults(fc);
    }

    /// Read access to the raw component triple the metrics hub samples
    /// (cores in node order, fabric, monitor) — test hook.
    pub fn parts(&self) -> (&[Core], &Fabric, &PowerMonitor) {
        (&self.eps.cores, &self.fabric, &self.monitor)
    }

    /// The configuration the machine was built from.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    // --- snapshot / restore -------------------------------------------------

    /// Serializes the complete architectural state of the machine into
    /// the versioned `SWLWSNAP` binary format (DESIGN.md §3.13): a
    /// magic-plus-version header followed by checksummed sections —
    /// CONF (the build configuration, fault plan included), MACH
    /// (clock, engine), one CORE per core, FABR (links, in-flight
    /// tokens, sticky flows), BRDG (the Ethernet bridge, when fitted),
    /// PMON, METR and FALT in that order.
    ///
    /// Call between engine advances (any instant `run_for` or
    /// `run_until_quiescent` can stop at). Trace rings and ADC boards
    /// are observational and not serialized; everything architectural —
    /// including mid-flight fault windows and an active brownout — is.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.raw(&SNAPSHOT_MAGIC);
        w.u32(SNAPSHOT_VERSION);
        w.begin_section(*b"CONF");
        write_config(&mut w, &self.config);
        w.end_section();
        w.begin_section(*b"MACH");
        snapshot::write_time(&mut w, self.now);
        w.u64(self.faulted_cables as u64);
        write_engine(&mut w, self.engine);
        w.u8(0); // the retired epoch-mode byte (see `read_epoch_byte`)
        w.end_section();
        for core in &self.eps.cores {
            w.begin_section(*b"CORE");
            core.encode_state(&mut w);
            w.end_section();
        }
        w.begin_section(*b"FABR");
        self.fabric.encode_state(&mut w);
        w.end_section();
        w.begin_section(*b"BRDG");
        match &self.eps.bridge {
            Some(bridge) => {
                w.bool(true);
                bridge.encode_state(&mut w);
            }
            None => w.bool(false),
        }
        w.end_section();
        w.begin_section(*b"PMON");
        self.monitor.encode_state(&mut w);
        w.end_section();
        w.begin_section(*b"METR");
        self.metrics.encode_state(&mut w);
        w.end_section();
        w.begin_section(*b"FALT");
        self.faults.encode_state(&mut w);
        w.end_section();
        w.finish()
    }

    /// Rebuilds a machine from a [`Machine::snapshot`] image. The
    /// continuation is bit-identical to the original run under every
    /// engine: the embedded configuration deterministically rebuilds the
    /// topology (assembly cable faults included), the sections overlay
    /// every piece of mutable architectural state, and derived state —
    /// base period, recovery routing, decode caches, the fast-forward
    /// dense hint — is recomputed, never trusted from the image.
    ///
    /// # Errors
    ///
    /// Strict-reject decoding: any truncation, checksum mismatch,
    /// unknown version or internally inconsistent field yields a
    /// [`CodecError`] (never a panic, never a half-restored machine).
    pub fn restore(bytes: &[u8]) -> Result<Machine, CodecError> {
        let mut r = ByteReader::new(bytes);
        if r.take(SNAPSHOT_MAGIC.len())? != SNAPSHOT_MAGIC {
            return Err(CodecError::BadMagic);
        }
        let version = r.u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(CodecError::BadVersion { found: version });
        }
        let mut conf = r.section(*b"CONF")?;
        let config = read_config(&mut conf)?;
        conf.expect_end()?;
        let mut machine = Machine::new(config);
        let mut mach = r.section(*b"MACH")?;
        machine.now = snapshot::read_time(&mut mach)?;
        if mach.u64()? != machine.faulted_cables as u64 {
            return Err(CodecError::Invalid("assembly-fault cable count mismatch"));
        }
        machine.engine = read_engine(&mut mach)?;
        read_epoch_byte(&mut mach)?;
        mach.expect_end()?;
        for core in &mut machine.eps.cores {
            let mut sec = r.section(*b"CORE")?;
            core.restore_state(&mut sec)?;
            sec.expect_end()?;
        }
        let mut fabr = r.section(*b"FABR")?;
        machine.fabric.restore_state(&mut fabr)?;
        fabr.expect_end()?;
        let mut brdg = r.section(*b"BRDG")?;
        match (machine.eps.bridge.as_mut(), brdg.bool()?) {
            (Some(bridge), true) => bridge.restore_state(&mut brdg)?,
            (None, false) => {}
            _ => return Err(CodecError::Invalid("bridge presence mismatch")),
        }
        brdg.expect_end()?;
        let mut pmon = r.section(*b"PMON")?;
        machine.monitor.restore_state(&mut pmon)?;
        pmon.expect_end()?;
        let mut metr = r.section(*b"METR")?;
        machine.metrics.restore_state(&mut metr)?;
        metr.expect_end()?;
        let mut falt = r.section(*b"FALT")?;
        machine.faults.restore_state(&mut falt)?;
        falt.expect_end()?;
        r.expect_end()?;
        if machine.faults.derated && machine.faults.nominal.len() != machine.core_count() {
            return Err(CodecError::Invalid("brownout state core count mismatch"));
        }
        // Derived state, recomputed from what was just restored. The
        // grid follows the (possibly derated) core clocks; recovery
        // routing is always a shortest-path table over the surviving
        // links, exactly as `reroute_and_quarantine` left it — the
        // original router kind only persists on machines that never
        // rerouted.
        machine.recompute_base_period();
        if machine.faults.counters.reroutes > 0 {
            let alive: Vec<LinkDesc> = machine
                .descs
                .iter()
                .copied()
                .filter(|d| !machine.fabric.link_is_down(d.id))
                .collect();
            let n = machine.fabric.node_count();
            machine
                .fabric
                .set_router(Box::new(TableRouter::shortest_paths(n, &alive)));
        }
        machine.refresh_dense();
        Ok(machine)
    }
}

/// Leading bytes of every snapshot image.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"SWLWSNAP";
/// Format version written (and the only one accepted) by this build.
/// Version 2 extended the BRDG section with the bridge's machine tag,
/// ingress capacity, traffic counters and reassembled frame queue.
/// Version 3 writes each CORE section's energy as counts (settled
/// ledger, settle cycle, per-class issue cycles) instead of a ledger.
pub const SNAPSHOT_VERSION: u32 = 3;

fn write_fault_kind(w: &mut ByteWriter, kind: FaultKind) {
    match kind {
        FaultKind::LinkDown(link) => {
            w.u8(0);
            w.u32(link.raw());
        }
        FaultKind::LinkUp(link) => {
            w.u8(1);
            w.u32(link.raw());
        }
        FaultKind::LinkCorrupt { link, until } => {
            w.u8(2);
            w.u32(link.raw());
            snapshot::write_time(w, until);
        }
        FaultKind::LinkDrop { link, until } => {
            w.u8(3);
            w.u32(link.raw());
            snapshot::write_time(w, until);
        }
        FaultKind::CoreStall { core, until } => {
            w.u8(4);
            w.u16(core.raw());
            snapshot::write_time(w, until);
        }
        FaultKind::CoreKill(core) => {
            w.u8(5);
            w.u16(core.raw());
        }
        FaultKind::Brownout { milli, until } => {
            w.u8(6);
            w.u32(milli);
            snapshot::write_time(w, until);
        }
    }
}

fn read_fault_kind(r: &mut ByteReader<'_>) -> Result<FaultKind, CodecError> {
    Ok(match r.u8()? {
        0 => FaultKind::LinkDown(LinkId::from_raw(r.u32()?)),
        1 => FaultKind::LinkUp(LinkId::from_raw(r.u32()?)),
        2 => FaultKind::LinkCorrupt {
            link: LinkId::from_raw(r.u32()?),
            until: snapshot::read_time(r)?,
        },
        3 => FaultKind::LinkDrop {
            link: LinkId::from_raw(r.u32()?),
            until: snapshot::read_time(r)?,
        },
        4 => FaultKind::CoreStall {
            core: NodeId(r.u16()?),
            until: snapshot::read_time(r)?,
        },
        5 => FaultKind::CoreKill(NodeId(r.u16()?)),
        6 => {
            let milli = r.u32()?;
            if !(1..=1000).contains(&milli) {
                return Err(CodecError::Invalid("brownout scale out of range"));
            }
            FaultKind::Brownout {
                milli,
                until: snapshot::read_time(r)?,
            }
        }
        _ => return Err(CodecError::Invalid("unknown fault-kind tag")),
    })
}

/// Engine tag and thread count: 1 = lock-step, 2 = parallel.
fn write_engine(w: &mut ByteWriter, engine: EngineMode) {
    match engine {
        EngineMode::LockStep => {
            w.u8(1);
            w.u64(0);
        }
        EngineMode::Parallel { threads } => {
            w.u8(2);
            w.u64(threads as u64);
        }
    }
}

/// Reads what [`write_engine`] wrote.
fn read_engine(r: &mut ByteReader<'_>) -> Result<EngineMode, CodecError> {
    let tag = r.u8()?;
    let threads = r.u64()?;
    Ok(match tag {
        1 => EngineMode::LockStep,
        2 => EngineMode::Parallel {
            threads: usize::try_from(threads)
                .map_err(|_| CodecError::Invalid("thread count out of range"))?,
        },
        _ => return Err(CodecError::Invalid("unknown engine tag")),
    })
}

/// Skips the epoch-mode byte. It once selected between the pairwise
/// negotiation (0) and a global epoch barrier (1); only the negotiation
/// remains, so the byte is always 0.
fn read_epoch_byte(r: &mut ByteReader<'_>) -> Result<(), CodecError> {
    match r.u8()? {
        0 => Ok(()),
        _ => Err(CodecError::Invalid("unknown epoch-mode tag")),
    }
}

fn write_config(w: &mut ByteWriter, c: &MachineConfig) {
    w.u16(c.grid.slices_x);
    w.u16(c.grid.slices_y);
    w.u64(c.frequency.as_hz());
    w.u8(match c.router {
        RouterKind::VerticalFirst => 0,
        RouterKind::ShortestPaths => 1,
    });
    w.bool(c.bridge);
    w.u32(c.internal_link_pairs as u32);
    w.f64_bits(c.ffc_fault_rate);
    w.u64(c.fault_seed);
    snapshot::write_delta(w, c.monitor_window);
    write_engine(w, c.engine);
    match c.trace_capacity {
        None => w.u8(0),
        Some(n) => {
            w.u8(1);
            w.u64(n as u64);
        }
    }
    w.bool(c.metrics);
    w.bool(c.decode_cache);
    w.u8(0); // the retired epoch-mode byte (see `read_epoch_byte`)
    w.u64(c.faults.len() as u64);
    for ev in c.faults.events() {
        snapshot::write_time(w, ev.at);
        write_fault_kind(w, ev.kind);
    }
}

fn read_config(r: &mut ByteReader<'_>) -> Result<MachineConfig, CodecError> {
    let slices_x = r.u16()?;
    let slices_y = r.u16()?;
    let slice_count = u32::from(slices_x) * u32::from(slices_y);
    if !(1..=4096).contains(&slice_count) {
        return Err(CodecError::Invalid("grid size out of range"));
    }
    let hz = r.u64()?;
    if hz == 0 {
        return Err(CodecError::Invalid("zero base frequency"));
    }
    let router = match r.u8()? {
        0 => RouterKind::VerticalFirst,
        1 => RouterKind::ShortestPaths,
        _ => return Err(CodecError::Invalid("unknown router tag")),
    };
    let bridge = r.bool()?;
    let internal_link_pairs = r.u32()?;
    if !(1..=32).contains(&internal_link_pairs) {
        return Err(CodecError::Invalid("internal link pairs out of range"));
    }
    let ffc_fault_rate = r.f64_bits()?;
    if !ffc_fault_rate.is_finite() || !(0.0..=1.0).contains(&ffc_fault_rate) {
        return Err(CodecError::Invalid("cable fault rate out of range"));
    }
    let fault_seed = r.u64()?;
    let monitor_window = snapshot::read_delta(r)?;
    if monitor_window.as_ps() == 0 {
        return Err(CodecError::Invalid("zero monitor window"));
    }
    let engine = read_engine(r)?;
    let trace_capacity = match r.u8()? {
        0 => None,
        1 => {
            let n = r.u64()?;
            if n > 1 << 24 {
                return Err(CodecError::Invalid("trace capacity out of range"));
            }
            Some(n as usize)
        }
        _ => return Err(CodecError::Invalid("unknown trace-capacity tag")),
    };
    let metrics = r.bool()?;
    let decode_cache = r.bool()?;
    read_epoch_byte(r)?;
    let mut faults = FaultPlan::new();
    for _ in 0..r.len_prefixed(13)? {
        let at = snapshot::read_time(r)?;
        let kind = read_fault_kind(r)?;
        faults.push(at, kind);
    }
    Ok(MachineConfig {
        grid: GridSpec { slices_x, slices_y },
        frequency: Frequency::from_hz(hz),
        router,
        bridge,
        internal_link_pairs: internal_link_pairs as usize,
        ffc_fault_rate,
        fault_seed,
        monitor_window,
        engine,
        trace_capacity,
        metrics,
        faults,
        decode_cache,
    })
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("cores", &self.core_count())
            .field("slices", &self.spec.slice_count())
            .field("now", &self.now)
            .field("links", &self.fabric.link_count())
            .finish()
    }
}
