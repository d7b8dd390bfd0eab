//! The XS1-L-style core model.
//!
//! One [`Core`] is one processor: a four-stage pipeline interleaving up to
//! eight hardware threads (one instruction issue per cycle, each thread at
//! most once per four cycles — Eq. 2 of the paper), 64 KiB of single-cycle
//! SRAM, and a table of ISA-managed resources (channel ends, timers,
//! synchronisers, locks, power probes).
//!
//! The core is *network-agnostic*: channel-end output buffers are drained
//! by whoever owns the core (a switch model, or a test), and tokens are
//! delivered back with [`Core::deliver`]. Credit-based flow control falls
//! out of [`Core::can_accept`]: the network must not deliver into a full
//! buffer.
//!
//! Energy is counted, not summed: the core counts clock edges and the
//! issue cycles retired per energy class, and [`Core::ledger`] multiplies
//! those integer counts by the calibrated per-event costs (see
//! `swallow-energy`) when it is read. Every edge costs static leakage plus
//! clock-tree energy; every issued instruction costs its class energy. The
//! split between the Fig. 2 categories is made at that conversion. A
//! change to the costs (DVFS, brownout) first *settles* the counts into
//! joules at the old costs, so every count is priced at the constants in
//! force when it was made.

use crate::resource::{EventCfg, ResourceTable};
use crate::snapshot;
use crate::sram::{FetchError, MemError, Sram, DEFAULT_SRAM_BYTES};
use crate::thread::{Block, Thread, ThreadState, MAX_THREADS, TERMINATOR_PC};
use std::fmt;
use swallow_energy::core_power::IDLE_NETWORK_FRACTION;
use swallow_energy::{CorePowerModel, Energy, EnergyLedger, NodeCategory, Voltage};
use swallow_isa::token::{bytes_to_word, word_to_tokens};
use swallow_isa::{
    issue_cycles, DecodeError, EnergyClass, HostcallFn, Instr, MemOffset, NodeId, Predecoded, Reg,
    ResType, ResourceId, ThreadId, Token,
};
use swallow_sim::{
    ByteReader, ByteWriter, CodecError, Frequency, Time, TimeDelta, TraceEvent, TraceSink, Tracer,
};

/// Reference-clock tick period of the architectural timers (100 MHz).
pub const TIMER_TICK_PS: u64 = 10_000;

/// Per-thread stack carve-out used by `tspawn` and boot, in bytes.
pub const DEFAULT_STACK_BYTES: u32 = 4096;

/// Number of channel ends per core.
pub const CHANEND_COUNT: u8 = 32;
/// Number of timers per core.
pub const TIMER_COUNT: u8 = 10;
/// Number of synchronisers per core.
pub const SYNC_COUNT: u8 = 7;
/// Number of locks per core.
pub const LOCK_COUNT: u8 = 4;
/// Number of power probes per core (the Swallow self-measurement hook).
pub const PROBE_COUNT: u8 = 2;
/// Number of ADC channels a probe can select between.
pub const PROBE_CHANNELS: usize = 5;

/// Why a thread trapped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrapCause {
    /// Data memory fault.
    Mem(MemError),
    /// Instruction fetch/decode fault.
    Decode(DecodeError),
    /// A resource operand was not a live local resource of the right type.
    BadResource {
        /// The raw register value.
        raw: u32,
    },
    /// `chkct` consumed a token other than the expected control token.
    CtMismatch {
        /// Expected control-token value.
        expected: u8,
        /// Token actually at the head of the buffer.
        got: Token,
    },
    /// A data input found a control token at the head of the buffer.
    DataExpected {
        /// The offending token.
        got: Token,
    },
    /// `out` on a channel end with no destination configured.
    NoDest {
        /// The local channel-end index.
        chanend: u8,
    },
    /// An operation that is architecturally invalid in this context.
    IllegalOp(&'static str),
}

impl fmt::Display for TrapCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrapCause::Mem(e) => write!(f, "memory fault: {e}"),
            TrapCause::Decode(e) => write!(f, "decode fault: {e}"),
            TrapCause::BadResource { raw } => write!(f, "bad resource id {raw:#010x}"),
            TrapCause::CtMismatch { expected, got } => {
                write!(f, "chkct expected control token {expected}, got {got}")
            }
            TrapCause::DataExpected { got } => write!(f, "expected data token, got {got}"),
            TrapCause::NoDest { chanend } => write!(f, "chanend {chanend} has no destination"),
            TrapCause::IllegalOp(what) => write!(f, "illegal operation: {what}"),
        }
    }
}

/// A recorded trap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Trap {
    /// The thread that trapped.
    pub thread: ThreadId,
    /// Program counter of the faulting instruction.
    pub pc: u32,
    /// Why.
    pub cause: TrapCause,
}

/// Error from [`Core::load_program`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadError {
    /// The image does not fit in SRAM.
    TooLarge {
        /// Image size in bytes.
        image: u32,
        /// SRAM size in bytes.
        sram: u32,
    },
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::TooLarge { image, sram } => {
                write!(f, "program of {image} bytes exceeds {sram} bytes of SRAM")
            }
        }
    }
}

impl std::error::Error for LoadError {}

/// Error from [`Core::deliver`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeliverError {
    /// No allocated channel end at that index.
    NoSuchChanend(u8),
    /// The input buffer is full (the sender violated flow control).
    Full(u8),
}

impl fmt::Display for DeliverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeliverError::NoSuchChanend(i) => write!(f, "no chanend {i} allocated"),
            DeliverError::Full(i) => write!(f, "chanend {i} input buffer full"),
        }
    }
}

impl std::error::Error for DeliverError {}

/// Configuration of one core.
#[derive(Clone, Debug)]
pub struct CoreConfig {
    /// The core's network node identity.
    pub node: NodeId,
    /// Core clock.
    pub frequency: Frequency,
    /// Power model (voltage-scaled for DVFS studies).
    pub power: CorePowerModel,
    /// SRAM size in bytes.
    pub sram_bytes: u32,
    /// Stack carve-out per hardware thread.
    pub stack_bytes: u32,
}

impl CoreConfig {
    /// The Swallow shipping configuration: 500 MHz, 1 V, 64 KiB SRAM.
    pub fn swallow(node: NodeId) -> Self {
        CoreConfig {
            node,
            frequency: Frequency::from_mhz(500),
            power: CorePowerModel::swallow(),
            sram_bytes: DEFAULT_SRAM_BYTES,
            stack_bytes: DEFAULT_STACK_BYTES,
        }
    }
}

/// Per-class retired-instruction counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassCounts([u64; 8]);

impl ClassCounts {
    /// Count for one class.
    pub fn get(&self, class: EnergyClass) -> u64 {
        self.0[class as usize]
    }

    fn bump(&mut self, class: EnergyClass) {
        self.0[class as usize] += 1;
    }
}

/// Per-event energy constants: what one clock edge and one issue cycle of
/// each class cost. Every field is a pure function of the power model and
/// clock period; they are refreshed whenever either input changes (DVFS,
/// brownout derating), after the counts made at the old constants have
/// been settled.
#[derive(Clone, Copy, Debug)]
struct TickEnergy {
    /// Leakage over one clock period plus the core share of the
    /// clock-tree/idle-pipeline energy — both land in
    /// [`NodeCategory::Static`], so they are one constant.
    static_cycle: Energy,
    /// Clock-tree/idle-pipeline energy per cycle, network share.
    clk_net: Energy,
    /// Active-slot energy per issue cycle, indexed by `EnergyClass`.
    slot: [Energy; 8],
}

impl TickEnergy {
    fn of(power: &CorePowerModel, period: TimeDelta) -> Self {
        let clk = power.idle_cycle_energy();
        let mut slot = [Energy::ZERO; 8];
        for class in EnergyClass::ALL {
            slot[class as usize] = power.slot_energy(class);
        }
        TickEnergy {
            static_cycle: power.static_power() * period + clk * (1.0 - IDLE_NETWORK_FRACTION),
            clk_net: clk * IDLE_NETWORK_FRACTION,
            slot,
        }
    }
}

/// An edge or issue-cycle count as a multiplier. Counts stay below 2⁶³
/// (584 years of cycles at 500 MHz), where the signed conversion is
/// exact and one instruction; the unsigned one is a longer sequence on
/// x86-64, and a ledger read makes nine of them.
#[inline]
fn count_f64(n: u64) -> f64 {
    n as i64 as f64
}

/// Outcome of executing one instruction (before commit).
enum Outcome {
    /// Advance the pc by `words`.
    Advance(usize),
    /// Jump to a byte address.
    Jump(u32),
    /// Stay at this pc and block; re-executes when woken.
    Block(Block),
    /// Advance and then sleep (the divider).
    AdvanceSleep(usize, Block),
    /// The thread terminates.
    Freet,
    /// The thread traps.
    Trap(TrapCause),
    /// The whole core halts (hostcall).
    HaltCore,
}

/// An XS1-L-style core.
///
/// ```
/// use swallow_isa::{Assembler, NodeId};
/// use swallow_xcore::{Core, CoreConfig};
/// use swallow_sim::Time;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut core = Core::new(CoreConfig::swallow(NodeId(0)));
/// core.load_program(&Assembler::new().assemble("ldc r0, 41\nadd r0, r0, 1\nprint r0\nfreet")?)?;
/// while !core.is_quiescent() {
///     core.tick(core.next_tick_at());
/// }
/// assert_eq!(core.output(), "42\n");
/// # Ok(())
/// # }
/// ```
pub struct Core {
    config: CoreConfig,
    period: TimeDelta,
    sram: Sram,
    threads: [Thread; MAX_THREADS],
    rotation: Vec<u8>,
    wheel: u64,
    /// Threads blocked on a self-waking condition (timer, divider, or a
    /// timed event). Maintained incrementally so quiescence is O(1).
    sleepers: u32,
    /// Chanends with a non-empty output buffer. Maintained incrementally
    /// so the network-injection scan can be skipped when zero.
    tx_pending_count: u32,
    resources: ResourceTable,
    probe_readings: [u32; PROBE_CHANNELS],
    cycle: u64,
    now: Time,
    halted: bool,
    trap: Option<Trap>,
    /// Energy up to the last settle, in joules (see [`Core::ledger`]).
    settled: EnergyLedger,
    /// `cycle` at the last settle: edges since then are `cycle - this`.
    settled_cycle: u64,
    /// Issue cycles retired per `EnergyClass` since the last settle.
    slot_cycles: [u64; 8],
    /// Retired instructions per class; their sum is `instret`.
    class_counts: ClassCounts,
    output: String,
    tracer: Tracer,
    /// When each thread was last scheduled (entered the rotation); pairs
    /// with `sched_instret` to emit `BlockRetire` spans. Maintained even
    /// with tracing off so a tracer can be attached mid-run.
    sched_at: [Time; MAX_THREADS],
    /// Each thread's retired-instruction count when it was last scheduled.
    sched_instret: [u64; MAX_THREADS],
    /// Fault injection: no instruction issues strictly before this
    /// instant (the pipeline is glitch-gated). `Time::ZERO` — the
    /// default — means no stall; everything else about the cycle
    /// (energy, timer wakes, the issue wheel) is unaffected, so a stall
    /// perturbs nothing when absent.
    stalled_until: Time,
    /// The energy constants the counts since the last settle are priced
    /// at (see [`TickEnergy`]).
    tick_energy: TickEnergy,
}

impl Core {
    /// Creates a powered-on, idle core.
    pub fn new(config: CoreConfig) -> Self {
        let period = config.frequency.period();
        Core {
            sram: Sram::new(config.sram_bytes),
            threads: std::array::from_fn(|_| Thread::free()),
            rotation: Vec::new(),
            wheel: 0,
            sleepers: 0,
            tx_pending_count: 0,
            resources: ResourceTable::new(
                CHANEND_COUNT,
                TIMER_COUNT,
                SYNC_COUNT,
                LOCK_COUNT,
                PROBE_COUNT,
            ),
            probe_readings: [0; PROBE_CHANNELS],
            cycle: 0,
            now: Time::ZERO,
            halted: false,
            trap: None,
            settled: EnergyLedger::new(),
            settled_cycle: 0,
            slot_cycles: [0; 8],
            class_counts: ClassCounts::default(),
            output: String::new(),
            tracer: Tracer::Off,
            sched_at: [Time::ZERO; MAX_THREADS],
            sched_instret: [0; MAX_THREADS],
            stalled_until: Time::ZERO,
            tick_energy: TickEnergy::of(&config.power, period),
            period,
            config,
        }
    }

    // --- introspection ----------------------------------------------------

    /// The core's node identity.
    pub fn node(&self) -> NodeId {
        self.config.node
    }

    /// The core clock frequency.
    pub fn frequency(&self) -> Frequency {
        self.config.frequency
    }

    /// Changes the core clock (dynamic frequency scaling, §III.B).
    pub fn set_frequency(&mut self, f: Frequency) {
        self.settle();
        self.config.frequency = f;
        self.period = f.period();
        self.tick_energy = TickEnergy::of(&self.config.power, self.period);
        if self.tracer.is_enabled() {
            self.tracer.emit(
                self.now,
                TraceEvent::DvfsChange {
                    core: self.config.node.0,
                    hz: f.as_hz(),
                },
            );
        }
    }

    /// Replaces this core's trace sink. The tracer is owned by the core,
    /// so under the parallel engine it travels with the core onto its
    /// shard thread and records stay in deterministic per-core order.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// This core's trace sink.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Replaces the power model (e.g. to apply a DVFS voltage).
    pub fn set_power_model(&mut self, power: CorePowerModel) {
        self.settle();
        self.config.power = power;
        self.tick_energy = TickEnergy::of(&self.config.power, self.period);
    }

    /// The active power model (to save before a temporary derating).
    pub fn power_model(&self) -> CorePowerModel {
        self.config.power
    }

    /// Fault injection: gate instruction issue until `until` (a clock
    /// glitch / pipeline stall). The core keeps ticking — static and
    /// clock-tree energy burn, timers fire, sleepers wake — it just
    /// issues nothing. Extends, never shortens, an existing stall.
    pub fn fault_stall_until(&mut self, until: Time) {
        self.stalled_until = self.stalled_until.max(until);
    }

    /// End of the current issue-stall window (`Time::ZERO` when the core
    /// was never stalled).
    pub fn stalled_until(&self) -> Time {
        self.stalled_until
    }

    /// Fault injection: the core dies — permanently halted, exactly like
    /// the powered-down state a halted program reaches, so it charges no
    /// further energy and counts as quiescent. Its switch stays alive
    /// (the XS1 switch is a separate block): tokens already queued or
    /// addressed to it keep using the fabric.
    pub fn fault_kill(&mut self) {
        self.halted = true;
    }

    /// Total instructions retired.
    pub fn instret(&self) -> u64 {
        self.class_counts.0.iter().sum()
    }

    /// Instructions retired by one thread.
    pub fn thread_instret(&self, thread: ThreadId) -> u64 {
        self.threads
            .get(thread.0 as usize)
            .map(|t| t.instret)
            .unwrap_or(0)
    }

    /// Core cycles elapsed.
    pub fn cycles(&self) -> u64 {
        self.cycle
    }

    /// Retired-instruction counts by energy class.
    pub fn class_counts(&self) -> &ClassCounts {
        &self.class_counts
    }

    /// The energy ledger (Fig. 2 categories): the settled joules plus the
    /// edges and per-class issue cycles counted since, priced at the
    /// current constants. A fixed eight-term product, so reading is cheap
    /// and the result depends only on the counts — never on how the edges
    /// were advanced (ticked one by one or skipped in one step).
    pub fn ledger(&self) -> EnergyLedger {
        let te = &self.tick_energy;
        let edges = count_f64(self.cycle - self.settled_cycle);
        let mut compute = Energy::ZERO;
        let mut comm = Energy::ZERO;
        for (class, (&slot, &cycles)) in te.slot.iter().zip(&self.slot_cycles).enumerate() {
            let energy = slot * count_f64(cycles);
            if class == EnergyClass::Comm as usize {
                comm = energy;
            } else {
                compute += energy;
            }
        }
        let mut ledger = self.settled;
        ledger.charge(NodeCategory::Static, te.static_cycle * edges);
        ledger.charge(NodeCategory::Network, te.clk_net * edges + comm);
        ledger.charge(NodeCategory::Compute, compute);
        ledger
    }

    /// Converts the counts made since the last settle into joules at the
    /// current constants. Must run before anything changes
    /// [`TickEnergy`], so no count is priced at constants it was not
    /// made under.
    fn settle(&mut self) {
        self.settled = self.ledger();
        self.settled_cycle = self.cycle;
        self.slot_cycles = [0; 8];
    }

    /// Text printed via hostcalls.
    pub fn output(&self) -> &str {
        &self.output
    }

    /// The first trap, if any thread trapped.
    pub fn trap(&self) -> Option<Trap> {
        self.trap
    }

    /// True once `halt` was executed.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Number of live (allocated) threads.
    pub fn live_threads(&self) -> usize {
        self.threads.iter().filter(|t| t.is_live()).count()
    }

    /// Number of ready (slot-occupying) threads.
    pub fn ready_threads(&self) -> usize {
        self.rotation.len()
    }

    /// Scheduling state of a thread.
    pub fn thread_state(&self, thread: ThreadId) -> ThreadState {
        self.threads
            .get(thread.0 as usize)
            .map(|t| t.state)
            .unwrap_or(ThreadState::Free)
    }

    /// True when nothing can happen without external input: halted, or no
    /// thread is ready and none is sleeping on a timer or divider.
    ///
    /// O(1): the ready set is the rotation and the sleeper population is
    /// counted incrementally at every thread state transition.
    pub fn is_quiescent(&self) -> bool {
        debug_assert_eq!(
            self.sleepers,
            self.threads
                .iter()
                .filter(|t| Self::state_is_sleeper(&t.state))
                .count() as u32,
            "sleeper counter out of sync"
        );
        self.halted || (self.rotation.is_empty() && self.sleepers == 0)
    }

    /// Whether a thread state will wake by itself (without external
    /// input) as simulated time advances.
    fn state_is_sleeper(state: &ThreadState) -> bool {
        match state {
            ThreadState::Blocked(Block::Timer { .. })
            | ThreadState::Blocked(Block::Divide { .. }) => true,
            ThreadState::Blocked(Block::Event { until }) => *until != Time::MAX,
            _ => false,
        }
    }

    /// Changes a thread's scheduling state, keeping the sleeper count in
    /// step. All state writes must go through here.
    fn set_thread_state(&mut self, tid: u8, state: ThreadState) {
        let was = Self::state_is_sleeper(&self.threads[tid as usize].state);
        let is = Self::state_is_sleeper(&state);
        self.threads[tid as usize].state = state;
        self.sleepers = self.sleepers - was as u32 + is as u32;
    }

    /// The earliest timer/divider wake time, if any thread sleeps on one.
    ///
    /// O(1) on the hot path: the sleeper population is counted
    /// incrementally, so a fully busy core answers `None` without
    /// scanning the thread table.
    pub fn next_wake(&self) -> Option<Time> {
        if self.sleepers == 0 {
            return None;
        }
        self.threads
            .iter()
            .filter_map(|t| match t.state {
                ThreadState::Blocked(Block::Timer { until })
                | ThreadState::Blocked(Block::Event { until })
                    if until != Time::MAX =>
                {
                    Some(until)
                }
                ThreadState::Blocked(Block::Divide { until_cycle }) => {
                    let cycles = until_cycle.saturating_sub(self.cycle);
                    Some(self.now + self.period.saturating_mul(cycles))
                }
                _ => None,
            })
            .min()
    }

    /// The instant of the next clock edge (when [`Core::tick`] expects to
    /// be called next).
    pub fn next_tick_at(&self) -> Time {
        self.now + self.period
    }

    /// The next instant at which ticking this core can do anything beyond
    /// charging idle energy: the next clock edge whose issue slot holds a
    /// ready thread, or the first clock edge at or after the earliest
    /// timer/divider/event wake, whichever comes first. `None` when the
    /// core is halted or every live thread is blocked on external input —
    /// then only the network (or nothing) can make it interesting again.
    ///
    /// This is the core half of the fast-forward contract: skipping all
    /// clock edges strictly before the returned instant is
    /// indistinguishable from ticking through them.
    pub fn next_interesting_at(&self) -> Option<Time> {
        if self.halted {
            return None;
        }
        // No sleeper (the common case, and this runs once per core per
        // negotiation round) or an issue on the very next edge: no wake
        // can come earlier.
        let issue = self.next_issue_at();
        if self.sleepers == 0 {
            return issue;
        }
        let next = self.next_tick_at();
        if issue == Some(next) {
            return issue;
        }
        let Some(wake) = self.next_wake() else {
            return issue;
        };
        // First clock edge at or after the wake instant; stays on this
        // core's tick grid so fast-forward matches lock-step exactly.
        let wake = if wake <= next {
            next
        } else {
            wake.align_up_to(self.now, self.period)
        };
        Some(issue.map_or(wake, |at| at.min(wake)))
    }

    /// The first clock edge whose issue slot holds a ready thread (Eq. 2):
    /// the next edge when four or more threads fill the rotation, else
    /// the next edge whose slot `wheel & 3` is below the rotation length —
    /// the rotation is padded to four slots, so one to three ready threads
    /// issue on that many edges in four. `None` with no ready thread.
    #[inline]
    fn next_issue_at(&self) -> Option<Time> {
        let len = self.rotation.len() as u64;
        if len >= 4 {
            return Some(self.next_tick_at());
        }
        if len == 0 {
            return None;
        }
        // The next edge issues from slot `wheel & 3`; slot 0 is always
        // occupied, so an empty slot waits for the wheel to wrap.
        let slot = self.wheel & 3;
        let empty = if slot < len { 0 } else { 4 - slot };
        Some(self.now + self.period.saturating_mul(empty + 1))
    }

    /// This core's negotiation watermark: [`Core::next_interesting_at`]
    /// collapsed to a saturating picosecond count, `u64::MAX` when the
    /// core is halted or blocked with no scheduled wake. The parallel
    /// engine's pairwise negotiation publishes this as the lower bound on
    /// when the core can next *do* anything — in particular emit a token —
    /// so a peer shard `L` of routed latency away can safely run to
    /// `watermark + L` without synchronising (see `swallow-board`'s
    /// shard module).
    #[inline]
    pub fn watermark_ps(&self) -> u64 {
        self.next_interesting_at().map_or(u64::MAX, |t| t.as_ps())
    }

    /// Fast-forwards over clock edges that provably do nothing: advances
    /// `now`/`cycle`/the issue wheel over every edge strictly before
    /// `limit`, capped at the earliest wake instant and at the next edge
    /// whose issue slot holds a ready thread. A core with no ready thread
    /// skips its idle span; one with one to three ready threads skips the
    /// empty slots of its four-slot rotation; a full rotation skips
    /// nothing.
    ///
    /// The wheel and cycle counters advance exactly as `tick` would have
    /// advanced them, so thread scheduling after the skip is bit-identical
    /// to the lock-step engine — and since edge energy is priced from the
    /// cycle count (see [`Core::ledger`]), so is the ledger.
    pub fn skip_idle_until(&mut self, limit: Time) {
        if self.halted {
            return;
        }
        let mut stop = limit;
        if let Some(issue) = self.next_issue_at() {
            stop = stop.min(issue);
        }
        if stop <= self.next_tick_at() {
            return;
        }
        if let Some(wake) = self.next_wake() {
            stop = stop.min(wake);
        }
        let span = stop.saturating_since(self.now).as_ps();
        let period = self.period.as_ps();
        if span <= period {
            return;
        }
        // Edges at now + k·period for k = 1..=skipped are all < stop.
        let skipped = (span - 1) / period;
        self.now += TimeDelta::from_ps(skipped * period);
        self.cycle += skipped;
        self.wheel += skipped;
    }

    /// Runs every clock edge due at or before `until` (the batched inner
    /// loop of the machine's step). Stops immediately if the core halts.
    #[inline]
    pub fn run_until(&mut self, until: Time) {
        while !self.halted && self.next_tick_at() <= until {
            if !self.run_steady(until, false) {
                self.tick(self.next_tick_at());
            }
        }
    }

    /// The steady-state edge loop shared by [`Core::run_until`] and
    /// [`Core::run_epoch`]: while a thread is ready, none sleeps and issue
    /// is not stalled, an edge is exactly `now`/`cycle`/wheel advance plus
    /// one `step_thread` — [`Core::tick`] with every branch that cannot
    /// fire taken out. Runs edges due at or before `until` and hands back
    /// to the general `tick` the moment the rotation length, the sleeper
    /// count or `halted` changes, or (when `stop_on_output`) output is
    /// pending. Returns `false`, having run nothing, when the core is not
    /// in that state or fewer than two edges are due.
    #[inline]
    fn run_steady(&mut self, until: Time, stop_on_output: bool) -> bool {
        let len = self.rotation.len();
        let mut at = self.next_tick_at();
        // A lone due edge (lock-step's cadence) is cheaper through `tick`:
        // the loop's set-up pays off from the second edge on.
        if len == 0 || self.sleepers != 0 || at < self.stalled_until || at + self.period > until {
            return false;
        }
        // Same slot arithmetic as `tick`: the rotation is padded to
        // max(4, Nt) slots, masked instead of divided for powers of two.
        let nslots = len.max(4) as u64;
        let pow2 = nslots.is_power_of_two();
        let period = self.period;
        while at <= until {
            self.now = at;
            self.cycle += 1;
            let pos = if pow2 {
                (self.wheel & (nslots - 1)) as usize
            } else {
                (self.wheel % nslots) as usize
            };
            self.wheel += 1;
            if pos < len {
                let tid = self.rotation[pos];
                self.step_thread(tid);
                if self.halted
                    || self.rotation.len() != len
                    || self.sleepers != 0
                    || (stop_on_output && self.tx_pending_count > 0)
                {
                    break;
                }
            }
            at += period;
        }
        true
    }

    /// The instant this core has been simulated to (its local clock). All
    /// cores agree with the machine clock under lock-step; under the
    /// parallel engine a core may be ahead of the machine clock (up to one
    /// negotiated window) or behind it (stopped early on output).
    pub fn local_now(&self) -> Time {
        self.now
    }

    /// Advances one conservative epoch in *isolation*: processes every
    /// clock edge due at or before `until` exactly like [`Core::run_until`],
    /// skipping idle spans in one step, but **stops at the
    /// first edge that enqueues network output** and returns `true` if it
    /// did. Returns `false` when the core reached `until` cleanly.
    ///
    /// The epoch contract (the conservative-PDES argument): between two
    /// machine-level grid instants no token can be *delivered* to this
    /// core, so as long as the core does not *emit* anything, its
    /// evolution over the epoch is independent of every other core and
    /// can run on any host thread. The moment it emits, the machine must
    /// take over at that instant so the fabric injects the token exactly
    /// when the lock-step engine would have.
    ///
    /// The caller must drain pending output before starting an epoch.
    pub fn run_epoch(&mut self, until: Time) -> bool {
        debug_assert!(
            !self.has_tx_pending(),
            "epoch started with undelivered output pending"
        );
        while !self.halted && self.next_tick_at() <= until {
            if self.rotation.is_empty() {
                if self.sleepers == 0 {
                    // Blocked on external input only: freeze at the
                    // transition edge instead of idle-advancing. The
                    // machine catches the core up (the same idle edges,
                    // counted the same) once the epoch's end instant is
                    // committed, which keeps the quiescence instant —
                    // the last transition edge — observable to the
                    // engine instead of smeared up to the epoch bound.
                    return false;
                }
                // No ready thread: skip the provably idle edges in one
                // step, then process the wake edge (if any is
                // due within the epoch) below.
                self.skip_idle_until(until);
                if self.halted || self.next_tick_at() > until {
                    break;
                }
            } else if self.run_steady(until, true) {
                if self.tx_pending_count > 0 {
                    return true;
                }
                continue;
            }
            let at = self.next_tick_at();
            self.tick(at);
            if self.tx_pending_count > 0 {
                return true;
            }
        }
        false
    }

    /// Direct read access to SRAM (test/observability hook; on the real
    /// board this is the JTAG path).
    pub fn sram(&self) -> &Sram {
        &self.sram
    }

    /// Direct write access to SRAM (the boot/JTAG path).
    pub fn sram_mut(&mut self) -> &mut Sram {
        &mut self.sram
    }

    /// Enables or disables this core's predecoded-instruction cache
    /// (architecturally invisible either way; see `decode_cache`).
    pub fn set_decode_cache(&mut self, enabled: bool) {
        self.sram.set_decode_cache(enabled);
    }

    /// Whether this core's predecoded-instruction cache is active.
    pub fn decode_cache_enabled(&self) -> bool {
        self.sram.decode_cache_enabled()
    }

    // --- boot -------------------------------------------------------------

    /// Loads a program image at address 0 and starts thread 0 at its entry
    /// point with a full-SRAM-top stack.
    ///
    /// # Errors
    ///
    /// [`LoadError::TooLarge`] when the image exceeds SRAM.
    pub fn load_program(&mut self, program: &swallow_isa::Program) -> Result<(), LoadError> {
        if !self.sram.load_words(program.words()) {
            return Err(LoadError::TooLarge {
                image: program.len_bytes(),
                sram: self.sram.len(),
            });
        }
        self.threads[0].start(program.entry(), self.sram.len(), 0);
        self.activate(0);
        Ok(())
    }

    // --- network interface -------------------------------------------------

    /// True when `n` more tokens fit in the chanend's input buffer (the
    /// credit check the switch performs before forwarding).
    pub fn can_accept(&self, chanend: u8, n: usize) -> bool {
        self.resources
            .chanend(chanend)
            .map(|ch| ch.in_space() >= n)
            .unwrap_or(false)
    }

    /// Delivers a token into a channel end's input buffer, waking any
    /// thread blocked on it.
    ///
    /// # Errors
    ///
    /// [`DeliverError`] when the chanend is unallocated or full.
    pub fn deliver(&mut self, chanend: u8, token: Token) -> Result<(), DeliverError> {
        let ch = self
            .resources
            .chanend_mut(chanend)
            .ok_or(DeliverError::NoSuchChanend(chanend))?;
        if ch.in_space() == 0 {
            return Err(DeliverError::Full(chanend));
        }
        ch.in_buf.push_back(token);
        let available = ch.in_buf.len();
        if self.tracer.is_enabled() {
            self.tracer.emit(
                self.now,
                TraceEvent::TokenReceive {
                    core: self.config.node.0,
                    chanend,
                    ctrl: matches!(token, Token::Ctrl(_)),
                },
            );
        }
        self.wake_receivers(chanend, available);
        self.wake_event_waiter(chanend);
        Ok(())
    }

    /// Channel ends with tokens waiting to be transmitted, as an
    /// allocation-free iterator. Returns nothing (without scanning) when
    /// the cached pending count is zero.
    pub fn tx_pending(&self) -> impl Iterator<Item = u8> + '_ {
        let any = self.tx_pending_count > 0;
        (0..CHANEND_COUNT).filter(move |&i| {
            any && self
                .resources
                .chanend(i)
                .map(|ch| !ch.out_buf.is_empty())
                .unwrap_or(false)
        })
    }

    /// True when any chanend has tokens waiting to be transmitted. O(1).
    pub fn has_tx_pending(&self) -> bool {
        debug_assert_eq!(
            self.tx_pending_count as usize,
            (0..CHANEND_COUNT)
                .filter(|&i| self
                    .resources
                    .chanend(i)
                    .map(|ch| !ch.out_buf.is_empty())
                    .unwrap_or(false))
                .count(),
            "tx-pending counter out of sync"
        );
        self.tx_pending_count > 0
    }

    /// Peeks the next outgoing token of a chanend and the destination it
    /// was emitted towards.
    pub fn tx_front(&self, chanend: u8) -> Option<(ResourceId, Token)> {
        let ch = self.resources.chanend(chanend)?;
        ch.out_buf.front().map(|&(t, dest)| (dest, t))
    }

    /// Removes the next outgoing token of a chanend, waking any thread
    /// blocked on output-buffer space.
    pub fn tx_pop(&mut self, chanend: u8) -> Option<(ResourceId, Token)> {
        let ch = self.resources.chanend_mut(chanend)?;
        let (token, dest) = ch.out_buf.pop_front()?;
        let space = ch.out_space();
        if ch.out_buf.is_empty() {
            self.tx_pending_count -= 1;
        }
        self.wake_senders(chanend, space);
        Some((dest, token))
    }

    /// Updates the live reading of one measurement channel, in microwatts
    /// (driven by the board's power tree; read by `in` on a probe).
    pub fn set_probe_reading(&mut self, channel: usize, microwatts: u32) {
        if channel < PROBE_CHANNELS {
            self.probe_readings[channel] = microwatts;
        }
    }

    // --- scheduling --------------------------------------------------------

    fn activate(&mut self, tid: u8) {
        if !self.rotation.contains(&tid) {
            if self.tracer.is_enabled() {
                if self.rotation.is_empty() {
                    self.tracer.emit(
                        self.now,
                        TraceEvent::CoreWake {
                            core: self.config.node.0,
                        },
                    );
                }
                self.tracer.emit(
                    self.now,
                    TraceEvent::ThreadSchedule {
                        core: self.config.node.0,
                        thread: tid,
                        pc: self.threads[tid as usize].pc,
                    },
                );
            }
            self.sched_at[tid as usize] = self.now;
            self.sched_instret[tid as usize] = self.threads[tid as usize].instret;
            self.rotation.push(tid);
        }
        self.set_thread_state(tid, ThreadState::Ready);
    }

    fn deactivate(&mut self, tid: u8) {
        let before = self.rotation.len();
        self.rotation.retain(|&t| t != tid);
        if self.rotation.len() == before || !self.tracer.is_enabled() {
            return;
        }
        let block = (self.threads[tid as usize].instret - self.sched_instret[tid as usize])
            .min(u32::MAX as u64) as u32;
        // The new state was set before deactivation (every commit arm does
        // `set_thread_state` first), so it is the reason we left.
        let reason = match &self.threads[tid as usize].state {
            ThreadState::Blocked(b) => b.label(),
            ThreadState::Free => "done",
            ThreadState::Trapped => "trap",
            ThreadState::Ready => "ready",
        };
        self.tracer.emit(
            self.now,
            TraceEvent::BlockRetire {
                core: self.config.node.0,
                thread: tid,
                instret: block,
                since: self.sched_at[tid as usize],
                reason,
            },
        );
        if self.rotation.is_empty() {
            self.tracer.emit(
                self.now,
                TraceEvent::CoreSleep {
                    core: self.config.node.0,
                },
            );
        }
    }

    fn wake_receivers(&mut self, chanend: u8, available: usize) {
        for tid in 0..MAX_THREADS as u8 {
            if let ThreadState::Blocked(Block::RecvTokens { chanend: ch, need }) =
                self.threads[tid as usize].state
            {
                if ch == chanend && available >= need {
                    self.activate(tid);
                }
            }
        }
    }

    fn wake_senders(&mut self, chanend: u8, space: usize) {
        for tid in 0..MAX_THREADS as u8 {
            if let ThreadState::Blocked(Block::SendSpace { chanend: ch, need }) =
                self.threads[tid as usize].state
            {
                if ch == chanend && space >= need {
                    self.activate(tid);
                }
            }
        }
    }

    /// Wakes a thread parked in `waiteu` when a token lands on a chanend
    /// whose event it armed.
    fn wake_event_waiter(&mut self, chanend: u8) {
        let Some(cfg) = self.resources.chanend(chanend).and_then(|ch| ch.event) else {
            return;
        };
        if !cfg.enabled {
            return;
        }
        let tid = cfg.owner.0;
        if matches!(
            self.threads.get(tid as usize).map(|t| t.state),
            Some(ThreadState::Blocked(Block::Event { .. }))
        ) {
            self.activate(tid);
        }
    }

    fn wake_sleepers(&mut self) {
        for tid in 0..MAX_THREADS as u8 {
            match self.threads[tid as usize].state {
                ThreadState::Blocked(Block::Timer { until }) if until <= self.now => {
                    self.activate(tid);
                }
                ThreadState::Blocked(Block::Divide { until_cycle })
                    if until_cycle <= self.cycle =>
                {
                    self.activate(tid);
                }
                ThreadState::Blocked(Block::Event { until }) if until <= self.now => {
                    self.activate(tid);
                }
                _ => {}
            }
        }
    }

    // --- the clock edge ------------------------------------------------------

    /// Advances the core by one clock cycle ending at `now`.
    ///
    /// The caller is responsible for calling this once per core period;
    /// use [`Core::next_tick_at`] for the cadence. A halted core ignores
    /// ticks (it is considered powered down for the experiment).
    pub fn tick(&mut self, now: Time) {
        if self.halted {
            return;
        }
        // The edge's leakage and clock-tree energy is priced from the
        // cycle count when the ledger is read (see `Core::ledger`).
        self.now = now;
        self.cycle += 1;

        if self.sleepers > 0 {
            self.wake_sleepers();
        }

        // Eq. 2: one issue slot per cycle, rotated over max(4, Nt) slots.
        // A stalled core burns the cycle (and its energy) without
        // issuing: the wheel still turns, so thread interleaving after
        // the stall is position-identical under every engine.
        //
        // `nslots` is 4 or 8 for most populations; the masked path is
        // exactly `wheel % nslots` for powers of two and skips the
        // hardware divide the hot loop would otherwise pay every cycle.
        let nslots = self.rotation.len().max(4) as u64;
        let pos = if nslots & (nslots - 1) == 0 {
            (self.wheel & (nslots - 1)) as usize
        } else {
            (self.wheel % nslots) as usize
        };
        self.wheel += 1;
        if pos < self.rotation.len() && now >= self.stalled_until {
            let tid = self.rotation[pos];
            self.step_thread(tid);
        }
    }

    fn trap_thread(&mut self, tid: u8, pc: u32, cause: TrapCause) {
        self.set_thread_state(tid, ThreadState::Trapped);
        self.deactivate(tid);
        if self.trap.is_none() {
            self.trap = Some(Trap {
                thread: ThreadId(tid),
                pc,
                cause,
            });
        }
    }

    fn step_thread(&mut self, tid: u8) {
        let pc = self.threads[tid as usize].pc;
        if pc == TERMINATOR_PC {
            self.free_thread(tid);
            return;
        }
        // Fetch through the predecode cache: steady state is one array
        // load, the miss path reads one or two SRAM words and decodes
        // exactly as the uncached interpreter did.
        let entry = match self.sram.fetch(pc) {
            Ok(entry) => entry,
            Err(FetchError::Mem(e)) => return self.trap_thread(tid, pc, TrapCause::Mem(e)),
            Err(FetchError::Decode(e)) => return self.trap_thread(tid, pc, TrapCause::Decode(e)),
        };
        let instr = entry.instr;
        let words = entry.words as usize;

        let outcome = self.execute(tid, pc, words, &instr);

        // Commit.
        match outcome {
            Outcome::Advance(n) => {
                self.threads[tid as usize].pc = pc + 4 * n as u32;
                self.retire(tid, &entry);
            }
            Outcome::Jump(target) => {
                self.threads[tid as usize].pc = target;
                self.retire(tid, &entry);
            }
            Outcome::AdvanceSleep(n, block) => {
                self.threads[tid as usize].pc = pc + 4 * n as u32;
                self.set_thread_state(tid, ThreadState::Blocked(block));
                self.deactivate(tid);
                self.retire(tid, &entry);
            }
            Outcome::Block(block) => {
                // pc unchanged: the instruction re-executes when woken.
                self.set_thread_state(tid, ThreadState::Blocked(block));
                self.deactivate(tid);
            }
            Outcome::Freet => {
                self.retire(tid, &entry);
                self.free_thread(tid);
            }
            Outcome::Trap(cause) => self.trap_thread(tid, pc, cause),
            Outcome::HaltCore => {
                self.retire(tid, &entry);
                self.halted = true;
            }
        }
    }

    /// Emits a [`TraceEvent::TokenSend`] for tokens just queued on a
    /// chanend's output buffer (one branch when tracing is off).
    fn trace_send(&mut self, chanend: u8, dest: ResourceId, tokens: u8, ctrl: bool) {
        if self.tracer.is_enabled() {
            self.tracer.emit(
                self.now,
                TraceEvent::TokenSend {
                    core: self.config.node.0,
                    chanend,
                    dest_node: dest.node().0,
                    dest_chanend: dest.index(),
                    tokens,
                    ctrl,
                },
            );
        }
    }

    fn retire(&mut self, tid: u8, entry: &Predecoded) {
        let class = entry.class;
        self.slot_cycles[class as usize] += entry.issue_cycles as u64;
        self.class_counts.bump(class);
        self.threads[tid as usize].instret += 1;
    }

    fn free_thread(&mut self, tid: u8) {
        self.set_thread_state(tid, ThreadState::Free);
        self.deactivate(tid);
        // Release any barrier parties? Barriers hold ThreadIds; a freed
        // thread at a barrier is impossible (it would be Blocked).
    }

    fn timer_ticks(&self) -> u32 {
        (self.now.as_ps() / TIMER_TICK_PS) as u32
    }

    /// Resolves a register-held resource id to a local (type, index).
    fn local_resource(&self, raw: u32, want: ResType) -> Result<u8, TrapCause> {
        let rid = ResourceId::from_raw(raw);
        if rid.is_invalid() || rid.node() != self.config.node || rid.res_type() != Some(want) {
            return Err(TrapCause::BadResource { raw });
        }
        Ok(rid.index())
    }

    /// Resolves a chanend operand, checking allocation.
    fn chanend_idx(&self, raw: u32) -> Result<u8, TrapCause> {
        let idx = self.local_resource(raw, ResType::Chanend)?;
        if self.resources.chanend(idx).is_none() {
            return Err(TrapCause::BadResource { raw });
        }
        Ok(idx)
    }

    #[allow(clippy::too_many_lines)] // One arm per instruction; splitting hurts.
    fn execute(&mut self, tid: u8, pc: u32, words: usize, instr: &Instr) -> Outcome {
        use Instr::*;

        macro_rules! t {
            () => {
                self.threads[tid as usize]
            };
        }
        macro_rules! get {
            ($r:expr) => {
                self.threads[tid as usize].reg($r)
            };
        }
        macro_rules! set {
            ($r:expr, $v:expr) => {{
                // Evaluate the value before taking the mutable borrow.
                let value = $v;
                self.threads[tid as usize].set_reg($r, value)
            }};
        }
        // Effective address helpers (scaled indexing, XS1 style).
        let ea = |base: u32, off: MemOffset, scale: u32, regs: &Thread| -> u32 {
            match off {
                MemOffset::Reg(r) => base.wrapping_add(regs.reg(r).wrapping_mul(scale)),
                MemOffset::Imm(i) => base.wrapping_add((i as i32 as u32).wrapping_mul(scale)),
            }
        };
        let next = pc.wrapping_add(4 * words as u32);
        let rel = |off: i32| next.wrapping_add((off as u32).wrapping_mul(4));

        match *instr {
            Nop => Outcome::Advance(words),
            Add { d, a, b } => {
                set!(d, get!(a).wrapping_add(get!(b)));
                Outcome::Advance(words)
            }
            Sub { d, a, b } => {
                set!(d, get!(a).wrapping_sub(get!(b)));
                Outcome::Advance(words)
            }
            Mul { d, a, b } => {
                set!(d, get!(a).wrapping_mul(get!(b)));
                Outcome::Advance(words)
            }
            Divs { d, a, b } | Divu { d, a, b } | Rems { d, a, b } | Remu { d, a, b } => {
                let (x, y) = (get!(a), get!(b));
                let value = match instr {
                    Divs { .. } => {
                        if y == 0 {
                            return Outcome::Trap(TrapCause::IllegalOp("divide by zero"));
                        }
                        (x as i32).wrapping_div(y as i32) as u32
                    }
                    Divu { .. } => {
                        if y == 0 {
                            return Outcome::Trap(TrapCause::IllegalOp("divide by zero"));
                        }
                        x / y
                    }
                    Rems { .. } => {
                        if y == 0 {
                            return Outcome::Trap(TrapCause::IllegalOp("divide by zero"));
                        }
                        (x as i32).wrapping_rem(y as i32) as u32
                    }
                    _ => {
                        if y == 0 {
                            return Outcome::Trap(TrapCause::IllegalOp("divide by zero"));
                        }
                        x % y
                    }
                };
                set!(d, value);
                let until_cycle = self.cycle + issue_cycles(instr) as u64;
                Outcome::AdvanceSleep(words, Block::Divide { until_cycle })
            }
            And { d, a, b } => {
                set!(d, get!(a) & get!(b));
                Outcome::Advance(words)
            }
            Or { d, a, b } => {
                set!(d, get!(a) | get!(b));
                Outcome::Advance(words)
            }
            Xor { d, a, b } => {
                set!(d, get!(a) ^ get!(b));
                Outcome::Advance(words)
            }
            Shl { d, a, b } => {
                set!(d, get!(a).checked_shl(get!(b)).unwrap_or(0));
                Outcome::Advance(words)
            }
            Shr { d, a, b } => {
                set!(d, get!(a).checked_shr(get!(b)).unwrap_or(0));
                Outcome::Advance(words)
            }
            Ashr { d, a, b } => {
                let sh = get!(b).min(31);
                set!(d, ((get!(a) as i32) >> sh) as u32);
                Outcome::Advance(words)
            }
            Eq { d, a, b } => {
                set!(d, (get!(a) == get!(b)) as u32);
                Outcome::Advance(words)
            }
            Lss { d, a, b } => {
                set!(d, ((get!(a) as i32) < (get!(b) as i32)) as u32);
                Outcome::Advance(words)
            }
            Lsu { d, a, b } => {
                set!(d, (get!(a) < get!(b)) as u32);
                Outcome::Advance(words)
            }
            Neg { d, a } => {
                set!(d, (get!(a) as i32).wrapping_neg() as u32);
                Outcome::Advance(words)
            }
            Not { d, a } => {
                set!(d, !get!(a));
                Outcome::Advance(words)
            }
            Clz { d, a } => {
                set!(d, get!(a).leading_zeros());
                Outcome::Advance(words)
            }
            Byterev { d, a } => {
                set!(d, get!(a).swap_bytes());
                Outcome::Advance(words)
            }
            Bitrev { d, a } => {
                set!(d, get!(a).reverse_bits());
                Outcome::Advance(words)
            }
            AddI { d, a, imm } => {
                set!(d, get!(a).wrapping_add(imm as u32));
                Outcome::Advance(words)
            }
            SubI { d, a, imm } => {
                set!(d, get!(a).wrapping_sub(imm as u32));
                Outcome::Advance(words)
            }
            EqI { d, a, imm } => {
                set!(d, (get!(a) == imm as u32) as u32);
                Outcome::Advance(words)
            }
            ShlI { d, a, imm } => {
                set!(d, get!(a).checked_shl(imm as u32).unwrap_or(0));
                Outcome::Advance(words)
            }
            ShrI { d, a, imm } => {
                set!(d, get!(a).checked_shr(imm as u32).unwrap_or(0));
                Outcome::Advance(words)
            }
            AshrI { d, a, imm } => {
                let sh = (imm as u32).min(31);
                set!(d, ((get!(a) as i32) >> sh) as u32);
                Outcome::Advance(words)
            }
            MkMskI { d, width } => {
                let v = if width >= 32 {
                    u32::MAX
                } else {
                    (1u32 << width) - 1
                };
                set!(d, v);
                Outcome::Advance(words)
            }
            MkMsk { d, s } => {
                let w = get!(s);
                let v = if w >= 32 { u32::MAX } else { (1u32 << w) - 1 };
                set!(d, v);
                Outcome::Advance(words)
            }
            Sext { r, bits } => {
                if bits < 32 {
                    let shift = 32 - bits as u32;
                    let v = ((get!(r) << shift) as i32 >> shift) as u32;
                    set!(r, v);
                }
                Outcome::Advance(words)
            }
            Zext { r, bits } => {
                if bits < 32 {
                    let mask = (1u32 << bits) - 1;
                    set!(r, get!(r) & mask);
                }
                Outcome::Advance(words)
            }
            Ldc { d, imm } => {
                set!(d, imm);
                Outcome::Advance(words)
            }
            Ldw { d, base, off } => {
                let addr = ea(get!(base), off, 4, &t!());
                match self.sram.read_u32(addr) {
                    Ok(v) => {
                        set!(d, v);
                        Outcome::Advance(words)
                    }
                    Err(e) => Outcome::Trap(TrapCause::Mem(e)),
                }
            }
            Stw { s, base, off } => {
                let addr = ea(get!(base), off, 4, &t!());
                match self.sram.write_u32(addr, get!(s)) {
                    Ok(()) => Outcome::Advance(words),
                    Err(e) => Outcome::Trap(TrapCause::Mem(e)),
                }
            }
            Ld16s { d, base, off } => {
                let addr = ea(get!(base), off, 2, &t!());
                match self.sram.read_u16(addr) {
                    Ok(v) => {
                        set!(d, v as i16 as i32 as u32);
                        Outcome::Advance(words)
                    }
                    Err(e) => Outcome::Trap(TrapCause::Mem(e)),
                }
            }
            Ld8u { d, base, off } => {
                let addr = ea(get!(base), off, 1, &t!());
                match self.sram.read_u8(addr) {
                    Ok(v) => {
                        set!(d, v as u32);
                        Outcome::Advance(words)
                    }
                    Err(e) => Outcome::Trap(TrapCause::Mem(e)),
                }
            }
            St16 { s, base, off } => {
                let addr = ea(get!(base), off, 2, &t!());
                match self.sram.write_u16(addr, get!(s) as u16) {
                    Ok(()) => Outcome::Advance(words),
                    Err(e) => Outcome::Trap(TrapCause::Mem(e)),
                }
            }
            St8 { s, base, off } => {
                let addr = ea(get!(base), off, 1, &t!());
                match self.sram.write_u8(addr, get!(s) as u8) {
                    Ok(()) => Outcome::Advance(words),
                    Err(e) => Outcome::Trap(TrapCause::Mem(e)),
                }
            }
            Ldaw { d, base, imm } => {
                set!(
                    d,
                    get!(base).wrapping_add((imm as i32 as u32).wrapping_mul(4))
                );
                Outcome::Advance(words)
            }
            Ldap { d, off } => {
                set!(d, rel(off));
                Outcome::Advance(words)
            }
            Bu { off } => Outcome::Jump(rel(off)),
            Bt { s, off } => {
                if get!(s) != 0 {
                    Outcome::Jump(rel(off))
                } else {
                    Outcome::Advance(words)
                }
            }
            Bf { s, off } => {
                if get!(s) == 0 {
                    Outcome::Jump(rel(off))
                } else {
                    Outcome::Advance(words)
                }
            }
            Bl { off } => {
                set!(Reg::LR, next);
                Outcome::Jump(rel(off))
            }
            Bau { s } => Outcome::Jump(get!(s)),
            Ret => Outcome::Jump(get!(Reg::LR)),
            GetR { d, ty } => {
                let rid = self
                    .resources
                    .alloc(ty)
                    .map(|idx| ResourceId::new(self.config.node, idx, ty))
                    .unwrap_or(ResourceId::INVALID);
                if ty == ResType::Chanend && !rid.is_invalid() && self.tracer.is_enabled() {
                    self.tracer.emit(
                        self.now,
                        TraceEvent::ChannelOpen {
                            core: self.config.node.0,
                            chanend: rid.index(),
                        },
                    );
                }
                set!(d, rid.raw());
                Outcome::Advance(words)
            }
            FreeR { r } => {
                let raw = get!(r);
                let rid = ResourceId::from_raw(raw);
                match rid.res_type() {
                    Some(ty) if rid.node() == self.config.node => {
                        // Freeing a chanend with undelivered output would
                        // drop tokens on the floor; the free waits for the
                        // switch to drain the buffer first.
                        if ty == ResType::Chanend {
                            if let Some(ch) = self.resources.chanend(rid.index()) {
                                if !ch.out_buf.is_empty() {
                                    return Outcome::Block(Block::SendSpace {
                                        chanend: rid.index(),
                                        need: crate::resource::CHANEND_BUF_TOKENS,
                                    });
                                }
                            }
                        }
                        if self.resources.free(ty, rid.index()) {
                            if ty == ResType::Chanend && self.tracer.is_enabled() {
                                self.tracer.emit(
                                    self.now,
                                    TraceEvent::ChannelClose {
                                        core: self.config.node.0,
                                        chanend: rid.index(),
                                    },
                                );
                            }
                            Outcome::Advance(words)
                        } else {
                            Outcome::Trap(TrapCause::BadResource { raw })
                        }
                    }
                    _ => Outcome::Trap(TrapCause::BadResource { raw }),
                }
            }
            TSpawn { d, entry, arg } => {
                let entry_pc = get!(entry);
                let arg_val = get!(arg);
                let free = (1..MAX_THREADS as u8).find(|&i| !self.threads[i as usize].is_live());
                match free {
                    Some(new_tid) => {
                        let sp = self
                            .sram
                            .len()
                            .saturating_sub(new_tid as u32 * self.config.stack_bytes);
                        self.threads[new_tid as usize].start(entry_pc, sp, arg_val);
                        self.activate(new_tid);
                        set!(d, new_tid as u32);
                    }
                    None => set!(d, u32::MAX),
                }
                Outcome::Advance(words)
            }
            FreeT => Outcome::Freet,
            MSync { r } | SSync { r } => {
                let raw = get!(r);
                let idx = match self.local_resource(raw, ResType::Sync) {
                    Ok(i) => i,
                    Err(c) => return Outcome::Trap(c),
                };
                let Some(sync) = self.resources.syncs[idx as usize].as_mut() else {
                    return Outcome::Trap(TrapCause::BadResource { raw });
                };
                let arrivals = sync.waiting.len() as u32 + 1;
                if arrivals >= sync.expected {
                    // Release: waiters have their pc advanced on their
                    // behalf (they blocked *at* the sync instruction).
                    let waiters = std::mem::take(&mut sync.waiting);
                    for w in waiters {
                        self.threads[w.0 as usize].pc += 4;
                        self.activate(w.0);
                    }
                    Outcome::Advance(words)
                } else {
                    sync.waiting.push(ThreadId(tid));
                    Outcome::Block(Block::Barrier { sync: idx })
                }
            }
            SetD { r, s } => {
                let raw = get!(r);
                let value = get!(s);
                let rid = ResourceId::from_raw(raw);
                if rid.node() != self.config.node {
                    return Outcome::Trap(TrapCause::BadResource { raw });
                }
                match rid.res_type() {
                    Some(ResType::Chanend) => match self.resources.chanend_mut(rid.index()) {
                        Some(ch) => {
                            ch.dest = Some(ResourceId::from_raw(value));
                            Outcome::Advance(words)
                        }
                        None => Outcome::Trap(TrapCause::BadResource { raw }),
                    },
                    Some(ResType::Sync) => {
                        match self.resources.syncs[rid.index() as usize].as_mut() {
                            Some(sync) => {
                                sync.expected = value.max(1);
                                Outcome::Advance(words)
                            }
                            None => Outcome::Trap(TrapCause::BadResource { raw }),
                        }
                    }
                    Some(ResType::PowerProbe) => {
                        match self.resources.probes[rid.index() as usize].as_mut() {
                            Some(probe) => {
                                probe.channel = (value as usize % PROBE_CHANNELS) as u8;
                                Outcome::Advance(words)
                            }
                            None => Outcome::Trap(TrapCause::BadResource { raw }),
                        }
                    }
                    Some(ResType::Timer) => {
                        // On a timer, `setd` sets the event threshold.
                        match self.resources.timers[rid.index() as usize].as_mut() {
                            Some(timer) => {
                                timer.threshold = Some(value);
                                Outcome::Advance(words)
                            }
                            None => Outcome::Trap(TrapCause::BadResource { raw }),
                        }
                    }
                    _ => Outcome::Trap(TrapCause::BadResource { raw }),
                }
            }
            Out { r, s } => {
                let raw = get!(r);
                let rid = ResourceId::from_raw(raw);
                if rid.node() == self.config.node && rid.res_type() == Some(ResType::Lock) {
                    // Lock release.
                    return self.lock_release(tid, raw, rid.index(), words);
                }
                let idx = match self.chanend_idx(raw) {
                    Ok(i) => i,
                    Err(c) => return Outcome::Trap(c),
                };
                let value = get!(s);
                let ch = self.resources.chanend_mut(idx).expect("checked");
                let Some(dest) = ch.dest else {
                    return Outcome::Trap(TrapCause::NoDest { chanend: idx });
                };
                if ch.out_space() < 4 {
                    return Outcome::Block(Block::SendSpace {
                        chanend: idx,
                        need: 4,
                    });
                }
                let was_empty = ch.out_buf.is_empty();
                ch.out_buf.extend(word_to_tokens(value).map(|t| (t, dest)));
                if was_empty {
                    self.tx_pending_count += 1;
                }
                self.trace_send(idx, dest, 4, false);
                Outcome::Advance(words)
            }
            OutT { r, s } => {
                let idx = match self.chanend_idx(get!(r)) {
                    Ok(i) => i,
                    Err(c) => return Outcome::Trap(c),
                };
                let value = get!(s) as u8;
                let ch = self.resources.chanend_mut(idx).expect("checked");
                let Some(dest) = ch.dest else {
                    return Outcome::Trap(TrapCause::NoDest { chanend: idx });
                };
                if ch.out_space() < 1 {
                    return Outcome::Block(Block::SendSpace {
                        chanend: idx,
                        need: 1,
                    });
                }
                if ch.out_buf.is_empty() {
                    self.tx_pending_count += 1;
                }
                ch.out_buf.push_back((Token::Data(value), dest));
                self.trace_send(idx, dest, 1, false);
                Outcome::Advance(words)
            }
            OutCt { r, ct } => {
                let idx = match self.chanend_idx(get!(r)) {
                    Ok(i) => i,
                    Err(c) => return Outcome::Trap(c),
                };
                let ch = self.resources.chanend_mut(idx).expect("checked");
                let Some(dest) = ch.dest else {
                    return Outcome::Trap(TrapCause::NoDest { chanend: idx });
                };
                if ch.out_space() < 1 {
                    return Outcome::Block(Block::SendSpace {
                        chanend: idx,
                        need: 1,
                    });
                }
                if ch.out_buf.is_empty() {
                    self.tx_pending_count += 1;
                }
                ch.out_buf.push_back((Token::Ctrl(ct), dest));
                self.trace_send(idx, dest, 1, true);
                Outcome::Advance(words)
            }
            In { d, r } => {
                let raw = get!(r);
                let rid = ResourceId::from_raw(raw);
                if rid.node() == self.config.node {
                    match rid.res_type() {
                        Some(ResType::Timer) => {
                            if self
                                .resources
                                .timers
                                .get(rid.index() as usize)
                                .and_then(|t| t.as_ref())
                                .is_none()
                            {
                                return Outcome::Trap(TrapCause::BadResource { raw });
                            }
                            let ticks = self.timer_ticks();
                            set!(d, ticks);
                            return Outcome::Advance(words);
                        }
                        Some(ResType::Lock) => {
                            return self.lock_acquire(tid, raw, rid.index(), d, words);
                        }
                        Some(ResType::PowerProbe) => {
                            let Some(probe) = self
                                .resources
                                .probes
                                .get(rid.index() as usize)
                                .and_then(|p| p.as_ref())
                            else {
                                return Outcome::Trap(TrapCause::BadResource { raw });
                            };
                            let uw = self.probe_readings[probe.channel as usize];
                            set!(d, uw);
                            return Outcome::Advance(words);
                        }
                        _ => {}
                    }
                }
                let idx = match self.chanend_idx(raw) {
                    Ok(i) => i,
                    Err(c) => return Outcome::Trap(c),
                };
                let ch = self.resources.chanend_mut(idx).expect("checked");
                if ch.in_buf.len() < 4 {
                    return Outcome::Block(Block::RecvTokens {
                        chanend: idx,
                        need: 4,
                    });
                }
                let mut bytes = [0u8; 4];
                for (i, byte) in bytes.iter_mut().enumerate() {
                    match ch.in_buf[i] {
                        Token::Data(b) => *byte = b,
                        ctrl => return Outcome::Trap(TrapCause::DataExpected { got: ctrl }),
                    }
                }
                ch.in_buf.drain(..4);
                set!(d, bytes_to_word(bytes));
                Outcome::Advance(words)
            }
            InT { d, r } => {
                let idx = match self.chanend_idx(get!(r)) {
                    Ok(i) => i,
                    Err(c) => return Outcome::Trap(c),
                };
                let ch = self.resources.chanend_mut(idx).expect("checked");
                let Some(&front) = ch.in_buf.front() else {
                    return Outcome::Block(Block::RecvTokens {
                        chanend: idx,
                        need: 1,
                    });
                };
                match front {
                    Token::Data(b) => {
                        ch.in_buf.pop_front();
                        set!(d, b as u32);
                        Outcome::Advance(words)
                    }
                    ctrl => Outcome::Trap(TrapCause::DataExpected { got: ctrl }),
                }
            }
            ChkCt { r, ct } => {
                let idx = match self.chanend_idx(get!(r)) {
                    Ok(i) => i,
                    Err(c) => return Outcome::Trap(c),
                };
                let ch = self.resources.chanend_mut(idx).expect("checked");
                let Some(&front) = ch.in_buf.front() else {
                    return Outcome::Block(Block::RecvTokens {
                        chanend: idx,
                        need: 1,
                    });
                };
                if front == Token::Ctrl(ct) {
                    ch.in_buf.pop_front();
                    Outcome::Advance(words)
                } else {
                    Outcome::Trap(TrapCause::CtMismatch {
                        expected: ct.0,
                        got: front,
                    })
                }
            }
            TestCt { d, r } => {
                let idx = match self.chanend_idx(get!(r)) {
                    Ok(i) => i,
                    Err(c) => return Outcome::Trap(c),
                };
                let ch = self.resources.chanend(idx).expect("checked");
                let Some(&front) = ch.in_buf.front() else {
                    return Outcome::Block(Block::RecvTokens {
                        chanend: idx,
                        need: 1,
                    });
                };
                set!(d, front.is_ctrl() as u32);
                Outcome::Advance(words)
            }
            TmWait { r, s } => {
                let raw = get!(r);
                let idx = match self.local_resource(raw, ResType::Timer) {
                    Ok(i) => i,
                    Err(c) => return Outcome::Trap(c),
                };
                if self
                    .resources
                    .timers
                    .get(idx as usize)
                    .and_then(|t| t.as_ref())
                    .is_none()
                {
                    return Outcome::Trap(TrapCause::BadResource { raw });
                }
                let target = get!(s);
                let now_ticks = self.timer_ticks();
                let delta = target.wrapping_sub(now_ticks) as i32;
                if delta <= 0 {
                    Outcome::Advance(words)
                } else {
                    let until = self.now + TimeDelta::from_ps(delta as u64 * TIMER_TICK_PS);
                    Outcome::Block(Block::Timer { until })
                }
            }
            Waiteu => match self.ready_event_vector(tid) {
                Some(vector) => Outcome::Jump(vector),
                None => Outcome::Block(Block::Event {
                    until: self.earliest_timer_event(tid),
                }),
            },
            SetV { r, off } => {
                let raw = get!(r);
                let vector = rel(off);
                match self.event_cfg_mut(raw) {
                    Ok(slot) => {
                        let owner = ThreadId(tid);
                        match slot {
                            Some(cfg) => cfg.vector = vector,
                            None => {
                                *slot = Some(EventCfg {
                                    vector,
                                    owner,
                                    enabled: false,
                                })
                            }
                        }
                        Outcome::Advance(words)
                    }
                    Err(cause) => Outcome::Trap(cause),
                }
            }
            Eeu { r } => {
                let raw = get!(r);
                match self.event_cfg_mut(raw) {
                    Ok(Some(cfg)) => {
                        cfg.owner = ThreadId(tid);
                        cfg.enabled = true;
                        Outcome::Advance(words)
                    }
                    Ok(None) => Outcome::Trap(TrapCause::IllegalOp("eeu before setv")),
                    Err(cause) => Outcome::Trap(cause),
                }
            }
            Edu { r } => {
                let raw = get!(r);
                match self.event_cfg_mut(raw) {
                    Ok(Some(cfg)) => {
                        cfg.enabled = false;
                        Outcome::Advance(words)
                    }
                    Ok(None) => Outcome::Trap(TrapCause::IllegalOp("edu before setv")),
                    Err(cause) => Outcome::Trap(cause),
                }
            }
            ClrE => {
                let owner = ThreadId(tid);
                for ch in self.resources.chanends.iter_mut().flatten() {
                    if let Some(cfg) = ch.event.as_mut() {
                        if cfg.owner == owner {
                            cfg.enabled = false;
                        }
                    }
                }
                for t in self.resources.timers.iter_mut().flatten() {
                    if let Some(cfg) = t.event.as_mut() {
                        if cfg.owner == owner {
                            cfg.enabled = false;
                        }
                    }
                }
                Outcome::Advance(words)
            }
            Hostcall { func, s } => match func {
                HostcallFn::PrintInt => {
                    let v = get!(s) as i32;
                    self.output.push_str(&format!("{v}\n"));
                    Outcome::Advance(words)
                }
                HostcallFn::PrintChar => {
                    self.output.push((get!(s) as u8) as char);
                    Outcome::Advance(words)
                }
                HostcallFn::Halt => Outcome::HaltCore,
            },
        }
    }

    /// The event-configuration slot of a chanend or timer resource.
    fn event_cfg_mut(&mut self, raw: u32) -> Result<&mut Option<EventCfg>, TrapCause> {
        let rid = ResourceId::from_raw(raw);
        if rid.node() != self.config.node {
            return Err(TrapCause::BadResource { raw });
        }
        match rid.res_type() {
            Some(ResType::Chanend) => self
                .resources
                .chanend_mut(rid.index())
                .map(|ch| &mut ch.event)
                .ok_or(TrapCause::BadResource { raw }),
            Some(ResType::Timer) => self
                .resources
                .timers
                .get_mut(rid.index() as usize)
                .and_then(|t| t.as_mut())
                .map(|t| &mut t.event)
                .ok_or(TrapCause::BadResource { raw }),
            _ => Err(TrapCause::BadResource { raw }),
        }
    }

    /// Signed wrap-around comparison: has the 100 MHz reference clock
    /// passed `threshold`?
    fn timer_fired(&self, threshold: u32) -> bool {
        (threshold.wrapping_sub(self.timer_ticks()) as i32) <= 0
    }

    /// The handler address of the highest-priority ready event armed by
    /// `tid` (chanends before timers, index order — XS1 priorities are
    /// resource-id ordered).
    fn ready_event_vector(&self, tid: u8) -> Option<u32> {
        let owner = ThreadId(tid);
        for ch in self.resources.chanends.iter().flatten() {
            if let Some(cfg) = ch.event {
                if cfg.enabled && cfg.owner == owner && !ch.in_buf.is_empty() {
                    return Some(cfg.vector);
                }
            }
        }
        for t in self.resources.timers.iter().flatten() {
            if let Some(cfg) = t.event {
                if cfg.enabled && cfg.owner == owner {
                    if let Some(thr) = t.threshold {
                        if self.timer_fired(thr) {
                            return Some(cfg.vector);
                        }
                    }
                }
            }
        }
        None
    }

    /// The earliest future timer-event threshold armed by `tid`, as an
    /// absolute time; [`Time::MAX`] when none are armed.
    fn earliest_timer_event(&self, tid: u8) -> Time {
        let owner = ThreadId(tid);
        let now_ticks = self.timer_ticks();
        let mut earliest = Time::MAX;
        for t in self.resources.timers.iter().flatten() {
            let armed = t
                .event
                .map(|cfg| cfg.enabled && cfg.owner == owner)
                .unwrap_or(false);
            if let (true, Some(thr)) = (armed, t.threshold) {
                let delta = thr.wrapping_sub(now_ticks) as i32;
                if delta > 0 {
                    let at = self.now + TimeDelta::from_ps(delta as u64 * TIMER_TICK_PS);
                    earliest = earliest.min(at);
                }
            }
        }
        earliest
    }

    fn lock_acquire(&mut self, tid: u8, raw: u32, idx: u8, d: Reg, words: usize) -> Outcome {
        let Some(lock) = self
            .resources
            .locks
            .get_mut(idx as usize)
            .and_then(|l| l.as_mut())
        else {
            return Outcome::Trap(TrapCause::BadResource { raw });
        };
        match lock.held_by {
            None => {
                lock.held_by = Some(ThreadId(tid));
                self.threads[tid as usize].set_reg(d, raw);
                Outcome::Advance(words)
            }
            Some(owner) if owner == ThreadId(tid) => {
                // Woken after being granted the lock; proceed.
                self.threads[tid as usize].set_reg(d, raw);
                Outcome::Advance(words)
            }
            Some(_) => {
                if !lock.queue.contains(&ThreadId(tid)) {
                    lock.queue.push_back(ThreadId(tid));
                }
                Outcome::Block(Block::Lock { lock: idx })
            }
        }
    }

    fn lock_release(&mut self, tid: u8, raw: u32, idx: u8, words: usize) -> Outcome {
        let Some(lock) = self
            .resources
            .locks
            .get_mut(idx as usize)
            .and_then(|l| l.as_mut())
        else {
            return Outcome::Trap(TrapCause::BadResource { raw });
        };
        if lock.held_by != Some(ThreadId(tid)) {
            return Outcome::Trap(TrapCause::IllegalOp("releasing a lock not held"));
        }
        match lock.queue.pop_front() {
            Some(next) => {
                lock.held_by = Some(next);
                self.activate(next.0);
            }
            None => lock.held_by = None,
        }
        Outcome::Advance(words)
    }

    // --- snapshot ---------------------------------------------------------

    /// Serializes the complete architectural state of this core into `w`.
    ///
    /// Energy is written as the core keeps it — the settled ledger, the
    /// settle cycle and the per-class issue-cycle counts — not as the
    /// materialised [`Core::ledger`], so a restored core prices its
    /// counts exactly as the original would have.
    ///
    /// Derived state — the decode cache, the energy constants, the
    /// sleeper and pending-transmit counters, the retired-instruction
    /// total (the sum of the class counts) — is
    /// deliberately omitted: [`Core::restore_state`] recomputes all of
    /// it, bit-identically, because each is a pure function of what *is*
    /// written.
    pub fn encode_state(&self, w: &mut ByteWriter) {
        w.u64(self.config.frequency.as_hz());
        w.f64_bits(self.config.power.voltage().as_volts());
        w.u32(self.config.sram_bytes);
        w.u32(self.config.stack_bytes);
        w.bool(self.sram.decode_cache_enabled());
        w.bytes_prefixed(self.sram.snapshot_bytes());
        for t in &self.threads {
            snapshot::write_thread(w, t);
        }
        w.u64(self.rotation.len() as u64);
        for &tid in &self.rotation {
            w.u8(tid);
        }
        w.u64(self.wheel);
        snapshot::write_resources(w, &self.resources);
        for &reading in &self.probe_readings {
            w.u32(reading);
        }
        w.u64(self.cycle);
        w.u64(self.now.as_ps());
        w.bool(self.halted);
        match &self.trap {
            None => w.u8(0),
            Some(trap) => {
                w.u8(1);
                w.u8(trap.thread.0);
                w.u32(trap.pc);
                snapshot::write_trap_cause(w, &trap.cause);
            }
        }
        for bits in self.settled.entry_bits() {
            w.u64(bits);
        }
        w.u64(self.settled_cycle);
        for &cycles in &self.slot_cycles {
            w.u64(cycles);
        }
        for &count in &self.class_counts.0 {
            w.u64(count);
        }
        w.str_prefixed(&self.output);
        for &at in &self.sched_at {
            w.u64(at.as_ps());
        }
        for &instret in &self.sched_instret {
            w.u64(instret);
        }
        w.u64(self.stalled_until.as_ps());
    }

    /// Overlays the architectural state written by [`Core::encode_state`]
    /// onto this core, which must have been built with the same memory
    /// geometry (SRAM and stack sizes are validated). Decoding is strict:
    /// inconsistent scheduler or resource state is rejected with a
    /// [`CodecError`]. On error the core is left partially written —
    /// callers restore into a scratch machine and discard it on failure.
    pub fn restore_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        let hz = r.u64()?;
        if hz == 0 {
            return Err(CodecError::Invalid("core frequency is zero"));
        }
        let volts = r.f64_bits()?;
        if !volts.is_finite() || volts < 0.0 {
            return Err(CodecError::Invalid("core voltage out of range"));
        }
        let sram_bytes = r.u32()?;
        let stack_bytes = r.u32()?;
        if sram_bytes != self.config.sram_bytes || stack_bytes != self.config.stack_bytes {
            return Err(CodecError::Invalid("core memory geometry mismatch"));
        }
        let cache_enabled = r.bool()?;
        let image = r.bytes_prefixed()?;
        if !self.sram.restore_bytes(image) {
            return Err(CodecError::Invalid("SRAM image size mismatch"));
        }
        self.sram.set_decode_cache(cache_enabled);
        let dims = snapshot::TableDims::of(&self.resources);
        for i in 0..MAX_THREADS {
            self.threads[i] = snapshot::read_thread(r, &dims)?;
        }
        let rot_len = r.len_prefixed(1)?;
        if rot_len > MAX_THREADS {
            return Err(CodecError::Invalid("rotation longer than thread count"));
        }
        let mut rotation = Vec::with_capacity(rot_len);
        let mut seen = [false; MAX_THREADS];
        for _ in 0..rot_len {
            let tid = r.u8()?;
            let Some(slot) = seen.get_mut(tid as usize) else {
                return Err(CodecError::Invalid("rotation thread id out of range"));
            };
            if std::mem::replace(slot, true) {
                return Err(CodecError::Invalid("duplicate thread in rotation"));
            }
            if !self.threads[tid as usize].is_ready() {
                return Err(CodecError::Invalid("rotation lists a non-ready thread"));
            }
            rotation.push(tid);
        }
        if self.threads.iter().filter(|t| t.is_ready()).count() != rotation.len() {
            return Err(CodecError::Invalid("ready thread missing from rotation"));
        }
        self.rotation = rotation;
        self.wheel = r.u64()?;
        self.resources = snapshot::read_resources(r, &dims)?;
        for reading in self.probe_readings.iter_mut() {
            *reading = r.u32()?;
        }
        self.cycle = r.u64()?;
        self.now = Time::from_ps(r.u64()?);
        self.halted = r.bool()?;
        self.trap = match r.u8()? {
            0 => None,
            1 => {
                let tid = r.u8()?;
                if tid as usize >= MAX_THREADS {
                    return Err(CodecError::Invalid("trap thread id out of range"));
                }
                let pc = r.u32()?;
                let cause = snapshot::read_trap_cause(r)?;
                Some(Trap {
                    thread: ThreadId(tid),
                    pc,
                    cause,
                })
            }
            _ => return Err(CodecError::Invalid("trap tag out of range")),
        };
        let mut bits = [0u64; 5];
        for b in bits.iter_mut() {
            *b = r.u64()?;
        }
        self.settled = EnergyLedger::from_entry_bits(bits);
        self.settled_cycle = r.u64()?;
        if self.settled_cycle > self.cycle {
            return Err(CodecError::Invalid("energy settle cycle is in the future"));
        }
        for cycles in self.slot_cycles.iter_mut() {
            *cycles = r.u64()?;
        }
        for count in self.class_counts.0.iter_mut() {
            *count = r.u64()?;
        }
        self.output = r.str_prefixed()?;
        for at in self.sched_at.iter_mut() {
            *at = Time::from_ps(r.u64()?);
        }
        for instret in self.sched_instret.iter_mut() {
            *instret = r.u64()?;
        }
        self.stalled_until = Time::from_ps(r.u64()?);

        // Derived state: the clock/energy constants and the incremental
        // counters are pure functions of what was just restored.
        self.config.frequency = Frequency::from_hz(hz);
        self.config.power = CorePowerModel::swallow().at_voltage(Voltage::from_volts(volts));
        self.period = self.config.frequency.period();
        self.tick_energy = TickEnergy::of(&self.config.power, self.period);
        self.sleepers = self
            .threads
            .iter()
            .filter(|t| Self::state_is_sleeper(&t.state))
            .count() as u32;
        self.tx_pending_count = self
            .resources
            .chanends
            .iter()
            .flatten()
            .filter(|ch| !ch.out_buf.is_empty())
            .count() as u32;
        Ok(())
    }
}

impl fmt::Debug for Core {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Core")
            .field("node", &self.config.node)
            .field("frequency", &self.config.frequency)
            .field("cycle", &self.cycle)
            .field("instret", &self.instret())
            .field("ready_threads", &self.rotation.len())
            .field("halted", &self.halted)
            .field("trap", &self.trap)
            .finish()
    }
}
