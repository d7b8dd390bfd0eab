//! Deterministic fault injection for the Swallow platform model.
//!
//! Swallow is a physical machine: slices are hot-pluggable, inter-board
//! links are ordinary FFC cables, and the lattice is expected to keep
//! operating while boards are attached, detached and misbehave. This
//! crate describes that misbehaviour as data — a [`FaultPlan`] is a
//! time-sorted schedule of link, core and supply events that the board
//! layer replays at exact simulated instants, so a faulty run is just as
//! reproducible (bit-for-bit, engine-for-engine) as a perfect one.
//!
//! The plan only *describes* faults; the resilience mechanisms that
//! respond to them (link retry, route recomputation, quarantine,
//! brownout derating) live with the components they protect in
//! `swallow-noc` and `swallow-board`. [`FaultCounters`] is the shared
//! scoreboard those layers fill in.
//!
//! Plans come from three places: the builder methods
//! ([`FaultPlan::link_down`] and friends), the `--faults` command-line
//! grammar ([`FaultPlan::parse`]), and the seeded generator
//! ([`FaultPlan::random`]) driven by `swallow_sim::DetRng`.

mod parse;
mod plan;

pub use plan::{FaultEvent, FaultKind, FaultPlan, RandomFaults};

/// Cumulative counts of injected faults and the recovery work they
/// triggered. Filled in by the fabric (retries, drops, deliveries) and
/// the machine's fault engine (everything else); exposed through
/// `Machine::fault_counters` and sampled into the metrics hub.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Links taken down (scheduled hot-unplugs plus retry escalations).
    pub link_downs: u64,
    /// Links brought back up.
    pub link_ups: u64,
    /// Tokens retransmitted after a detected corruption (each charged
    /// one token energy to the link's ledger).
    pub retransmits: u64,
    /// Data tokens lost in a drop window (energy spent, payload gone).
    pub dropped_tokens: u64,
    /// Tokens delivered to a destination chanend or the bridge.
    pub delivered_tokens: u64,
    /// Core stall windows applied.
    pub core_stalls: u64,
    /// Cores killed by the plan (permanent halt).
    pub core_kills: u64,
    /// Cores quarantined because rerouting left them unreachable.
    pub quarantined_cores: u64,
    /// Brownout windows applied (frequency derating via the DVFS model).
    pub brownouts: u64,
    /// Routing-table recomputations around dead links.
    pub reroutes: u64,
}

impl FaultCounters {
    /// True when nothing fault-related has happened (the zero value,
    /// minus the delivered-token count which also runs on fault-free
    /// machines).
    pub fn is_quiet(&self) -> bool {
        let FaultCounters {
            link_downs,
            link_ups,
            retransmits,
            dropped_tokens,
            delivered_tokens: _,
            core_stalls,
            core_kills,
            quarantined_cores,
            brownouts,
            reroutes,
        } = *self;
        link_downs == 0
            && link_ups == 0
            && retransmits == 0
            && dropped_tokens == 0
            && core_stalls == 0
            && core_kills == 0
            && quarantined_cores == 0
            && brownouts == 0
            && reroutes == 0
    }

    /// Fraction of launched data payload that arrived: delivered over
    /// delivered + dropped. A fault-free run reports 1.
    pub fn delivered_rate(&self) -> f64 {
        let total = self.delivered_tokens + self.dropped_tokens;
        if total == 0 {
            1.0
        } else {
            self.delivered_tokens as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_ignores_deliveries() {
        let mut c = FaultCounters::default();
        assert!(c.is_quiet());
        c.delivered_tokens = 10;
        assert!(c.is_quiet());
        assert_eq!(c.delivered_rate(), 1.0);
        c.dropped_tokens = 10;
        assert!(!c.is_quiet());
        assert_eq!(c.delivered_rate(), 0.5);
    }
}
