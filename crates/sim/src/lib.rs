//! Deterministic discrete-event simulation kernel for the Swallow platform model.
//!
//! This crate is the lowest substrate of the Swallow reproduction. It knows
//! nothing about processors or networks; it provides the vocabulary every
//! other crate speaks:
//!
//! * [`Time`], [`TimeDelta`] — picosecond-resolution simulated time,
//! * [`Frequency`] — clock rates and cycle/time conversion,
//! * [`kway_merge_by`] — a stable k-way merge of sorted streams,
//! * [`DetRng`] — a seedable, reproducible random number generator,
//! * [`codec`] — bounds-checked binary readers/writers ([`ByteWriter`],
//!   [`ByteReader`], [`CodecError`]) underpinning machine snapshots,
//! * [`stats`] — counters, running statistics, histograms and least-squares
//!   fits used by the experiment harnesses,
//! * [`trace`] — typed, zero-cost-when-off trace events ([`TraceEvent`],
//!   [`TraceSink`], [`TraceRing`]) feeding the observability exporters.
//!
//! Determinism is a design requirement, not an accident: the platform being
//! modelled (Swallow, DATE 2016) is a *time-deterministic* real-time system,
//! and the reproduction must be able to assert exact cycle counts in tests.
//!
//! ```
//! use swallow_sim::{DetRng, Frequency, Time, TimeDelta};
//!
//! // 500 MHz: a 2 ns period, so 1 µs is exactly 500 cycles.
//! let clock = Frequency::from_mhz(500);
//! assert_eq!(clock.period(), TimeDelta::from_ns(2));
//! assert_eq!(clock.cycles_in(TimeDelta::from_us(1)), 500);
//! assert_eq!(Time::ZERO + clock.cycles(3), Time::from_ps(6_000));
//! // The same seed replays the same stream.
//! assert_eq!(DetRng::seed_from(42).next_u64(), DetRng::seed_from(42).next_u64());
//! ```

pub mod codec;
pub mod merge;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use codec::{ByteReader, ByteWriter, CodecError};
pub use merge::kway_merge_by;
pub use rng::DetRng;
pub use stats::LatencySketch;
pub use time::{Frequency, Time, TimeDelta};
pub use trace::{
    NullSink, TraceEvent, TraceLog, TraceRecord, TraceRing, TraceSink, Tracer,
    DEFAULT_TRACE_CAPACITY,
};
