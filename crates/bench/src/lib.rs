//! Experiment harnesses reproducing every table and figure of the paper.
//!
//! Each experiment module exposes a `run(...)` returning a typed result
//! with the same rows/series the paper reports, plus a `Display`
//! rendering. The `reproduce` binary prints all of them. The simulator's
//! host speed is measured by the separate `benchmark/` package, which
//! reuses [`experiments::heavy_mix_program`] and
//! [`experiments::fleet::check_conservation`].
//!
//! | module | paper artefact |
//! |---|---|
//! | [`experiments::table1`] | Table I — per-bit link energies |
//! | [`experiments::fig2`] | Fig. 2 — node power breakdown |
//! | [`experiments::fig3`] | Fig. 3 — power vs frequency |
//! | [`experiments::fig4`] | Fig. 4 — DVFS savings |
//! | [`survey`] (Table II) | candidate processor comparison |
//! | [`experiments::eq2`] | Eq. 2 — IPS vs thread count |
//! | [`experiments::latency`] | §V.C — communication latencies |
//! | [`experiments::overhead`] | §V.B — packet protocol overhead |
//! | [`experiments::ec_ratio`] | §V.D — EC ratio ladder |
//! | [`survey`] (Table III) | many-core system survey |
//! | [`experiments::system_power`] | §III.A headline numbers |

pub mod experiments;
pub mod survey;
