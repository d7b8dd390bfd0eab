//! Zero-dependency test harnesses for fully offline builds.
//!
//! The workspace must build with no registry access at all (`cargo build
//! --offline` against an empty `~/.cargo/registry`), so external dev-deps
//! are off the table. This crate supplies drop-in replacements for the
//! two we used:
//!
//! * [`proptest`] — a property-testing shim exposing the subset of the
//!   `proptest` crate API our tests use (`proptest!`, strategies built
//!   from ranges / `any` / `Just` / `prop_map` / `prop_oneof!` / tuples /
//!   `collection::vec`, `prop_assert*!`, `prop_assume!`,
//!   `ProptestConfig`). Generation is seeded and deterministic; failures
//!   report the case number, seed and `Debug`-formatted inputs. There is
//!   no shrinking — inputs here are small enough to read directly.
//! * [`json`] — a structural JSON parser (`BTreeMap`-backed objects), so
//!   golden-file tests compare exporter output by structure rather than
//!   byte layout (the offline replacement for `serde_json` in tests).
//!
//! Host-speed measurement lives in the separate `benchmark/` package.

pub mod proptest;

pub mod json;
