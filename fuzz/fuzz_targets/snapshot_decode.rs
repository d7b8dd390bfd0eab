//! The snapshot deserializer: `Machine::restore` on arbitrary bytes
//! must reject cleanly (bad magic, bad version, checksum mismatch,
//! truncation, hostile lengths) — never panic, never allocate absurdly.
//! Anything it accepts must re-serialize byte-identically.

use swallow::{Machine, MachineConfig};
use swallow_fuzz::fuzz_target;

fuzz_target!(
    seeds = {
        // A real snapshot of a pristine one-slice machine: single-byte
        // mutations of it exercise every section decoder far deeper
        // than random bytes, which die at the magic check.
        vec![Machine::new(MachineConfig::one_slice()).snapshot()]
    },
    |data: &[u8]| {
        if let Ok(machine) = Machine::restore(data) {
            assert_eq!(
                machine.snapshot(),
                data,
                "accepted snapshots must re-serialize byte-identically"
            );
        }
    }
);
