//! The snapshot deserializer: `Machine::restore` on arbitrary bytes
//! must reject cleanly (bad magic, bad version, checksum mismatch,
//! truncation, hostile lengths) — never panic, never allocate absurdly.
//! Anything it accepts must re-serialize byte-identically, except images
//! carrying tags only older builds wrote (engine tag 0, epoch byte 1):
//! those re-serialize with canonical tags, which must then be a fixed
//! point.

use swallow::sim::codec::fnv1a64;
use swallow::{Machine, MachineConfig};
use swallow_fuzz::fuzz_target;

/// Image offsets: magic + version, then each section's tag + length.
const HEADER: usize = 12;
const SECTION_HEAD: usize = 12;
/// CONF payload offsets (see `write_config`): the engine tag follows the
/// grid, clock, router, bridge, link pairs, fault rate, seed and monitor
/// window; the trace-capacity tag (plus an 8-byte capacity when it is 1)
/// follows the thread count; the epoch byte follows the metrics and
/// decode-cache flags.
const CONF_ENGINE: usize = 42;
const CONF_TRACE: usize = 51;
/// MACH payload offsets: the engine tag follows the clock and the
/// faulted-cable count; the epoch byte follows the thread count.
const MACH_ENGINE: usize = 16;
const MACH_EPOCH: usize = 25;

/// Start of the MACH section of an accepted image (it follows CONF).
fn mach_start(image: &[u8]) -> usize {
    let conf_len = u64::from_le_bytes(image[HEADER + 4..HEADER + 12].try_into().unwrap());
    HEADER + SECTION_HEAD + conf_len as usize + 8
}

/// True when an accepted image's CONF or MACH section carries a tag
/// only older builds wrote.
fn has_legacy_tags(image: &[u8]) -> bool {
    let conf = &image[HEADER + SECTION_HEAD..];
    let capacity = if conf[CONF_TRACE] == 1 { 8 } else { 0 };
    let conf_epoch = CONF_TRACE + 1 + capacity + 2;
    let mach = &image[mach_start(image) + SECTION_HEAD..];
    conf[CONF_ENGINE] == 0
        || conf[conf_epoch] == 1
        || mach[MACH_ENGINE] == 0
        || mach[MACH_EPOCH] == 1
}

/// `image` with MACH's engine tag set to the legacy fast-forward tag and
/// the section checksum re-sealed.
fn legacy(mut image: Vec<u8>) -> Vec<u8> {
    let start = mach_start(&image);
    let len = u64::from_le_bytes(image[start + 4..start + 12].try_into().unwrap()) as usize;
    let payload = start + SECTION_HEAD;
    image[payload + MACH_ENGINE] = 0;
    let digest = fnv1a64(&image[payload..payload + len]);
    image[payload + len..payload + len + 8].copy_from_slice(&digest.to_le_bytes());
    image
}

fuzz_target!(
    seeds = {
        // A real snapshot of a pristine one-slice machine: single-byte
        // mutations of it exercise every section decoder far deeper
        // than random bytes, which die at the magic check.
        let image = Machine::new(MachineConfig::one_slice()).snapshot();
        vec![legacy(image.clone()), image]
    },
    |data: &[u8]| {
        if let Ok(machine) = Machine::restore(data) {
            let image = machine.snapshot();
            if has_legacy_tags(data) {
                let again = Machine::restore(&image).expect("own image restores");
                assert_eq!(
                    again.snapshot(),
                    image,
                    "legacy images must re-serialize to a fixed point"
                );
            } else {
                assert_eq!(
                    image, data,
                    "accepted snapshots must re-serialize byte-identically"
                );
            }
        }
    }
);
