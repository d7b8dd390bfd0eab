//! The engine matrix shared by the differential suites.

use swallow_repro::swallow::EngineMode;

/// The engines a differential suite runs every scenario under: the
/// lock-step reference first, then the parallel engine at each of
/// `threads`.
///
/// `SWALLOW_ENGINE=lockstep|parallel` pins the list to one engine (the
/// CI matrix legs use this); the parallel engine then runs on
/// `SWALLOW_THREADS` host threads (default 0, one per host CPU).
///
/// # Panics
///
/// On any other `SWALLOW_ENGINE` value, naming the accepted set.
pub fn engines_under_test(threads: &[usize]) -> Vec<EngineMode> {
    let Ok(name) = std::env::var("SWALLOW_ENGINE") else {
        return std::iter::once(EngineMode::LockStep)
            .chain(
                threads
                    .iter()
                    .map(|&threads| EngineMode::Parallel { threads }),
            )
            .collect();
    };
    let engine = match name.as_str() {
        "lockstep" => EngineMode::LockStep,
        "parallel" => EngineMode::Parallel {
            threads: std::env::var("SWALLOW_THREADS")
                .ok()
                .and_then(|t| t.parse().ok())
                .unwrap_or(0),
        },
        other => panic!("unknown SWALLOW_ENGINE {other:?}; accepted: lockstep, parallel"),
    };
    vec![engine]
}
