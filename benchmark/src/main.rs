//! The Swallow simulator benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <compute-slice|ring-480|sparse-480|serve-fleet> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` times the workload with tracing off and reports the
//! end-to-end metrics; `--trace 1` runs it once untraced and once traced,
//! checks both reach the same fingerprint, and reports the per-layer
//! metrics. The last line of standard output is the result object;
//! earlier lines stamp the host and summarise every metric. See
//! `README.md` beside this file.

mod host;
mod machine;
mod report;
mod serve;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use machine::Kind;
use report::{json_str, result_line, END_TO_END, PER_LAYER};
use spans::Recorder;
use stats::{median, summarise, Pick, Summary};

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// One timed call into the simulator.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Sample {
    pub host_s: f64,
    /// Simulated picoseconds advanced (summed over machines).
    pub sim_ps: u64,
    /// Instructions retired (summed over machines).
    pub instret: u64,
    /// Data tokens the fabric delivered (summed over machines).
    pub tokens: u64,
}

impl Sample {
    /// The simulated work the call did; calls with equal work are
    /// repeats of one another.
    fn work(&self) -> (u64, u64, u64) {
        (self.sim_ps, self.instret, self.tokens)
    }
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Metrics,
    /// Per-metric sample summaries, for the summary line.
    pub summaries: Vec<(&'static str, Summary)>,
    pub attempted: u64,
    pub failed: u64,
    /// End state of the workload's job, as JSON.
    pub fingerprint: String,
    /// Extra `key: JSON` pairs for the summary line.
    pub notes: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Books `(attempted, failed)` checks.
    pub fn tally(&mut self, (attempted, failed): (u64, u64)) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn note(&mut self, key: &'static str, json: String) {
        self.notes.push((key, json));
    }

    fn summarise(&mut self, name: &'static str, xs: &[f64], rate: bool) {
        let s = summarise(xs, rate);
        self.metrics.insert(name, s.median);
        self.summaries.push((name, s));
    }

    /// The end-to-end metrics from set-up times and the timed calls of
    /// every repeat of the job. The speed metrics use the job's best time
    /// ([`stats::best_of_repeats`]); the summary line also gives their
    /// per-repeat median and tail.
    pub fn record_timed(
        &mut self,
        setups: &[f64],
        jobs: &[Vec<Sample>],
        requests_per_job: u64,
        pick: Pick,
    ) {
        self.summarise("setup_s", setups, false);
        let per_job: Vec<f64> = jobs
            .iter()
            .map(|j| j.iter().map(|s| s.host_s).sum())
            .collect();
        let best = job_cost(jobs, pick);
        let first = jobs.first().map_or(&[][..], Vec::as_slice);
        let instret: u64 = first.iter().map(|s| s.instret).sum();
        let sim_ps: u64 = first.iter().map(|s| s.sim_ps).sum();
        let mips = |host_s: f64| instret as f64 / host_s / 1e6;
        let us_per_s = |host_s: f64| sim_ps as f64 / 1e6 / host_s;
        let ms_per_request = |host_s: f64| host_s * 1e3 / requests_per_job as f64;
        for (name, f, rate) in [
            ("sim_mips", &mips as &dyn Fn(f64) -> f64, true),
            ("sim_us_per_host_s", &us_per_s, true),
            ("host_ms_per_request", &ms_per_request, false),
        ] {
            let xs: Vec<f64> = per_job.iter().map(|&t| f(t)).collect();
            self.summaries.push((name, summarise(&xs, rate)));
            self.metrics.insert(name, f(best));
        }
        let rss = host::peak_rss_mb().unwrap_or(f64::NAN);
        self.metrics.insert("peak_rss_mb", rss);
    }

    /// The set-up span medians and the tracing overhead, shared by every
    /// traced run.
    pub fn record_traced(&mut self, rec: &Recorder, plain_s: f64, traced_s: f64) {
        for (span, metric) in [
            ("setup.gen", "setup.gen_ms"),
            ("setup.build", "setup.build_ms"),
            ("setup.load", "setup.load_ms"),
        ] {
            // Per set-up: a machine may be built and loaded several times.
            let per_setup: Vec<f64> = rec
                .spans()
                .iter()
                .enumerate()
                .filter(|(_, s)| s.name == "setup")
                .map(|(idx, _)| {
                    rec.spans()
                        .iter()
                        .filter(|c| c.name == span && c.parent == Some(idx))
                        .map(|c| c.duration_ns() as f64 / 1e6)
                        .sum()
                })
                .collect();
            self.summarise(metric, &per_setup, false);
        }
        let per_read: Vec<f64> = rec
            .named("energy.ledger_read")
            .map(|s| s.duration_ns() as f64)
            .collect();
        self.summarise("energy.ledger_ns_per_read", &per_read, false);
        self.metrics
            .insert("trace.overhead", (traced_s - plain_s) / plain_s);
        // The harness's own time inside the traced jobs, between calls.
        let harness_ns: u64 = (0..rec.spans().len())
            .filter(|&i| rec.spans()[i].name == "job")
            .map(|i| rec.self_ns(i))
            .sum();
        self.note("job_self_ms", format!("{}", harness_ns as f64 / 1e6));
        self.note(
            "job_host_s",
            format!("{{\"untraced\": {plain_s}, \"traced\": {traced_s}}}"),
        );
    }
}

/// Set-up slices every run times at least, so `setup_s` is a median.
pub const MIN_SETUPS: usize = 5;
/// Host time one slice of set-ups lasts between two repeats of a job, at
/// least; spreading the slices over the run lets their median see the
/// same host conditions as the job.
const SETUP_SLICE: Duration = Duration::from_millis(20);
/// Set-ups one slice times, at least.
const SETUPS_PER_SLICE: usize = 3;

/// Times one slice of set-ups: `setup` back to back, at least
/// [`SETUPS_PER_SLICE`] times and for at least [`SETUP_SLICE`]. Appends
/// the slice's fastest set-up, in host seconds, to `times`: a set-up of a
/// millisecond or less that another tenant interrupts takes several
/// times as long, and the fastest of the slice is the one that was not.
/// Each result is dropped outside the timed interval.
pub fn time_setups<T>(times: &mut Vec<f64>, mut setup: impl FnMut() -> T) {
    let start = Instant::now();
    let mut fastest = f64::INFINITY;
    let mut n = 0;
    while n < SETUPS_PER_SLICE || start.elapsed() < SETUP_SLICE {
        let t = Instant::now();
        let made = setup();
        fastest = fastest.min(t.elapsed().as_secs_f64());
        n += 1;
        drop(black_box(made));
    }
    times.push(fastest);
}

/// Host seconds a repeated job costs ([`stats::best_of_repeats`]); NaN
/// when its repeats made different calls, which fails the result line.
pub fn job_cost(jobs: &[Vec<Sample>], pick: Pick) -> f64 {
    let calls: Vec<Vec<_>> = jobs
        .iter()
        .map(|j| j.iter().map(|s| (s.work(), s.host_s)).collect())
        .collect();
    stats::best_of_repeats(&calls, pick).unwrap_or(f64::NAN)
}

/// `num / den`, or 0 when nothing was measured (`den == 0`).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Whether another repeat of a job whose last repeat took `last` still
/// ends within `budget` of `start` (the first repeat always runs).
pub fn fits(start: Instant, budget: Duration, last: Option<Duration>) -> bool {
    last.is_none_or(|d| start.elapsed() + d <= budget)
}

/// Deterministic 64-bit generator for benchmark inputs (SplitMix64).
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const WORKLOADS: [&str; 4] = ["compute-slice", "ring-480", "sparse-480", "serve-fleet"];

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let (flag, inline) = match flag.split_once('=') {
            Some((f, v)) => (f, Some(v.to_owned())),
            None => (flag.as_str(), None),
        };
        let mut value = || {
            inline
                .clone()
                .or_else(|| it.next().cloned())
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--workload" => parsed.workload = value()?,
            "--seed" => {
                parsed.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a non-negative integer".to_owned())?
            }
            "--seconds" => {
                parsed.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or("--seconds takes a number in (0, 3600]")?
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(parsed)
}

fn kind(workload: &str) -> Option<Kind> {
    match workload {
        "compute-slice" => Some(Kind::ComputeSlice),
        "ring-480" => Some(Kind::Ring480),
        "sparse-480" => Some(Kind::Sparse480),
        _ => None,
    }
}

/// Where the traced run writes its spans: under the build directory, so
/// nothing lands in the source tree.
fn spans_path(args: &Args) -> std::path::PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "benchmark/target".into());
    std::path::Path::new(&target)
        .join("spans")
        .join(format!("{}-seed{}.json", args.workload, args.seed))
}

fn run(args: &Args) -> Result<Outcome, String> {
    let out = match (kind(&args.workload), args.trace) {
        (Some(k), false) => machine::timed(k, args.seed, args.seconds),
        (None, false) => serve::timed(args.seed, args.seconds),
        (k, true) => {
            let (out, rec) = match k {
                Some(k) => machine::traced(k, args.seed),
                None => serve::traced(args.seed, machine::alone_ns_per_instr()),
            };
            let path = spans_path(args);
            std::fs::create_dir_all(path.parent().expect("a file under a directory"))
                .and_then(|()| std::fs::write(&path, rec.to_json()))
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            println!("spans: {} ({} spans)", path.display(), rec.spans().len());
            out
        }
    };
    Ok(out)
}

fn summary_line(args: &Args, out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .summaries
        .iter()
        .map(|(name, s)| {
            let tail = s.tail.map_or("null".to_owned(), |(p, v)| {
                format!("{{\"p\": {}, \"value\": {v}}}", p as f64 / 10.0)
            });
            let spread = s.spread.map_or("null".to_owned(), |x| x.to_string());
            let value = out.metrics.get(name).copied().unwrap_or(f64::NAN);
            format!(
                "\"{name}\": {{\"value\": {value}, \"median\": {}, \"tail\": {tail}, \"iqr_share\": {spread}, \"n\": {}}}",
                s.median, s.n
            )
        })
        .collect();
    let notes: String = out
        .notes
        .iter()
        .map(|(k, v)| format!(", \"{k}\": {v}"))
        .collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"fingerprint\": {}, \"samples\": {{{}}}{notes}}}",
        json_str(&args.workload),
        args.seed,
        u8::from(args.trace),
        if out.fingerprint.is_empty() { "null" } else { &out.fingerprint },
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    host::settle_allocator();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{{\"host\": {}}}", host::HostStamp::probe().to_json());
    let out = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(1);
        }
    };
    println!("{}", summary_line(&args, &out));
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    let correct = out.failed == 0 && out.attempted > 0;
    match result_line(correct, out.attempted, out.failed, defs, &out.metrics) {
        Ok(line) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args(&[
            "--workload",
            "ring-480",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(a.workload, "ring-480");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        let b = args(&["--workload=serve-fleet", "--trace=0"]).expect("valid");
        assert_eq!((b.seed, b.trace), (42, false));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            &["--workload", "nope"][..],
            &["--workload", "ring-480", "--trace", "2"],
            &["--workload", "ring-480", "--seconds", "-1"],
            &["--workload", "ring-480", "--seconds", "NaN"],
            &["--workload", "ring-480", "--seed"],
            &["--workload", "ring-480", "--extra", "1"],
            &[],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn splitmix_is_deterministic() {
        let (mut a, mut b) = (SplitMix(5), SplitMix(5));
        let xs: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs[0], SplitMix(6).next_u64());
    }
}
