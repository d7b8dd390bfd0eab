//! Metric catalogue and the result line the benchmark ends with.

use std::collections::BTreeMap;

/// One reported metric: its name and unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Metrics a user of the simulator sees, reported with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s"),
    def("sim_mips", "MIPS"),
    def("sim_us_per_host_s", "us/s"),
    def("peak_rss_mb", "MB"),
    def("host_ms_per_request", "ms"),
];

/// Per-layer metrics, reported by the traced run. A layer a workload
/// does not use reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    def("xcore.alone_ns_per_instr", "ns"),
    def("xcore.share", "ratio"),
    def("xcore.instret", "count"),
    def("xcore.ipc", "instr/cycle"),
    def("isa.predecode_speedup", "ratio"),
    def("board.host_us_per_sim_us.inflight", "us/us"),
    def("board.host_us_per_sim_us.quiet", "us/us"),
    def("noc.tokens", "count"),
    def("noc.host_ns_per_token", "ns"),
    def("noc.link_util", "ratio"),
    def("noc.failed", "count"),
    def("board.shard.windows", "count"),
    def("board.shard.rounds_per_window", "count"),
    def("board.shard.scaling_2v1", "ratio"),
    def("board.monitor.updates", "count"),
    def("board.monitor.ns_per_update", "ns"),
    def("bridge.frames_in", "count"),
    def("bridge.frames_out", "count"),
    def("bridge.rejected", "count"),
    def("bridge.peak_backlog", "tokens"),
    def("fleet.steps_per_request", "count"),
    def("fleet.host_us_per_step", "us"),
    def("fleet.inject_late_ns", "ns"),
    def("fleet.p99_us.r100k", "us"),
    def("fleet.p99_us.r400k", "us"),
    def("fleet.max_rps_p99_20us", "1/s"),
    def("fleet.uj_per_request.r400k", "uJ"),
    def("energy.ledger_ns_per_read", "ns"),
    def("energy.idle_frac", "ratio"),
    def("setup.gen_ms", "ms"),
    def("setup.build_ms", "ms"),
    def("setup.load_ms", "ms"),
    def("trace.overhead", "ratio"),
];

/// A metric name: starts with a letter or digit, at most 64 of
/// `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let b = name.as_bytes();
    !b.is_empty()
        && b.len() <= 64
        && b[0].is_ascii_alphanumeric()
        && b.iter()
            .all(|&c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}

/// A unit: 1 to 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .bytes()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'/' | b'%' | b'.' | b'-'))
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The final line: `{"correct", "attempted", "failed", "metrics"}` with
/// exactly the metrics in `defs`, each `{"value", "unit"}`.
///
/// # Errors
///
/// A message naming a metric that is missing, extra, badly named or not
/// a finite number.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &BTreeMap<&'static str, f64>,
) -> Result<String, String> {
    if let Some(extra) = values.keys().find(|k| !defs.iter().any(|d| d.name == **k)) {
        return Err(format!("metric {extra} is not in the catalogue"));
    }
    let mut fields = Vec::with_capacity(defs.len());
    for d in defs {
        if !valid_name(d.name) || !valid_unit(d.unit) {
            return Err(format!("metric {} has a malformed name or unit", d.name));
        }
        let value = *values
            .get(d.name)
            .ok_or_else(|| format!("metric {} was not measured", d.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} is not finite ({value})", d.name));
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            d.name, d.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use swallow_testkit::json::{self, Value};

    #[test]
    fn metric_names_follow_the_charset() {
        for ok in ["setup_s", "p99_us.r100k", "board.shard.scaling_2v1", "0x-1"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "semi;colon",
            "ü",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_unit("us/s") && valid_unit("%") && valid_unit("instr/cycle"));
        assert!(!valid_unit("") && !valid_unit("micro seconds") && !valid_unit(&"s".repeat(17)));
    }

    #[test]
    fn catalogue_is_well_formed_and_unique() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER).collect();
        for d in &all {
            assert!(valid_name(d.name) && valid_unit(d.unit), "{d:?}");
        }
        let mut names: Vec<&str> = all.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "metric names repeat");
    }

    /// The catalogue here and `BENCHMARK.json` name the same metrics with
    /// the same units.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(Value::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Value::as_str).expect(f).to_owned();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = defs
                .iter()
                .map(|d| (d.name.to_owned(), d.unit.to_owned()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }

    #[test]
    fn result_line_round_trips_through_json() {
        let defs = [def("latency_ms", "ms"), def("setup_s", "s")];
        let values = BTreeMap::from([("latency_ms", 1.203_456_789_012_345), ("setup_s", 1e-7)]);
        let line = result_line(true, 1000, 0, &defs, &values).expect("complete");
        let doc = json::parse(&line).expect("valid JSON");
        let Value::Object(top) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(Value::as_f64), Some(1000.0));
        let metric = |name: &str, field: &str| {
            doc.get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get(field))
                .cloned()
        };
        // Every digit survives: the parsed value is bit-identical.
        assert_eq!(
            metric("latency_ms", "value"),
            Some(Value::Number(1.203_456_789_012_345))
        );
        assert_eq!(metric("setup_s", "value"), Some(Value::Number(1e-7)));
        assert_eq!(metric("setup_s", "unit"), Some(Value::String("s".into())));
    }

    #[test]
    fn result_line_rejects_incomplete_or_bad_values() {
        let defs = [def("a", "s"), def("b", "s")];
        let only_a = BTreeMap::from([("a", 1.0)]);
        assert!(result_line(true, 1, 0, &defs, &only_a).is_err());
        let nan = BTreeMap::from([("a", 1.0), ("b", f64::NAN)]);
        assert!(result_line(true, 1, 0, &defs, &nan).is_err());
        let extra = BTreeMap::from([("a", 1.0), ("b", 2.0), ("c", 3.0)]);
        assert!(result_line(true, 1, 0, &defs, &extra).is_err());
    }

    #[test]
    fn json_strings_escape() {
        let s = json_str("Intel \"Xeon\"\\\n");
        assert_eq!(
            json::parse(&s).expect("valid"),
            Value::String("Intel \"Xeon\"\\\n".into())
        );
    }
}
