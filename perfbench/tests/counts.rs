//! The benchmark's own checks. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.
//!
//! Each workload runs briefly, twice at one seed: every result must be
//! correct and every count metric of the traced run (requests, rows
//! scanned, inserts per event, WAL and checkpoint bytes, delta rows, rows
//! replayed, and the ratios of such counts) must be identical across the
//! two runs. A third run at another seed shows the checks do not depend on
//! one seed. The metric names must match `BENCHMARK.json`.

use std::process::Command;

const WORKLOADS: &[&str] = &["hunt-cti", "query-15x", "stream-15x"];

/// Units whose values are counts, or ratios of counts, and must repeat.
const EXACT_UNITS: &[&str] = &["count", "bytes", "ratio"];

struct Metric {
    name: String,
    value: f64,
    unit: String,
}

struct Outcome {
    correct: bool,
    failed: u64,
    metrics: Vec<Metric>,
}

/// Returns the text between `start` and the next `end` after it.
fn between<'a>(s: &'a str, start: &str, end: &str) -> &'a str {
    let from = s.find(start).unwrap_or_else(|| panic!("{start} missing in {s}")) + start.len();
    let to = s[from..].find(end).expect("terminator") + from;
    &s[from..to]
}

/// Parses the benchmark's result line (its own fixed JSON layout).
fn parse(line: &str) -> Outcome {
    let mut metrics = Vec::new();
    let body = between(line, "\"metrics\":{", "}}}");
    for entry in format!("{body}}}").split("},") {
        let name = between(entry, "\"", "\"").to_string();
        let value = between(entry, "\"value\":", ",").parse().expect("metric value");
        let unit = between(entry, "\"unit\":\"", "\"").to_string();
        metrics.push(Metric { name, value, unit });
    }
    Outcome {
        correct: between(line, "\"correct\":", ",") == "true",
        failed: between(line, "\"failed\":", ",").parse().expect("failed count"),
        metrics,
    }
}

fn bench(workload: &str, seed: u64, trace: bool) -> Outcome {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark runs");
    assert!(out.status.success(), "{workload}: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let outcome = parse(stdout.lines().last().expect("a result line"));
    assert!(
        outcome.correct && outcome.failed == 0,
        "{workload} seed {seed}: wrong results\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    outcome
}

/// Metric names of one section of `BENCHMARK.json`, in order.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let from = json.find(&format!("\"{section}\"")).expect("section present");
    let list = between(&json[from..], "[", "]");
    list.split("\"name\"").skip(1).map(|e| between(e, "\"", "\"").to_string()).collect()
}

#[test]
fn counts_repeat_exactly_and_results_are_correct_at_two_seeds() {
    for workload in WORKLOADS {
        let a = bench(workload, 7, true);
        let b = bench(workload, 7, true);
        let names: Vec<&str> = a.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, declared("per_layer"), "{workload}: per-layer names");
        for (x, y) in a.metrics.iter().zip(&b.metrics) {
            if EXACT_UNITS.contains(&x.unit.as_str()) {
                assert_eq!(x.value, y.value, "{workload}: {} differs between runs", x.name);
            }
        }
        let c = bench(workload, 8, false);
        let names: Vec<&str> = c.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, declared("end_to_end"), "{workload}: end-to-end names");
        assert!(c.metrics.iter().all(|m| m.value > 0.0), "{workload}: an end-to-end metric is 0");
    }
}
