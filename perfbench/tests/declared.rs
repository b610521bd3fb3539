//! `BENCHMARK.json` declares exactly the metrics and workloads the
//! benchmark prints, with the same units and directions.
//!
//! Every run prints every metric of its mode (`Report::finish` refuses a
//! result with one missing), so a metric declared here is printed by every
//! workload, and a metric the code can print is declared.

use serde::Deserialize;
use wade_perfbench::metrics::{Metric, END_TO_END, PER_LAYER, WORKLOADS};

#[derive(Debug, Deserialize)]
struct Workload {
    name: String,
    why: String,
}

#[derive(Debug, Deserialize)]
struct Declared {
    name: String,
    unit: String,
    better: String,
}

#[derive(Debug, Deserialize)]
struct Bounded {
    name: String,
    unit: String,
    better: String,
    bound: f64,
}

#[derive(Debug, Deserialize)]
struct Benchmark {
    command: Vec<String>,
    paths: Vec<String>,
    run_seconds: u64,
    workloads: Vec<Workload>,
    end_to_end: Vec<Bounded>,
    per_layer: Vec<Declared>,
}

fn benchmark() -> Benchmark {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn same(code: &[Metric], declared: Vec<(String, String, String)>) {
    let code: Vec<(String, String, String)> = code
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                m.unit.to_string(),
                m.better.label().to_string(),
            )
        })
        .collect();
    assert_eq!(
        code, declared,
        "printed metrics and BENCHMARK.json disagree"
    );
}

#[test]
fn end_to_end_metrics_match_the_declaration() {
    let bench = benchmark();
    for m in &bench.end_to_end {
        assert!(
            m.bound > 0.0 && m.bound <= 0.25,
            "{}: bound {} outside (0, 0.25]",
            m.name,
            m.bound
        );
    }
    let setup = bench
        .end_to_end
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s declared");
    // A microsecond set-up drifts more between runs than the passes do,
    // and only its median is held to the bound.
    assert!(
        bench.end_to_end.iter().all(|m| m.bound <= setup.bound),
        "setup_s must have the largest bound"
    );
    same(
        END_TO_END,
        bench
            .end_to_end
            .into_iter()
            .map(|m| (m.name, m.unit, m.better))
            .collect(),
    );
}

#[test]
fn per_layer_metrics_match_the_declaration() {
    let bench = benchmark();
    same(
        PER_LAYER,
        bench
            .per_layer
            .into_iter()
            .map(|m| (m.name, m.unit, m.better))
            .collect(),
    );
}

#[test]
fn workloads_and_command_match_the_declaration() {
    let bench = benchmark();
    let names: Vec<&str> = bench.workloads.iter().map(|w| w.name.as_str()).collect();
    assert_eq!(names, WORKLOADS);
    assert!(bench
        .workloads
        .iter()
        .all(|w| !w.why.is_empty() && !w.why.contains('\n')));
    assert_eq!(bench.paths, ["perfbench"]);
    assert!(bench.command.iter().any(|a| a == "perfbench/Cargo.toml"));
    assert!((1..=60).contains(&bench.run_seconds));
}
