//! Tiny-scale runs of every workload through the benchmark binary.

use std::process::{Command, Output};

use tcim_e2e_bench::metrics::{MetricDef, END_TO_END, PER_LAYER};
use tcim_e2e_bench::workload::NAMES;

fn bench(workload: &str, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tcim-e2e-bench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "1", "--tiny"])
        .args(extra)
        .output()
        .expect("the benchmark binary starts")
}

fn stdout(output: &Output) -> String {
    String::from_utf8(output.stdout.clone()).expect("the report is UTF-8")
}

fn result_line(output: &Output) -> String {
    stdout(output).lines().last().expect("the benchmark prints a result").to_string()
}

fn fingerprint(output: &Output) -> String {
    stdout(output)
        .lines()
        .find_map(|line| line.strip_prefix("# modelled census fingerprint "))
        .expect("the report prints the census fingerprint")
        .to_string()
}

fn assert_emits(line: &str, defs: &[MetricDef], workload: &str) {
    assert!(line.starts_with("{\"correct\": true, "), "{workload}: {line}");
    for d in defs {
        let key = format!("\"{}\": {{\"value\": ", d.name);
        let at = line.find(&key).unwrap_or_else(|| panic!("{workload}: {} missing", d.name));
        let rest = &line[at + key.len()..];
        let (value, rest) = rest.split_once(", ").expect("a value then a unit");
        assert!(
            value.parse::<f64>().is_ok_and(f64::is_finite),
            "{workload}: {} = {value}",
            d.name
        );
        assert!(
            rest.starts_with(&format!("\"unit\": \"{}\"}}", d.unit)),
            "{workload}: {} has the wrong unit",
            d.name
        );
    }
    let metrics = line.matches("\"unit\": ").count();
    assert_eq!(metrics, defs.len(), "{workload}: metrics outside the catalogue");
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    for workload in NAMES {
        let untraced = bench(workload, &["--trace", "0"]);
        assert!(untraced.status.success(), "{workload}: {untraced:?}");
        assert_emits(&result_line(&untraced), END_TO_END, workload);

        let traced = bench(workload, &["--trace", "1"]);
        assert!(traced.status.success(), "{workload}: {traced:?}");
        assert_emits(&result_line(&traced), PER_LAYER, workload);

        // Modelled numbers repeat to the bit between the two runs.
        assert_eq!(fingerprint(&untraced), fingerprint(&traced), "{workload}");
    }
}

#[test]
fn a_corrupted_reference_fails_the_run() {
    for workload in NAMES {
        let output = bench(workload, &["--corrupt-reference"]);
        assert!(!output.status.success(), "{workload} passed against a wrong reference");
        let line = result_line(&output);
        assert!(line.starts_with("{\"correct\": false, "), "{workload}: {line}");
        assert!(line.ends_with("\"metrics\": {}}"), "{workload} recorded timings: {line}");
        assert!(!line.contains("\"failed\": 0,"), "{workload}: {line}");
    }
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    for d in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("{{\"name\": \"{}\", \"unit\": \"{}\", ", d.name, d.unit);
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let listed = text.matches("\"unit\": ").count();
    assert_eq!(
        listed,
        END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json lists extra metrics"
    );
    for workload in NAMES {
        assert!(text.contains(&format!("{{\"name\": \"{workload}\", ")), "{workload} missing");
    }
}
