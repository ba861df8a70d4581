//! The benchmark's self-test: every workload at a tiny geometry, in
//! both modes, plus each oracle fed one perturbed element.

use std::sync::{Mutex, MutexGuard};

use coconet_core::WireFormat;

use crate::report::{END_TO_END, PER_LAYER};
use crate::{exec, run, stream, Config, Report, Scale, Workload};

/// Tracing state is global to the process and `cargo test` runs tests
/// on parallel threads, so every test holds this lock.
static GATE: Mutex<()> = Mutex::new(());

fn gate() -> MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn tiny_run(workload: Workload, trace: bool) -> Report {
    let cfg = Config {
        workload,
        seed: 7,
        seconds: 0.05,
        trace,
        scale: Scale::Tiny,
    };
    run(&cfg).unwrap_or_else(|e| panic!("{} failed: {e}", workload.name()))
}

/// Whether the result line carries `name` with `unit`.
fn has_metric(line: &str, name: &str, unit: &str) -> bool {
    let Some(at) = line.find(&format!("\"{name}\": {{\"value\": ")) else {
        return false;
    };
    let entry = &line[at..at + line[at..].find('}').expect("entry closes")];
    entry.ends_with(&format!("\"unit\": \"{unit}\""))
}

#[test]
fn every_workload_prints_every_metric_without_errors() {
    let _gate = gate();
    for workload in Workload::ALL {
        for trace in [false, true] {
            let report = tiny_run(workload, trace);
            let what = format!("{} trace={trace}", workload.name());
            assert_eq!(report.error_rate(), 0.0, "{what}");
            assert!(report.attempted > 0, "{what}");
            assert!(report.correct(), "{what}: {:?}", report.violations);
            let table = if trace {
                &PER_LAYER[..]
            } else {
                &END_TO_END[..]
            };
            let line = report.json_line(table);
            assert!(line.starts_with("{\"correct\": true, "), "{what}: {line}");
            for (name, unit) in table {
                assert!(has_metric(&line, name, unit), "{what}: {name} [{unit}]");
            }
        }
    }
}

#[test]
fn benchmark_json_names_the_printed_metrics() {
    let spec = include_str!("../../BENCHMARK.json");
    for w in Workload::ALL {
        assert!(
            spec.contains(&format!("\"name\": \"{}\"", w.name())),
            "{}",
            w.name()
        );
    }
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(
            spec.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} [{unit}]"
        );
    }
    let listed = spec.matches("\"name\":").count();
    assert_eq!(
        listed,
        Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len()
    );
}

#[test]
fn adam_oracle_rejects_a_perturbed_missing_or_partial_update() {
    let _gate = gate();
    let (prev, got, reference) = exec::adam_step_triple(11);
    exec::adam_oracle(&prev, &got, &reference).expect("the winner matches the reference");

    let mut perturbed = got.deep_clone();
    let i = got.numel() / 3;
    perturbed.set(i, got.get(i) + exec::ADAM_LR / 20.0);
    assert!(exec::adam_oracle(&prev, &perturbed, &reference).is_err());

    // No update at all, and the second rank's half left stale (as if
    // its AllGather half were dropped).
    assert!(exec::adam_oracle(&prev, &prev, &reference).is_err());
    let mut half = got.deep_clone();
    for i in got.numel() / 2..got.numel() {
        half.set(i, prev.get(i));
    }
    assert!(exec::adam_oracle(&prev, &half, &reference).is_err());
}

#[test]
fn mlp_oracle_rejects_one_perturbed_element() {
    let _gate = gate();
    let (mut got, reference) = exec::mlp_step_pair(11);
    exec::mlp_oracle(&got, &reference).expect("the winner matches the reference");
    let i = got.numel() / 3;
    got.set(i, got.get(i) + 0.5);
    assert!(exec::mlp_oracle(&got, &reference).is_err());
}

#[test]
fn stream_oracle_rejects_one_perturbed_element() {
    let _gate = gate();
    for wire in [WireFormat::Dense, WireFormat::Fp16] {
        let (params, pattern, scale) = stream::final_params_triple(11, wire);
        stream::params_oracle(&params, &pattern, scale).expect("the updates are exact");
        // One gradient element off by the smallest coefficient step
        // moves its parameter by LR / 64.
        let mut perturbed = params.deep_clone();
        let i = params.numel() / 3;
        perturbed.set(i, params.get(i) + 1.0 / (1024.0 * 64.0));
        assert!(stream::params_oracle(&perturbed, &pattern, scale).is_err());
    }
}

#[test]
fn an_empty_window_makes_the_run_incorrect_without_panicking() {
    let mut report = Report::default();
    report.count_failed_run(3, "a rank thread panicked");
    crate::report::record_steps(&mut report, &[], 0.0);
    for (name, _) in &END_TO_END[..3] {
        assert_eq!(report.get(name), Some(0.0), "{name}");
    }
    assert!(!report.correct());
    assert!(report
        .json_line(&END_TO_END[..3])
        .starts_with("{\"correct\": false, "));
}
