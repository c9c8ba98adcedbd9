//! The benchmark's own test: every workload in a short mode with every
//! check on, and the checker's handling of wrong answers.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use cfva_core::plan::Strategy;
use cfva_perfbench::check::{check_sweep, check_sweep_access, check_wire, session, Tracker};
use cfva_perfbench::reference::{execute, stats_summary_digest};
use cfva_perfbench::run::{run, Options, Report};
use cfva_perfbench::stream::{
    miss_stream, specs, sweep_stream, Kind, Scale, Workload, THEOREM1_SPEC,
};
use cfva_serve::api::Response;

const CONFIG: &str = include_str!("../../BENCHMARK.json");

/// The metric names BENCHMARK.json lists between two keys.
fn names(from: &str, to: &str) -> Vec<String> {
    let start = CONFIG.find(from).expect("section present");
    let end = CONFIG[start..].find(to).map_or(CONFIG.len(), |e| start + e);
    CONFIG[start..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

fn short(workload: Workload, trace: bool) -> Report {
    let opts = Options {
        workload,
        seed: 7,
        seconds: 0.2,
        trace,
        scale: Scale::Short,
    };
    run(&opts).unwrap_or_else(|e| panic!("{} failed: {e}", workload.name()))
}

fn assert_reports(report: &Report, expected: &[String]) {
    assert!(report.verdict.complete);
    assert!(report.verdict.attempted > 0);
    assert_eq!(report.verdict.failed, 0);
    let got: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(got, expected);
    assert!(report.metrics.iter().all(|m| m.value.is_finite()));
    assert!(report
        .json()
        .starts_with("{\"correct\": true, \"attempted\": "));
}

#[test]
fn every_workload_runs_clean_with_every_metric() {
    let end_to_end = names("\"end_to_end\"", "\"per_layer\"");
    let per_layer = names("\"per_layer\"", "\u{0}");
    assert_eq!(end_to_end.len(), 6);
    for workload in Workload::ALL {
        let report = short(workload, false);
        assert_reports(&report, &end_to_end);
        assert!(report.metrics.iter().all(|m| m.value > 0.0), "{report:?}");
        assert_reports(&short(workload, true), &per_layer);
    }
}

#[test]
fn corrupted_wire_response_counts_as_failed() {
    let stream = miss_stream(7, Scale::Short);
    let ix = (0..stream.ops.len())
        .find(|&i| stream.ops[i].kind() == Kind::Measure)
        .expect("a measure request");
    let request = &stream.ops[ix].request;
    let mut runner = session(request.spec());
    let mut served = execute(&mut runner, request);
    let Response::Measured(Some(stats)) = &mut served else {
        panic!("measure answers with statistics");
    };
    stats.arrival[0] += 1;

    let mut tracker = Tracker::new(stream.ops.len());
    tracker.response(ix, served);
    let other = (ix + 1) % stream.ops.len();
    let mut runner = session(stream.ops[other].request.spec());
    tracker.response(other, execute(&mut runner, &stream.ops[other].request));
    tracker.error();

    let verdict = check_wire(&stream, &tracker);
    assert_eq!(verdict.attempted, 3);
    assert_eq!(verdict.failed, 2, "the corrupted answer and the error");
}

#[test]
fn wrong_sweep_latency_counts_as_failed() {
    let stream = sweep_stream(7, Scale::Short);
    let specs = specs();
    let theorem = specs.iter().position(|s| s == THEOREM1_SPEC).unwrap();
    // Family 2 at L = 64 lies in the Theorem 1 window [1, 4].
    let ix = (0..stream.ops.len())
        .find(|&i| {
            let op = &stream.ops[i];
            op.spec == theorem && op.vec.len() == 64 && op.vec.family().exponent() == 2
        })
        .expect("a windowed access");
    let op = &stream.ops[ix];
    let mut runner = session(THEOREM1_SPEC);
    let t_cycles = runner.mem().t_cycles();
    let stats = runner.measure_owned(&op.vec, Strategy::Auto).unwrap();
    assert_eq!(
        check_sweep_access(THEOREM1_SPEC, t_cycles, op, &stats),
        Ok(true)
    );

    let mut wrong = stats.clone();
    wrong.latency += 1;
    assert!(check_sweep_access(THEOREM1_SPEC, t_cycles, op, &wrong).is_err());

    let mut tracker = Tracker::new(stream.ops.len());
    tracker.answer(ix, stats_summary_digest(&stats));
    tracker.answer(ix, stats_summary_digest(&wrong));
    let verdict = check_sweep(&stream, &tracker, 7);
    assert_eq!(verdict.attempted, 2);
    assert_eq!(verdict.failed, 1, "the repeat with the wrong latency");

    let mut tracker = Tracker::new(stream.ops.len());
    tracker.answer(ix, stats_summary_digest(&wrong));
    assert_eq!(check_sweep(&stream, &tracker, 7).failed, 1);
}
