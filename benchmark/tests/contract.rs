//! The benchmark's anti-rot checks: `BENCHMARK.json` and `defs` agree in
//! both directions, every workload runs (at 1/64 size) and emits exactly
//! the published metric names, and the two clocks behave as documented —
//! the sim clock repeats exactly for a seed and moves with it.

use std::collections::BTreeSet;
use std::path::Path;

use hl_benchmark::compare::{self, Verdict};
use hl_benchmark::defs::{self, Clock};
use hl_benchmark::json::{self, Value};
use hl_benchmark::report::RunResult;
use hl_benchmark::workloads::{self, RunConfig};

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repository root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json is limited to 64 KiB");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn keys(v: &Value) -> Vec<&str> {
    v.members().iter().map(|(k, _)| k.as_str()).collect()
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).and_then(Value::as_str).unwrap_or_else(|| panic!("missing string {key}"))
}

fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

#[test]
fn benchmark_json_and_defs_agree_in_both_directions() {
    let doc = benchmark_json();
    assert_eq!(
        keys(&doc),
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"],
        "BENCHMARK.json has exactly the contract's keys"
    );
    assert_eq!(doc.get("run_seconds").and_then(Value::as_f64), Some(defs::RUN_SECONDS as f64));
    let paths: Vec<&str> =
        doc.get("paths").unwrap().items().iter().filter_map(Value::as_str).collect();
    assert_eq!(paths, ["benchmark"]);
    let command: Vec<&str> =
        doc.get("command").unwrap().items().iter().filter_map(Value::as_str).collect();
    assert!(command.len() <= 32 && command.iter().all(|c| c.len() <= 200));
    assert!(command.contains(&"benchmark/Cargo.toml"), "the command builds this package");

    // Workloads: same names, same reasons, same order.
    let listed: Vec<(&str, &str)> = doc
        .get("workloads")
        .unwrap()
        .items()
        .iter()
        .map(|w| (text(w, "name"), text(w, "why")))
        .collect();
    let defined: Vec<(&str, &str)> = defs::WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    assert_eq!(listed, defined);
    assert!((2..=8).contains(&listed.len()));
    for w in doc.get("workloads").unwrap().items() {
        assert_eq!(keys(w), ["name", "why"]);
        assert!(valid_name(text(w, "name")));
        assert!(
            text(w, "why").len() <= 200 && !text(w, "why").contains('\n'),
            "{}",
            text(w, "name")
        );
    }

    // End-to-end: name, unit, direction and bound all match.
    let listed: Vec<(&str, &str, &str, f64)> = doc
        .get("end_to_end")
        .unwrap()
        .items()
        .iter()
        .map(|m| {
            assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
            (
                text(m, "name"),
                text(m, "unit"),
                text(m, "better"),
                m.get("bound").unwrap().as_f64().unwrap(),
            )
        })
        .collect();
    let defined: Vec<(&str, &str, &str, f64)> =
        defs::END_TO_END.iter().map(|m| (m.name, m.unit, m.better.as_str(), m.bound)).collect();
    assert_eq!(listed, defined);
    let setup = defs::end_to_end("setup_s").expect("setup_s is mandatory");
    assert_eq!((setup.unit, setup.better.as_str()), ("s", "lower"));
    for m in defs::END_TO_END {
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound", m.name);
        assert!(m.bound <= setup.bound, "setup_s carries the largest bound");
    }

    // Per-layer: name, unit and direction match.
    let listed: Vec<(&str, &str, &str)> = doc
        .get("per_layer")
        .unwrap()
        .items()
        .iter()
        .map(|m| {
            assert_eq!(keys(m), ["name", "unit", "better"]);
            (text(m, "name"), text(m, "unit"), text(m, "better"))
        })
        .collect();
    let defined: Vec<(&str, &str, &str)> =
        defs::PER_LAYER.iter().map(|m| (m.name, m.unit, m.better.as_str())).collect();
    assert_eq!(listed, defined);
    assert!((1..=128).contains(&listed.len()));

    // Every name is well-formed and used once across the whole file.
    let mut seen = BTreeSet::new();
    let all = defs::WORKLOADS
        .iter()
        .map(|w| (w.name, None))
        .chain(defs::END_TO_END.iter().map(|m| (m.name, Some(m.unit))))
        .chain(defs::PER_LAYER.iter().map(|m| (m.name, Some(m.unit))));
    for (name, unit) in all {
        assert!(valid_name(name), "name {name}");
        assert!(unit.is_none_or(valid_unit), "unit of {name}");
        assert!(seen.insert(name), "{name} is used twice");
    }
}

fn run_small(workload: &str, seed: u64, traced: bool) -> RunResult {
    let cfg = RunConfig { workload: workload.into(), seed, seconds: 0.0, traced, scale_div: 64 };
    workloads::run(&cfg).unwrap_or_else(|e| panic!("{workload} failed: {e}")).result
}

fn metric(result: &RunResult, name: &str) -> f64 {
    result.metrics.iter().find(|m| m.name == name).unwrap_or_else(|| panic!("no {name}")).value
}

/// Run `workload` untraced and traced at 1/64 size and hold both results
/// to the contract.
fn check_workload(workload: &str) -> (RunResult, RunResult) {
    let untraced = run_small(workload, 42, false);
    let emitted: Vec<&str> = untraced.metrics.iter().map(|m| m.name).collect();
    let published: Vec<&str> = defs::END_TO_END.iter().map(|m| m.name).collect();
    assert_eq!(emitted, published, "{workload}: untraced run emits exactly the end-to-end metrics");
    for m in &untraced.metrics {
        assert!(
            m.value.is_finite() && m.value > 0.0,
            "{workload}/{} = {} must never be 0",
            m.name,
            m.value
        );
    }
    assert!(
        untraced.checks.attempted >= 1 && untraced.correct(),
        "{workload}: {:?}",
        untraced.checks
    );
    assert_eq!(untraced.fail_share(), 0.0);
    assert!(untraced.timed_iterations >= workloads::MIN_TIMED_ITERATIONS);

    // The driver line is one JSON object with exactly the contract's keys.
    let line = untraced.driver_line();
    assert!(!line.contains('\n'));
    let parsed = json::parse(&line).unwrap();
    assert_eq!(keys(&parsed), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(parsed.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(keys(parsed.get("metrics").unwrap()), published);
    for (_, m) in parsed.get("metrics").unwrap().members() {
        assert_eq!(keys(m), ["value", "unit"]);
    }

    let traced = run_small(workload, 42, true);
    let emitted: Vec<&str> = traced.metrics.iter().map(|m| m.name).collect();
    let published: Vec<&str> = defs::PER_LAYER.iter().map(|m| m.name).collect();
    assert_eq!(emitted, published, "{workload}: traced run emits exactly the per-layer metrics");
    assert!(traced.metrics.iter().all(|m| m.value.is_finite()));
    assert!(traced.metrics.iter().any(|m| m.value != 0.0), "{workload}: some layer must be busy");
    assert!(traced.correct(), "{workload}: {:?}", traced.checks);
    (untraced, traced)
}

#[test]
fn wc_shuffle_meets_the_contract_and_its_ledger_adds_up() {
    let (_, traced) = check_workload("wc-shuffle");
    let run = metric(&traced, "mapreduce.engine.run_job_s");
    let busy = metric(&traced, "mapreduce.engine.layers_busy_s");
    let rest = metric(&traced, "mapreduce.engine.unattributed_s");
    assert!(run > 0.0 && busy > 0.0);
    assert!((busy + rest - run).abs() <= 1e-9 * run.max(1.0), "{busy} + {rest} != {run}");
    // Every record crosses the shuffle; nothing touches the codec.
    assert!(metric(&traced, "mapreduce.engine.shuffle_bytes") > 0.0);
    assert!(metric(&traced, "mapreduce.sortbuf.collect_rec_s") > 0.0);
    assert_eq!(metric(&traced, "mapreduce.sortbuf.combine_rec_s"), 0.0);
    assert_eq!(metric(&traced, "codec.compress_mib_s"), 0.0);
    assert_eq!(metric(&traced, "mapreduce.speculate.launched"), 0.0);
}

#[test]
fn wc_combiner_collapses_the_shuffle() {
    let (_, traced) = check_workload("wc-combiner");
    let shuffle = run_small("wc-shuffle", 42, true);
    // At 1/64 size each map sees few repeats, so the cut is modest; at the
    // published size it is ~25x (see the README's interaction table).
    assert!(
        metric(&traced, "mapreduce.engine.shuffle_bytes")
            < metric(&shuffle, "mapreduce.engine.shuffle_bytes"),
        "the combiner must cut shuffle bytes"
    );
    assert!(metric(&traced, "mapreduce.sortbuf.combine_rec_s") > 0.0);
    assert_eq!(metric(&traced, "mapreduce.sortbuf.collect_rec_s"), 0.0);
}

#[test]
fn hs_codec_puts_the_codec_on_the_path() {
    let (untraced, traced) = check_workload("hs-codec");
    assert!(metric(&traced, "codec.compress_mib_s") > 0.0);
    assert!(metric(&traced, "codec.decompress_mib_s") > 0.0);
    let ratio = metric(&traced, "codec.ratio_pct");
    assert!(ratio > 0.0 && ratio < 100.0, "the corpus must compress: {ratio}%");
    assert!(metric(&traced, "dfs.client.put_codec_mib_s") > 0.0);
    assert_eq!(metric(&traced, "dfs.client.put_mib_s"), 0.0);
    // Stored bytes shrank, so the cost model charged less I/O than input.
    assert!(metric(&traced, "dfs.stored_bytes_per_user_byte") < 3.0);
    assert!(metric(&untraced, "sim_io_bytes_per_input_byte") > 0.0);
}

#[test]
fn dfs_io_leaves_mapreduce_idle() {
    let (_, traced) = check_workload("dfs-io");
    for name in [
        "dfs.client.put_mib_s",
        "dfs.client.read_mib_s",
        "dfs.client.put_codec_mib_s",
        "dfs.client.read_codec_mib_s",
        "dfs.client.put_sim_us",
        "dfs.client.read_codec_sim_us",
        "common.checksum.chunked_mib_s",
        "codec.compress_mib_s",
    ] {
        assert!(metric(&traced, name) > 0.0, "{name}");
    }
    for m in traced
        .metrics
        .iter()
        .filter(|m| m.name.starts_with("mapreduce.") || m.name.starts_with("workloads."))
    {
        assert_eq!(m.value, 0.0, "{} must be idle on dfs-io", m.name);
    }
}

#[test]
fn small_jobs_reports_per_job_latency() {
    let (untraced, traced) = check_workload("small-jobs");
    assert_eq!(untraced.work_unit, "jobs");
    assert!(metric(&traced, "mapreduce.engine.job_ms_p50") > 0.0);
    assert!(
        metric(&traced, "mapreduce.engine.job_ms_p95")
            >= metric(&traced, "mapreduce.engine.job_ms_p50")
    );
    assert!(metric(&traced, "mapreduce.engine.batch_growth_ratio") > 0.0);
    assert!(metric(&traced, "dfs.namenode.rpcs_per_job") > 0.0);
    assert!(metric(&traced, "mapreduce.scheduler.decisions") > 0.0);
}

#[test]
fn nn_scale_moves_no_payload_bytes() {
    let (_, traced) = check_workload("nn-scale");
    for name in [
        "dfs.namenode.load_ops_s",
        "dfs.namenode.block_report_us_p50",
        "dfs.namenode.block_report_us_p99",
        "dfs.namenode.restart_us",
        "dfs.fsimage.checkpoint_mib_s",
        "dfs.editlog.replay_ops_s",
        "dfs.fsimage.bytes_per_block",
        "cluster.event.queue_events_s",
        "cluster.event.wheel_events_s",
    ] {
        assert!(metric(&traced, name) > 0.0, "{name}");
    }
    for m in traced.metrics.iter().filter(|m| {
        m.name.starts_with("dfs.client.")
            || m.name.starts_with("mapreduce.")
            || m.name.starts_with("codec.")
    }) {
        assert_eq!(m.value, 0.0, "{} must be idle on nn-scale", m.name);
    }
}

#[test]
fn the_seed_moves_the_sim_clock_and_nothing_else_does() {
    let sim: Vec<&str> =
        defs::END_TO_END.iter().filter(|m| m.clock == Clock::Sim).map(|m| m.name).collect();
    assert!(!sim.is_empty());
    for workload in ["wc-shuffle", "nn-scale"] {
        let (a, again, other) = (
            run_small(workload, 42, false),
            run_small(workload, 42, false),
            run_small(workload, 7, false),
        );
        for name in &sim {
            assert_eq!(
                metric(&a, name),
                metric(&again, name),
                "{workload}/{name} must repeat exactly"
            );
        }
        assert!(
            sim.iter().any(|name| metric(&a, name) != metric(&other, name)),
            "{workload}: a different seed must reach the generators"
        );
    }
}

#[test]
fn compare_reads_result_files_and_flags_only_real_regressions() {
    let run = run_small("dfs-io", 42, false);
    let a = run.to_json();
    let rows = compare::compare(&a, &a).unwrap();
    assert_eq!(rows.len(), defs::END_TO_END.len() + 1, "one row per metric plus fail_share");
    assert!(rows.iter().all(|r| matches!(r.verdict, Verdict::Within | Verdict::Unresolved)));

    // Halve the throughput and fail a check: both must read `worse`.
    let mut slower = run.clone();
    for m in slower.metrics.iter_mut().filter(|m| m.name == "host_work_per_s") {
        m.value /= 2.0;
        m.samples.iter_mut().for_each(|s| *s /= 2.0);
    }
    slower.checks.failed = 1;
    let rows = compare::compare(&a, &slower.to_json()).unwrap();
    let verdict = |name: &str| rows.iter().find(|r| r.metric == name).unwrap().verdict;
    assert_eq!(verdict("fail_share"), Verdict::Worse);
    assert_ne!(verdict("host_work_per_s"), Verdict::Within);
    assert_ne!(verdict("host_work_per_s"), Verdict::Better);
    assert!(compare::render(&rows).contains("worse"));

    // A suite file wraps runs; a missing workload is an error, not a pass.
    let suite = Value::obj([("runs", Value::Arr(vec![a.clone()]))]);
    assert_eq!(compare::compare(&suite, &a).unwrap().len(), rows.len());
    let other = run_small("nn-scale", 42, false).to_json();
    assert!(compare::compare(&a, &other).is_err());
}
