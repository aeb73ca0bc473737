//! `e2e all --smoke`: every workload, untraced and traced, with 1 s phases,
//! held against `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use muppet_core::json::Json;

/// ⟨name, unit⟩ of every metric in one `BENCHMARK.json` list.
fn declared(doc: &Json, list: &str) -> Vec<(String, String)> {
    doc.get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|m| {
            let field =
                |f: &str| m.get(f).and_then(Json::as_str).expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn smoke_run_prints_exactly_the_declared_metrics_and_matches_the_reference() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let benchmark = manifest.join("../../../../../BENCHMARK.json");
    let text = std::fs::read_to_string(&benchmark).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json is JSON");
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name").to_string())
        .collect();
    let end_to_end = declared(&doc, "end_to_end");
    let per_layer = declared(&doc, "per_layer");
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));

    // The committed file is the one the program's own tables generate.
    let generated =
        Command::new(env!("CARGO_BIN_EXE_e2e")).arg("manifest").output().expect("run e2e");
    assert_eq!(text, String::from_utf8_lossy(&generated.stdout), "BENCHMARK.json is stale");

    let out = Command::new(env!("CARGO_BIN_EXE_e2e"))
        .args(["all", "--smoke", "--seed", "3"])
        .output()
        .expect("run e2e");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "e2e all --smoke failed:\n{stderr}");

    // One `RESULT <workload> <trace> <json>` line per run.
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut results: BTreeMap<(String, String), Json> = BTreeMap::new();
    for line in stdout.lines().filter_map(|l| l.strip_prefix("RESULT ")) {
        let mut parts = line.splitn(3, ' ');
        let (workload, trace, json) = (parts.next(), parts.next(), parts.next());
        let key = (workload.unwrap().to_string(), trace.unwrap().to_string());
        let doc = Json::parse(json.unwrap()).expect("result line is JSON");
        assert!(results.insert(key.clone(), doc).is_none(), "{key:?} reported twice");
    }
    assert_eq!(results.len(), 2 * workloads.len(), "every workload ran untraced and traced");

    for workload in &workloads {
        for (trace, want) in [("0", &end_to_end), ("1", &per_layer)] {
            let result = &results[&(workload.clone(), trace.to_string())];
            // The reference check passed and nothing failed.
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}/{trace}");
            assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0), "{workload}/{trace}");
            assert!(result.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
            let keys: Vec<&str> =
                result.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            // Every declared metric exactly once, with its unit, and
            // nothing else.
            let metrics = result.get("metrics").and_then(Json::as_obj).expect("metrics object");
            let got: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name} has a value");
                    (name.clone(), m.get("unit").and_then(Json::as_str).unwrap().to_string())
                })
                .collect();
            assert_eq!(&got, want, "{workload} --trace {trace}");
        }
    }

    // `Timed` forwards `combine`/`combines`: the skewed counters fold, and
    // only they do.
    let combined = |workload: &str| {
        results[&(workload.to_string(), "1".to_string())]
            .get("metrics")
            .and_then(|m| m.get("dispatch.combined_events"))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .unwrap()
    };
    assert!(combined("counters_skew") > 0.0, "a skewed run that folds nothing lost its combiner");
    assert_eq!(combined("counters_cold"), 0.0);
}
