//! Golden-output tests for the exporters.
//!
//! Both exporters render from a [`Registry`] snapshot whose `BTreeMap`s fix
//! the key order, so the exact bytes are deterministic and can be pinned.
//! These tests use a local registry (not the process-global one) so they
//! cannot race with other tests toggling `hmdiv_obs::set_enabled`.

use hmdiv_obs::export::{to_json, to_prometheus};
use hmdiv_obs::Registry;

/// Builds a registry with one metric of each kind, with values chosen to
/// land in known histogram buckets. Each histogram's p95 and p99
/// interpolate past its largest observation and clamp to it.
fn sample_registry() -> Registry {
    let registry = Registry::new();
    registry.counter_add("sim.engine.cases", 450_000);
    registry.counter_add("rbd.mc.samples", 8_192);
    registry.gauge_set("sim.engine.cases_per_sec", 2.5e6);
    registry.gauge_set("sim.engine.imbalance", 1.25);
    // 5 µs and 2 ms land in the 10 µs and 10 ms decade buckets.
    registry.observe_ns("sim.engine.run", 5_000);
    registry.observe_ns("sim.engine.run", 2_000_000);
    // 3 and 100 land in the ≤4 and ≤128 power-of-two buckets.
    registry.observe_count("serve.batch_size", 3);
    registry.observe_count("serve.batch_size", 100);
    registry
}

#[test]
fn json_export_matches_golden() {
    let json = to_json(&sample_registry().snapshot());
    let expected = concat!(
        "{\n",
        "  \"counters\": {\n",
        "    \"rbd.mc.samples\": 8192,\n",
        "    \"sim.engine.cases\": 450000\n",
        "  },\n",
        "  \"gauges\": {\n",
        "    \"sim.engine.cases_per_sec\": 2500000,\n",
        "    \"sim.engine.imbalance\": 1.25\n",
        "  },\n",
        "  \"histograms\": {\n",
        "    \"serve.batch_size\": {\"unit\": \"count\", \
         \"bounds\": [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192], \
         \"counts\": [0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0], \
         \"sum\": 103, \"count\": 2, \"p50\": 4, \"p95\": 100, \"p99\": 100},\n",
        "    \"sim.engine.run\": {\"unit\": \"ns\", \
         \"bounds\": [1000, 10000, 100000, 1000000, \
         10000000, 100000000, 1000000000, 10000000000], \
         \"counts\": [0, 1, 0, 0, 1, 0, 0, 0, 0], \"sum\": 2005000, \"count\": 2, \
         \"p50\": 10000, \"p95\": 2000000, \"p99\": 2000000}\n",
        "  }\n",
        "}\n",
    );
    assert_eq!(json, expected);
}

#[test]
fn prometheus_export_matches_golden() {
    let text = to_prometheus(&sample_registry().snapshot());
    let expected = concat!(
        "# TYPE hmdiv_rbd_mc_samples counter\n",
        "hmdiv_rbd_mc_samples 8192\n",
        "# TYPE hmdiv_sim_engine_cases counter\n",
        "hmdiv_sim_engine_cases 450000\n",
        "# TYPE hmdiv_sim_engine_cases_per_sec gauge\n",
        "hmdiv_sim_engine_cases_per_sec 2500000\n",
        "# TYPE hmdiv_sim_engine_imbalance gauge\n",
        "hmdiv_sim_engine_imbalance 1.25\n",
        "# TYPE hmdiv_serve_batch_size histogram\n",
        "hmdiv_serve_batch_size_bucket{le=\"1\"} 0\n",
        "hmdiv_serve_batch_size_bucket{le=\"2\"} 0\n",
        "hmdiv_serve_batch_size_bucket{le=\"4\"} 1\n",
        "hmdiv_serve_batch_size_bucket{le=\"8\"} 1\n",
        "hmdiv_serve_batch_size_bucket{le=\"16\"} 1\n",
        "hmdiv_serve_batch_size_bucket{le=\"32\"} 1\n",
        "hmdiv_serve_batch_size_bucket{le=\"64\"} 1\n",
        "hmdiv_serve_batch_size_bucket{le=\"128\"} 2\n",
        "hmdiv_serve_batch_size_bucket{le=\"256\"} 2\n",
        "hmdiv_serve_batch_size_bucket{le=\"512\"} 2\n",
        "hmdiv_serve_batch_size_bucket{le=\"1024\"} 2\n",
        "hmdiv_serve_batch_size_bucket{le=\"2048\"} 2\n",
        "hmdiv_serve_batch_size_bucket{le=\"4096\"} 2\n",
        "hmdiv_serve_batch_size_bucket{le=\"8192\"} 2\n",
        "hmdiv_serve_batch_size_bucket{le=\"+Inf\"} 2\n",
        "hmdiv_serve_batch_size_sum 103\n",
        "hmdiv_serve_batch_size_count 2\n",
        "# TYPE hmdiv_serve_batch_size_p50 gauge\n",
        "hmdiv_serve_batch_size_p50 4\n",
        "# TYPE hmdiv_serve_batch_size_p95 gauge\n",
        "hmdiv_serve_batch_size_p95 100\n",
        "# TYPE hmdiv_serve_batch_size_p99 gauge\n",
        "hmdiv_serve_batch_size_p99 100\n",
        "# TYPE hmdiv_sim_engine_run_seconds histogram\n",
        "hmdiv_sim_engine_run_seconds_bucket{le=\"0.000001\"} 0\n",
        "hmdiv_sim_engine_run_seconds_bucket{le=\"0.00001\"} 1\n",
        "hmdiv_sim_engine_run_seconds_bucket{le=\"0.0001\"} 1\n",
        "hmdiv_sim_engine_run_seconds_bucket{le=\"0.001\"} 1\n",
        "hmdiv_sim_engine_run_seconds_bucket{le=\"0.01\"} 2\n",
        "hmdiv_sim_engine_run_seconds_bucket{le=\"0.1\"} 2\n",
        "hmdiv_sim_engine_run_seconds_bucket{le=\"1\"} 2\n",
        "hmdiv_sim_engine_run_seconds_bucket{le=\"10\"} 2\n",
        "hmdiv_sim_engine_run_seconds_bucket{le=\"+Inf\"} 2\n",
        "hmdiv_sim_engine_run_seconds_sum 0.002005\n",
        "hmdiv_sim_engine_run_seconds_count 2\n",
        "# TYPE hmdiv_sim_engine_run_seconds_p50 gauge\n",
        "hmdiv_sim_engine_run_seconds_p50 0.00001\n",
        "# TYPE hmdiv_sim_engine_run_seconds_p95 gauge\n",
        "hmdiv_sim_engine_run_seconds_p95 0.002\n",
        "# TYPE hmdiv_sim_engine_run_seconds_p99 gauge\n",
        "hmdiv_sim_engine_run_seconds_p99 0.002\n",
    );
    assert_eq!(text, expected);
}

#[test]
fn json_roundtrips_through_a_parser_shape_check() {
    // No JSON parser is available in this workspace, so approximate a
    // validity check structurally: balanced braces/brackets outside strings
    // and no trailing comma before a closing brace.
    let json = to_json(&sample_registry().snapshot());
    let mut depth = 0i32;
    let mut in_string = false;
    let mut escaped = false;
    let mut last_significant = ' ';
    for c in json.chars() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' | '[' => depth += 1,
            '}' | ']' => {
                assert_ne!(last_significant, ',', "trailing comma before {c}");
                depth -= 1;
            }
            _ => {}
        }
        if !c.is_whitespace() {
            last_significant = c;
        }
    }
    assert_eq!(depth, 0, "unbalanced braces");
    assert!(!in_string, "unterminated string");
}
