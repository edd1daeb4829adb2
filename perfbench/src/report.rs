//! The metric catalog and the result line.
//!
//! Every metric the benchmark can report is named here once, with its
//! unit. An untraced run reports every [`END_TO_END`] metric and a traced
//! run every [`PER_LAYER`] metric, on every workload: a layer metric that
//! does not apply to a workload (queue waits without a job service, parity
//! with coding off) reads 0. `BENCHMARK.json` lists the same names and
//! units; a test keeps the two in step.

/// `(name, unit)` of the end-to-end metrics, always from an untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("gflops", "GFLOP/s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of the per-layer metrics of a traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("matrix.gemm_call_us", "us"),
    ("matrix.gemm_gflops", "GFLOP/s"),
    ("matrix.spmm_gflops", "GFLOP/s"),
    ("matrix.sddmm_gflops", "GFLOP/s"),
    ("matrix.codec_gbps", "GB/s"),
    ("core.plan_s", "s"),
    ("core.plan_cache_hit_ratio", "ratio"),
    ("core.plan_cache_lookups", "count"),
    ("core.rep_s", "s"),
    ("core.mult_s", "s"),
    ("core.agg_s", "s"),
    ("core.exec_overhead_s", "s"),
    ("core.tasks_per_job", "count"),
    ("core.barrier_job_s", "s"),
    ("core.pipelined_job_s", "s"),
    ("core.pipelined_overlap_ratio", "ratio"),
    ("cluster.shuffle_bytes_per_job", "bytes"),
    ("cluster.payload_bytes_per_job", "bytes"),
    ("cluster.moves_per_job", "count"),
    ("cluster.queue_wait_p50_s", "s"),
    ("cluster.queue_wait_p95_s", "s"),
    ("cluster.resize_s", "s"),
    ("cluster.resize_moves", "count"),
    ("cluster.resize_payload_bytes", "bytes"),
    ("cluster.parity_blocks_per_job", "count"),
    ("cluster.parity_encode_gbps", "GB/s"),
    ("cluster.resident_mb", "MB"),
    ("cluster.ingest_reuse_ratio", "ratio"),
    ("cluster.ingest_blocks", "count"),
    ("engine.start_delay_s", "s"),
    ("engine.driver_s", "s"),
    ("engine.ops_per_job", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unexplained_frac", "ratio"),
];

/// What one run measured: job accounting plus named metric values.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Jobs submitted in the timed window(s).
    pub attempted: u64,
    /// Jobs that returned an error or failed their correctness check.
    pub failed: u64,
    /// Metric values by catalog name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Run details that are not metrics (tail percentile and its counts,
    /// window length, trace file), as `(key, JSON value)` pairs.
    pub detail: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Records a run detail (`value` must already be JSON).
    pub fn note(&mut self, key: &'static str, value: String) {
        self.detail.push((key, value));
    }

    /// Failed jobs over attempted jobs.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit an `f64` carries (non-finite → 0).
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_string()
    }
}

/// The result line: `correct`, `attempted`, `failed`, and every metric of
/// `catalog` with its value and unit, in catalog order.
///
/// # Panics
/// When the outcome lacks a catalog metric or names one outside it — a
/// bug in the workload, never a measurement outcome.
pub fn result_line(outcome: &Outcome, catalog: &[(&str, &str)]) -> String {
    for (name, _) in &outcome.metrics {
        assert!(
            catalog.iter().any(|(n, _)| n == name),
            "metric {name} is not in the catalog"
        );
    }
    let metrics: Vec<String> = catalog
        .iter()
        .map(|(name, unit)| {
            let value = outcome
                .metrics
                .iter()
                .rev()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(value),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// The detail line printed before the result line: workload, seed, host
/// fingerprint, failed fraction and the outcome's notes.
pub fn detail_line(
    workload: &str,
    seed: u64,
    host: &crate::host::Fingerprint,
    outcome: &Outcome,
) -> String {
    let mut fields = vec![
        format!("\"workload\": {}", json_str(workload)),
        format!("\"seed\": {seed}"),
        format!("\"host\": {}", host.to_json()),
        format!("\"failed_frac\": {}", json_num(outcome.failed_frac())),
    ];
    fields.extend(
        outcome
            .detail
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k))),
    );
    format!("{{\"detail\": {{{}}}}}", fields.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full(catalog: &[(&'static str, &str)]) -> Outcome {
        let mut o = Outcome {
            attempted: 7,
            failed: 0,
            ..Default::default()
        };
        for (i, (name, _)) in catalog.iter().enumerate() {
            o.set(name, 0.5 + i as f64);
        }
        o
    }

    #[test]
    fn the_result_line_names_every_metric_with_its_unit() {
        for catalog in [END_TO_END, PER_LAYER] {
            let line = result_line(&full(catalog), catalog);
            for (name, unit) in catalog {
                let entry = format!("\"{name}\": {{\"value\": ");
                let at = line
                    .find(&entry)
                    .unwrap_or_else(|| panic!("{name} missing"));
                let close = at + line[at..].find('}').expect("entry closes");
                assert!(
                    line[at..=close].ends_with(&format!("\"unit\": \"{unit}\"}}")),
                    "{name} lacks unit {unit}"
                );
            }
            assert!(line.starts_with("{\"correct\": true, \"attempted\": 7, \"failed\": 0,"));
        }
    }

    #[test]
    fn failed_jobs_make_the_run_incorrect() {
        let mut o = full(END_TO_END);
        o.failed = 2;
        let line = result_line(&o, END_TO_END);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 7, \"failed\": 2,"));
        assert!((o.failed_frac() - 2.0 / 7.0).abs() < 1e-12);
        o.attempted = 0;
        o.failed = 0;
        assert!(result_line(&o, END_TO_END).starts_with("{\"correct\": false"));
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn a_missing_metric_is_a_bug() {
        let mut o = full(END_TO_END);
        o.metrics.pop();
        result_line(&o, END_TO_END);
    }

    #[test]
    fn the_catalog_matches_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&needle), "BENCHMARK.json lacks {needle}");
        }
        let names = spec.matches("\"name\":").count();
        let workloads = crate::WORKLOADS.len();
        assert_eq!(names, workloads + END_TO_END.len() + PER_LAYER.len());
        for w in crate::WORKLOADS {
            assert!(spec.contains(&format!("\"name\": \"{w}\"")), "{w} missing");
        }
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(json_num(0.1234567890123), "0.1234567890123");
        assert_eq!(json_num(3.0), "3.0");
        assert_eq!(json_num(f64::NAN), "0.0");
        assert_eq!(json_str("a\"b"), "\"a\\\"b\"");
    }
}
