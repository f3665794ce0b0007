//! Metric catalogue, output checks and the result line.
//!
//! The two catalogues below are the metric lists of `BENCHMARK.json`; the
//! smoke test keeps them in step. An untraced run prints every end-to-end
//! metric; a traced run prints every per-layer metric, with 0 for a layer
//! the workload does not use.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`. Every workload measures all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("train_tuples_per_s", "1/s"),
    ("final_loss", "loss"),
    ("accuracy", "fraction"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ingest_rows_per_s", "rows/s"),
    ("write_p50_ms", "ms"),
    ("write_p99_ms", "ms"),
    ("recovery_s", "s"),
    ("predict_p50_us", "us"),
    ("predict_p99_us", "us"),
    ("predict_rows_per_s", "rows/s"),
    ("error_rate", "fraction"),
    ("sql.parser.parse_us", "us"),
    ("sql.exec.copy_s", "s"),
    ("sql.exec.train_s", "s"),
    ("sql.exec.predict_s", "s"),
    ("sql.exec.self_share", "fraction"),
    ("storage.csv.decode_s", "s"),
    ("storage.catalog.insert_rows_s", "s"),
    ("storage.catalog.insert_one_us_p50", "us"),
    ("storage.catalog.open_s", "s"),
    ("storage.catalog.records_replayed", "count"),
    ("storage.catalog.bytes_per_user_byte", "ratio"),
    ("core.frontend.persist_model_ms", "ms"),
    ("storage.scan.permutation_ms", "ms"),
    ("storage.scan.self_share", "fraction"),
    ("storage.table.scan_ns_per_tuple", "ns/tuple"),
    ("storage.table.scan_permuted_ns_per_tuple", "ns/tuple"),
    ("storage.columnar.scan_ns_per_tuple", "ns/tuple"),
    ("storage.columnar.dense_slice_ns_per_tuple", "ns/tuple"),
    ("storage.pager.hits", "count"),
    ("storage.pager.misses", "count"),
    ("storage.pager.evictions", "count"),
    ("storage.pager.prefetches", "count"),
    ("storage.pager.bytes_read", "bytes"),
    ("storage.pager.hit_ratio", "fraction"),
    ("storage.pager.page_in_ns_per_tuple", "ns/tuple"),
    ("storage.pager.shuffled_misses_per_tuple", "misses/tuple"),
    ("uda.executor.gradient_ns_per_tuple", "ns/tuple"),
    ("uda.executor.self_share", "fraction"),
    ("core.trainer.loss_ns_per_tuple", "ns/tuple"),
    ("core.trainer.epoch_ns_per_tuple", "ns/tuple"),
    ("core.trainer.shuffle_s", "s"),
    ("core.trainer.self_share", "fraction"),
    ("core.parallel.pureuda.gradient_ns_per_tuple", "ns/tuple"),
    ("core.parallel.nolock.gradient_ns_per_tuple", "ns/tuple"),
    ("core.parallel.nolock.loss_share", "fraction"),
    ("core.parallel.self_share", "fraction"),
    ("core.serving.publish_us", "us"),
    ("core.serving.predict_batch_idle_us", "us"),
    ("core.serving.versions_seen", "count"),
    ("core.serving.self_share", "fraction"),
    ("core.checkpoint.write_ms", "ms"),
    ("core.checkpoint.self_share", "fraction"),
    ("residual_share", "fraction"),
    ("trace_overhead", "fraction"),
];

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Count one operation or output check; a failure is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }

    /// Count `n` operations of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64, what: &str) {
        self.attempted += n;
        self.failed += failed;
        if failed > 0 {
            eprintln!("perfbench: {failed} of {n} {what} failed");
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not in the catalogue"
        );
        self.metrics.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// The result line: every metric of the run's catalogue, by name and
    /// unit. A metric the workload did not produce is an error for the
    /// end-to-end catalogue and reads 0 (layer unused) for the per-layer one.
    pub fn result_json(&mut self, traced: bool) -> String {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        if traced {
            let rate = self.failed as f64 / self.attempted.max(1) as f64;
            self.set("error_rate", rate);
        }
        let mut fields = Vec::new();
        for &(name, unit) in catalogue {
            let value = match self.get(name) {
                Some(v) if v.is_finite() => v,
                Some(v) => {
                    self.check(false, || format!("metric {name} is not finite ({v})"));
                    0.0
                }
                None if traced => 0.0,
                None => {
                    self.check(false, || format!("metric {name} was not measured"));
                    0.0
                }
            };
            fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                value
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        )
    }
}

/// Each layer's self time as a share of the untraced wall time
/// `untraced_s` (`<layer>.self_share`), the residual no traced layer
/// accounts for, and the tracing overhead given the traced wall time
/// `traced_s`.
pub fn layer_shares(
    self_by_layer: &BTreeMap<String, f64>,
    untraced_s: f64,
    traced_s: f64,
) -> BTreeMap<&'static str, f64> {
    let mut metrics = BTreeMap::new();
    let mut covered = 0.0;
    for (layer, self_s) in self_by_layer {
        covered += self_s;
        let name = format!("{layer}.self_share");
        match PER_LAYER.iter().find(|(n, _)| *n == name) {
            Some((n, _)) => {
                metrics.insert(*n, self_s / untraced_s);
            }
            None => eprintln!("perfbench: no self_share metric for layer {layer}"),
        }
    }
    metrics.insert("residual_share", (untraced_s - covered) / untraced_s);
    metrics.insert("trace_overhead", traced_s / untraced_s - 1.0);
    metrics
}
