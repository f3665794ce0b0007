//! Pieces the training workloads share: the trainer configuration, the
//! serving client, the traced epoch re-drive and the output checks.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use bismarck_core::tasks::LogisticRegressionTask;
use bismarck_core::{
    IgdAggregate, IgdTask, ModelHandle, StepSizeSchedule, Trainer, TrainerConfig,
    TrainingCheckpoint,
};
use bismarck_linalg::FeatureVectorRef;
use bismarck_storage::{ScanOrder, Table, TupleScan};
use bismarck_uda::{run_sequential, try_run_segmented_parallel, ConvergenceTest};

use crate::report::Outcome;
use crate::trace::Tracer;
use crate::util::{median, secs};

/// Constant step size of every LR run.
pub const STEP: f64 = 0.01;

/// The fixed-epoch LR configuration every training workload starts from.
pub fn config(order: ScanOrder, epochs: usize) -> TrainerConfig {
    TrainerConfig::default()
        .with_scan_order(order)
        .with_step_size(StepSizeSchedule::Constant(STEP))
        .with_convergence(ConvergenceTest::FixedEpochs(epochs))
}

pub fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Check a trained model: finite, and every epoch's loss finite and below
/// the initial objective.
pub fn check_model(out: &mut Outcome, what: &str, model: &[f64], losses: &[f64], initial: f64) {
    out.check(model.iter().all(|w| w.is_finite()), || {
        format!("{what}: model has a non-finite weight")
    });
    out.check(
        !losses.is_empty() && losses.iter().all(|l| l.is_finite() && *l < initial),
        || format!("{what}: losses {losses:?} not all finite and below the initial {initial}"),
    );
}

/// Fixed scoring batches: `count` runs of `size` consecutive rows of the
/// table, as feature views borrowed from its tuples.
pub fn batches(
    table: &Table,
    size: usize,
    count: usize,
) -> Result<Vec<Vec<FeatureVectorRef<'_>>>, String> {
    (0..count)
        .map(|b| {
            (b * size..(b + 1) * size)
                .map(|i| {
                    let tuple = table
                        .get(i % table.len())
                        .map_err(|e| format!("batch row: {e}"))?;
                    tuple
                        .feature_view(0)
                        .ok_or_else(|| "batch row has no features".to_string())
                })
                .collect()
        })
        .collect()
}

/// What the serving client saw while it ran.
#[derive(Default)]
pub struct ClientStats {
    pub latencies_us: Vec<f64>,
    pub rows: u64,
    pub elapsed_s: f64,
    pub monotone: bool,
    pub versions_seen: u64,
    pub bad_batches: u64,
}

/// Score `batches` round-robin in a closed loop until `stop` is set, one
/// `predict_batch` call at a time.
pub fn serve_until(
    handle: &ModelHandle,
    batches: &[Vec<FeatureVectorRef<'_>>],
    stop: &AtomicBool,
) -> ClientStats {
    let mut stats = ClientStats {
        monotone: true,
        ..ClientStats::default()
    };
    let mut out = Vec::new();
    let mut last_version = 0;
    let start = Instant::now();
    'serve: loop {
        for batch in batches {
            if stop.load(Ordering::Acquire) {
                break 'serve;
            }
            let call = Instant::now();
            let snapshot = handle.predict_batch(batch, &mut out);
            stats.latencies_us.push(secs(call.elapsed()) * 1e6);
            stats.rows += batch.len() as u64;
            let version = snapshot.version();
            if version < last_version {
                stats.monotone = false;
            }
            if version > last_version {
                stats.versions_seen += 1;
                last_version = version;
            }
            if out.len() != batch.len() || !out.iter().all(|p| (0.0..=1.0).contains(p)) {
                stats.bad_batches += 1;
            }
        }
    }
    stats.elapsed_s = secs(start.elapsed());
    stats
}

/// Median latency in microseconds of `calls` batches scored with nothing
/// else running.
pub fn idle_batch_us(
    handle: &ModelHandle,
    batches: &[Vec<FeatureVectorRef<'_>>],
    calls: usize,
) -> f64 {
    let mut out = Vec::new();
    let latencies: Vec<f64> = batches
        .iter()
        .cycle()
        .take(calls)
        .map(|batch| {
            let call = Instant::now();
            handle.predict_batch(batch, &mut out);
            secs(call.elapsed()) * 1e6
        })
        .collect();
    median(&latencies)
}

/// How one epoch's gradient pass runs in a re-drive.
#[derive(Clone, Copy)]
pub enum Pass {
    /// `run_sequential` in the configured scan order, as `Trainer` does.
    Sequential,
    /// `try_run_segmented_parallel` over contiguous segments, as
    /// `ParallelTrainer` with `PureUda` does.
    Segmented(usize),
}

/// Optional side effects of a re-drive, mirroring `TrainerConfig`.
pub struct Sinks<'a> {
    pub serving: Option<&'a ModelHandle>,
    pub checkpoint: Option<(&'a Path, usize)>,
}

/// Re-drive a fixed-epoch LR run epoch by epoch through the public entry
/// points the trainers call, each inside a span: the scan order's
/// permutation, the IGD aggregate over the executor, the objective, the
/// serving publish and the checkpoint write. Returns the final model and
/// the per-epoch losses.
pub fn redrive<S: TupleScan + ?Sized>(
    tracer: &Tracer,
    task: &LogisticRegressionTask,
    config: &TrainerConfig,
    epochs: usize,
    data: &S,
    pass: Pass,
    sinks: &Sinks<'_>,
) -> Result<(Vec<f64>, Vec<f64>), String> {
    let trainer = Trainer::new(task, config.clone());
    let n = data.tuple_count();
    let permutation = match config.scan_order {
        ScanOrder::Clustered => None,
        order => tracer.span("storage.scan.permutation", || order.permutation(n, 0)),
    };
    let mut model = task.initial_model();
    let mut losses = Vec::with_capacity(epochs);
    for epoch in 0..epochs {
        let alpha = config.step_size.at(epoch);
        let aggregate = IgdAggregate::new(task, alpha, model);
        model = match pass {
            Pass::Sequential => tracer.span("uda.executor.run_sequential", || {
                run_sequential(&aggregate, data, permutation.as_deref())
            }),
            Pass::Segmented(segments) => tracer
                .span("uda.executor.try_run_segmented_parallel", || {
                    try_run_segmented_parallel(&aggregate, data, segments)
                })
                .map_err(|p| format!("segment panic: {}", p.message))?,
        }
        .model
        .into_vec();
        let loss = tracer.span("core.trainer.objective", || trainer.objective(&model, data));
        losses.push(loss);
        if let Some(handle) = sinks.serving {
            tracer
                .span("core.serving.publish", || handle.publish(&model))
                .map_err(|e| format!("publish: {e}"))?;
        }
        if let Some((path, every)) = sinks.checkpoint {
            if (epoch + 1) % every == 0 {
                let checkpoint = TrainingCheckpoint {
                    task_name: task.name().to_string(),
                    next_epoch: epoch + 1,
                    model: model.clone(),
                    alpha_scale: 1.0,
                    retries_used: 0,
                    losses: losses.clone(),
                    scan_order: config.scan_order,
                    step_size: config.step_size,
                };
                tracer
                    .span("core.checkpoint.write", || checkpoint.write(path))
                    .map_err(|e| format!("checkpoint: {e}"))?;
            }
        }
    }
    Ok((model, losses))
}

/// Per-tuple nanoseconds of the spans of `run` named `name`, over `tuples`
/// tuple visits.
pub fn ns_per_tuple(tracer: &Tracer, run: u32, name: &str, tuples: usize) -> f64 {
    tracer.total(run, name) * 1e9 / tuples as f64
}

/// Mean duration in `scale` units (1e3 for ms, 1e6 for us) of the spans of
/// `run` named `name`.
pub fn mean_span(tracer: &Tracer, run: u32, name: &str, scale: f64) -> f64 {
    let durations = tracer.durations(run, name);
    durations.iter().sum::<f64>() * scale / durations.len().max(1) as f64
}

/// Per-metric medians over several traced passes.
#[derive(Default)]
pub struct PassMetrics(Vec<BTreeMap<&'static str, f64>>);

impl PassMetrics {
    pub fn push(&mut self, metrics: BTreeMap<&'static str, f64>) {
        self.0.push(metrics);
    }

    pub fn record(&self, out: &mut Outcome) {
        let Some(first) = self.0.first() else {
            return;
        };
        for name in first.keys() {
            let values: Vec<f64> = self.0.iter().filter_map(|m| m.get(name).copied()).collect();
            out.set(name, median(&values));
        }
    }
}

/// Sum every dense feature coordinate through the per-tuple scan surface:
/// the bare-scan probe.
pub fn feature_sum<S: TupleScan + ?Sized>(data: &S, order: Option<&[usize]>) -> f64 {
    let mut sum = 0.0;
    let mut add = |tuple: &bismarck_storage::Tuple| {
        if let Some(view) = tuple.feature_view(0) {
            for (_, v) in view.iter_entries() {
                sum += v;
            }
        }
    };
    match order {
        Some(order) => data.scan_tuples_permuted(order, &mut add),
        None => data.scan_tuples(&mut add),
    }
    std::hint::black_box(sum)
}
