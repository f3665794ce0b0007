//! `train-columnar-parallel`: LR over an in-memory `ColumnarTable` with
//! `ParallelTrainer`, first `PureUda{segments: 2}`, then
//! `SharedMemory{workers: 2, NoLock}`. The row store, the WAL and serving
//! are bypassed.

use std::collections::BTreeMap;

use bismarck_core::parallel::ParallelEpochStats;
use bismarck_core::tasks::LogisticRegressionTask;
use bismarck_core::{
    IgdTask, ParallelStrategy, ParallelTrainer, TrainedModel, Trainer, TrainerConfig,
    UpdateDiscipline,
};
use bismarck_storage::{ColumnarTable, ScanOrder, TupleScan};

use crate::gen::{accuracy, schema, Points, DIM};
use crate::report::Outcome;
use crate::train::{self, feature_sum, Pass, PassMetrics, Sinks};
use crate::util::{median, peak_rss_mb, reset_peak_rss, secs, time_setups, timed, Budget};
use crate::Ctx;

pub const THREADS: usize = 2;

const WORKERS: usize = 2;
const PURE_UDA: ParallelStrategy = ParallelStrategy::PureUda { segments: WORKERS };
const NO_LOCK: ParallelStrategy = ParallelStrategy::SharedMemory {
    workers: WORKERS,
    discipline: UpdateDiscipline::NoLock,
};

struct Run {
    wall_s: f64,
    trained: TrainedModel,
    stats: Vec<ParallelEpochStats>,
}

struct Rep {
    pure: Run,
    nolock: Run,
}

pub fn run(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let sizes = &ctx.sizes;
    let n = sizes.train_rows;
    let build = || columnar_table(ctx.seed, n);
    let mut setups = Vec::new();
    let table = time_setups(sizes.setup_reps, &mut setups, build)?;

    let task = LogisticRegressionTask::new(0, 1, DIM);
    let config = train::config(ScanOrder::ShuffleOnce { seed: ctx.seed }, sizes.epochs);
    let initial = Trainer::new(&task, config.clone()).objective(&task.initial_model(), &table);
    let tuples = n * sizes.epochs;

    reset_peak_rss();
    let budget = Budget::start(ctx.seconds, sizes.min_reps);
    let mut reps: Vec<Rep> = Vec::new();
    let mut passes = PassMetrics::default();
    while budget.more(reps.len()) {
        let rep = Rep {
            pure: train_parallel(&task, &config, &table, PURE_UDA)?,
            nolock: train_parallel(&task, &config, &table, NO_LOCK)?,
        };
        for (what, run) in [("PureUDA", &rep.pure), ("NoLock", &rep.nolock)] {
            let losses = run.trained.history.losses();
            train::check_model(out, what, &run.trained.model, &losses, initial);
        }
        if let Some(first) = reps.first() {
            out.check(
                train::bits_equal(&first.pure.trained.model, &rep.pure.trained.model),
                || "PureUDA runs of one seed gave different models".into(),
            );
        }
        if ctx.traced {
            passes.push(traced_pass(ctx, &task, &config, &table, &rep, out)?);
        }
        reps.push(rep);
    }
    out.set("peak_rss_mb", peak_rss_mb());

    let walls: Vec<f64> = reps
        .iter()
        .map(|r| r.pure.wall_s + r.nolock.wall_s)
        .collect();
    let pure = &reps[0].pure.trained;
    eprintln!("perfbench: timed repetitions (s): {walls:?}");
    out.set("run_s", median(&walls));
    out.set("train_tuples_per_s", 2.0 * tuples as f64 / median(&walls));
    out.set("final_loss", pure.final_loss().unwrap_or(f64::NAN));
    out.set("accuracy", accuracy(&table, &pure.model));

    if ctx.traced {
        passes.record(out);
        let gradient_ns = |run: &Run| {
            let total: f64 = run.stats.iter().map(|s| secs(s.gradient_duration)).sum();
            total * 1e9 / tuples as f64
        };
        let pure_ns: Vec<f64> = reps.iter().map(|r| gradient_ns(&r.pure)).collect();
        let nolock_ns: Vec<f64> = reps.iter().map(|r| gradient_ns(&r.nolock)).collect();
        out.set(
            "core.parallel.pureuda.gradient_ns_per_tuple",
            median(&pure_ns),
        );
        out.set(
            "core.parallel.nolock.gradient_ns_per_tuple",
            median(&nolock_ns),
        );
        // What the NoLock epoch spends outside the parallel gradient pass
        // and the shuffle is, to within publish bookkeeping, its sequential
        // loss scan.
        let loss_share: Vec<f64> = reps
            .iter()
            .map(|r| {
                let history = &r.nolock.trained.history;
                let epoch = secs(history.total_duration());
                let gradient: f64 = r
                    .nolock
                    .stats
                    .iter()
                    .map(|s| secs(s.gradient_duration))
                    .sum();
                (epoch - gradient - secs(history.total_shuffle_duration())) / epoch
            })
            .collect();
        out.set("core.parallel.nolock.loss_share", median(&loss_share));
        let epoch_ns: Vec<f64> = reps
            .iter()
            .map(|r| secs(r.pure.trained.history.total_duration()) * 1e9 / tuples as f64)
            .collect();
        out.set("core.trainer.epoch_ns_per_tuple", median(&epoch_ns));
        let shuffles: Vec<f64> = reps
            .iter()
            .map(|r| secs(r.nolock.trained.history.total_shuffle_duration()))
            .collect();
        out.set("core.trainer.shuffle_s", median(&shuffles));
        scan_probes(&table, out)?;
    }
    drop(table);
    time_setups(sizes.setup_reps, &mut setups, build)?;
    out.set("setup_s", median(&setups));
    Ok(())
}

fn columnar_table(seed: u64, n: usize) -> Result<ColumnarTable, String> {
    let points = Points::generate(seed, n);
    let mut table = ColumnarTable::new("pts", schema());
    table
        .insert_all(points.all_values())
        .map_err(|e| format!("columnar insert: {e}"))?;
    Ok(table)
}

fn train_parallel(
    task: &LogisticRegressionTask,
    config: &TrainerConfig,
    table: &ColumnarTable,
    strategy: ParallelStrategy,
) -> Result<Run, String> {
    let trainer = ParallelTrainer::new(task, config.clone(), strategy);
    let (result, wall_s) = timed(|| trainer.try_train(table));
    let (trained, stats) =
        result.map_err(|e| format!("{} training failed: {e}", strategy.label()))?;
    Ok(Run {
        wall_s,
        trained,
        stats,
    })
}

/// The traced pass: PureUDA re-driven epoch by epoch through the segmented
/// executor, then the NoLock `ParallelTrainer` run inside one span (its
/// shared-memory pass has no public per-epoch entry point).
fn traced_pass(
    ctx: &Ctx,
    task: &LogisticRegressionTask,
    config: &TrainerConfig,
    table: &ColumnarTable,
    rep: &Rep,
    out: &mut Outcome,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let tracer = &ctx.tracer;
    let run = tracer.begin_run();
    let sinks = Sinks {
        serving: None,
        checkpoint: None,
    };
    let (result, traced_s) = timed(|| -> Result<_, String> {
        let pure = train::redrive(
            tracer,
            task,
            config,
            ctx.sizes.epochs,
            table,
            Pass::Segmented(WORKERS),
            &sinks,
        )?;
        tracer.span("core.parallel.nolock_train", || {
            train_parallel(task, config, table, NO_LOCK)
        })?;
        Ok(pure)
    });
    let (model, _) = result?;
    out.check(train::bits_equal(&model, &rep.pure.trained.model), || {
        "traced PureUDA re-drive model differs from the ParallelTrainer's".into()
    });
    let tuples = table.tuple_count() * ctx.sizes.epochs;
    let untraced_s = rep.pure.wall_s + rep.nolock.wall_s;
    let mut metrics = crate::report::layer_shares(&tracer.self_by_layer(run), untraced_s, traced_s);
    metrics.insert(
        "storage.scan.permutation_ms",
        tracer.total(run, "storage.scan.permutation") * 1e3,
    );
    metrics.insert(
        "uda.executor.gradient_ns_per_tuple",
        train::ns_per_tuple(
            tracer,
            run,
            "uda.executor.try_run_segmented_parallel",
            tuples,
        ),
    );
    metrics.insert(
        "core.trainer.loss_ns_per_tuple",
        train::ns_per_tuple(tracer, run, "core.trainer.objective", tuples),
    );
    Ok(metrics)
}

/// Bare columnar scans: through the per-tuple surface, and through the
/// dense-slice fast path.
fn scan_probes(table: &ColumnarTable, out: &mut Outcome) -> Result<(), String> {
    let n = table.tuple_count() as f64;
    let tuples: Vec<f64> = (0..3)
        .map(|_| timed(|| feature_sum(table, None)).1 * 1e9 / n)
        .collect();
    let mut slices = Vec::new();
    for _ in 0..3 {
        let (result, s) = timed(|| dense_sum(table));
        result?;
        slices.push(s * 1e9 / n);
    }
    out.set("storage.columnar.scan_ns_per_tuple", median(&tuples));
    out.set("storage.columnar.dense_slice_ns_per_tuple", median(&slices));
    Ok(())
}

/// Sum every feature through `scan_dense_column`, eight accumulators wide.
fn dense_sum(table: &ColumnarTable) -> Result<f64, String> {
    let mut acc = [0.0f64; 8];
    table
        .scan_dense_column(0, &mut |slice| {
            let mut chunks = slice.chunks_exact(8);
            for chunk in &mut chunks {
                for (a, v) in acc.iter_mut().zip(chunk) {
                    *a += v;
                }
            }
            acc[0] += chunks.remainder().iter().sum::<f64>();
        })
        .map_err(|e| format!("dense column scan: {e}"))?;
    Ok(std::hint::black_box(acc.iter().sum()))
}
