//! `train-row-serve`: a sequential `Trainer` runs ShuffleOnce LR over an
//! in-memory row `Table`, publishing every epoch to a `ModelHandle` and
//! checkpointing every fifth, while one client thread scores fixed 256-row
//! batches in a closed loop for as long as training runs.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};

use bismarck_core::tasks::LogisticRegressionTask;
use bismarck_core::{IgdTask, ModelHandle, ServingTask, TrainedModel, Trainer, TrainerConfig};
use bismarck_storage::{ScanOrder, Table, TupleScan};

use crate::gen::{accuracy, Points, DIM};
use crate::report::Outcome;
use crate::train::{self, ClientStats, Pass, PassMetrics, Sinks};
use crate::util::{
    median, peak_rss_mb, percentile, reset_peak_rss, secs, time_setups, timed, Budget,
};
use crate::Ctx;

pub const THREADS: usize = 2;

/// Checkpoint cadence in epochs.
const CHECKPOINT_EVERY: usize = 5;

struct Rep {
    wall_s: f64,
    trained: TrainedModel,
    client: ClientStats,
}

pub fn run(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let sizes = &ctx.sizes;
    let n = sizes.train_rows;
    let build = || Points::generate(ctx.seed, n).row_table("pts");
    let mut setups = Vec::new();
    let table = time_setups(sizes.setup_reps, &mut setups, build)?;

    let task = LogisticRegressionTask::new(0, 1, DIM);
    let config = train::config(ScanOrder::ShuffleOnce { seed: ctx.seed }, sizes.epochs);
    let batches = train::batches(&table, sizes.batch_rows, sizes.batches)?;
    let initial = Trainer::new(&task, config.clone()).objective(&task.initial_model(), &table);
    let tuples = n * sizes.epochs;

    reset_peak_rss();
    let budget = Budget::start(ctx.seconds, sizes.min_reps);
    let mut reps: Vec<Rep> = Vec::new();
    let mut passes = PassMetrics::default();
    while budget.more(reps.len()) {
        let rep = train_serving(ctx, &task, &config, &table, &batches)?;
        let losses = rep.trained.history.losses();
        train::check_model(out, "row-serve", &rep.trained.model, &losses, initial);
        out.check(rep.client.monotone, || {
            "client saw a version go backwards".into()
        });
        out.ops(
            rep.client.latencies_us.len() as u64,
            rep.client.bad_batches,
            "scored batches",
        );
        if let Some(first) = reps.first() {
            out.check(
                train::bits_equal(&first.trained.model, &rep.trained.model),
                || "sequential runs of one seed gave different models".into(),
            );
        }
        if ctx.traced {
            passes.push(traced_pass(
                ctx, &task, &config, &table, &batches, &rep, out,
            )?);
        }
        reps.push(rep);
    }
    out.set("peak_rss_mb", peak_rss_mb());

    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let trained = &reps[0].trained;
    eprintln!("perfbench: timed repetitions (s): {walls:?}");
    out.set("run_s", median(&walls));
    out.set("train_tuples_per_s", tuples as f64 / median(&walls));
    out.set("final_loss", trained.final_loss().unwrap_or(f64::NAN));
    out.set("accuracy", accuracy(&table, &trained.model));

    if ctx.traced {
        passes.record(out);
        let latencies: Vec<f64> = reps
            .iter()
            .flat_map(|r| r.client.latencies_us.clone())
            .collect();
        out.set("predict_p50_us", percentile(&latencies, 50.0));
        out.set("predict_p99_us", percentile(&latencies, 99.0));
        let rows: u64 = reps.iter().map(|r| r.client.rows).sum();
        let elapsed: f64 = reps.iter().map(|r| r.client.elapsed_s).sum();
        out.set("predict_rows_per_s", rows as f64 / elapsed);
        let versions: Vec<f64> = reps.iter().map(|r| r.client.versions_seen as f64).collect();
        out.set("core.serving.versions_seen", median(&versions));
        let epoch_ns: Vec<f64> = reps
            .iter()
            .map(|r| secs(r.trained.history.total_duration()) * 1e9 / tuples as f64)
            .collect();
        out.set("core.trainer.epoch_ns_per_tuple", median(&epoch_ns));
        let shuffles: Vec<f64> = reps
            .iter()
            .map(|r| secs(r.trained.history.total_shuffle_duration()))
            .collect();
        out.set("core.trainer.shuffle_s", median(&shuffles));
        let idle = ModelHandle::with_initial(ServingTask::Logistic, trained.model.clone())
            .map_err(|e| format!("idle handle: {e}"))?;
        out.set(
            "core.serving.predict_batch_idle_us",
            train::idle_batch_us(&idle, &batches, sizes.idle_calls),
        );
        scan_probes(&table, ctx.seed, out);
    }
    drop(table);
    time_setups(sizes.setup_reps, &mut setups, build)?;
    out.set("setup_s", median(&setups));
    Ok(())
}

/// One untraced run: the `Trainer` with serving and checkpoints, and the
/// client scoring beside it.
fn train_serving(
    ctx: &Ctx,
    task: &LogisticRegressionTask,
    config: &TrainerConfig,
    table: &Table,
    batches: &[Vec<bismarck_linalg::FeatureVectorRef<'_>>],
) -> Result<Rep, String> {
    let handle = ModelHandle::new(ServingTask::Logistic, DIM);
    let config = config
        .clone()
        .with_serving(handle.clone())
        .with_checkpoints(ctx.work.fresh("trainer.ckpt"), CHECKPOINT_EVERY);
    let trainer = Trainer::new(task, config);
    let stop = AtomicBool::new(false);
    let (result, wall_s, client) = std::thread::scope(|s| {
        let client = s.spawn(|| train::serve_until(&handle, batches, &stop));
        let (result, wall_s) = timed(|| trainer.try_train(table));
        stop.store(true, Ordering::Release);
        (result, wall_s, client.join())
    });
    let client = client.map_err(|_| "serving client panicked".to_string())?;
    let trained = result.map_err(|e| format!("training failed: {e}"))?;
    Ok(Rep {
        wall_s,
        trained,
        client,
    })
}

/// The traced re-drive of the same run, with the client scoring beside it,
/// and its layer breakdown against the untraced run `rep`.
fn traced_pass(
    ctx: &Ctx,
    task: &LogisticRegressionTask,
    config: &TrainerConfig,
    table: &Table,
    batches: &[Vec<bismarck_linalg::FeatureVectorRef<'_>>],
    rep: &Rep,
    out: &mut Outcome,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let tracer = &ctx.tracer;
    let run = tracer.begin_run();
    let handle = ModelHandle::new(ServingTask::Logistic, DIM);
    let checkpoint = ctx.work.fresh("redrive.ckpt");
    let sinks = Sinks {
        serving: Some(&handle),
        checkpoint: Some((&checkpoint, CHECKPOINT_EVERY)),
    };
    let stop = AtomicBool::new(false);
    let (result, traced_s, client) = std::thread::scope(|s| {
        let client = s.spawn(|| train::serve_until(&handle, batches, &stop));
        let (result, traced_s) = timed(|| {
            train::redrive(
                tracer,
                task,
                config,
                ctx.sizes.epochs,
                table,
                Pass::Sequential,
                &sinks,
            )
        });
        stop.store(true, Ordering::Release);
        (result, traced_s, client.join())
    });
    client.map_err(|_| "serving client panicked".to_string())?;
    let (model, _) = result?;
    out.check(train::bits_equal(&model, &rep.trained.model), || {
        "traced re-drive model differs from the Trainer's".into()
    });
    let tuples = table.tuple_count() * ctx.sizes.epochs;
    let mut metrics = crate::report::layer_shares(&tracer.self_by_layer(run), rep.wall_s, traced_s);
    metrics.insert(
        "storage.scan.permutation_ms",
        tracer.total(run, "storage.scan.permutation") * 1e3,
    );
    metrics.insert(
        "uda.executor.gradient_ns_per_tuple",
        train::ns_per_tuple(tracer, run, "uda.executor.run_sequential", tuples),
    );
    metrics.insert(
        "core.trainer.loss_ns_per_tuple",
        train::ns_per_tuple(tracer, run, "core.trainer.objective", tuples),
    );
    metrics.insert(
        "core.serving.publish_us",
        train::mean_span(tracer, run, "core.serving.publish", 1e6),
    );
    metrics.insert(
        "core.checkpoint.write_ms",
        train::mean_span(tracer, run, "core.checkpoint.write", 1e3),
    );
    Ok(metrics)
}

/// Bare row-store scans summing every feature, in storage order and in the
/// ShuffleOnce order: the gap is the data-order cost.
fn scan_probes(table: &Table, seed: u64, out: &mut Outcome) {
    let n = table.tuple_count();
    let order = ScanOrder::ShuffleOnce { seed }
        .permutation(n, 0)
        .unwrap_or_default();
    let storage: Vec<f64> = (0..3)
        .map(|_| timed(|| train::feature_sum(table, None)).1 * 1e9 / n as f64)
        .collect();
    let permuted: Vec<f64> = (0..3)
        .map(|_| timed(|| train::feature_sum(table, Some(&order))).1 * 1e9 / n as f64)
        .collect();
    out.set("storage.table.scan_ns_per_tuple", median(&storage));
    out.set(
        "storage.table.scan_permuted_ns_per_tuple",
        median(&permuted),
    );
}
