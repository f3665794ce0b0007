//! `train-paged`: a sequential `Trainer` runs Clustered LR over a paged
//! `ColumnarTable` whose segment cache holds about an eighth of the
//! segments. The rows are generated in random order, so the clustered scan
//! is the paper's shuffle-once done physically.

use std::collections::BTreeMap;

use bismarck_core::tasks::LogisticRegressionTask;
use bismarck_core::{IgdTask, TrainedModel, Trainer, TrainerConfig};
use bismarck_storage::{ColumnarTable, PagerStats, ScanOrder, TupleScan};

use crate::gen::{accuracy, schema, Points, DIM};
use crate::report::Outcome;
use crate::train::{self, feature_sum, Pass, PassMetrics, Sinks};
use crate::util::{median, peak_rss_mb, reset_peak_rss, secs, time_setups, timed, Budget};
use crate::Ctx;

pub const THREADS: usize = 1;

struct Rep {
    wall_s: f64,
    trained: TrainedModel,
    pager: PagerStats,
}

pub fn run(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let sizes = &ctx.sizes;
    let n = sizes.paged_rows;
    let build = || build_paged(ctx, n);
    let mut setups = Vec::new();
    let paged = time_setups(sizes.setup_reps, &mut setups, build)?;

    let task = LogisticRegressionTask::new(0, 1, DIM);
    let config = train::config(ScanOrder::Clustered, sizes.epochs);
    let initial = Trainer::new(&task, config.clone()).objective(&task.initial_model(), &paged);
    let tuples = n * sizes.epochs;

    // Only the paged table is resident from here on, so the peak is the
    // program's: its cache, the decoded segments and the trainer.
    reset_peak_rss();
    let budget = Budget::start(ctx.seconds, sizes.min_reps);
    let mut reps: Vec<Rep> = Vec::new();
    let mut passes = PassMetrics::default();
    while budget.more(reps.len()) {
        let before = stats(&paged)?;
        let (result, wall_s) = timed(|| Trainer::new(&task, config.clone()).try_train(&paged));
        let trained = result.map_err(|e| format!("paged training failed: {e}"))?;
        let pager = delta(&before, &stats(&paged)?);
        let losses = trained.history.losses();
        train::check_model(out, "paged", &trained.model, &losses, initial);
        let rep = Rep {
            wall_s,
            trained,
            pager,
        };
        if let Some(last) = reps.last() {
            out.check(
                train::bits_equal(&last.trained.model, &rep.trained.model),
                || "paged runs of one seed gave different models".into(),
            );
            out.check(last.pager == rep.pager, || {
                format!(
                    "pager counts differ between runs of one seed: {:?} then {:?}",
                    last.pager, rep.pager
                )
            });
        }
        if ctx.traced {
            passes.push(traced_pass(ctx, &task, &config, &paged, &rep, out)?);
        }
        reps.push(rep);
    }
    out.set("peak_rss_mb", peak_rss_mb());

    // The in-memory copy is built only now, outside the measured peak.
    let memory = memory_copy(ctx, n)?;

    // The same sequential Clustered run over an in-memory copy must give a
    // bit-identical model: paging may cost time, never change the result.
    let reference = Trainer::new(&task, config.clone())
        .try_train(&memory)
        .map_err(|e| format!("in-memory training failed: {e}"))?;
    out.check(
        train::bits_equal(&reference.model, &reps[0].trained.model),
        || "paged model differs from the in-memory columnar model".into(),
    );

    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let trained = &reps[0].trained;
    eprintln!("perfbench: timed repetitions (s): {walls:?}");
    out.set("run_s", median(&walls));
    out.set("train_tuples_per_s", tuples as f64 / median(&walls));
    out.set("final_loss", trained.final_loss().unwrap_or(f64::NAN));
    out.set("accuracy", accuracy(&memory, &trained.model));

    if ctx.traced {
        passes.record(out);
        let pager = &reps[0].pager;
        out.set("storage.pager.hits", pager.hits as f64);
        out.set("storage.pager.misses", pager.misses as f64);
        out.set("storage.pager.evictions", pager.evictions as f64);
        out.set("storage.pager.prefetches", pager.prefetches as f64);
        out.set("storage.pager.bytes_read", pager.bytes_read as f64);
        out.set(
            "storage.pager.hit_ratio",
            pager.hits as f64 / (pager.hits + pager.misses).max(1) as f64,
        );
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
        // Page-in and decode per tuple: a bare paged scan less the same
        // scan over the in-memory copy.
        let page_in: Vec<f64> = (0..3)
            .map(|_| {
                let paged_s = timed(|| feature_sum(&paged, None)).1;
                let memory_s = timed(|| feature_sum(&memory, None)).1;
                (paged_s - memory_s) * 1e9 / n as f64
            })
            .collect();
        out.set("storage.pager.page_in_ns_per_tuple", median(&page_in));
        out.set(
            "storage.pager.shuffled_misses_per_tuple",
            shuffled_misses_per_tuple(ctx)?,
        );
    }
    drop(paged);
    time_setups(sizes.setup_reps, &mut setups, build)?;
    out.set("setup_s", median(&setups));
    Ok(())
}

/// The paged table, written segment by segment to a fresh directory. The
/// generated points are dropped before it returns.
fn build_paged(ctx: &Ctx, n: usize) -> Result<ColumnarTable, String> {
    let sizes = &ctx.sizes;
    let points = Points::generate(ctx.seed, n);
    let err = |e: bismarck_storage::StorageError| format!("paged table: {e}");
    let mut paged = ColumnarTable::create_paged(
        "pts",
        schema(),
        &ctx.work.fresh("paged"),
        sizes.paged_chunk,
        sizes.paged_cache,
    )
    .map_err(err)?;
    paged.insert_all(points.all_values()).map_err(err)?;
    paged.flush().map_err(err)?;
    Ok(paged)
}

/// An in-memory copy of the same rows in the same segments: the reference
/// the paged run must match.
fn memory_copy(ctx: &Ctx, n: usize) -> Result<ColumnarTable, String> {
    let points = Points::generate(ctx.seed, n);
    let mut memory = ColumnarTable::with_chunk_capacity("pts", schema(), ctx.sizes.paged_chunk);
    memory
        .insert_all(points.all_values())
        .map_err(|e| format!("in-memory copy: {e}"))?;
    Ok(memory)
}

fn stats(table: &ColumnarTable) -> Result<PagerStats, String> {
    table
        .pager_stats()
        .ok_or_else(|| "paged table has no pager".into())
}

fn delta(before: &PagerStats, after: &PagerStats) -> PagerStats {
    PagerStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        evictions: after.evictions - before.evictions,
        prefetches: after.prefetches - before.prefetches,
        bytes_read: after.bytes_read - before.bytes_read,
    }
}

/// The traced re-drive of the Clustered run over the paged table.
fn traced_pass(
    ctx: &Ctx,
    task: &LogisticRegressionTask,
    config: &TrainerConfig,
    paged: &ColumnarTable,
    rep: &Rep,
    out: &mut Outcome,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let tracer = &ctx.tracer;
    let run = tracer.begin_run();
    let sinks = Sinks {
        serving: None,
        checkpoint: None,
    };
    let (result, traced_s) = timed(|| {
        train::redrive(
            tracer,
            task,
            config,
            ctx.sizes.epochs,
            paged,
            Pass::Sequential,
            &sinks,
        )
    });
    let (model, _) = result?;
    out.check(train::bits_equal(&model, &rep.trained.model), || {
        "traced re-drive model differs from the Trainer's".into()
    });
    let tuples = paged.tuple_count() * ctx.sizes.epochs;
    let mut metrics = crate::report::layer_shares(&tracer.self_by_layer(run), rep.wall_s, traced_s);
    metrics.insert(
        "uda.executor.gradient_ns_per_tuple",
        train::ns_per_tuple(tracer, run, "uda.executor.run_sequential", tuples),
    );
    metrics.insert(
        "core.trainer.loss_ns_per_tuple",
        train::ns_per_tuple(tracer, run, "core.trainer.objective", tuples),
    );
    Ok(metrics)
}

/// Pager misses per tuple of one ShuffleOnce-ordered pass over a small paged
/// table (16 segments of 128 rows, 2 cached): the paged-shuffle pathology
/// as an exact count.
fn shuffled_misses_per_tuple(ctx: &Ctx) -> Result<f64, String> {
    let sizes = &ctx.sizes;
    let rows = sizes.probe_segments * sizes.probe_chunk;
    let points = Points::generate(ctx.seed, rows);
    let err = |e: bismarck_storage::StorageError| format!("shuffle probe table: {e}");
    let mut table = ColumnarTable::create_paged(
        "probe",
        schema(),
        &ctx.work.fresh("shuffle-probe"),
        sizes.probe_chunk,
        sizes.probe_cache,
    )
    .map_err(err)?;
    table.insert_all(points.all_values()).map_err(err)?;
    table.flush().map_err(err)?;
    let order = ScanOrder::ShuffleOnce { seed: ctx.seed }
        .permutation(rows, 0)
        .unwrap_or_default();
    let before = stats(&table)?;
    table.scan_tuples_permuted(&order, &mut |tuple| {
        std::hint::black_box(tuple);
    });
    let misses = stats(&table)?.misses - before.misses;
    Ok(misses as f64 / rows as f64)
}
