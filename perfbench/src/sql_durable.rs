//! `sql-durable`: a durable `SqlSession` in a fresh directory loads a table
//! with `COPY`, trains with `SVMTrain`, scores with `SVMPredict` and
//! `PREDICT`, takes single-row `INSERT`s (one WAL fsync each), and is
//! dropped and reopened.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use bismarck_core::frontend::{load_model, persist_model};
use bismarck_core::tasks::SvmTask;
use bismarck_core::{IgdTask, TrainerConfig};
use bismarck_sql::{parse_script, QueryResult, SqlSession};
use bismarck_storage::csv::rows_from_str;
use bismarck_storage::{Database, TupleScan};

use crate::gen::{schema, Points, DIM};
use crate::report::Outcome;
use crate::trace::Tracer;
use crate::train::{bits_equal, PassMetrics};
use crate::util::{
    dir_bytes, median, peak_rss_mb, percentile, reset_peak_rss, secs, time_setups, timed, Budget,
};
use crate::Ctx;

pub const THREADS: usize = 1;

/// Constant SVM step size and epoch count passed to `SVMTrain`.
const STEP: f64 = 0.01;

/// Minimum accuracy the trained SVM must reach on its training rows.
const MIN_ACCURACY: f64 = 0.9;

/// What the script reads besides the CSV file: its size and the `INSERT`
/// statements. The generated points are not kept, so the measured peak
/// memory is the program's.
struct Inputs {
    csv_bytes: usize,
    inserts: Vec<String>,
}

/// What one run of the script measured.
struct ScriptRep {
    wall_s: f64,
    copy_s: f64,
    train_s: f64,
    insert_ms: Vec<f64>,
    reopen_s: f64,
    final_loss: f64,
    accuracy: f64,
    model: Vec<f64>,
    stored_bytes: u64,
}

pub fn run(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let sizes = &ctx.sizes;
    let csv_path = ctx.work.fresh("pts.csv");
    let build = || -> Result<Inputs, String> {
        let points = Points::generate(ctx.seed, sizes.sql_rows + sizes.inserts);
        let csv = points.csv(sizes.sql_rows);
        std::fs::write(&csv_path, &csv).map_err(|e| format!("write CSV: {e}"))?;
        let inserts = (sizes.sql_rows..points.len())
            .map(|i| points.insert_sql("pts", i))
            .collect();
        Ok(Inputs {
            csv_bytes: csv.len(),
            inserts,
        })
    };
    let mut setups = Vec::new();
    let inputs = time_setups(sizes.setup_reps, &mut setups, build)?;

    reset_peak_rss();
    let budget = Budget::start(ctx.seconds, sizes.min_reps);
    let mut reps: Vec<ScriptRep> = Vec::new();
    let mut passes = PassMetrics::default();
    while budget.more(reps.len()) {
        let dir = ctx.work.fresh(&format!("db-{}", reps.len()));
        let rep = run_script(ctx, &dir, &csv_path, &inputs, None, out)?;
        let _ = std::fs::remove_dir_all(&dir);
        if let Some(first) = reps.first() {
            out.check(bits_equal(&first.model, &rep.model), || {
                "SVMTrain runs of one seed gave different models".into()
            });
        }
        if ctx.traced {
            let run = ctx.tracer.begin_run();
            let dir = ctx.work.fresh("db-traced");
            let traced = run_script(ctx, &dir, &csv_path, &inputs, Some(&ctx.tracer), out)?;
            let _ = std::fs::remove_dir_all(&dir);
            passes.push(pass_metrics(ctx, run, &rep, &traced, inputs.csv_bytes));
        }
        reps.push(rep);
    }
    out.set("peak_rss_mb", peak_rss_mb());

    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let trains: Vec<f64> = reps.iter().map(|r| r.train_s).collect();
    eprintln!("perfbench: timed repetitions (s): {walls:?}");
    out.set("run_s", median(&walls));
    out.set(
        "train_tuples_per_s",
        (sizes.sql_rows * sizes.epochs) as f64 / median(&trains),
    );
    out.set("final_loss", reps[0].final_loss);
    out.set("accuracy", reps[0].accuracy);

    if ctx.traced {
        passes.record(out);
        let copies: Vec<f64> = reps.iter().map(|r| r.copy_s).collect();
        out.set("ingest_rows_per_s", sizes.sql_rows as f64 / median(&copies));
        let writes: Vec<f64> = reps.iter().flat_map(|r| r.insert_ms.clone()).collect();
        out.set("write_p50_ms", percentile(&writes, 50.0));
        out.set("write_p99_ms", percentile(&writes, 99.0));
        let reopens: Vec<f64> = reps.iter().map(|r| r.reopen_s).collect();
        out.set("recovery_s", median(&reopens));
        probes(ctx, &csv_path, &inputs, &reps[0].model, out)?;
    }
    drop(inputs);
    time_setups(sizes.setup_reps, &mut setups, build)?;
    out.set("setup_s", median(&setups));
    Ok(())
}

/// Run `sql` as one statement, inside a span named `span` when traced.
fn exec(
    session: &mut SqlSession,
    tracer: Option<&Tracer>,
    span: &'static str,
    sql: &str,
) -> Result<QueryResult, String> {
    let result = match tracer {
        Some(tracer) => tracer.span(span, || session.execute(sql)),
        None => session.execute(sql),
    };
    result.map_err(|e| format!("`{}`: {e}", truncate(sql)))
}

fn truncate(sql: &str) -> &str {
    &sql[..sql.len().min(60)]
}

fn open(dir: &Path, tracer: Option<&Tracer>) -> Result<SqlSession, String> {
    let result = match tracer {
        Some(tracer) => tracer.span("sql.exec.open", || SqlSession::open(dir)),
        None => SqlSession::open(dir),
    };
    result.map_err(|e| format!("open {}: {e}", dir.display()))
}

fn count(session: &mut SqlSession, tracer: Option<&Tracer>, table: &str) -> Result<i64, String> {
    let result = exec(
        session,
        tracer,
        "sql.exec.count",
        &format!("SELECT COUNT(*) FROM {table}"),
    )?;
    first_value(&result, 0)
        .and_then(|v| v.as_int())
        .ok_or_else(|| format!("COUNT(*) FROM {table} returned no integer"))
}

fn first_value(result: &QueryResult, col: usize) -> Option<&bismarck_storage::Value> {
    result.rows.first().and_then(|row| row.get(col))
}

/// The workload script, timed statement by statement.
fn run_script(
    ctx: &Ctx,
    dir: &Path,
    csv_path: &Path,
    inputs: &Inputs,
    tracer: Option<&Tracer>,
    out: &mut Outcome,
) -> Result<ScriptRep, String> {
    let sizes = &ctx.sizes;
    let rows = sizes.sql_rows as i64;
    let inserted = rows + sizes.inserts as i64;
    let start = Instant::now();
    let mut s = open(dir, tracer)?;
    exec(
        &mut s,
        tracer,
        "sql.exec.create",
        "CREATE TABLE pts (vec DENSE_VEC, label DOUBLE)",
    )?;
    let copy = format!("COPY pts FROM '{}'", csv_path.display());
    let (r, copy_s) = timed(|| exec(&mut s, tracer, "sql.exec.copy", &copy));
    r?;
    let n = count(&mut s, tracer, "pts")?;
    out.check(n == rows, || {
        format!("{n} rows after COPY, expected {rows}")
    });

    let train = format!(
        "SELECT SVMTrain('m', 'pts', 'vec', 'label', {STEP}, {})",
        sizes.epochs
    );
    let (r, train_s) = timed(|| exec(&mut s, tracer, "sql.exec.train", &train));
    let final_loss = first_value(&r?, 4)
        .and_then(|v| v.as_double())
        .ok_or("SVMTrain returned no final_loss")?;

    let predicted = exec(
        &mut s,
        tracer,
        "sql.exec.predict",
        "SELECT SVMPredict('m', 'pts', 'vec')",
    )?
    .len() as i64;
    out.check(predicted == rows, || {
        format!("SVMPredict scored {predicted} rows, expected {rows}")
    });
    let agree = "SELECT COUNT(*) FROM pts WHERE label * PREDICT('m', vec) > 0";
    let agree = exec(&mut s, tracer, "sql.exec.predict", agree)?;
    let agree = first_value(&agree, 0)
        .and_then(|v| v.as_int())
        .ok_or("PREDICT count returned no integer")?;
    let accuracy = agree as f64 / rows as f64;
    out.check(accuracy >= MIN_ACCURACY, || {
        format!("SQL accuracy {accuracy} below {MIN_ACCURACY}")
    });

    let mut insert_ms = Vec::with_capacity(inputs.inserts.len());
    let mut failed = 0;
    for sql in &inputs.inserts {
        let (r, t) = timed(|| exec(&mut s, tracer, "sql.exec.insert", sql));
        if let Err(e) = r {
            eprintln!("perfbench: {e}");
            failed += 1;
        }
        insert_ms.push(t * 1e3);
    }
    out.ops(inputs.inserts.len() as u64, failed, "single-row INSERTs");
    let n = count(&mut s, tracer, "pts")?;
    out.check(n == inserted, || {
        format!("{n} rows after INSERTs, expected {inserted}")
    });
    drop(s);

    let (s, reopen_s) = timed(|| open(dir, tracer));
    let mut s = s?;
    let n = count(&mut s, tracer, "pts")?;
    out.check(n == inserted, || {
        format!("{n} rows after reopen, expected {inserted}")
    });
    let m = count(&mut s, tracer, "m")?;
    out.check(m == DIM as i64, || {
        format!("model table has {m} rows after reopen, expected {DIM}")
    });
    let wall_s = secs(start.elapsed());
    let model = load_model(s.database(), "m").map_err(|e| format!("load model: {e}"))?;

    // Quality guard: the final loss is finite and below the SVM objective
    // of the zero model over the rows it was trained on.
    let task = SvmTask::new(0, 1, DIM);
    let zero = task.initial_model();
    let table = s.database().table("pts").map_err(|e| format!("pts: {e}"))?;
    let mut initial = task.regularizer(&zero);
    table.scan_tuples_range(0, sizes.sql_rows, &mut |t| {
        initial += task.example_loss(&zero, t)
    });
    out.check(final_loss.is_finite() && final_loss < initial, || {
        format!("SVMTrain final loss {final_loss} not finite and below the initial {initial}")
    });
    out.check(model.iter().all(|w| w.is_finite()), || {
        "SVM model has a non-finite weight".into()
    });
    drop(s);
    Ok(ScriptRep {
        wall_s,
        copy_s,
        train_s,
        insert_ms,
        reopen_s,
        final_loss,
        accuracy,
        model,
        stored_bytes: dir_bytes(dir),
    })
}

/// Layer metrics of one traced script run against the untraced run `rep`.
fn pass_metrics(
    ctx: &Ctx,
    run: u32,
    rep: &ScriptRep,
    traced: &ScriptRep,
    csv_bytes: usize,
) -> BTreeMap<&'static str, f64> {
    let tracer = &ctx.tracer;
    let mut metrics =
        crate::report::layer_shares(&tracer.self_by_layer(run), rep.wall_s, traced.wall_s);
    metrics.insert("sql.exec.copy_s", tracer.total(run, "sql.exec.copy"));
    metrics.insert("sql.exec.train_s", tracer.total(run, "sql.exec.train"));
    metrics.insert("sql.exec.predict_s", tracer.total(run, "sql.exec.predict"));
    metrics.insert(
        "storage.catalog.bytes_per_user_byte",
        traced.stored_bytes as f64 / csv_bytes as f64,
    );
    metrics
}

/// Direct calls into the layers under the SQL statements: the parser on
/// the whole script, CSV decoding of the same text, a durable catalog's
/// bulk and single-row inserts, model persistence, recovery, and the
/// training shuffle.
fn probes(
    ctx: &Ctx,
    csv_path: &Path,
    inputs: &Inputs,
    model: &[f64],
    out: &mut Outcome,
) -> Result<(), String> {
    let sizes = &ctx.sizes;
    let points = Points::generate(ctx.seed, sizes.sql_rows + sizes.inserts);
    let csv = std::fs::read_to_string(csv_path).map_err(|e| format!("read CSV: {e}"))?;
    let mut script = vec![
        "CREATE TABLE pts (vec DENSE_VEC, label DOUBLE)".to_string(),
        "COPY pts FROM 'pts.csv'".to_string(),
        format!(
            "SELECT SVMTrain('m', 'pts', 'vec', 'label', {STEP}, {})",
            sizes.epochs
        ),
        "SELECT SVMPredict('m', 'pts', 'vec')".to_string(),
        "SELECT COUNT(*) FROM pts WHERE label * PREDICT('m', vec) > 0".to_string(),
    ];
    script.extend(inputs.inserts.iter().cloned());
    let text = script.join(";\n");
    let mut parse_us = Vec::new();
    for _ in 0..3 {
        let (parsed, s) = timed(|| parse_script(&text));
        let parsed = parsed.map_err(|e| format!("parse_script: {e}"))?;
        out.check(parsed.len() == script.len(), || {
            format!(
                "parse_script gave {} statements, expected {}",
                parsed.len(),
                script.len()
            )
        });
        parse_us.push(s * 1e6);
    }
    out.set("sql.parser.parse_us", median(&parse_us));

    let (rows, decode_s) = timed(|| rows_from_str(&schema(), &csv));
    let rows = rows.map_err(|e| format!("rows_from_str: {e}"))?;
    out.set("storage.csv.decode_s", decode_s);

    let err = |e: bismarck_storage::StorageError| format!("catalog probe: {e}");
    let dir = ctx.work.fresh("catalog-probe");
    let (mut db, _) = Database::open(&dir).map_err(err)?;
    db.create_table("pts", schema()).map_err(err)?;
    let (r, insert_rows_s) = timed(|| db.insert_rows("pts", rows));
    r.map_err(err)?;
    out.set("storage.catalog.insert_rows_s", insert_rows_s);
    let mut insert_one_us = Vec::new();
    for i in sizes.sql_rows..points.len() {
        let row = points.values(i);
        let (r, s) = timed(|| db.insert_rows("pts", vec![row]));
        r.map_err(err)?;
        insert_one_us.push(s * 1e6);
    }
    out.set("storage.catalog.insert_one_us_p50", median(&insert_one_us));
    let (r, persist_s) = timed(|| persist_model(&mut db, "m", model));
    r.map_err(|e| format!("persist_model: {e}"))?;
    out.set("core.frontend.persist_model_ms", persist_s * 1e3);
    drop(db);
    let (reopened, open_s) = timed(|| Database::open(&dir));
    let (db, report) = reopened.map_err(err)?;
    out.set("storage.catalog.open_s", open_s);
    out.set(
        "storage.catalog.records_replayed",
        report.records_replayed as f64,
    );
    let n = db.table("pts").map_err(err)?.len();
    out.check(n == points.len(), || {
        format!(
            "catalog probe holds {n} rows after reopen, expected {}",
            points.len()
        )
    });
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);

    // SVMTrain runs under the session's default order.
    let order = TrainerConfig::default().scan_order;
    let permutation_ms: Vec<f64> = (0..3)
        .map(|_| timed(|| order.permutation(sizes.sql_rows, 0)).1 * 1e3)
        .collect();
    out.set("storage.scan.permutation_ms", median(&permutation_ms));
    Ok(())
}
