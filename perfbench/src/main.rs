//! perfbench: the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale full|tiny]
//! ```
//!
//! Run from the repository root. Each run makes its inputs from `--seed`,
//! sets up, repeats the workload's timed section for `--seconds` (at least
//! a few times), checks the outputs and prints, as its last line, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, measured untraced; with
//! `--trace 1` they are the per-layer ones, from a traced re-drive of the
//! same work. A line before it stamps the run with the machine's thread
//! count, the threads the workload used, the commit and the build profile.
//! The exit code is non-zero when any output check failed.

mod gen;
mod report;
mod sql_durable;
mod trace;
mod train;
mod train_columnar;
mod train_paged;
mod train_row_serve;
mod util;

use std::path::Path;
use std::process::ExitCode;

use report::Outcome;
use trace::Tracer;
use util::WorkDir;

/// A workload: it sets up, measures and checks, recording into the outcome.
type Workload = fn(&Ctx, &mut Outcome) -> Result<(), String>;

/// The workloads: name, threads used, and the function that runs it.
const WORKLOADS: &[(&str, usize, Workload)] = &[
    ("sql-durable", sql_durable::THREADS, sql_durable::run),
    (
        "train-row-serve",
        train_row_serve::THREADS,
        train_row_serve::run,
    ),
    (
        "train-columnar-parallel",
        train_columnar::THREADS,
        train_columnar::run,
    ),
    ("train-paged", train_paged::THREADS, train_paged::run),
];

/// Input sizes and repetition counts.
pub struct Sizes {
    /// Rows of the in-memory training tables (row and columnar).
    pub train_rows: usize,
    /// Rows of the paged table, its rows per segment and cached segments.
    pub paged_rows: usize,
    pub paged_chunk: usize,
    pub paged_cache: usize,
    /// The paged-shuffle probe: segments, rows per segment, cached segments.
    pub probe_segments: usize,
    pub probe_chunk: usize,
    pub probe_cache: usize,
    /// Rows loaded by `COPY` and single-row `INSERT`s after it.
    pub sql_rows: usize,
    pub inserts: usize,
    /// Fixed epoch count of every training run.
    pub epochs: usize,
    /// Rows per scoring batch, batches the client cycles through, and
    /// batches timed with nothing else running.
    pub batch_rows: usize,
    pub batches: usize,
    pub idle_calls: usize,
    /// Set-ups per run (the median is reported) and the minimum number of
    /// timed repetitions.
    pub setup_reps: usize,
    pub min_reps: usize,
}

impl Sizes {
    fn full() -> Sizes {
        Sizes {
            train_rows: 200_000,
            paged_rows: 100_000,
            paged_chunk: 1024,
            paged_cache: 12,
            probe_segments: 16,
            probe_chunk: 128,
            probe_cache: 2,
            sql_rows: 40_000,
            inserts: 1000,
            epochs: 10,
            batch_rows: 256,
            batches: 64,
            idle_calls: 2000,
            setup_reps: 5,
            min_reps: 3,
        }
    }

    /// A scale at which every workload finishes in about a second, for the
    /// smoke test.
    fn tiny() -> Sizes {
        Sizes {
            train_rows: 3000,
            paged_rows: 3000,
            paged_chunk: 256,
            paged_cache: 2,
            probe_segments: 4,
            probe_chunk: 32,
            probe_cache: 2,
            sql_rows: 1500,
            inserts: 20,
            epochs: 10,
            batch_rows: 256,
            batches: 4,
            idle_calls: 20,
            setup_reps: 1,
            min_reps: 1,
        }
    }

    fn describe(&self, workload: &str) -> String {
        match workload {
            "sql-durable" => format!(
                "{} rows x {} dense COPY, SVMTrain {} epochs, {} single-row INSERTs",
                self.sql_rows,
                gen::DIM,
                self.epochs,
                self.inserts
            ),
            "train-row-serve" | "train-columnar-parallel" => format!(
                "{} rows x {} dense, {} epochs, scoring batches of {} rows",
                self.train_rows,
                gen::DIM,
                self.epochs,
                self.batch_rows
            ),
            _ => format!(
                "{} rows x {} dense in segments of {} rows, {} cached; {} epochs",
                self.paged_rows,
                gen::DIM,
                self.paged_chunk,
                self.paged_cache,
                self.epochs
            ),
        }
    }
}

/// Everything a workload needs from the command line and the run.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub sizes: Sizes,
    pub work: WorkDir,
    pub tracer: Tracer,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    tiny: bool,
}

const USAGE: &str = "usage: perfbench --workload <sql-durable|train-row-serve|\
train-columnar-parallel|train-paged> --seed <n> --seconds <s> --trace <0|1> [--scale full|tiny]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut tiny = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} expects {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                seconds = Some(s).filter(|s| *s > 0.0);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--scale" => {
                tiny = match value.as_str() {
                    "full" => false,
                    "tiny" => true,
                    _ => return Err(bad("full or tiny")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds must be a positive number")?,
        traced: traced.ok_or("--trace is required")?,
        tiny,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(&(name, threads, run)) = WORKLOADS.iter().find(|w| w.0 == args.workload) else {
        eprintln!("perfbench: unknown workload '{}'\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let nproc = util::nproc();
    if threads > nproc {
        eprintln!("perfbench: {name} needs {threads} threads but this machine has {nproc}; refusing to oversubscribe");
        return ExitCode::from(3);
    }
    if !Path::new("crates").is_dir() {
        eprintln!("perfbench: run from the repository root (no crates/ directory here)");
        return ExitCode::from(2);
    }
    let work = match WorkDir::create(name) {
        Ok(work) => work,
        Err(e) => {
            eprintln!("perfbench: cannot create the work directory: {e}");
            return ExitCode::from(2);
        }
    };
    let sizes = if args.tiny {
        Sizes::tiny()
    } else {
        Sizes::full()
    };
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "{{\"stamp\": {{\"workload\": \"{name}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"scale\": \"{}\", \"nproc\": {nproc}, \"threads\": {threads}, \"commit\": \"{}\", \
         \"profile\": \"{profile}\", \"sizes\": \"{}\", \
         \"flush_policy\": \"fsync per WAL append and per atomic file write\"}}}}",
        args.seed,
        args.seconds,
        u8::from(args.traced),
        if args.tiny { "tiny" } else { "full" },
        util::commit(),
        sizes.describe(name),
    );
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        sizes,
        work,
        tracer: Tracer::new(),
    };

    let mut out = Outcome::default();
    if let Err(e) = run(&ctx, &mut out) {
        out.check(false, || format!("{name}: {e}"));
    }
    if ctx.traced {
        let path = Path::new(".bench_work")
            .join("traces")
            .join(format!("{name}-seed{}.jsonl", args.seed));
        let trace_id = format!("{name}:{}:{}", args.seed, std::process::id());
        if let Err(e) = ctx.tracer.write_jsonl(&path, &trace_id) {
            out.check(false, || format!("write trace {}: {e}", path.display()));
        }
    }
    println!("{}", out.result_json(ctx.traced));
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
