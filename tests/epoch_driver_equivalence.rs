//! Equivalence oracle for the epoch driver behind `Trainer` and
//! `ParallelTrainer`.
//!
//! The reference below is a hand-written epoch loop built only from public
//! primitives: the scan order's per-epoch permutation, one `IgdAggregate`
//! pass through `run_sequential` (or `try_run_segmented_parallel` for the
//! shared-nothing scheme), and `Trainer::objective` for the loss. The
//! trainers must reproduce its model and its loss history bit for bit:
//!
//! * `Trainer` under Clustered, ShuffleOnce and ShuffleAlways;
//! * `ParallelTrainer` with `PureUda{1,2,3}`, whose merge folds segments in
//!   a fixed order and is therefore deterministic;
//! * both over a row `Table` and an in-memory `ColumnarTable`, for dense
//!   and sparse feature columns;
//! * a `PureUda` run resumed from a checkpoint against the same run left
//!   uninterrupted.

use bismarck_core::tasks::LogisticRegressionTask;
use bismarck_core::{
    IgdAggregate, IgdTask, ParallelStrategy, ParallelTrainer, StepSizeSchedule, TrainedModel,
    Trainer, TrainerConfig,
};
use bismarck_datagen::{
    dense_classification, sparse_classification, DenseClassificationConfig,
    SparseClassificationConfig, CLASSIFICATION_FEATURES_COL, CLASSIFICATION_LABEL_COL,
};
use bismarck_storage::{ColumnarTable, ScanOrder, Table, TupleScan};
use bismarck_uda::{run_sequential, try_run_segmented_parallel, ConvergenceTest};

const EPOCHS: usize = 6;

/// How the reference loop runs one pass over the data.
#[derive(Clone, Copy)]
enum Pass {
    /// One sequential IGD pass in the scan order's permutation.
    Sequential,
    /// Shared-nothing model averaging over this many segments (clustered).
    Segmented(usize),
}

/// The two fixtures: a dense and a sparse classification table, each with an
/// in-memory columnar copy whose chunks are small enough that a scan crosses
/// many chunk boundaries.
fn fixtures() -> Vec<(Table, ColumnarTable, usize)> {
    let dense = dense_classification(
        "dense",
        DenseClassificationConfig {
            examples: 240,
            dimension: 5,
            separation: 1.5,
            clustered_by_label: true,
            seed: 7,
            ..Default::default()
        },
    );
    let sparse = sparse_classification(
        "sparse",
        SparseClassificationConfig {
            examples: 200,
            vocabulary: 60,
            avg_nnz: 6,
            informative: 12,
            clustered_by_label: false,
            seed: 3,
        },
    );
    [(dense, 5), (sparse, 60)]
        .into_iter()
        .map(|(table, dim)| {
            let mut columnar =
                ColumnarTable::with_chunk_capacity(table.name(), table.schema().clone(), 32);
            for tuple in table.scan() {
                columnar.insert(tuple.values().to_vec()).unwrap();
            }
            (table, columnar, dim)
        })
        .collect()
}

fn task(dim: usize) -> LogisticRegressionTask {
    LogisticRegressionTask::new(CLASSIFICATION_FEATURES_COL, CLASSIFICATION_LABEL_COL, dim)
}

fn config(order: ScanOrder) -> TrainerConfig {
    TrainerConfig::default()
        .with_scan_order(order)
        .with_step_size(StepSizeSchedule::Geometric {
            initial: 0.2,
            decay: 0.9,
        })
        .with_convergence(ConvergenceTest::FixedEpochs(EPOCHS))
}

/// The reference epoch loop: returns the final model and the per-epoch loss.
fn reference<S: TupleScan + ?Sized>(
    task: &LogisticRegressionTask,
    config: &TrainerConfig,
    pass: Pass,
    data: &S,
) -> (Vec<f64>, Vec<f64>) {
    let trainer = Trainer::new(task, config.clone());
    let mut model = task.initial_model();
    let mut losses = Vec::with_capacity(EPOCHS);
    for epoch in 0..EPOCHS {
        let aggregate = IgdAggregate::new(task, config.step_size.at(epoch), model);
        model = match pass {
            Pass::Sequential => {
                let permutation = config.scan_order.permutation(data.tuple_count(), epoch);
                run_sequential(&aggregate, data, permutation.as_deref())
            }
            Pass::Segmented(segments) => {
                try_run_segmented_parallel(&aggregate, data, segments).expect("no worker panics")
            }
        }
        .model
        .into_vec();
        losses.push(trainer.objective(&model, data));
    }
    (model, losses)
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn assert_matches(what: &str, trained: &TrainedModel, expected: &(Vec<f64>, Vec<f64>)) {
    assert_eq!(
        bits(&trained.model),
        bits(&expected.0),
        "{what}: model differs from the reference loop"
    );
    assert_eq!(
        bits(&trained.history.losses()),
        bits(&expected.1),
        "{what}: loss history differs from the reference loop"
    );
}

#[test]
fn sequential_trainer_matches_reference_loop_in_every_scan_order() {
    for (table, columnar, dim) in fixtures() {
        let task = task(dim);
        for order in [
            ScanOrder::Clustered,
            ScanOrder::ShuffleOnce { seed: 11 },
            ScanOrder::ShuffleAlways { seed: 11 },
        ] {
            let config = config(order);
            let trainer = Trainer::new(&task, config.clone());
            let expected = reference(&task, &config, Pass::Sequential, &table);
            let what = format!("{} {}", table.name(), order.label());
            assert_matches(
                &format!("{what} row"),
                &trainer.try_train(&table).unwrap(),
                &expected,
            );
            assert_matches(
                &format!("{what} columnar"),
                &trainer.try_train(&columnar).unwrap(),
                &expected,
            );
        }
    }
}

#[test]
fn pure_uda_trainer_matches_reference_loop() {
    for (table, columnar, dim) in fixtures() {
        let task = task(dim);
        let config = config(ScanOrder::ShuffleOnce { seed: 5 });
        for segments in 1..=3 {
            let trainer = ParallelTrainer::new(
                &task,
                config.clone(),
                ParallelStrategy::PureUda { segments },
            );
            let expected = reference(&task, &config, Pass::Segmented(segments), &table);
            let what = format!("{} PureUda{{{segments}}}", table.name());
            let (row, stats) = trainer.try_train(&table).unwrap();
            assert_eq!(stats.len(), EPOCHS);
            assert_matches(&format!("{what} row"), &row, &expected);
            let (col, _) = trainer.try_train(&columnar).unwrap();
            assert_matches(&format!("{what} columnar"), &col, &expected);
        }
    }
}

#[test]
fn resumed_pure_uda_run_matches_the_uninterrupted_run() {
    let (table, columnar, dim) = fixtures().remove(0);
    let task = task(dim);
    let strategy = ParallelStrategy::PureUda { segments: 2 };
    let path = std::env::temp_dir().join(format!(
        "bismarck-epoch-driver-oracle-{}.ckpt",
        std::process::id()
    ));
    for order in [ScanOrder::Clustered, ScanOrder::ShuffleAlways { seed: 9 }] {
        let config = config(order);
        let (full, _) = ParallelTrainer::new(&task, config.clone(), strategy)
            .try_train(&table)
            .unwrap();
        assert_matches(
            "uninterrupted",
            &full,
            &reference(&task, &config, Pass::Segmented(2), &table),
        );

        // Stop after epoch 4 with a checkpoint there, then resume to the end,
        // once over each layout.
        let cut = config
            .clone()
            .with_convergence(ConvergenceTest::FixedEpochs(4))
            .with_checkpoints(&path, 2);
        ParallelTrainer::new(&task, cut, strategy)
            .try_train(&table)
            .unwrap();
        let trainer = ParallelTrainer::new(&task, config, strategy);
        let (resumed, stats) = trainer.resume_from(&table, &path).unwrap();
        assert_eq!(stats.len(), EPOCHS - 4, "only the remaining epochs run");
        assert_matches(
            "resumed row",
            &resumed,
            &(full.model.clone(), full.history.losses()),
        );
        let (resumed, _) = trainer.resume_from(&columnar, &path).unwrap();
        assert_matches(
            "resumed columnar",
            &resumed,
            &(full.model, full.history.losses()),
        );
    }
    std::fs::remove_file(&path).ok();
}
