//! Multiplexed reservoir sampling (MRS) — Section 3.4 and Figure 6.
//!
//! When a dataset is too large to shuffle even once, the classical fallback
//! is to subsample it with a reservoir and train only on the sample — but the
//! reservoir throws away data that could have helped the model converge.
//! MRS multiplexes gradient steps over *both* streams:
//!
//! * the **I/O Worker** scans the table in storage order, offers each tuple
//!   to a reservoir, and performs a gradient step on every tuple the
//!   reservoir does *not* keep (the "dropped example d" of Figure 6);
//! * the **Memory Worker** concurrently loops over the buffer filled during
//!   the previous pass, performing gradient steps on that
//!   without-replacement sample;
//! * both update a model in shared memory with NoLock (Hogwild!) updates;
//! * after each pass the buffers swap, and the Memory Worker is signalled by
//!   polling a shared integer.

use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};
use std::time::Duration;

use bismarck_storage::reservoir::ReservoirOutcome;
use bismarck_storage::{ReservoirSampler, SharedModel, Table, Tuple};
use bismarck_uda::{ConvergenceTest, EpochOutcome, EpochRunner, TrainingHistory};
use parking_lot::RwLock;

use crate::model::{ModelStore, NoLockStore};
use crate::stepsize::StepSizeSchedule;
use crate::task::{IgdTask, ProximalPolicy};
use crate::trainer::{objective, TrainedModel};

/// Configuration of the MRS trainer.
#[derive(Debug, Clone, Copy)]
pub struct MrsConfig {
    /// Reservoir / buffer capacity in tuples (the paper uses ~1–10% of the
    /// dataset).
    pub buffer_size: usize,
    /// Step-size schedule indexed by pass number.
    pub step_size: StepSizeSchedule,
    /// Stopping condition (each I/O pass counts as one epoch).
    pub convergence: ConvergenceTest,
    /// RNG seed for the reservoir.
    pub seed: u64,
    /// Whether to run the concurrent Memory Worker. Disabling it degrades
    /// MRS to plain "gradient on the non-sampled stream", which is useful
    /// for ablations.
    pub memory_worker: bool,
    /// Bounded window the I/O Worker grants the Memory Worker at shutdown to
    /// drain at least one sweep of the final buffer (on loaded or
    /// single-core hosts the worker may otherwise never be scheduled during
    /// a short run). `Duration::ZERO` disables the wait entirely — the knob
    /// a governed deadline should set when there is no time left to spend.
    pub drain_window: Duration,
}

impl Default for MrsConfig {
    fn default() -> Self {
        MrsConfig {
            buffer_size: 1024,
            step_size: StepSizeSchedule::default(),
            convergence: ConvergenceTest::FixedEpochs(10),
            seed: 42,
            memory_worker: true,
            drain_window: Duration::from_millis(200),
        }
    }
}

/// Signal values polled by the Memory Worker.
const SIGNAL_IDLE: i64 = -1;
const SIGNAL_STOP: i64 = -2;

/// Statistics reported by an MRS training run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MrsStats {
    /// Gradient steps taken by the I/O Worker (on dropped tuples).
    pub io_steps: u64,
    /// Gradient steps taken by the Memory Worker (on buffered tuples).
    pub memory_steps: u64,
    /// Number of buffer swaps performed.
    pub buffer_swaps: u64,
}

/// The multiplexed-reservoir-sampling trainer.
#[derive(Debug, Clone)]
pub struct MrsTrainer<'a, T: IgdTask> {
    task: &'a T,
    config: MrsConfig,
}

impl<'a, T: IgdTask> MrsTrainer<'a, T> {
    /// Create an MRS trainer.
    pub fn new(task: &'a T, config: MrsConfig) -> Self {
        MrsTrainer { task, config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MrsConfig {
        &self.config
    }

    /// Train on a table (visited in storage order — MRS exists precisely for
    /// data that cannot be shuffled).
    pub fn train(&self, table: &Table) -> (TrainedModel, MrsStats) {
        let task = self.task;
        let config = self.config;
        let shared = SharedModel::from_slice(&task.initial_model());

        // Double buffer: the Memory Worker iterates one buffer while the I/O
        // Worker's reservoir fills the other.
        let buffers = [
            RwLock::new(Vec::<Tuple>::new()),
            RwLock::new(Vec::<Tuple>::new()),
        ];
        let signal = AtomicI64::new(SIGNAL_IDLE);
        let memory_steps = AtomicUsize::new(0);

        let mut io_steps: u64 = 0;
        let mut buffer_swaps: u64 = 0;
        let mut history = TrainingHistory::default();

        std::thread::scope(|scope| {
            // Memory Worker: poll the signal, loop over the indicated buffer.
            if config.memory_worker {
                let shared_clone = shared.clone();
                let buffers = &buffers;
                let signal = &signal;
                let memory_steps = &memory_steps;
                scope.spawn(move || {
                    let mut store = NoLockStore::new(shared_clone);
                    loop {
                        let s = signal.load(Ordering::Acquire);
                        if s == SIGNAL_STOP {
                            break;
                        }
                        if s == SIGNAL_IDLE {
                            std::thread::yield_now();
                            continue;
                        }
                        let buffer = buffers[s as usize].read();
                        if buffer.is_empty() {
                            drop(buffer);
                            std::thread::yield_now();
                            continue;
                        }
                        // One sweep over the buffer; the step size mirrors
                        // the I/O worker's current pass (read from the
                        // signal's upper bits would be overkill — we use the
                        // initial step size, which is what the buffer's
                        // examples would have received when sampled).
                        let alpha = config.step_size.at(0);
                        for tuple in buffer.iter() {
                            task.gradient_step(&mut store, tuple, alpha);
                            memory_steps.fetch_add(1, Ordering::Relaxed);
                        }
                        drop(buffer);
                        std::thread::yield_now();
                    }
                });
            }

            // I/O Worker (this thread): reservoir-sample each pass, stepping
            // on dropped tuples; swap buffers between passes.
            let runner = EpochRunner::new(config.convergence);
            let mut reservoir: ReservoirSampler<Tuple> =
                ReservoirSampler::new(config.buffer_size, config.seed);
            history = runner.run(|epoch| {
                let alpha = config.step_size.at(epoch);
                let mut store = NoLockStore::new(shared.clone());
                for tuple in table.scan() {
                    match reservoir.offer(tuple.clone()) {
                        ReservoirOutcome::StoredInEmptySlot => {}
                        ReservoirOutcome::Replaced(dropped)
                        | ReservoirOutcome::Rejected(dropped) => {
                            task.gradient_step(&mut store, &dropped, alpha);
                            io_steps += 1;
                        }
                    }
                }

                // Publish the current reservoir contents into the buffer the
                // Memory Worker is *not* reading, then swap.
                let target = (epoch % 2) as i64;
                {
                    let mut buffer = buffers[target as usize].write();
                    buffer.clear();
                    buffer.extend(reservoir.items().iter().cloned());
                }
                signal.store(target, Ordering::Release);
                buffer_swaps += 1;

                // Per-epoch proximal step (MRS uses the lock-free shared
                // model, so hard constraints are enforced between passes).
                if task.proximal_policy() != ProximalPolicy::None {
                    let mut snapshot = shared.snapshot();
                    task.proximal_step(&mut snapshot, alpha);
                    shared.overwrite(&snapshot);
                }

                EpochOutcome {
                    loss: objective(task, &shared.snapshot(), table),
                    gradient_norm: None,
                    shuffle_duration: Duration::ZERO,
                    retries: 0,
                }
            });

            // Graceful shutdown: give the Memory Worker a bounded window
            // (`config.drain_window`) to drain at least one sweep of the
            // final buffer before stopping, so the buffered sample is not
            // silently wasted when the worker was never scheduled.
            if config.memory_worker
                && config.buffer_size > 0
                && !table.is_empty()
                && config.drain_window > Duration::ZERO
            {
                let deadline = std::time::Instant::now() + config.drain_window;
                while memory_steps.load(Ordering::Relaxed) == 0
                    && std::time::Instant::now() < deadline
                {
                    std::thread::yield_now();
                }
            }
            signal.store(SIGNAL_STOP, Ordering::Release);
        });

        let model = shared.snapshot();
        let stats = MrsStats {
            io_steps,
            memory_steps: memory_steps.load(Ordering::Relaxed) as u64,
            buffer_swaps,
        };
        (
            TrainedModel {
                task_name: task.name(),
                model,
                history,
            },
            stats,
        )
    }
}

/// Plain subsampling baseline: fill a reservoir in one pass, then train only
/// on the sample for the remaining epochs. This is the "Subsampling" line of
/// Figure 10.
pub fn subsampling_train<T: IgdTask>(
    task: &T,
    table: &Table,
    buffer_size: usize,
    step_size: StepSizeSchedule,
    convergence: ConvergenceTest,
    seed: u64,
) -> TrainedModel {
    // One pass to build the without-replacement sample.
    let mut reservoir: ReservoirSampler<Tuple> = ReservoirSampler::new(buffer_size, seed);
    for tuple in table.scan() {
        reservoir.offer(tuple.clone());
    }
    let sample = reservoir.into_items();

    let mut model = task.initial_model();
    let runner = EpochRunner::new(convergence);
    let history = runner.run(|epoch| {
        let alpha = step_size.at(epoch);
        let mut store = crate::model::DenseModelStore::new(std::mem::take(&mut model));
        for tuple in &sample {
            task.gradient_step(&mut store, tuple, alpha);
            if task.proximal_policy() == ProximalPolicy::PerStep {
                let mut snapshot = store.snapshot();
                task.proximal_step(&mut snapshot, alpha);
                store = crate::model::DenseModelStore::new(snapshot);
            }
        }
        model = store.into_vec();
        if task.proximal_policy() == ProximalPolicy::PerEpoch {
            task.proximal_step(&mut model, alpha);
        }
        // Loss is still measured over the FULL table: the question Figure 10
        // asks is how well the subsample-trained model does on all the data.
        EpochOutcome {
            loss: objective(task, &model, table),
            gradient_norm: None,
            shuffle_duration: Duration::ZERO,
            retries: 0,
        }
    });

    TrainedModel {
        task_name: task.name(),
        model,
        history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasks::LogisticRegressionTask;
    use bismarck_storage::{Column, DataType, Schema, Value};
    use rand::rngs::StdRng;
    use rand::Rng;
    use rand::SeedableRng;

    /// Clustered (label-sorted) classification data: the regime MRS targets.
    fn clustered_table(n: usize, seed: u64) -> Table {
        let schema = Schema::new(vec![
            Column::new("vec", DataType::DenseVec),
            Column::new("label", DataType::Double),
        ])
        .unwrap();
        let mut t = Table::new("data", schema);
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..n {
            let y = if i < n / 2 { 1.0 } else { -1.0 };
            let x = vec![
                y * 1.5 + rng.gen_range(-0.5..0.5),
                -y + rng.gen_range(-0.5..0.5),
            ];
            t.insert(vec![Value::from(x), Value::Double(y)]).unwrap();
        }
        t
    }

    fn lr_task() -> LogisticRegressionTask {
        LogisticRegressionTask::new(0, 1, 2)
    }

    #[test]
    fn mrs_reduces_loss_and_reports_stats() {
        let table = clustered_table(400, 3);
        let task = lr_task();
        let config = MrsConfig {
            buffer_size: 40,
            step_size: StepSizeSchedule::Constant(0.1),
            convergence: ConvergenceTest::FixedEpochs(5),
            seed: 7,
            memory_worker: true,
            ..MrsConfig::default()
        };
        let zero_loss: f64 = {
            let zero = task.initial_model();
            table.scan().map(|tup| task.example_loss(&zero, tup)).sum()
        };
        let (trained, stats) = MrsTrainer::new(&task, config).train(&table);
        assert!(trained.final_loss().unwrap() < zero_loss * 0.7);
        assert!(stats.io_steps > 0, "I/O worker must step on dropped tuples");
        assert!(stats.memory_steps > 0, "memory worker must run");
        assert_eq!(stats.buffer_swaps, 5);
        assert_eq!(trained.epochs(), 5);
    }

    #[test]
    fn mrs_without_memory_worker_still_trains() {
        let table = clustered_table(200, 5);
        let task = lr_task();
        let config = MrsConfig {
            buffer_size: 20,
            step_size: StepSizeSchedule::Constant(0.1),
            convergence: ConvergenceTest::FixedEpochs(3),
            memory_worker: false,
            seed: 1,
            ..MrsConfig::default()
        };
        let (trained, stats) = MrsTrainer::new(&task, config).train(&table);
        assert_eq!(stats.memory_steps, 0);
        assert!(stats.io_steps > 0);
        assert!(trained.final_loss().unwrap().is_finite());
    }

    #[test]
    fn subsampling_trains_only_on_the_sample() {
        let table = clustered_table(300, 9);
        let task = lr_task();
        let trained = subsampling_train(
            &task,
            &table,
            30,
            StepSizeSchedule::Constant(0.1),
            ConvergenceTest::FixedEpochs(10),
            11,
        );
        assert_eq!(trained.epochs(), 10);
        assert!(trained.final_loss().unwrap().is_finite());
    }

    #[test]
    fn mrs_converges_at_least_as_well_as_subsampling_on_clustered_data() {
        let table = clustered_table(600, 13);
        let task = lr_task();
        let epochs = 6;
        let buffer = 60;
        let (mrs, _) = MrsTrainer::new(
            &task,
            MrsConfig {
                buffer_size: buffer,
                step_size: StepSizeSchedule::Constant(0.1),
                convergence: ConvergenceTest::FixedEpochs(epochs),
                seed: 21,
                memory_worker: true,
                ..MrsConfig::default()
            },
        )
        .train(&table);
        let sub = subsampling_train(
            &task,
            &table,
            buffer,
            StepSizeSchedule::Constant(0.1),
            ConvergenceTest::FixedEpochs(epochs),
            21,
        );
        // MRS uses strictly more data per pass, so after the same number of
        // passes it should not be meaningfully worse.
        assert!(mrs.final_loss().unwrap() <= sub.final_loss().unwrap() * 1.1);
    }

    #[test]
    fn default_config_is_sane() {
        let config = MrsConfig::default();
        assert!(config.buffer_size > 0);
        assert!(config.memory_worker);
        let task = lr_task();
        let trainer = MrsTrainer::new(&task, config);
        assert_eq!(trainer.config().buffer_size, 1024);
    }
}
