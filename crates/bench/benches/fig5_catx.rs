//! Figure 5 bench: time for IGD to converge (w² < 0.001) on the 1-D CA-TX
//! least-squares problem under a random vs the clustered visit order.

use bismarck_core::model::{DenseModelStore, ModelStore};
use bismarck_core::task::IgdTask;
use bismarck_core::tasks::LeastSquaresTask;
use bismarck_datagen::ca_tx_table;
use bismarck_storage::{ScanOrder, Tuple, TupleScan};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn epochs_to_converge(order: ScanOrder, n: usize, max_epochs: usize) -> usize {
    let table = ca_tx_table(n);
    let task = LeastSquaresTask::new(1, 2, 1);
    let mut store = DenseModelStore::new(vec![1.0]);
    for epoch in 0..max_epochs {
        let alpha = 1.0 / (1.0 + epoch as f64);
        let mut step = |tuple: &Tuple| task.gradient_step(&mut store, tuple, alpha);
        match order.permutation(table.len(), epoch) {
            Some(perm) => table.scan_tuples_permuted(&perm, &mut step),
            None => table.scan_tuples(&mut step),
        }
        let w = store.read(0);
        if w * w < 0.001 {
            return epoch + 1;
        }
    }
    max_epochs
}

fn bench_fig5(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5_catx_time_to_converge");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(300));
    for (label, order) in [
        ("random", ScanOrder::ShuffleAlways { seed: 5 }),
        ("clustered", ScanOrder::Clustered),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &order, |b, &order| {
            b.iter(|| black_box(epochs_to_converge(order, 500, 100)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig5);
criterion_main!(benches);
