//! Columnar chunked storage: text-format round-trip identity, scan
//! equivalence against the row-store, and out-of-core training.
//!
//! Three claims are pinned here:
//!
//! 1. `table_to_string` → `table_from_str` is the identity for every value
//!    the storage layer can hold — including adversarial TEXT payloads full
//!    of delimiters, quotes, newlines and `#` — and renders the *same* bytes
//!    whether the rows live in a row-store `Table` or a `ColumnarTable`.
//! 2. Every `TupleScan` order (clustered, permuted, range) over a columnar
//!    table yields tuple-for-tuple the same sequence as the row-store.
//! 3. An epoch-based trainer run over a **paged** columnar table whose
//!    segment cache is far smaller than the dataset produces bit-identical
//!    models to the same run over the in-memory row-store, for both
//!    Clustered and ShuffleOnce scan orders.
//! 4. Prefetching permuted scans visit exactly `order`, row by row, on the
//!    row-store and on in-memory and paged columnar tables, for orders
//!    shorter and longer than the prefetch distance, with duplicates and
//!    out-of-range ids; and `scan_tuples_while` stops exactly where asked.

use bismarck_core::tasks::SvmTask;
use bismarck_core::{Trainer, TrainerConfig};
use bismarck_linalg::SparseVector;
use bismarck_storage::csv::{table_from_str, tuples_to_string};
use bismarck_storage::{
    Column, ColumnarTable, DataType, ScanOrder, Schema, Table, TupleScan, Value, PREFETCH_DISTANCE,
};
use bismarck_uda::ConvergenceTest;
use proptest::prelude::*;

fn mixed_schema() -> Schema {
    Schema::new(vec![
        Column::nullable("id", DataType::Int),
        Column::nullable("x", DataType::Double),
        Column::nullable("note", DataType::Text),
        Column::nullable("vec", DataType::DenseVec),
    ])
    .unwrap()
}

/// One nullable value per column of [`mixed_schema`]. TEXT draws from the
/// full printable-ASCII-plus-control alphabet, so quotes, commas,
/// semicolons, leading `#` and embedded newlines all occur.
fn row_strategy() -> impl Strategy<Value = Vec<Value>> {
    (
        prop_oneof![
            prop::sample::select(vec![Value::Null]),
            (-1_000_000i64..1_000_000).prop_map(Value::Int),
        ],
        prop_oneof![
            prop::sample::select(vec![Value::Null]),
            (-1e6f64..1e6).prop_map(Value::Double),
        ],
        prop_oneof![
            prop::sample::select(vec![Value::Null]),
            ".{0,12}".prop_map(Value::Text),
            prop::sample::select(vec![
                "null".to_string(),
                "NULL".to_string(),
                String::new(),
                "#comment?".to_string(),
                "a,b;c\"d\\e".to_string(),
                "line\nbreak".to_string(),
            ])
            .prop_map(Value::Text),
        ],
        prop_oneof![
            prop::sample::select(vec![Value::Null]),
            prop::collection::vec(-100.0f64..100.0, 1..4).prop_map(Value::from),
        ],
    )
        .prop_map(|(a, b, c, d)| vec![a, b, c, d])
}

fn build_both(rows: &[Vec<Value>], chunk_capacity: usize) -> (Table, ColumnarTable) {
    let mut table = Table::new("t", mixed_schema());
    let mut columnar = ColumnarTable::with_chunk_capacity("t", mixed_schema(), chunk_capacity);
    for row in rows {
        table.insert(row.clone()).unwrap();
        columnar.insert(row.clone()).unwrap();
    }
    (table, columnar)
}

fn all_tuples<S: TupleScan + ?Sized>(source: &S) -> Vec<Vec<Value>> {
    let mut out = Vec::new();
    source.scan_tuples(&mut |t| out.push(t.values().to_vec()));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `table_to_string` → `table_from_str` is the identity, and the rendered
    /// text is byte-identical between row-store and columnar sources.
    #[test]
    fn text_format_roundtrips_row_and_columnar(
        rows in prop::collection::vec(row_strategy(), 0..24),
        chunk in 1usize..6,
    ) {
        let (table, columnar) = build_both(&rows, chunk);
        let text = tuples_to_string(&table);
        // The rendered text must not depend on the physical layout.
        prop_assert_eq!(&text, &tuples_to_string(&columnar));

        // And parsing it back must be the identity.
        let back = table_from_str("t", mixed_schema(), &text).unwrap();
        let restored = all_tuples(&back);
        prop_assert_eq!(restored, rows);
    }

    /// Clustered, permuted and range scans over a columnar table are
    /// tuple-for-tuple identical to the row-store scans.
    #[test]
    fn scan_orders_match_row_store(
        rows in prop::collection::vec(row_strategy(), 1..40),
        chunk in 1usize..8,
        seed in 0u64..1000,
        bounds in (0usize..45, 0usize..45),
    ) {
        let (table, columnar) = build_both(&rows, chunk);

        prop_assert_eq!(all_tuples(&table), all_tuples(&columnar));

        // A permutation with some out-of-range ids sprinkled in: both
        // scans must visit valid ids in order and skip the rest.
        let mut order: Vec<usize> = (0..rows.len()).collect();
        // Deterministic Fisher-Yates on the seed, no external RNG needed.
        let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        for i in (1..order.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            order.swap(i, (state % (i as u64 + 1)) as usize);
        }
        order.push(rows.len() + 3); // invalid id: skipped by both
        let mut from_row = Vec::new();
        table.scan_tuples_permuted(&order, &mut |t| from_row.push(t.values().to_vec()));
        let mut from_col = Vec::new();
        columnar.scan_tuples_permuted(&order, &mut |t| from_col.push(t.values().to_vec()));
        prop_assert_eq!(from_row, from_col);

        let (start, end) = bounds;
        let mut from_row = Vec::new();
        table.scan_tuples_range(start, end, &mut |t| from_row.push(t.values().to_vec()));
        let mut from_col = Vec::new();
        columnar.scan_tuples_range(start, end, &mut |t| from_col.push(t.values().to_vec()));
        prop_assert_eq!(from_row, from_col);
    }
}

/// [`mixed_schema`] plus a sparse feature column, so the row-store's
/// payload prefetch sees both vector layouts.
fn prefetch_schema() -> Schema {
    let mut columns = mixed_schema().columns().to_vec();
    columns.push(Column::nullable("sparse", DataType::SparseVec));
    Schema::new(columns).unwrap()
}

fn prefetch_row_strategy() -> impl Strategy<Value = Vec<Value>> {
    (
        row_strategy(),
        prop_oneof![
            prop::sample::select(vec![Value::Null]),
            prop::collection::vec((0usize..40, -10.0f64..10.0), 0..6)
                .prop_map(|pairs| Value::from(SparseVector::from_pairs(pairs))),
        ],
    )
        .prop_map(|(mut row, sparse)| {
            row.push(sparse);
            row
        })
}

static PAGED_CASE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// Check one source: `scan_tuples_permuted` over `order` and each of its
/// prefixes equals looking every id up with `get`, and `scan_tuples_while`
/// stops right after the visit that returns `false`, at every position.
fn assert_scans_match_get<S: TupleScan>(
    source: &S,
    rows: &[Vec<Value>],
    order: &[usize],
    get: impl Fn(usize) -> Option<Vec<Value>>,
) -> Result<(), String> {
    let d = PREFETCH_DISTANCE;
    for len in [0, d - 1, d, 2 * d + 1, order.len()] {
        let prefix = &order[..len.min(order.len())];
        let expected: Vec<Vec<Value>> = prefix.iter().filter_map(|&row| get(row)).collect();
        let mut seen = Vec::new();
        source.scan_tuples_permuted(prefix, &mut |t| seen.push(t.values().to_vec()));
        prop_assert_eq!(seen, expected);
    }
    for stop in 0..=rows.len() {
        let mut seen = Vec::new();
        source.scan_tuples_while(&mut |t| {
            seen.push(t.values().to_vec());
            seen.len() <= stop
        });
        prop_assert_eq!(&seen[..], &rows[..(stop + 1).min(rows.len())]);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The prefetch pipelines change no visit: the row-store, an in-memory
    /// columnar table and a paged one (cache of 2 segments) all yield
    /// `order.iter().filter_map(get)` for orders of every length class
    /// around the prefetch distance, with duplicates and ids past the end.
    #[test]
    fn permuted_scans_visit_exactly_the_given_order(
        rows in prop::collection::vec(prefetch_row_strategy(), 0..40),
        order in prop::collection::vec(0usize..44, 0..4 * PREFETCH_DISTANCE),
        chunk in 3usize..9,
    ) {
        let mut table = Table::new("t", prefetch_schema());
        let mut columnar = ColumnarTable::with_chunk_capacity("t", prefetch_schema(), chunk);
        let case = PAGED_CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join(format!("bismarck_prefetch_scan_{}_{case}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut paged = ColumnarTable::create_paged("t", prefetch_schema(), &dir, chunk, 2).unwrap();
        for row in &rows {
            table.insert(row.clone()).unwrap();
            columnar.insert(row.clone()).unwrap();
            paged.insert(row.clone()).unwrap();
        }

        assert_scans_match_get(&table, &rows, &order, |r| {
            table.get(r).ok().map(|t| t.values().to_vec())
        })?;
        assert_scans_match_get(&columnar, &rows, &order, |r| {
            columnar.get(r).ok().map(|t| t.into_values())
        })?;
        assert_scans_match_get(&paged, &rows, &order, |r| {
            paged.get(r).ok().map(|t| t.into_values())
        })?;
        drop(paged);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Out-of-core acceptance: training an SVM over a paged columnar table whose
/// chunk cache holds a fraction of the segments produces **bit-identical**
/// models to the in-memory row-store, under both Clustered and ShuffleOnce.
#[test]
fn paged_training_is_bit_identical_to_row_store() {
    let schema = Schema::new(vec![
        Column::new("id", DataType::Int),
        Column::new("vec", DataType::DenseVec),
        Column::new("label", DataType::Double),
    ])
    .unwrap();

    const ROWS: usize = 3_000;
    const CHUNK: usize = 128; // ~24 segments
    const CACHE: usize = 3; // far fewer than the sealed segment count

    let mut table = Table::new("d", schema.clone());
    for i in 0..ROWS {
        let y = if i % 2 == 0 { 1.0 } else { -1.0 };
        let noise = ((i * 37) % 101) as f64 / 101.0 - 0.5;
        table
            .insert(vec![
                Value::Int(i as i64),
                Value::from(vec![y * 2.0 + noise, -y + noise, noise]),
                Value::Double(y),
            ])
            .unwrap();
    }

    let dir =
        std::env::temp_dir().join(format!("bismarck_paged_train_test_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut paged = ColumnarTable::create_paged("d", schema, &dir, CHUNK, CACHE).unwrap();
    for tuple in table.scan() {
        paged.insert(tuple.values().to_vec()).unwrap();
    }
    paged.flush().unwrap();
    assert!(
        paged.segment_count() > CACHE * 4,
        "dataset must dwarf the chunk cache for this test to mean anything"
    );

    let task = SvmTask::new(1, 2, 3);
    for order in [ScanOrder::Clustered, ScanOrder::ShuffleOnce { seed: 7 }] {
        let config = TrainerConfig::default()
            .with_scan_order(order)
            .with_convergence(ConvergenceTest::FixedEpochs(6));
        let from_rows = Trainer::new(&task, config.clone()).train(&table);
        let from_paged = Trainer::new(&task, config).train(&paged);
        let row_bits: Vec<u64> = from_rows.model.iter().map(|w| w.to_bits()).collect();
        let paged_bits: Vec<u64> = from_paged.model.iter().map(|w| w.to_bits()).collect();
        assert_eq!(
            row_bits, paged_bits,
            "paged columnar training diverged from row-store under {order:?}"
        );
        assert!(from_rows.model.iter().any(|w| *w != 0.0));
    }

    // The scan genuinely paged: the cache saw misses and evictions.
    let stats = paged.pager_stats().unwrap();
    assert!(stats.misses > 0, "expected paging activity: {stats:?}");
    assert!(stats.evictions > 0, "expected evictions: {stats:?}");

    std::fs::remove_dir_all(&dir).ok();
}

/// A paged table reopened from disk serves the same tuples it was built
/// with — the scan surface works straight off the on-disk segments.
#[test]
fn reopened_paged_table_scans_identically() {
    let schema = mixed_schema();
    let dir =
        std::env::temp_dir().join(format!("bismarck_paged_reopen_test_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut paged = ColumnarTable::create_paged("t", schema.clone(), &dir, 4, 2).unwrap();
    let rows: Vec<Vec<Value>> = (0..37)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::Double(i as f64 * 0.5),
                Value::Text(format!("row #{i}, \"quoted\"\nline")),
                Value::from(vec![i as f64, -(i as f64)]),
            ]
        })
        .collect();
    for row in &rows {
        paged.insert(row.clone()).unwrap();
    }
    paged.flush().unwrap();
    drop(paged);

    let reopened = ColumnarTable::open_paged(&dir, 2).unwrap();
    assert_eq!(reopened.len(), rows.len());
    assert_eq!(all_tuples(&reopened), rows);

    std::fs::remove_dir_all(&dir).ok();
}
