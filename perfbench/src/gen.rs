//! Deterministic input generation. Every input the program under test sees
//! is made here from the workload seed, so the same seed gives the same
//! tables and files.

use bismarck_storage::{Column, DataType, Schema, Table, TupleScan, Value};

/// Feature dimension of every generated point (Forest-like, as in the paper).
pub const DIM: usize = 54;

/// Every `FLIP_EVERY`-th label is flipped after labelling by the hidden
/// hyperplane (3%), which keeps the problem from being separable. A fixed
/// share, rather than a random one, keeps the final loss from varying with
/// the seed by more than the sampling of the points does.
const FLIP_EVERY: usize = 33;

/// Seed of the hidden hyperplane. It is fixed, so every seed draws its
/// points from one distribution and quality metrics compare across seeds.
const HYPERPLANE_SEED: u64 = 0x6269_736d_6172_636b;

/// SplitMix64: a small, well-mixed generator that needs no dependency.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `0..n` (the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A value on the grid `k / 10_000`, `k` in `-10_000..=10_000`. Grid
    /// values print short and parse back exactly, so the CSV path and the
    /// in-memory path see bit-identical features.
    fn grid(&mut self) -> f64 {
        (self.below(20_001) as f64 - 10_000.0) / 10_000.0
    }
}

/// Labelled dense points: `features` holds `len() * DIM` values row-major.
pub struct Points {
    features: Vec<f64>,
    labels: Vec<f64>,
}

impl Points {
    /// `n` points drawn from `seed`, labelled ±1 by the hidden hyperplane,
    /// with a few labels flipped.
    pub fn generate(seed: u64, n: usize) -> Points {
        let mut hyperplane = SplitMix::new(HYPERPLANE_SEED);
        let hidden: Vec<f64> = (0..DIM).map(|_| hyperplane.grid()).collect();
        let mut rng = SplitMix::new(seed);
        let mut features = Vec::with_capacity(n * DIM);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let start = features.len();
            features.extend((0..DIM).map(|_| rng.grid()));
            let margin: f64 = features[start..]
                .iter()
                .zip(&hidden)
                .map(|(x, w)| x * w)
                .sum();
            let label = if margin >= 0.0 { 1.0 } else { -1.0 };
            labels.push(if i % FLIP_EVERY == 0 { -label } else { label });
        }
        Points { features, labels }
    }

    pub fn len(&self) -> usize {
        self.labels.len()
    }

    pub fn row(&self, i: usize) -> &[f64] {
        &self.features[i * DIM..(i + 1) * DIM]
    }

    /// Row `i` as table values `(vec DENSE_VEC, label DOUBLE)`.
    pub fn values(&self, i: usize) -> Vec<Value> {
        vec![
            Value::from(self.row(i).to_vec()),
            Value::Double(self.labels[i]),
        ]
    }

    /// Every row as table values.
    pub fn all_values(&self) -> impl Iterator<Item = Vec<Value>> + '_ {
        (0..self.len()).map(|i| self.values(i))
    }

    /// An in-memory row-store table of every point.
    pub fn row_table(&self, name: &str) -> Result<Table, String> {
        let mut table = Table::new(name, schema());
        for row in self.all_values() {
            table.insert(row).map_err(|e| format!("row insert: {e}"))?;
        }
        Ok(table)
    }

    /// The CSV text `COPY` reads for the first `rows` points:
    /// `x1;...;x54,label` per line.
    pub fn csv(&self, rows: usize) -> String {
        let mut text = String::with_capacity(rows * DIM * 8);
        for i in 0..rows {
            push_vector(&mut text, self.row(i), ";");
            text.push(',');
            text.push_str(&self.labels[i].to_string());
            text.push('\n');
        }
        text
    }

    /// `INSERT` statement for row `i` of table `table`.
    pub fn insert_sql(&self, table: &str, i: usize) -> String {
        let mut sql = format!("INSERT INTO {table} VALUES (ARRAY[");
        push_vector(&mut sql, self.row(i), ", ");
        sql.push_str(&format!("], {})", self.labels[i]));
        sql
    }
}

fn push_vector(out: &mut String, values: &[f64], separator: &str) {
    for (j, v) in values.iter().enumerate() {
        if j > 0 {
            out.push_str(separator);
        }
        out.push_str(&v.to_string());
    }
}

/// Schema of every generated table: `(vec DENSE_VEC, label DOUBLE)`.
pub fn schema() -> Schema {
    Schema::new(vec![
        Column::new("vec", DataType::DenseVec),
        Column::new("label", DataType::Double),
    ])
    .expect("two distinct column names form a valid schema")
}

/// Fraction of rows whose predicted sign (`w · x`) matches the label.
pub fn accuracy<S: TupleScan + ?Sized>(data: &S, model: &[f64]) -> f64 {
    let mut correct = 0usize;
    data.scan_tuples(&mut |tuple| {
        let score = tuple.feature_view(0).map_or(0.0, |x| x.dot(model));
        if score * tuple.get_double(1).unwrap_or(0.0) > 0.0 {
            correct += 1;
        }
    });
    correct as f64 / data.tuple_count().max(1) as f64
}
