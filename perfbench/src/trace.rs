//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around calls the benchmark makes into a layer's public
//! functions (never inside the program). A span's name is
//! `<crate>.<module>.<call>`; its layer is the first two components. Spans
//! of one traced pass share a run number, and the whole trace is written
//! out as JSON lines when the benchmark ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    run: u32,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
}

pub struct Tracer {
    origin: Instant,
    state: RefCell<State>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            state: RefCell::new(State::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start a new run: later spans carry its number, which is returned.
    pub fn begin_run(&self) -> u32 {
        let mut state = self.state.borrow_mut();
        state.run += 1;
        state.run
    }

    /// Run `f` inside a span named `name`, nested under the open span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let idx = {
            let mut state = self.state.borrow_mut();
            let span = Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent: state.open.last().copied(),
                run: state.run,
            };
            state.spans.push(span);
            let idx = state.spans.len() - 1;
            state.open.push(idx);
            idx
        };
        let start = self.now_ns();
        let result = f();
        let end = self.now_ns();
        let mut state = self.state.borrow_mut();
        state.open.pop();
        let span = &mut state.spans[idx];
        span.start_ns = start;
        span.end_ns = end;
        result
    }

    /// Durations in seconds of every span of `run` named `name`.
    pub fn durations(&self, run: u32, name: &str) -> Vec<f64> {
        let state = self.state.borrow();
        state
            .spans
            .iter()
            .filter(|s| s.run == run && s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Total duration in seconds of the spans of `run` named `name`.
    pub fn total(&self, run: u32, name: &str) -> f64 {
        self.durations(run, name).iter().sum()
    }

    /// Self time in seconds of each layer in `run`: each span's duration
    /// minus the time covered by its direct children.
    pub fn self_by_layer(&self, run: u32) -> BTreeMap<String, f64> {
        let state = self.state.borrow();
        let mut self_ns: Vec<i128> = state
            .spans
            .iter()
            .map(|s| i128::from(s.end_ns - s.start_ns))
            .collect();
        for span in &state.spans {
            if let Some(parent) = span.parent {
                self_ns[parent] -= i128::from(span.end_ns - span.start_ns);
            }
        }
        let mut layers = BTreeMap::new();
        for (span, ns) in state.spans.iter().zip(self_ns) {
            if span.run == run {
                *layers.entry(layer_of(span.name).to_string()).or_insert(0.0) += ns as f64 * 1e-9;
            }
        }
        layers
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path, trace_id: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let state = self.state.borrow();
        for (id, s) in state.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"trace\":\"{trace_id}\",\"run\":{},\"id\":{id},\"parent\":{parent},\
                 \"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.run, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// `storage.scan.permutation` → `storage.scan`.
fn layer_of(name: &str) -> &str {
    match name.match_indices('.').nth(1) {
        Some((i, _)) => &name[..i],
        None => name,
    }
}
