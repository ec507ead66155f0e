//! In-memory layer spans for the traced run.
//!
//! A span records a name, start, end, the span that caused it (its
//! parent) and the op it belongs to. Spans wrap calls into each layer's
//! public functions from outside the program, stay in memory while the
//! run measures, and are written out as JSON lines when it ends. A
//! layer's self time is its span's duration minus the durations of its
//! child spans.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Name of the span that wraps work done only to make a layer split
/// measurable from outside (for example warming an instance with the
/// topology a timed standalone build already produced). It is recorded
/// like any other span but never counted as a layer.
pub const SCAFFOLD: &str = "trace.scaffold";

struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
    /// Index of the first span of the current op.
    op_start: usize,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            op_start: 0,
        }
    }

    /// Starts a new op; spans recorded from now on carry its id.
    pub fn begin_op(&mut self) {
        self.op += 1;
        self.op_start = self.spans.len();
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(idx);
        let v = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        v
    }

    fn dur_ms(s: &Span) -> f64 {
        (s.end_ns - s.start_ns) as f64 / 1e6
    }

    /// Self time per span name over the current op, in milliseconds.
    pub fn op_self_ms(&self) -> BTreeMap<String, f64> {
        let ops = &self.spans[self.op_start..];
        let mut out: BTreeMap<String, f64> = BTreeMap::new();
        for (k, s) in ops.iter().enumerate() {
            let children: f64 = ops
                .iter()
                .filter(|c| c.parent == Some(self.op_start + k))
                .map(Self::dur_ms)
                .sum();
            *out.entry(s.name.clone()).or_default() += Self::dur_ms(s) - children;
        }
        out
    }

    /// Wall time of the current op: its root spans' durations minus the
    /// scaffolding recorded inside them.
    pub fn op_wall_ms(&self) -> f64 {
        let ops = &self.spans[self.op_start..];
        let roots: f64 = ops
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Self::dur_ms)
            .sum();
        let scaffold: f64 = ops
            .iter()
            .filter(|s| s.name == SCAFFOLD)
            .map(Self::dur_ms)
            .sum();
        roots - scaffold
    }

    /// Writes every span as one JSON line, creating the parent directory.
    pub fn write_jsonl(&self, path: &str) -> std::io::Result<()> {
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                r#"{{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"op":{}}}"#,
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        w.flush()
    }
}

/// Per-op samples of named layer metrics, reduced to medians at the end.
#[derive(Default)]
pub struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    pub fn add(&mut self, name: impl Into<String>, v: f64) {
        self.0.entry(name.into()).or_default().push(v);
    }

    pub fn median(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| crate::median(v))
    }
}

/// Closure of a traced op split against untraced ops on the same inputs,
/// from the medians of the traced wall, the summed layer self times and
/// the untraced wall.
pub struct Closure {
    /// `trace.overhead_frac`: traced wall over untraced wall, minus 1.
    pub overhead: f64,
    /// `trace.closure_err`: distance of the summed layer self times from
    /// the untraced wall, as a share of the latter.
    pub err: f64,
}

impl Closure {
    pub fn of(traced_ms: &[f64], layers_ms: &[f64], untraced_ms: &[f64]) -> Self {
        let u = crate::median(untraced_ms);
        Closure {
            overhead: crate::median(traced_ms) / u - 1.0,
            err: (crate::median(layers_ms) - u).abs() / u,
        }
    }

    /// Counts the closure as a check of `workload`: it fails when `err`
    /// exceeds the `closure_tolerance` stated in `spec.json`.
    pub fn check(&self, workload: &str, checks: &mut crate::Checks) {
        let tolerance = crate::spec()
            .get("trace")
            .and_then(|t| t.get("closure_tolerance"))
            .and_then(|t| t.as_f64())
            .expect("spec.json states trace.closure_tolerance");
        let problems = if self.err > tolerance {
            vec![format!(
                "layer self times sum {:.1}% away from the untraced op",
                self.err * 100.0
            )]
        } else {
            Vec::new()
        };
        checks.op(&format!("{workload} closure"), &problems);
    }
}
