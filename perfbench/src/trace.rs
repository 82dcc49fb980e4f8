//! In-memory span recording for the traced run.
//!
//! Spans are recorded from the benchmark's side of each layer boundary:
//! the request span around the public call, `executor.run_test` spans
//! from a decorating [`TestExecutor`], and the harness's own
//! `bench.probe`/`bench.gen` spans. They stay in memory until the run
//! ends and are then written out as tab-separated lines.

use itqc_core::executor::TestExecutor;
use itqc_core::TestSpec;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Name of the span around one public request call.
pub const REQUEST: &str = "request";
/// Name of the per-test spans the decorator records.
pub const RUN_TEST: &str = "executor.run_test";
/// Name of a calibration-probe sample span.
pub const PROBE: &str = "bench.probe";
/// Name of an input-generation span.
pub const GEN: &str = "bench.gen";
/// Name of the fleet's summary drain-barrier span.
pub const SUMMARY: &str = "fleet.summary";

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary the span times.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request the span belongs to.
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans against one epoch.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose epoch is now.
    pub fn new() -> Self {
        Tracer { epoch: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span and returns its index for [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, request: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request });
        self.spans.len() - 1
    }

    /// Closes the span `index`.
    pub fn end(&mut self, index: usize) {
        let now = self.now_ns();
        self.spans[index].end_ns = now;
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as `index name request parent start_ns end_ns`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tname\trequest\tparent\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// A [`TestExecutor`] decorator that records one [`RUN_TEST`] span per
/// call, parented to the open request span.
pub struct TracedExec<'a, E> {
    inner: E,
    tracer: &'a mut Tracer,
    parent: usize,
}

impl<'a, E: TestExecutor> TracedExec<'a, E> {
    /// Wraps `inner`; spans go to `tracer` under the span `parent`.
    pub fn new(inner: E, tracer: &'a mut Tracer, parent: usize) -> Self {
        TracedExec { inner, tracer, parent }
    }
}

impl<E: TestExecutor> TestExecutor for TracedExec<'_, E> {
    fn n_qubits(&self) -> usize {
        self.inner.n_qubits()
    }

    fn run_test(&mut self, spec: &TestSpec, shots: usize) -> f64 {
        let request = self.tracer.spans[self.parent].request;
        let span = self.tracer.begin(RUN_TEST, request, Some(self.parent));
        let score = self.inner.run_test(spec, shots);
        self.tracer.end(span);
        score
    }

    fn note_adaptation(&mut self, couplings_compiled: usize) {
        self.inner.note_adaptation(couplings_compiled);
    }
}
