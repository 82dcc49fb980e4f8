//! `--metrics[=PATH]` plumbing for the harness binaries.
//!
//! [`init`] flips the `itqc_obs` event layer on when the run asked for
//! metrics; [`emit_if_requested`] renders the global registry's
//! versioned JSON document at the end of the run. The document goes to stderr or a sidecar file, never
//! stdout: every determinism gate in CI diffs stdout, and `--metrics`
//! must leave it byte-identical.

use crate::args::{Args, MetricsSink};
use std::time::Duration;

/// Enables the observability layer if this run wants it (either sink
/// form of `--metrics`). Call once at binary startup, before any work
/// worth counting.
pub fn init(args: &Args) {
    if args.metrics.is_some() {
        itqc_obs::set_enabled(true);
    }
}

/// Flushes this thread's event shard and emits the global registry's
/// document for `binary` to the requested sink. No-op without
/// `--metrics`.
pub fn emit_if_requested(binary: &str, args: &Args, wall: Duration) {
    if let Some(sink) = &args.metrics {
        itqc_obs::event::flush();
        let doc = itqc_obs::global().document(binary, wall.as_secs_f64());
        write_doc(sink, &doc);
    }
}

/// Writes an already-rendered document to a sink (the fleet binaries
/// assemble merged documents themselves).
pub fn write_doc(sink: &MetricsSink, doc: &str) {
    match sink {
        MetricsSink::Stderr => eprint!("{doc}"),
        MetricsSink::File(path) => {
            if let Err(e) = std::fs::write(path, doc) {
                eprintln!("metrics: cannot write {path}: {e}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_sink_writes_the_document() {
        let path = std::env::temp_dir().join("itqc_obs_metrics_sink_test.json");
        let sink = MetricsSink::File(path.to_string_lossy().into_owned());
        write_doc(&sink, "{\"ok\":1}\n");
        let read = std::fs::read_to_string(&path).unwrap();
        assert_eq!(read, "{\"ok\":1}\n");
        let _ = std::fs::remove_file(&path);
    }
}
