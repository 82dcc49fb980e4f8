//! The metrics registry: deterministic counters/histograms, their
//! nondeterministic counterparts, span statistics, and the JSON
//! document renderer.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Name prefixes reserved for the nondeterministic class; registering a
/// *deterministic* counter or histogram under them is a bug (it would
/// smuggle partition-dependent data into the bit-identical snapshot)
/// and panics in debug builds.
const RESERVED_ND_PREFIXES: [&str; 2] = ["nd.", "span."];

fn assert_deterministic_name(name: &str) {
    debug_assert!(
        !RESERVED_ND_PREFIXES.iter().any(|p| name.starts_with(p)),
        "deterministic metric name {name:?} uses a reserved nondeterministic prefix"
    );
}

/// A cheap cloneable handle onto one monotonic counter. Handles backing
/// a [`Registry`] entry feed its snapshots; [`Counter::detached`]
/// handles count privately (used by standalone cache constructors that
/// predate any registry).
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A free-standing counter not attached to any registry.
    pub fn detached() -> Self {
        Counter::default()
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Aggregate wall-clock statistics of one named span.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Completed span instances.
    pub count: u64,
    /// Total elapsed nanoseconds across instances.
    pub total_ns: u64,
    /// Longest single instance, nanoseconds.
    pub max_ns: u64,
}

type Hist = BTreeMap<u64, u64>;

#[derive(Default)]
struct Inner {
    det_counters: BTreeMap<String, u64>,
    det_hists: BTreeMap<String, Hist>,
    nd_counters: BTreeMap<String, u64>,
    nd_hists: BTreeMap<String, Hist>,
    spans: BTreeMap<String, SpanStat>,
    handles: BTreeMap<String, Counter>,
}

/// A set of named metrics. The deterministic members (plain counters,
/// integer histograms, registered [`Counter`] handles) merge by
/// commutative addition, so any sharding of the producing work yields
/// the same [`Registry::deterministic_snapshot`]; spans and `nd.`
/// members are reported separately and never enter it.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Returns the handle registered under `name`, creating it on first
    /// use. The handle's value appears as a deterministic counter in
    /// snapshots.
    pub fn counter(&self, name: &str) -> Counter {
        assert_deterministic_name(name);
        let mut inner = self.inner.lock().unwrap();
        inner.handles.entry(name.to_string()).or_default().clone()
    }

    /// Adds `n` to the deterministic counter `name`.
    pub fn add(&self, name: &str, n: u64) {
        assert_deterministic_name(name);
        *self.inner.lock().unwrap().det_counters.entry(name.to_string()).or_default() += n;
    }

    /// Adds `weight` to bucket `value` of the deterministic histogram
    /// `name`.
    pub fn observe(&self, name: &str, value: u64, weight: u64) {
        assert_deterministic_name(name);
        let mut inner = self.inner.lock().unwrap();
        *inner.det_hists.entry(name.to_string()).or_default().entry(value).or_default() += weight;
    }

    /// Adds `n` to the nondeterministic counter `name`.
    pub fn add_nd(&self, name: &str, n: u64) {
        *self.inner.lock().unwrap().nd_counters.entry(name.to_string()).or_default() += n;
    }

    /// Adds `weight` to bucket `value` of the nondeterministic
    /// histogram `name`.
    pub fn observe_nd(&self, name: &str, value: u64, weight: u64) {
        let mut inner = self.inner.lock().unwrap();
        *inner.nd_hists.entry(name.to_string()).or_default().entry(value).or_default() += weight;
    }

    /// Records one completed span instance of `elapsed_ns` under
    /// `name`. Span data is wall-clock and lives only in the
    /// nondeterministic section of [`Registry::document`].
    /// Looks the name up by `&str` first, so only a name's first
    /// sighting allocates — spans stay cheap on per-call paths.
    pub fn record_span(&self, name: &str, elapsed_ns: u64) {
        let mut inner = self.inner.lock().unwrap();
        match inner.spans.get_mut(name) {
            Some(stat) => {
                stat.count += 1;
                stat.total_ns += elapsed_ns;
                stat.max_ns = stat.max_ns.max(elapsed_ns);
            }
            None => {
                let first = SpanStat { count: 1, total_ns: elapsed_ns, max_ns: elapsed_ns };
                inner.spans.insert(name.to_string(), first);
            }
        }
    }

    /// The deterministic section: plain counters merged with registered
    /// handle values, plus deterministic histograms. Bit-identical
    /// across thread/worker counts for partition-invariant events.
    pub fn deterministic_snapshot(&self) -> Snapshot {
        let inner = self.inner.lock().unwrap();
        let mut counters = inner.det_counters.clone();
        for (name, handle) in &inner.handles {
            *counters.entry(name.clone()).or_default() += handle.get();
        }
        let histograms = inner
            .det_hists
            .iter()
            .map(|(k, h)| (k.clone(), h.iter().map(|(&v, &w)| (v, w)).collect()))
            .collect();
        Snapshot { counters, histograms }
    }

    /// The nondeterministic counters/histograms as a [`Snapshot`]
    /// (spans are reported only through [`Registry::document`]).
    pub fn nondeterministic_snapshot(&self) -> Snapshot {
        let inner = self.inner.lock().unwrap();
        Snapshot {
            counters: inner.nd_counters.clone(),
            histograms: inner
                .nd_hists
                .iter()
                .map(|(k, h)| (k.clone(), h.iter().map(|(&v, &w)| (v, w)).collect()))
                .collect(),
        }
    }

    /// Folds every metric of `other` into `self` (handle values fold in
    /// as plain deterministic counters). Used to merge per-subsystem
    /// registries — e.g. the fleet's — into one emitted document.
    pub fn absorb(&self, other: &Registry) {
        let det = other.deterministic_snapshot();
        let nd = other.nondeterministic_snapshot();
        let spans: Vec<(String, SpanStat)> = {
            let o = other.inner.lock().unwrap();
            o.spans.iter().map(|(k, v)| (k.clone(), *v)).collect()
        };
        let mut inner = self.inner.lock().unwrap();
        for (k, v) in det.counters {
            *inner.det_counters.entry(k).or_default() += v;
        }
        for (k, h) in det.histograms {
            let dst = inner.det_hists.entry(k).or_default();
            for (value, weight) in h {
                *dst.entry(value).or_default() += weight;
            }
        }
        for (k, v) in nd.counters {
            *inner.nd_counters.entry(k).or_default() += v;
        }
        for (k, h) in nd.histograms {
            let dst = inner.nd_hists.entry(k).or_default();
            for (value, weight) in h {
                *dst.entry(value).or_default() += weight;
            }
        }
        for (k, s) in spans {
            let dst = inner.spans.entry(k).or_default();
            dst.count += s.count;
            dst.total_ns += s.total_ns;
            dst.max_ns = dst.max_ns.max(s.max_ns);
        }
    }

    /// Clears every metric (handles are reset in place, so outstanding
    /// [`Counter`] clones keep working).
    pub fn reset(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.det_counters.clear();
        inner.det_hists.clear();
        inner.nd_counters.clear();
        inner.nd_hists.clear();
        inner.spans.clear();
        for handle in inner.handles.values() {
            handle.0.store(0, Ordering::Relaxed);
        }
    }

    /// Renders the versioned metrics document. The `"deterministic"`
    /// member is emitted on a single line so shell gates can
    /// `grep '"deterministic"'` and `diff` runs directly.
    pub fn document(&self, binary: &str, wall_seconds: f64) -> String {
        let det = self.deterministic_snapshot();
        let nd = self.nondeterministic_snapshot();
        let spans: Vec<(String, SpanStat)> = {
            let inner = self.inner.lock().unwrap();
            inner.spans.iter().map(|(k, v)| (k.clone(), *v)).collect()
        };
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"itqc_metrics_version\": 1,");
        let _ = writeln!(out, "  \"binary\": {},", json_string(binary));
        let _ = writeln!(out, "  \"deterministic\": {},", det.to_json());
        out.push_str("  \"nondeterministic\": {\n");
        let _ = writeln!(out, "    \"counters\": {},", json_counters(&nd.counters));
        let _ = writeln!(out, "    \"histograms\": {},", json_hists(&nd.histograms));
        out.push_str("    \"spans\": {");
        for (i, (name, s)) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"count\":{},\"total_ns\":{},\"max_ns\":{}}}",
                json_string(name),
                s.count,
                s.total_ns,
                s.max_ns
            );
        }
        out.push_str("}\n");
        out.push_str("  },\n");
        let _ = writeln!(out, "  \"wall_seconds\": {wall_seconds:.3}");
        out.push_str("}\n");
        out
    }
}

/// One determinism class's counters and histograms, fully ordered (the
/// maps are `BTreeMap`-backed) so equal contents render to equal JSON.
/// Deliberately has **no span field**: wall-clock data cannot be
/// represented in a snapshot, which is what makes the deterministic
/// section's bit-identity contract enforceable by type.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Counter name → total.
    pub counters: BTreeMap<String, u64>,
    /// Histogram name → ascending `(value, weight)` buckets.
    pub histograms: BTreeMap<String, Vec<(u64, u64)>>,
}

impl Snapshot {
    /// Whether the snapshot holds no data at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Renders the snapshot as one line of JSON:
    /// `{"counters":{...},"histograms":{...}}`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"counters\":{},\"histograms\":{}}}",
            json_counters(&self.counters),
            json_hists(&self.histograms)
        )
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_counters(counters: &BTreeMap<String, u64>) -> String {
    let mut out = String::from("{");
    for (i, (name, value)) in counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{}", json_string(name), value);
    }
    out.push('}');
    out
}

fn json_hists(hists: &BTreeMap<String, Vec<(u64, u64)>>) -> String {
    let mut out = String::from("{");
    for (i, (name, buckets)) in hists.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:[", json_string(name));
        for (j, (value, weight)) in buckets.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{value},{weight}]");
        }
        out.push(']');
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_order_does_not_change_the_snapshot() {
        let a = Registry::new();
        a.add("x", 1);
        a.add("y", 2);
        a.observe("h", 3, 4);
        let b = Registry::new();
        b.observe("h", 3, 4);
        b.add("y", 2);
        b.add("x", 1);
        assert_eq!(a.deterministic_snapshot(), b.deterministic_snapshot());
        assert_eq!(a.deterministic_snapshot().to_json(), b.deterministic_snapshot().to_json());
    }

    #[test]
    fn handles_fold_into_the_deterministic_section() {
        let r = Registry::new();
        let c = r.counter("cache.hits");
        c.add(3);
        r.counter("cache.hits").add(1);
        r.add("cache.hits", 2);
        assert_eq!(r.deterministic_snapshot().counters["cache.hits"], 6);
    }

    #[test]
    fn detached_counters_touch_no_registry() {
        let c = Counter::detached();
        c.add(9);
        assert_eq!(c.get(), 9);
    }

    #[test]
    fn absorb_sums_and_reset_clears() {
        let a = Registry::new();
        a.add("n", 1);
        a.observe("h", 2, 1);
        a.add_nd("nd.x", 5);
        a.record_span("phase", 10);
        let b = Registry::new();
        b.add("n", 2);
        b.record_span("phase", 7);
        a.absorb(&b);
        assert_eq!(a.deterministic_snapshot().counters["n"], 3);
        let doc = a.document("t", 1.0);
        assert!(doc.contains("\"total_ns\":17"));
        a.reset();
        assert!(a.deterministic_snapshot().is_empty());
    }

    #[test]
    fn spans_accumulate_count_total_and_max() {
        let r = Registry::new();
        for ns in [5, 20, 3] {
            r.record_span("leaf", ns);
        }
        assert!(r
            .document("t", 1.0)
            .contains("\"leaf\":{\"count\":3,\"total_ns\":28,\"max_ns\":20}"));
    }

    #[test]
    fn document_keeps_the_deterministic_section_on_one_line() {
        let r = Registry::new();
        r.add("a.b", 1);
        r.observe("a.h", 2, 3);
        r.add_nd("nd.c", 4);
        let doc = r.document("fig8", 1.5);
        let det_lines: Vec<&str> =
            doc.lines().filter(|l| l.contains("\"deterministic\"")).collect();
        assert_eq!(det_lines.len(), 1);
        assert!(
            det_lines[0].contains("{\"counters\":{\"a.b\":1},\"histograms\":{\"a.h\":[[2,3]]}}")
        );
        assert!(doc.contains("\"itqc_metrics_version\": 1"));
        assert!(doc.contains("\"wall_seconds\": 1.500"));
        assert!(doc.contains("\"nd.c\":4"));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "reserved nondeterministic prefix")]
    fn deterministic_names_reject_the_span_namespace() {
        Registry::new().add("span.sneaky", 1);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "reserved nondeterministic prefix")]
    fn deterministic_names_reject_the_nd_namespace() {
        Registry::new().counter("nd.sneaky");
    }
}
