//! End-to-end determinism contract of the `itqc_obs` subsystem.
//!
//! The deterministic section of a metrics snapshot must be bit-identical
//! at any thread/worker count: every entry is a partition-invariant
//! logical-work total merged by commutative addition. These tests pin
//! that contract across the bench layer (fig8 at `threads` 1/2/8), the
//! fleet layer (`workers` 1/8), the dense-vs-analytic backend split,
//! and the class boundary itself (wall-clock spans and `nd.` members
//! can never leak into the deterministic snapshot).
//!
//! The ambient event layer folds into one process-global registry, so
//! every test that touches it serialises on [`obs_lock`] and resets the
//! registry around its measurement.

use itqc::fleet::{Fleet, FleetConfig};
use itqc::obs::{self, Snapshot};
use itqc::prelude::BackendChoice;
use itqc_bench::{fig8_curve, fig8_threshold, table2_identification_rate};
use itqc_core::DecoderPolicy;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Serialises tests that use the process-global ambient registry.
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    // A poisoned lock only means another obs test failed; the registry
    // is reset at the top of every capture, so continue regardless.
    LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `work` with the event layer enabled against a freshly reset
/// global registry and returns the deterministic snapshot it produced.
/// Leaves the layer disabled and the registry clean.
fn capture_det<R>(work: impl FnOnce() -> R) -> (R, Snapshot) {
    obs::global().reset();
    obs::set_enabled(true);
    let out = work();
    // Worker threads flushed when they finished; fold this thread's
    // own shard before reading.
    obs::event::flush();
    let snap = obs::global().deterministic_snapshot();
    obs::set_enabled(false);
    obs::global().reset();
    (out, snap)
}

/// Tentpole contract on the bench path: the deterministic snapshot of a
/// fig8 calibrate-plus-curve run is bit-identical at 1, 2, and 8
/// threads, down to the JSON rendering.
#[test]
fn fig8_deterministic_snapshot_is_thread_invariant() {
    let _guard = obs_lock();
    let mut snaps = Vec::new();
    for threads in [1usize, 2, 8] {
        let (_curve, snap) = capture_det(|| {
            let thr = fig8_threshold(6, 2, 24, threads, BackendChoice::Auto, 31);
            fig8_curve(6, 2, thr, 12, threads, BackendChoice::Auto, 77)
        });
        assert!(!snap.is_empty(), "fig8 must emit deterministic events");
        snaps.push(snap);
    }
    assert_eq!(snaps[0], snaps[1], "threads=1 vs threads=2");
    assert_eq!(snaps[0], snaps[2], "threads=1 vs threads=8");
    assert_eq!(snaps[0].to_json(), snaps[2].to_json(), "JSON rendering");
}

/// Same contract on the fleet path (the `loadgen --workers` axis): the
/// merged ambient + fleet-registry deterministic snapshot after a run
/// does not depend on the worker count.
#[test]
fn fleet_deterministic_snapshot_is_worker_invariant() {
    let _guard = obs_lock();
    let mut snaps = Vec::new();
    for workers in [1usize, 8] {
        obs::global().reset();
        obs::set_enabled(true);
        let config = FleetConfig {
            traps: 6,
            workers,
            seed: 11,
            n_qubits: 7,
            canary_cadence_min: 2,
            arrival_rate_per_min: 3.0,
            ..FleetConfig::default()
        };
        let mut fleet = Fleet::new(config);
        fleet.run_minutes(12);
        // Mirror the fleetd `metrics` command: scheduler-side flush,
        // then merge the ambient and per-fleet registries.
        obs::event::flush();
        let merged = obs::Registry::new();
        merged.absorb(obs::global());
        merged.absorb(fleet.obs());
        let snap = merged.deterministic_snapshot();
        assert!(
            snap.counters.contains_key("fleet.jobs.completed"),
            "fleet registry must contribute its handle-backed counters"
        );
        snaps.push(snap);
        obs::set_enabled(false);
        obs::global().reset();
    }
    assert_eq!(snaps[0], snaps[1], "workers=1 vs workers=8");
}

/// Where the dense and analytic backends share a code path (the
/// component-factorised sampler), their deterministic counters must
/// agree exactly: same calls, same shots, same component structure.
#[test]
fn dense_and_analytic_agree_on_shared_deterministic_counters() {
    let _guard = obs_lock();
    let mut snaps = Vec::new();
    for backend in [BackendChoice::Analytic, BackendChoice::Dense] {
        let (_thr, snap) = capture_det(|| fig8_threshold(5, 2, 16, 1, backend, 13));
        assert!(
            snap.counters.get("backend.sample.calls").copied().unwrap_or(0) > 0,
            "{backend:?} must record sampler activity"
        );
        snaps.push(snap);
    }
    let (analytic, dense) = (&snaps[0], &snaps[1]);
    for name in ["backend.sample.calls", "backend.sample.components", "backend.shots.drawn"] {
        assert_eq!(analytic.counters.get(name), dense.counters.get(name), "{name}");
    }
    assert_eq!(
        analytic.histograms.get("backend.sample.component_qubits_draws"),
        dense.histograms.get("backend.sample.component_qubits_draws"),
        "component-size histogram"
    );
}

/// The class boundary: wall-clock spans and nondeterministic events are
/// reported in the document's nondeterministic section only — nothing
/// of either kind can appear in the deterministic snapshot, and the
/// [`Snapshot`] type itself carries no span data at all.
#[test]
fn spans_and_nd_events_never_enter_the_deterministic_snapshot() {
    let _guard = obs_lock();
    obs::global().reset();
    obs::set_enabled(true);
    {
        let _phase = obs::span::timed("boundary.phase");
        obs::event::add("boundary.work", 3);
        obs::event::add_nd("boundary.cache_traffic", 5);
        obs::event::observe_nd("boundary.cache_depth", 2, 1);
    }
    obs::event::flush();
    let det = obs::global().deterministic_snapshot();
    let nd = obs::global().nondeterministic_snapshot();
    obs::set_enabled(false);
    obs::global().reset();

    assert_eq!(det.counters.get("boundary.work"), Some(&3));
    assert!(!det.counters.contains_key("boundary.cache_traffic"));
    assert!(!det.histograms.contains_key("boundary.cache_depth"));
    assert_eq!(nd.counters.get("boundary.cache_traffic"), Some(&5));
    assert_eq!(nd.histograms.get("boundary.cache_depth"), Some(&vec![(2, 1)]));
    // Spans live in neither snapshot class: the Snapshot type has no
    // span field, so the deterministic JSON cannot mention one.
    let json = det.to_json();
    assert!(!json.contains("span"), "det snapshot must carry no span data: {json}");
}

/// The measured-attribution leaves: a decoder-bound Table II cell
/// opens every leaf span `make attribution` sums, and its decoder work
/// counter (`core.decoder.covers_ranked`) is thread-invariant. With the
/// layer off, no span is recorded at all.
#[test]
fn attribution_leaf_spans_appear_when_the_layer_is_on() {
    let _guard = obs_lock();
    let leaves = [
        "core.executor.run_test",
        "core.protocol.plan",
        "core.decoder.covers",
        "core.decoder.rank",
    ];
    let cell = |threads| table2_identification_rate(8, 3, 6, threads, DecoderPolicy::Ranked, 5);

    obs::global().reset();
    obs::set_enabled(false);
    cell(1);
    let idle = obs::global().document("unit", 0.0);
    for leaf in leaves {
        assert!(!idle.contains(leaf), "{leaf} recorded while the layer was off");
    }

    let mut ranked = Vec::new();
    for threads in [1usize, 8] {
        let (_, snap) = capture_det(|| {
            cell(threads);
            let doc = obs::global().document("unit", 0.0);
            for leaf in leaves {
                assert!(doc.contains(&format!("\"{leaf}\":{{\"count\":")), "{leaf} missing");
            }
        });
        let covers = snap.counters.get("core.decoder.covers_ranked").copied().unwrap_or(0);
        assert!(covers > 0, "a 3-fault cell must rank covers");
        ranked.push(covers);
    }
    assert_eq!(ranked[0], ranked[1], "covers ranked at threads=1 vs 8");
}

/// The decoder's forward-model counter on a cell of `table2 --fast`
/// (8 qubits, 3 faults, its trial count and seed): the rows the ranked
/// decoder tabulates are a function of the trial inputs alone, so
/// `core.decoder.forward_rows` is identical at 1 and 8 threads. Each
/// row stands for one predictor on the whole magnitude grid, shared by
/// every cover of a `rank` call, so there are fewer rows than covers.
#[test]
fn forward_rows_counter_is_thread_invariant_on_table2_fast() {
    let _guard = obs_lock();
    let (args, _) =
        itqc_bench::args::Args::parse_from(300, &["--xl"], ["--fast".to_string()].into_iter())
            .expect("--fast parses");
    let mut counts = Vec::new();
    for threads in [1usize, 8] {
        let (_, snap) = capture_det(|| {
            table2_identification_rate(
                8,
                3,
                args.trials,
                threads,
                DecoderPolicy::Ranked,
                args.seed_for("t2/8/3"),
            )
        });
        let rows = snap.counters.get("core.decoder.forward_rows").copied().unwrap_or(0);
        let covers = snap.counters.get("core.decoder.covers_ranked").copied().unwrap_or(0);
        assert!(rows > 0, "a 3-fault cell must tabulate forward rows");
        assert!(rows < covers, "rows {rows} must be shared across {covers} covers");
        counts.push(rows);
    }
    assert_eq!(counts[0], counts[1], "forward rows at threads=1 vs 8");
}

/// The reserved `nd.`/`span.` prefixes are rejected at the
/// deterministic registration points, so a partition-dependent name
/// cannot be smuggled into the bit-identical snapshot by typo.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "reserved nondeterministic prefix")]
fn reserved_prefixes_cannot_register_deterministic_counters() {
    let _ = obs::Registry::new().counter("nd.sneaky");
}
