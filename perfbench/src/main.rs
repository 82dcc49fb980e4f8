//! Probe-normalised benchmark of the itqc workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload oracle|strings|fleet --seed N --seconds S --trace 0|1
//! ```
//!
//! One single-client closed loop per workload calls the public APIs of
//! `itqc-core`, `itqc-bench`, `itqc-backend` and `itqc-fleet`. Every
//! timing is divided by the run's calibration-probe factor
//! ([`probe::Probe`]), so figures are in reference units. `--trace 0`
//! prints the end-to-end metrics; `--trace 1` alternates traced and
//! untraced half-second chunks and prints the per-layer metrics. Either
//! way the run re-runs set-up and its leading requests in the other
//! tracing mode and fails unless every deterministic output repeats
//! bit for bit. The last stdout line is one JSON object.

mod probe;
mod stats;
mod trace;
mod workloads;

use probe::Probe;
use stats::{median, percentile, relative_iqr, tail_percentile, to_reference};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workloads::{FleetLoad, Oracle, Outcome, Strings, Verdict, Workload};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Probe samples taken before the first set-up and after each one.
const SETUP_PROBES: usize = 8;
/// Request time between two probe samples, nanoseconds.
const PROBE_EVERY_NS: f64 = 20e6;
/// Length of one traced or untraced chunk of a `--trace 1` run.
const TRACE_CHUNK_S: f64 = 0.5;
/// Directory, relative to the working directory, for span dumps.
const TRACE_DIR: &str = ".perfbench";

const USAGE: &str =
    "usage: perfbench --workload oracle|strings|fleet --seed N --seconds S --trace 0|1";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                flags.insert(flag, value);
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let get = |name: &str| flags.get(name).ok_or_else(|| format!("missing {name}"));
    let seconds: f64 = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: get("--workload")?.clone(),
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "oracle" => run(&Oracle::new(args.seed), &args),
        "strings" => run(&Strings::new(args.seed), &args),
        "fleet" => run(&FleetLoad::new(args.seed), &args),
        other => Err(format!("unknown workload {other}")),
    };
    match report {
        Ok(report) => {
            for note in &report.notes {
                println!("{note}");
            }
            println!("{}", report.json());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: deterministic outputs did not repeat");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*value))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Every digit Rust's shortest round-trip rendering gives; JSON has no
/// NaN or infinity, so those become 0.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".into()
    }
}

/// Per-mode request accounting of the measured loop.
#[derive(Default)]
struct Tally {
    request_ns: f64,
    /// Raw request time and the probe sample count when it ended.
    latencies: Vec<(f64, usize)>,
    outcome: Outcome,
    cpu_ns: f64,
}

impl Tally {
    fn add(&mut self, ns: f64, probe_at: usize, o: &Outcome) {
        self.request_ns += ns;
        self.latencies.push((ns, probe_at));
        self.outcome.units += o.units;
        self.outcome.diags += o.diags;
        self.outcome.tests += o.tests;
        self.outcome.minutes += o.minutes;
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Runs `f` as a request: panics are caught here and count as failures.
fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// Sum of every thread's CPU time, nanoseconds.
fn process_cpu_ns() -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .sum()
}

/// Peak resident set size (VmHWM), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Raw time of one timed stretch and the probe sample count at its end.
type Segment = (f64, usize);

/// Runs one set-up, probing between its steps as the measured loop
/// probes between requests. Returns the session, the rendering of its
/// deterministic result and its timed segments.
fn timed_setup<W: Workload>(w: &W, probe: &mut Probe) -> (W::Session, String, Vec<Segment>) {
    let mut segments = Vec::new();
    let mut since_probe = 0.0;
    let mut segment_start = Instant::now();
    let (session, rendered) = w.setup(&mut || {
        let ns = segment_start.elapsed().as_nanos() as f64;
        segments.push((ns, probe.samples_ns().len()));
        since_probe += ns;
        if since_probe >= PROBE_EVERY_NS {
            since_probe = 0.0;
            probe.sample();
        }
        segment_start = Instant::now();
    });
    segments.push((segment_start.elapsed().as_nanos() as f64, probe.samples_ns().len()));
    (session, rendered, segments)
}

fn run<W: Workload>(w: &W, args: &Args) -> Result<Report, String> {
    let mut probe = Probe::new(W::THREADS);
    probe.samples(SETUP_PROBES);

    // Set-up, repeated. Every repetition but the last runs on a fresh
    // thread, so thread-local caches start cold each time, exactly as
    // for the last one, which keeps its session for the measured loop.
    let mut setups = Vec::new();
    let mut setup_renders = Vec::new();
    for _ in 1..SETUP_REPS {
        let (rendered, segments) = std::thread::scope(|s| {
            s.spawn(|| {
                let (_session, rendered, segments) = timed_setup(w, &mut probe);
                (rendered, segments)
            })
            .join()
        })
        .map_err(|_| "set-up panicked".to_string())?;
        setups.push(segments);
        setup_renders.push(rendered);
        probe.samples(SETUP_PROBES);
    }
    let (mut session, rendered, segments) =
        guarded(|| timed_setup(w, &mut probe)).ok_or_else(|| "set-up panicked".to_string())?;
    setups.push(segments);
    setup_renders.push(rendered);
    probe.samples(SETUP_PROBES);

    // The measured closed loop.
    let mut tracer = Tracer::new();
    let mut tally = [Tally::default(), Tally::default()]; // [untraced, traced]
    let mut prefix: Vec<Option<Outcome>> = Vec::new();
    let mut verdict: Option<Verdict> = None;
    let mut checkpoint: Option<Verdict> = None;
    let mut verdict_ns = 0.0;
    let mut peak_rss = 0.0;
    let mut failed = 0u64;
    let mut since_probe = 0.0;
    let mut traced_chunk = false;
    let mut chunk_open = Instant::now();
    let mut traced_wall_ns = 0.0;
    let mut layer_counters: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut chunk_counters = Vec::new();
    let loop_start = Instant::now();
    let mut i = 0u64;
    loop {
        let elapsed = loop_start.elapsed().as_secs_f64();
        if elapsed >= args.seconds && i >= w.prefix() {
            break;
        }
        if args.trace {
            let want = (elapsed / TRACE_CHUNK_S) as u64 % 2 == 1;
            if want != traced_chunk {
                if traced_chunk {
                    traced_wall_ns += chunk_open.elapsed().as_nanos() as f64;
                    close_traced_chunk(w, &session, &chunk_counters, &mut layer_counters);
                } else {
                    itqc_obs::set_enabled(true);
                    chunk_counters = w.counters(&session);
                    chunk_open = Instant::now();
                }
                traced_chunk = want;
            }
        }
        let traced = args.trace && traced_chunk;
        let input = if traced {
            let span = tracer.begin(trace::GEN, i, None);
            let input = w.input(i);
            tracer.end(span);
            input
        } else {
            w.input(i)
        };
        let cpu_before = if traced { process_cpu_ns() } else { 0.0 };
        let start = Instant::now();
        let outcome = if traced {
            let span = tracer.begin(trace::REQUEST, i, None);
            let outcome = guarded(|| w.call(&mut session, input, Some((&mut tracer, span))));
            tracer.end(span);
            outcome
        } else {
            guarded(|| w.call(&mut session, input, None))
        };
        let ns = start.elapsed().as_nanos() as f64;
        match &outcome {
            Some(o) => {
                let t = &mut tally[traced as usize];
                t.add(ns, probe.samples_ns().len(), o);
                if traced {
                    t.cpu_ns += process_cpu_ns() - cpu_before;
                }
            }
            None => failed += 1,
        }
        if i < w.prefix() {
            prefix.push(outcome);
        }
        i += 1;
        if i == w.replay() {
            if let Some(outcomes) = prefix.iter().copied().collect::<Option<Vec<_>>>() {
                checkpoint = guarded(|| w.verdict(&mut session, &outcomes));
            }
        }
        if i == w.prefix() {
            if let Some(outcomes) = prefix.iter().copied().collect::<Option<Vec<_>>>() {
                let span = traced.then(|| tracer.begin(trace::SUMMARY, i, None));
                let start = Instant::now();
                verdict = guarded(|| w.verdict(&mut session, &outcomes));
                verdict_ns = start.elapsed().as_nanos() as f64;
                if let Some(s) = span {
                    tracer.end(s);
                }
            }
            // Peak memory over set-up and the fixed prefix of work, so
            // it does not grow with however many requests a run fits.
            peak_rss = peak_rss_mb();
        }
        since_probe += ns;
        if since_probe >= PROBE_EVERY_NS {
            since_probe = 0.0;
            let span = traced.then(|| tracer.begin(trace::PROBE, i, None));
            probe.sample();
            if let Some(s) = span {
                tracer.end(s);
            }
        }
    }
    if traced_chunk {
        traced_wall_ns += chunk_open.elapsed().as_nanos() as f64;
        close_traced_chunk(w, &session, &chunk_counters, &mut layer_counters);
    }
    let factor = probe.factor();
    drop(session);

    // Repeat set-up and the leading requests in the other tracing mode.
    let replay_traced = !args.trace;
    let mut correct = verdict.is_some() && checkpoint.is_some();
    let (mut replay_session, rendered, _) = guarded(|| timed_setup(w, &mut probe))
        .ok_or_else(|| "replay set-up panicked".to_string())?;
    setup_renders.push(rendered);
    correct &= setup_renders.iter().all(|r| *r == setup_renders[0]);
    itqc_obs::set_enabled(replay_traced);
    let mut replay_tracer = Tracer::new();
    let mut replayed = Vec::new();
    for j in 0..w.replay() {
        let input = w.input(j);
        let outcome = if replay_traced {
            let span = replay_tracer.begin(trace::REQUEST, j, None);
            let outcome =
                guarded(|| w.call(&mut replay_session, input, Some((&mut replay_tracer, span))));
            replay_tracer.end(span);
            outcome
        } else {
            guarded(|| w.call(&mut replay_session, input, None))
        };
        correct &= outcome.is_some() && outcome == prefix[j as usize];
        replayed.extend(outcome);
    }
    if correct {
        correct &= guarded(|| w.verdict(&mut replay_session, &replayed)) == checkpoint;
    }
    itqc_obs::set_enabled(false);
    drop(replay_session);

    let attempted = i;
    let mut notes = vec![format!(
        "workload {} seed {} requests {attempted} failed {failed} probe factor {factor:.4} \
         (spread {:.4} over {} samples)",
        args.workload,
        args.seed,
        relative_iqr(probe.samples_ns()),
        probe.samples_ns().len()
    )];
    let verdict = verdict.unwrap_or(Verdict {
        text: String::new(),
        tests_per_diag: 0.0,
        identify_rate: 0.0,
        sim_job_p99_s: 0.0,
    });
    notes.push(format!(
        "verdict: tests_per_diag {} identify_rate {} sim_job_p99_s {} | {}",
        verdict.tests_per_diag,
        verdict.identify_rate,
        verdict.sim_job_p99_s,
        verdict.text.trim_end().replace('\n', " | ")
    ));

    let metrics = if args.trace {
        let path =
            std::path::Path::new(TRACE_DIR).join(format!("{}-{}.tsv", args.workload, args.seed));
        tracer.write_tsv(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
        notes.push(format!("spans: {} written to {}", tracer.spans().len(), path.display()));
        layer_metrics(
            &tracer,
            &tally,
            &layer_counters,
            &probe,
            traced_wall_ns,
            verdict_ns,
            &verdict,
        )
    } else {
        let t = &tally[0];
        let mut lat_ms: Vec<f64> = t
            .latencies
            .iter()
            .map(|&(ns, at)| to_reference(ns / 1e6, probe.local_factor(at)))
            .collect();
        let busy_s = lat_ms.iter().sum::<f64>() / 1e3;
        lat_ms.sort_by(f64::total_cmp);
        let q = tail_percentile(lat_ms.len()).ok_or("too few requests for a tail percentile")?;
        notes.push(format!(
            "latency_tail_ms is p{} of {} requests; setup_s is the median of {SETUP_REPS} set-ups",
            q * 100.0,
            lat_ms.len()
        ));
        let setup_s: Vec<f64> = setups
            .iter()
            .map(|segments| {
                segments
                    .iter()
                    .map(|&(ns, at)| to_reference(ns / 1e9, probe.local_factor(at)))
                    .sum()
            })
            .collect();
        notes.push(format!("set-ups (s): {setup_s:?}"));
        vec![
            ("setup_s", median(&setup_s), "s"),
            ("throughput_per_s", t.outcome.units as f64 / busy_s, "1/s"),
            ("latency_p50_ms", percentile(&lat_ms, 0.5), "ms"),
            ("latency_tail_ms", percentile(&lat_ms, q), "ms"),
            ("tests_per_diag", verdict.tests_per_diag, "count"),
            ("peak_rss_mb", peak_rss, "MiB"),
        ]
    };
    Ok(Report { correct, attempted, failed, metrics, notes })
}

/// Folds a traced chunk's counter deltas into `acc` and stops the
/// ambient event layer.
fn close_traced_chunk<W: Workload>(
    w: &W,
    session: &W::Session,
    at_open: &[(&'static str, u64)],
    acc: &mut BTreeMap<&'static str, u64>,
) {
    itqc_obs::event::flush();
    itqc_obs::set_enabled(false);
    for ((name, now), (_, then)) in w.counters(session).into_iter().zip(at_open) {
        *acc.entry(name).or_default() += now - then;
    }
}

fn layer_metrics(
    tracer: &Tracer,
    tally: &[Tally; 2],
    fleet: &BTreeMap<&'static str, u64>,
    probe: &Probe,
    traced_wall_ns: f64,
    verdict_ns: f64,
    verdict: &Verdict,
) -> Vec<(&'static str, f64, &'static str)> {
    let factor = probe.factor();
    let ms = |ns: f64| to_reference(ns / 1e6, factor);
    let traced = &tally[1];
    let diags = traced.outcome.diags as f64;
    let minutes = traced.outcome.minutes as f64;
    let span_ns = |name: &str| -> f64 {
        tracer.spans().iter().filter(|s| s.name == name).map(|s| s.ns() as f64).sum()
    };
    let tests_traced = tracer.spans().iter().filter(|s| s.name == trace::RUN_TEST).count() as f64;
    let request_ns = span_ns(trace::REQUEST);
    let exec_ns = span_ns(trace::RUN_TEST);
    let probe_ns = span_ns(trace::PROBE);
    let gen_ns = span_ns(trace::GEN);
    let summary_ns = span_ns(trace::SUMMARY);

    let global = itqc_obs::global();
    let det = global.deterministic_snapshot().counters;
    let nd = global.nondeterministic_snapshot().counters;
    let count = |name: &str| -> f64 {
        (det.get(name).or_else(|| nd.get(name)).copied().unwrap_or(0)) as f64
    };
    let fl = |name: &str| fleet.get(name).copied().unwrap_or(0) as f64;
    let hit_ratio = |hits: f64, misses: f64| ratio(hits, hits + misses);
    let throughput = |t: &Tally| ratio(t.outcome.units as f64, t.request_ns);

    vec![
        ("core.self_ms_per_diag", ratio(ms(request_ns - exec_ns), diags), "ms"),
        (
            "core.adaptive_rounds_per_diag",
            ratio(count("core.decoder.adaptive_rounds"), diags),
            "count",
        ),
        ("core.exact_queries_per_diag", ratio(count("core.exact.queries"), diags), "count"),
        ("core.identify_rate", verdict.identify_rate, "ratio"),
        ("executor.busy_ms_per_diag", ratio(ms(exec_ns), diags), "ms"),
        ("executor.us_per_test", ratio(ms(exec_ns) * 1e3, tests_traced), "us"),
        (
            "backend.memo.hit_ratio",
            ratio(count("backend.memo.hits"), count("backend.memo.lookups")),
            "ratio",
        ),
        (
            "backend.prep_cache.hit_ratio",
            hit_ratio(count("backend.prep_cache.hits"), count("backend.prep_cache.misses")),
            "ratio",
        ),
        (
            "backend.component_cache.hit_ratio",
            hit_ratio(
                count("backend.component_cache.hits"),
                count("backend.component_cache.misses"),
            ),
            "ratio",
        ),
        (
            "backend.component_cache.evictions_per_diag",
            ratio(count("backend.component_cache.evictions"), diags),
            "count",
        ),
        (
            "backend.wht_butterflies_per_diag",
            ratio(count("backend.wht.butterflies"), diags),
            "count",
        ),
        ("backend.shots_per_diag", ratio(count("backend.shots.drawn"), diags), "count"),
        ("backend.sample_calls_per_diag", ratio(count("backend.sample.calls"), diags), "count"),
        ("fleet.cores_busy", ratio(traced.cpu_ns, traced.request_ns), "cores"),
        ("fleet.prep_builds_per_min", ratio(fl("fleet.prep.batch_builds"), minutes), "1/min"),
        (
            "fleet.l2.hit_ratio",
            hit_ratio(fl("fleet.cache.l2.hits"), fl("fleet.cache.l2.misses")),
            "ratio",
        ),
        ("fleet.l2.evictions_per_min", ratio(fl("fleet.cache.l2.evictions"), minutes), "1/min"),
        (
            "fleet.l1.hit_ratio",
            hit_ratio(fl("fleet.cache.l1.hits"), fl("fleet.cache.l1.misses")),
            "ratio",
        ),
        ("fleet.diagnoses_per_min", ratio(fl("fleet.diagnose.runs"), minutes), "1/min"),
        ("fleet.canaries_per_min", ratio(fl("fleet.canary.runs"), minutes), "1/min"),
        ("fleet.summary_ms", if minutes > 0.0 { ms(verdict_ns) } else { 0.0 }, "ms"),
        ("fleet.sim_job_p99_s", verdict.sim_job_p99_s, "s"),
        ("bench.probe_factor", factor, "ratio"),
        ("bench.probe_spread", relative_iqr(probe.samples_ns()), "ratio"),
        ("bench.probe_share", ratio(probe_ns, traced_wall_ns), "ratio"),
        ("bench.gen_share", ratio(gen_ns, traced_wall_ns), "ratio"),
        (
            "bench.attributed_share",
            ratio(request_ns + probe_ns + gen_ns + summary_ns, traced_wall_ns),
            "ratio",
        ),
        ("trace.overhead", ratio(throughput(traced), throughput(&tally[0])), "ratio"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = args(&["--workload", "oracle", "--seed", "7", "--seconds", "10", "--trace", "1"])
            .unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("oracle", 7, 10.0, true));
        assert!(args(&["--workload", "oracle", "--seed", "7", "--seconds", "10"]).is_err());
        assert!(
            args(&["--workload", "x", "--seed", "-1", "--seconds", "1", "--trace", "0"]).is_err()
        );
        assert!(
            args(&["--workload", "x", "--seed", "1", "--seconds", "0", "--trace", "0"]).is_err()
        );
        assert!(
            args(&["--workload", "x", "--seed", "1", "--seconds", "1", "--trace", "2"]).is_err()
        );
        assert!(args(&["--bogus", "1"]).is_err());
    }

    #[test]
    fn json_keeps_every_digit() {
        let report = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("latency_ms", 1.2034567891234, "ms"), ("bad", f64::NAN, "s")],
            notes: vec![],
        };
        assert_eq!(
            report.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034567891234, \"unit\": \"ms\"}, \
             \"bad\": {\"value\": 0.0, \"unit\": \"s\"}}}"
        );
    }
}
