//! `loadgen` — the fleet load driver.
//!
//! Drives a [`Fleet`] through a sustained simulated workload and reports
//! throughput against the ISSUE target of ≥1 M jobs per simulated
//! machine-day. The deterministic end-of-run summary goes to **stdout**
//! (bit-identical at any `--workers`, so CI can diff runs), while
//! wall-clock timings — the only thing the worker count changes — go to
//! **stderr**.
//!
//! ```text
//! $ loadgen --traps=256 --minutes=60 --workers=auto
//! ```
//!
//! Flags (all optional): `--traps=N --workers=N|auto --minutes=N`
//! `--seed=N --qubits=N --rate=F --service-mean=F --metrics[=PATH]`. Defaults: 256 traps for one simulated hour at
//! the fleet's default operating point (4 jobs/trap/min, 8 s mean
//! service ≈ 1.4 M jobs/simulated-day).
//!
//! `--metrics` enables the `itqc_obs` layer and emits the versioned
//! JSON metrics document (fleet registry merged with the ambient
//! backend/core counters) to stderr, or to a sidecar file with
//! `--metrics=PATH` — never to stdout, which stays worker-diffable.

use itqc_bench::args::MetricsSink;
use itqc_fleet::{Fleet, FleetConfig, MINUTES_PER_DAY};
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: loadgen [--traps=N] [--workers=N|auto] [--minutes=N] [--seed=N] \
         [--qubits=N] [--rate=F] [--service-mean=F] [--metrics[=PATH]]"
    );
    std::process::exit(2);
}

fn parse_flags() -> (FleetConfig, u64, Option<MetricsSink>) {
    let mut config = FleetConfig { traps: 256, ..FleetConfig::default() };
    let mut minutes = 60u64;
    let mut metrics = None;
    for arg in std::env::args().skip(1) {
        // `--metrics` is the one flag with an optional value, so it is
        // matched before the strict `flag=value` split.
        if arg == "--metrics" {
            metrics = Some(MetricsSink::Stderr);
            continue;
        }
        if let Some(path) = arg.strip_prefix("--metrics=") {
            metrics = Some(MetricsSink::File(path.to_string()));
            continue;
        }
        let Some((flag, value)) = arg.split_once('=') else { usage() };
        let ok = match flag {
            "--traps" => value.parse().map(|v| config.traps = v).is_ok(),
            "--workers" if value == "auto" => {
                config.workers = 0;
                true
            }
            "--workers" => value.parse().map(|v| config.workers = v).is_ok(),
            "--minutes" => value.parse().map(|v| minutes = v).is_ok(),
            "--seed" => value.parse().map(|v| config.seed = v).is_ok(),
            "--qubits" => value.parse().map(|v| config.n_qubits = v).is_ok(),
            "--rate" => value.parse().map(|v| config.arrival_rate_per_min = v).is_ok(),
            "--service-mean" => value.parse().map(|v| config.service_secs_mean = v).is_ok(),
            _ => usage(),
        };
        if !ok {
            usage();
        }
    }
    if let Err(why) = config.validate() {
        eprintln!("loadgen: {why}");
        usage();
    }
    (config, minutes, metrics)
}

fn main() {
    let (config, minutes, metrics) = parse_flags();
    if metrics.is_some() {
        itqc_obs::set_enabled(true);
    }
    let workers = config.workers;
    let mut fleet = Fleet::new(config);
    let start = Instant::now();
    fleet.run_minutes(minutes);
    let sim_wall = start.elapsed();
    let summary = fleet.summary();
    // Deterministic artifact: stdout only ever depends on
    // (config minus workers, minutes).
    print!("{summary}");
    // Wall-clock telemetry: stderr, so stdout stays diffable.
    let days = minutes as f64 / MINUTES_PER_DAY as f64;
    eprintln!(
        "loadgen: {} traps x {} simulated minutes ({:.3} machine-days) with workers={} \
         in {:.2} s wall",
        summary.traps,
        minutes,
        days,
        if workers == 0 { "auto".to_string() } else { workers.to_string() },
        sim_wall.as_secs_f64()
    );
    eprintln!(
        "loadgen: {:.0} jobs/simulated-machine-day (target 1000000), \
         {:.0} simulated-minutes/wall-second",
        summary.jobs_per_machine_day(),
        minutes as f64 / sim_wall.as_secs_f64().max(1e-9)
    );
    if summary.jobs_per_machine_day() < 1_000_000.0 && minutes > 0 {
        eprintln!("loadgen: WARNING below the 1M jobs/machine-day target");
    }
    if let Some(sink) = &metrics {
        // Merge the fleet's per-instance registry (scheduler counters)
        // into the ambient one (backend/core events flushed at tick
        // barriers) and emit one document.
        itqc_obs::event::flush();
        let registry = itqc_obs::global();
        registry.absorb(fleet.obs());
        let doc = registry.document("loadgen", sim_wall.as_secs_f64());
        itqc_bench::metrics::write_doc(sink, &doc);
    }
}
