//! `fleetd` — the fleet service daemon.
//!
//! Runs a fleet of virtual traps under the tick scheduler and speaks a
//! line-oriented command protocol on stdin/stdout (one command per
//! line, one reply block per command), so it can be driven
//! interactively, from scripts, or from CI:
//!
//! ```text
//! $ printf 'run 60\nsummary\nquit\n' | fleetd --traps=16 --workers=2
//! ```
//!
//! Flags (all optional): `--traps=N --workers=N|auto --seed=N --qubits=N`
//! `--cadence-min=N --epoch-min=N --rate=F --service-mean=F --minutes=N`.
//! With `--minutes=N` the daemon first advances N simulated minutes,
//! prints the summary, and then still serves stdin (EOF exits).
//! `--workers=0` or `auto` means one per core; at most 64 workers —
//! results never depend on it.
//!
//! Commands: `run <minutes>`, `submit <trap> <service_s> [count]`,
//! `status <trap>`, `metrics`, `summary`, `help`, `quit`
//! (answered by [`itqc_fleet::service::handle_line`]; a malformed or
//! out-of-range command gets an `error: …` reply).
//!
//! `metrics` prints the deterministic counter snapshot — the fleet
//! registry's scheduler counters merged with the ambient backend
//! event counters — as one line of JSON. Only the deterministic class
//! is printed, so the reply is bit-identical at any `--workers` value
//! and stdout stays diffable. The daemon enables the `itqc_obs` event
//! layer at startup (it is a service, not a gated benchmark).

use itqc_fleet::service::{handle_line, Reply};
use itqc_fleet::{Fleet, FleetConfig};
use std::io::{BufRead, Write};

fn usage() -> ! {
    eprintln!(
        "usage: fleetd [--traps=N] [--workers=N|auto] [--seed=N] [--qubits=N] \
         [--cadence-min=N] [--epoch-min=N] [--rate=F] [--service-mean=F] [--minutes=N]"
    );
    std::process::exit(2);
}

fn parse_flags() -> (FleetConfig, u64) {
    let mut config = FleetConfig::default();
    let mut minutes = 0u64;
    for arg in std::env::args().skip(1) {
        let Some((flag, value)) = arg.split_once('=') else { usage() };
        let ok = match flag {
            "--traps" => value.parse().map(|v| config.traps = v).is_ok(),
            "--workers" if value == "auto" => {
                config.workers = 0;
                true
            }
            "--workers" => value.parse().map(|v| config.workers = v).is_ok(),
            "--seed" => value.parse().map(|v| config.seed = v).is_ok(),
            "--qubits" => value.parse().map(|v| config.n_qubits = v).is_ok(),
            "--cadence-min" => value.parse().map(|v| config.canary_cadence_min = v).is_ok(),
            "--epoch-min" => value.parse().map(|v| config.drift_epoch_min = v).is_ok(),
            "--rate" => value.parse().map(|v| config.arrival_rate_per_min = v).is_ok(),
            "--service-mean" => value.parse().map(|v| config.service_secs_mean = v).is_ok(),
            "--minutes" => value.parse().map(|v| minutes = v).is_ok(),
            _ => usage(),
        };
        if !ok {
            usage();
        }
    }
    if let Err(why) = config.validate() {
        eprintln!("fleetd: {why}");
        usage();
    }
    (config, minutes)
}

fn main() {
    let (config, minutes) = parse_flags();
    itqc_obs::set_enabled(true);
    let mut fleet = Fleet::new(config);
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    if minutes > 0 {
        fleet.run_minutes(minutes);
        write!(out, "{}", fleet.summary()).expect("stdout");
        out.flush().expect("stdout");
    }
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line.expect("stdin");
        match handle_line(&mut fleet, &line) {
            Reply::Quit => break,
            Reply::Nothing => {}
            Reply::Text(reply) => {
                writeln!(out, "{}", reply.trim_end()).expect("stdout");
                out.flush().expect("stdout");
            }
        }
    }
}
