//! The `fleetd` line protocol, in-process.
//!
//! [`handle_line`] answers one command line against a [`Fleet`]; the
//! daemon only moves lines between stdin/stdout and this function, so
//! the protocol — including its refusals — is testable without a
//! process. Every malformed or out-of-range command gets an
//! `error: …` reply; none panics and none runs unbounded work.
//!
//! Commands: `run <minutes>`, `submit <trap> <service_s> [count]`,
//! `status <trap>`, `stats`, `metrics`, `summary`, `help`, `quit`.

use crate::api::{Fleet, MINUTES_PER_DAY};

/// Most simulated minutes one `run` line may advance (one week).
pub const MAX_RUN_MINUTES: u64 = 7 * MINUTES_PER_DAY;

/// The daemon's answer to one input line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    /// Write this reply block.
    Text(String),
    /// A blank line: no reply.
    Nothing,
    /// `quit`/`exit`: stop serving.
    Quit,
}

/// Answers one command line.
pub fn handle_line(fleet: &mut Fleet, line: &str) -> Reply {
    let mut words = line.split_whitespace();
    let text = match words.next() {
        None => return Reply::Nothing,
        Some("quit") | Some("exit") => return Reply::Quit,
        Some("help") => "commands: run <minutes> | submit <trap> <service_s> [count] | \
                         status <trap> | stats | metrics | summary | quit"
            .to_string(),
        Some("run") => match words.next().and_then(|w| w.parse::<u64>().ok()) {
            Some(m) if m <= MAX_RUN_MINUTES => {
                fleet.run_minutes(m);
                format!("ok ran {m} minutes (now at {})", fleet.ticks())
            }
            Some(m) => format!("error: run {m} exceeds {MAX_RUN_MINUTES} minutes"),
            None => "error: run <minutes>".to_string(),
        },
        Some("submit") => submit(fleet, words.next(), words.next(), words.next()),
        Some("status") => match words.next().and_then(|w| w.parse::<usize>().ok()) {
            Some(trap) if trap < fleet.config().traps => {
                let s = fleet.status(trap);
                let faults: Vec<String> =
                    s.recent_faults.iter().map(|(tick, c)| format!("{c}@min{tick}")).collect();
                format!(
                    "trap {} clock_s {:.1} queue {} last_canary {:.3} jobs_done {} \
                     faults_fixed {} recent [{}]",
                    s.id,
                    s.clock_seconds,
                    s.queue_depth,
                    s.last_canary,
                    s.jobs_completed,
                    s.faults_fixed,
                    faults.join(" ")
                )
            }
            Some(trap) => format!("error: trap {trap} out of range"),
            None => "error: status <trap>".to_string(),
        },
        Some("stats") => {
            let c = fleet.cache_counters();
            let (entries, bytes) = fleet.cache_resident();
            format!(
                "minute {} shared_cache hits {} misses {} evictions {} hit_rate {:.4} \
                 entries {} bytes {}",
                fleet.ticks(),
                c.hits,
                c.misses,
                c.evictions,
                c.hit_rate(),
                entries,
                bytes
            )
        }
        Some("metrics") => {
            // Worker shards flushed at the last tick barrier; fold the
            // scheduler thread's own shard, then merge the fleet
            // registry with the ambient (global) one.
            itqc_obs::event::flush();
            let merged = itqc_obs::Registry::new();
            merged.absorb(itqc_obs::global());
            merged.absorb(fleet.obs());
            merged.deterministic_snapshot().to_json()
        }
        Some("summary") => fleet.summary().to_string(),
        Some(other) => format!("error: unknown command '{other}' (try help)"),
    };
    Reply::Text(text)
}

/// `submit <trap> <service_s> [count]`: all `count` jobs or none.
fn submit(
    fleet: &mut Fleet,
    trap: Option<&str>,
    service: Option<&str>,
    count: Option<&str>,
) -> String {
    let trap = trap.and_then(|w| w.parse::<usize>().ok());
    let service = service.and_then(|w| w.parse::<f64>().ok());
    let count = count.map_or(Some(1), |w| w.parse::<usize>().ok());
    let (Some(trap), Some(service), Some(count)) = (trap, service, count) else {
        return "error: submit <trap> <service_s> [count]".to_string();
    };
    match fleet.submit(trap, service, count) {
        Ok(()) => format!("ok queued {count} job(s) on trap {trap}"),
        Err(e) => format!("error: {e}"),
    }
}
