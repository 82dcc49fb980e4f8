//! The in-process fleet API: configure, drive, query, summarize.
//!
//! [`Fleet`] owns the scheduler side of the tick protocol: it starts one
//! worker-pool run per [`Fleet::run_minutes`] call and merges the
//! per-trap reports in trap-id order.
//!
//! Everything the fleet reports — the [`FleetSummary`] in particular —
//! is a pure function of `(FleetConfig minus workers, ticks run,
//! submitted jobs)`. The worker count only changes wall-clock time;
//! `FleetSummary::to_string()` is bit-identical at `--workers=1`, `2`,
//! or `8`, and the test suite and CI both pin that.

use crate::machine_day::{fig2_diagnosis_config, FIG2_QUBITS};
use crate::pool::Pool;
use crate::trap_state::TrapStatus;
use itqc_faults::drift::{JumpDrift, OrnsteinUhlenbeckDrift};
use itqc_obs::{Counter, Registry};
use itqc_trap::duty::Activity;
use std::fmt;
use std::sync::Arc;

/// Minutes in a simulated machine-day.
pub const MINUTES_PER_DAY: u64 = 24 * 60;

/// Most worker threads a fleet starts; `workers = 0` (one per core) is
/// capped here too.
pub const MAX_WORKERS: usize = 64;

/// Fleet service configuration.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Number of traps in the fleet.
    pub traps: usize,
    /// Worker threads (0 = one per available core), at most
    /// [`MAX_WORKERS`]. Never affects results, only wall-clock.
    pub workers: usize,
    /// Master seed; every per-trap stream derives from it.
    pub seed: u64,
    /// Register size of each trap.
    pub n_qubits: usize,
    /// Minutes between canary tests (0 runs as 1).
    pub canary_cadence_min: u64,
    /// Minutes between quasi-static drift applications (0 runs as 1).
    pub drift_epoch_min: u64,
    /// Poisson job arrival rate per trap per minute (0 = API-only).
    pub arrival_rate_per_min: f64,
    /// Mean exponential job service time, seconds.
    pub service_secs_mean: f64,
    /// The calibration drift process.
    pub drift: JumpDrift,
    /// Diagnosis configuration (thresholds, shots, decoder).
    pub diag: itqc_core::MultiFaultConfig,
}

impl Default for FleetConfig {
    /// The fleet operating point: 11-qubit traps under gentle OU wander
    /// with rare large jumps (~8 hard faults per trap-day), canaries
    /// every 2 minutes, drift epochs every 30, and an internal load of
    /// 4 jobs/trap/minute at 8 s mean service — ≈1.4 M jobs per
    /// simulated day on a 256-trap fleet.
    fn default() -> Self {
        FleetConfig {
            traps: 8,
            workers: 1,
            seed: 20220402,
            n_qubits: FIG2_QUBITS,
            canary_cadence_min: 2,
            drift_epoch_min: 30,
            arrival_rate_per_min: 4.0,
            service_secs_mean: 8.0,
            drift: JumpDrift {
                base: OrnsteinUhlenbeckDrift { tau_minutes: 240.0, sigma: 0.02 },
                jumps_per_minute: 1e-4,
                jump_scale: 0.30,
            },
            diag: fig2_diagnosis_config(),
        }
    }
}

impl FleetConfig {
    /// Checks the settings [`Fleet::new`] and the trap workers rely on:
    /// at least one trap, at most [`MAX_WORKERS`] workers, a register of
    /// 2 to [`itqc_backend::MAX_COMPONENT`] qubits (the canary spans all
    /// couplings, so its component is the whole register), and a finite,
    /// non-negative arrival rate and mean service time. The error names
    /// the offending setting.
    pub fn validate(&self) -> Result<(), String> {
        let max_qubits = itqc_backend::MAX_COMPONENT;
        if self.traps == 0 {
            return Err("a fleet needs at least one trap".into());
        }
        if self.workers > MAX_WORKERS {
            return Err(format!("at most {MAX_WORKERS} workers, not {}", self.workers));
        }
        if !(2..=max_qubits).contains(&self.n_qubits) {
            return Err(format!(
                "a trap needs 2 to {max_qubits} qubits (the canary must fit the analytic \
                 backend), not {}",
                self.n_qubits
            ));
        }
        if !(self.arrival_rate_per_min >= 0.0 && self.arrival_rate_per_min.is_finite()) {
            return Err(format!(
                "the arrival rate must be finite and non-negative, not {}",
                self.arrival_rate_per_min
            ));
        }
        if !(self.service_secs_mean >= 0.0 && self.service_secs_mean.is_finite()) {
            return Err(format!(
                "the mean service time must be finite and non-negative, not {}",
                self.service_secs_mean
            ));
        }
        Ok(())
    }
}

/// Aggregate fleet statistics, accumulated deterministically across
/// ticks (trap-id merge order; registry-backed integer counters and
/// order-fixed f64 streams only).
#[derive(Debug)]
struct FleetStats {
    submitted: Counter,
    completed: Counter,
    latencies: Vec<f64>,
    canaries: Counter,
    trips: Counter,
    diagnoses: Counter,
    tests_run: Counter,
    faults_fixed: Counter,
}

impl FleetStats {
    /// Registers every scheduler counter in the fleet's registry, so
    /// the summary and the `metrics` document read the same handles.
    fn new(obs: &Registry) -> Self {
        FleetStats {
            submitted: obs.counter("fleet.jobs.submitted"),
            completed: obs.counter("fleet.jobs.completed"),
            latencies: Vec::new(),
            canaries: obs.counter("fleet.canary.runs"),
            trips: obs.counter("fleet.canary.trips"),
            diagnoses: obs.counter("fleet.diagnose.runs"),
            tests_run: obs.counter("fleet.diagnose.tests"),
            faults_fixed: obs.counter("fleet.faults.fixed"),
        }
    }
}

/// Most jobs one [`Fleet::submit`] call may queue.
pub const MAX_SUBMIT_COUNT: usize = 10_000;

/// Why [`Fleet::submit`] refused a submission.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SubmitError {
    /// No trap has this id.
    TrapOutOfRange {
        /// The requested trap id.
        trap: usize,
    },
    /// The service time is negative, NaN or infinite.
    BadServiceTime(f64),
    /// More than [`MAX_SUBMIT_COUNT`] jobs in one submission.
    TooMany {
        /// The requested job count.
        count: usize,
    },
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::TrapOutOfRange { trap } => write!(f, "trap {trap} out of range"),
            SubmitError::BadServiceTime(s) => {
                write!(f, "service time {s} is not a finite, non-negative number of seconds")
            }
            SubmitError::TooMany { count } => {
                write!(f, "count {count} exceeds {MAX_SUBMIT_COUNT}")
            }
        }
    }
}

/// The running fleet service. Dropping it shuts the workers down.
pub struct Fleet {
    config: Arc<FleetConfig>,
    pool: Pool,
    tick: u64,
    stats: FleetStats,
    pending_submissions: Vec<(usize, f64)>,
    obs: Arc<Registry>,
}

impl Fleet {
    /// Spawns the shard workers.
    ///
    /// # Panics
    ///
    /// Panics if [`FleetConfig::validate`] refuses `config`.
    pub fn new(config: FleetConfig) -> Self {
        if let Err(why) = config.validate() {
            panic!("invalid fleet config: {why}");
        }
        let workers = if config.workers == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get()).min(MAX_WORKERS)
        } else {
            config.workers
        };
        // Per-fleet registry: every scheduler counter is a registered
        // handle, so the `summary` rendering and the deterministic
        // metrics snapshot read the same totals.
        let obs = Arc::new(Registry::new());
        let config = Arc::new(config);
        let pool = Pool::new(workers, &config);
        let stats = FleetStats::new(&obs);
        Fleet { config, pool, tick: 0, stats, pending_submissions: Vec::new(), obs }
    }

    /// The configuration the fleet runs under.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Ticks (simulated minutes) run so far.
    pub fn ticks(&self) -> u64 {
        self.tick
    }

    /// The fleet's observability registry. Holds every registry-backed
    /// scheduler counter; its deterministic snapshot is
    /// bit-identical at any worker count.
    pub fn obs(&self) -> &Registry {
        &self.obs
    }

    /// Queues `count` identical user jobs on `trap`; they arrive at the
    /// start of the next tick (arrivals are quantized to the minute).
    /// Refuses an out-of-range trap, a negative or non-finite service
    /// time and more than [`MAX_SUBMIT_COUNT`] jobs, queueing nothing.
    pub fn submit(
        &mut self,
        trap: usize,
        service_seconds: f64,
        count: usize,
    ) -> Result<(), SubmitError> {
        if trap >= self.config.traps {
            return Err(SubmitError::TrapOutOfRange { trap });
        }
        if !(service_seconds.is_finite() && service_seconds >= 0.0) {
            return Err(SubmitError::BadServiceTime(service_seconds));
        }
        if count > MAX_SUBMIT_COUNT {
            return Err(SubmitError::TooMany { count });
        }
        self.pending_submissions.extend(std::iter::repeat_n((trap, service_seconds), count));
        Ok(())
    }

    /// Advances the simulation by `minutes` ticks in one pool run.
    pub fn run_minutes(&mut self, minutes: u64) {
        if minutes == 0 {
            return;
        }
        let tick = self.tick;
        // Deliver API submissions before the first tick starts.
        let now = tick as f64 * 60.0;
        for (trap, service) in std::mem::take(&mut self.pending_submissions) {
            self.pool.with(trap, |t| t.submit_job(service, now));
        }
        for out in self.pool.run(tick..tick + minutes) {
            self.stats.submitted.add(out.submitted);
            self.stats.completed.add(out.completed);
            self.stats.latencies.extend(out.latencies);
            self.stats.canaries.add(out.canaries);
            self.stats.trips.add(out.trips);
            self.stats.diagnoses.add(out.diagnoses);
            self.stats.tests_run.add(out.tests_run);
            self.stats.faults_fixed.add(out.faults_fixed);
        }
        self.tick = tick + minutes;
    }

    /// One trap's operational status.
    ///
    /// # Panics
    ///
    /// Panics if `trap` is out of range.
    pub fn status(&mut self, trap: usize) -> TrapStatus {
        assert!(trap < self.config.traps, "trap {trap} out of range");
        self.pool.with(trap, |t| t.status())
    }

    /// The end-of-run summary (non-destructive; callable mid-run).
    pub fn summary(&mut self) -> FleetSummary {
        let mut duty = [0.0f64; Activity::ALL.len()];
        let mut queued = 0usize;
        for trap in 0..self.config.traps {
            let d = self.pool.with(trap, |t| t.drain());
            for (acc, s) in duty.iter_mut().zip(d.duty.iter()) {
                *acc += s;
            }
            queued += d.queue_depth;
        }
        // Percentiles depend only on the multiset, so the record itself
        // can be sorted: later runs only append to it.
        self.stats.latencies.sort_by(f64::total_cmp);
        let sorted = &self.stats.latencies;
        FleetSummary {
            traps: self.config.traps,
            seed: self.config.seed,
            ticks: self.tick,
            submitted: self.stats.submitted.get(),
            completed: self.stats.completed.get(),
            queued,
            latency_p50: percentile(sorted, 0.50),
            latency_p90: percentile(sorted, 0.90),
            latency_p99: percentile(sorted, 0.99),
            canaries: self.stats.canaries.get(),
            trips: self.stats.trips.get(),
            diagnoses: self.stats.diagnoses.get(),
            tests_run: self.stats.tests_run.get(),
            faults_fixed: self.stats.faults_fixed.get(),
            duty,
        }
    }
}

/// Nearest-rank percentile of an ascending slice (0 for empty input).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// The deterministic end-of-run report. Its `Display` rendering is the
/// artifact CI diffs across worker counts.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetSummary {
    /// Fleet size.
    pub traps: usize,
    /// Master seed.
    pub seed: u64,
    /// Simulated minutes run.
    pub ticks: u64,
    /// Jobs submitted (internal load + API).
    pub submitted: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Jobs still queued at report time.
    pub queued: usize,
    /// Median completion latency, seconds.
    pub latency_p50: f64,
    /// 90th-percentile completion latency, seconds.
    pub latency_p90: f64,
    /// 99th-percentile completion latency, seconds.
    pub latency_p99: f64,
    /// Canary tests run.
    pub canaries: u64,
    /// Canary trips.
    pub trips: u64,
    /// Full diagnoses run.
    pub diagnoses: u64,
    /// Test circuits executed inside diagnoses.
    pub tests_run: u64,
    /// Faults diagnosed and recalibrated.
    pub faults_fixed: u64,
    /// Fleet-wide seconds per activity, `Activity::ALL` order.
    pub duty: [f64; Activity::ALL.len()],
}

impl FleetSummary {
    /// Completed jobs normalized to one simulated machine-day across
    /// the whole fleet.
    pub fn jobs_per_machine_day(&self) -> f64 {
        if self.ticks == 0 {
            return 0.0;
        }
        self.completed as f64 * MINUTES_PER_DAY as f64 / self.ticks as f64
    }
}

impl fmt::Display for FleetSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "fleet summary")?;
        writeln!(f, "  traps {} seed {} minutes {}", self.traps, self.seed, self.ticks)?;
        writeln!(
            f,
            "  jobs submitted {} completed {} queued {} per-machine-day {:.1}",
            self.submitted,
            self.completed,
            self.queued,
            self.jobs_per_machine_day()
        )?;
        writeln!(
            f,
            "  latency_s p50 {:.3} p90 {:.3} p99 {:.3}",
            self.latency_p50, self.latency_p90, self.latency_p99
        )?;
        writeln!(
            f,
            "  canaries {} trips {} diagnoses {} tests {} faults_fixed {}",
            self.canaries, self.trips, self.diagnoses, self.tests_run, self.faults_fixed
        )?;
        write!(f, "  duty_s")?;
        for (&secs, &a) in self.duty.iter().zip(Activity::ALL.iter()) {
            write!(f, " {}={:.1}", activity_tag(a), secs)?;
        }
        writeln!(f)
    }
}

fn activity_tag(a: Activity) -> &'static str {
    match a {
        Activity::Jobs => "jobs",
        Activity::Testing => "testing",
        Activity::Calibration => "calibration",
        Activity::Adaptation => "adaptation",
        Activity::Idle => "idle",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_refuses_what_the_fleet_cannot_run() {
        assert_eq!(FleetConfig::default().validate(), Ok(()));
        let max = itqc_backend::MAX_COMPONENT;
        let ok = [
            FleetConfig { n_qubits: 2, ..FleetConfig::default() },
            FleetConfig { workers: 0, ..FleetConfig::default() },
            FleetConfig { workers: MAX_WORKERS, ..FleetConfig::default() },
            FleetConfig { n_qubits: max, ..FleetConfig::default() },
            FleetConfig {
                arrival_rate_per_min: 0.0,
                service_secs_mean: 0.0,
                ..FleetConfig::default()
            },
        ];
        for config in ok {
            assert_eq!(config.validate(), Ok(()), "{config:?}");
        }
        let refused = [
            (FleetConfig { traps: 0, ..FleetConfig::default() }, "trap"),
            (FleetConfig { workers: MAX_WORKERS + 1, ..FleetConfig::default() }, "workers"),
            (FleetConfig { workers: 100_000, ..FleetConfig::default() }, "workers"),
            (FleetConfig { n_qubits: 0, ..FleetConfig::default() }, "qubits"),
            (FleetConfig { n_qubits: 1, ..FleetConfig::default() }, "qubits"),
            (FleetConfig { n_qubits: max + 1, ..FleetConfig::default() }, "qubits"),
            (FleetConfig { arrival_rate_per_min: -1.0, ..FleetConfig::default() }, "arrival rate"),
            (
                FleetConfig { arrival_rate_per_min: f64::NAN, ..FleetConfig::default() },
                "arrival rate",
            ),
            (
                FleetConfig { arrival_rate_per_min: f64::INFINITY, ..FleetConfig::default() },
                "arrival rate",
            ),
            (FleetConfig { service_secs_mean: -5.0, ..FleetConfig::default() }, "service time"),
            (FleetConfig { service_secs_mean: f64::NAN, ..FleetConfig::default() }, "service time"),
        ];
        for (config, names) in refused {
            let why = config.validate().expect_err("must be refused");
            assert!(why.contains(names), "{why:?} should name {names}");
        }
    }

    fn small_config(workers: usize) -> FleetConfig {
        FleetConfig {
            traps: 3,
            workers,
            n_qubits: 6,
            arrival_rate_per_min: 2.0,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn summary_is_bit_identical_across_worker_counts() {
        let mut renders = Vec::new();
        for workers in [1usize, 2, 3] {
            let mut fleet = Fleet::new(small_config(workers));
            fleet.submit(1, 12.5, 1).unwrap();
            fleet.run_minutes(8);
            fleet.submit(2, 3.0, 1).unwrap();
            fleet.run_minutes(4);
            renders.push(fleet.summary().to_string());
        }
        assert_eq!(renders[0], renders[1]);
        assert_eq!(renders[1], renders[2]);
    }

    #[test]
    fn submitted_jobs_complete_and_are_measured() {
        let mut fleet = Fleet::new(FleetConfig { arrival_rate_per_min: 0.0, ..small_config(1) });
        fleet.submit(0, 6.0, 5).unwrap();
        fleet.run_minutes(2);
        let s = fleet.summary();
        assert_eq!(s.submitted, 5);
        assert_eq!(s.completed, 5);
        assert!(s.latency_p50 > 0.0 && s.latency_p99 >= s.latency_p50);
        let status = fleet.status(0);
        assert_eq!(status.jobs_completed, 5);
        assert_eq!(status.queue_depth, 0);
    }

    #[test]
    fn bad_submissions_are_refused_and_queue_nothing() {
        let mut fleet = Fleet::new(FleetConfig { arrival_rate_per_min: 0.0, ..small_config(1) });
        assert_eq!(fleet.submit(3, 1.0, 1), Err(SubmitError::TrapOutOfRange { trap: 3 }));
        assert_eq!(fleet.submit(3, 1.0, 0), Err(SubmitError::TrapOutOfRange { trap: 3 }));
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            assert!(matches!(fleet.submit(0, bad, 1), Err(SubmitError::BadServiceTime(_))));
        }
        let count = MAX_SUBMIT_COUNT + 1;
        assert_eq!(fleet.submit(0, 1.0, count), Err(SubmitError::TooMany { count }));
        assert_eq!(fleet.submit(0, 0.0, 1), Ok(()));
        fleet.run_minutes(1);
        assert_eq!(fleet.summary().submitted, 1);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
