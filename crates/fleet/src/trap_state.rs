//! Per-trap scheduling state and the tick.
//!
//! The fleet advances in **ticks of one simulated minute**. Each tick a
//! trap runs one pass that depends only on its own state — which is why
//! any shard partition of the traps produces bit-identical results:
//! draw this minute's Poisson job arrivals from the trap's arrival RNG,
//! apply quasi-static drift at epoch boundaries, queue the canary if one
//! is due, then drain the work queue in priority order — diagnosis,
//! canary, then user jobs while the minute's budget lasts — and
//! idle-fill to the minute boundary.
//!
//! Drift is *quasi-static*: calibration moves only at epoch boundaries
//! (default every 30 simulated minutes), so a trap's canary circuit is
//! byte-identical between epochs and the score memo behind
//! [`CachedTrapExecutor`] answers the repeats.

use crate::exec::CachedTrapExecutor;
use crate::queue::{WorkKind, WorkQueue, PRIO_CANARY, PRIO_DIAGNOSE, PRIO_JOB};
use itqc_circuit::Coupling;
use itqc_core::testplan::canary_for;
use itqc_core::{diagnose_all, MultiFaultConfig, TestExecutor, TestSpec};
use itqc_faults::drift::JumpDrift;
use itqc_trap::duty::Activity;
use itqc_trap::{TrapConfig, VirtualTrap};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Parameters shared by every trap of a fleet (see
/// [`crate::api::FleetConfig`] for the user-facing knobs).
#[derive(Clone, Debug)]
pub struct FleetParams {
    /// Register size of each trap.
    pub n_qubits: usize,
    /// Minutes between canary tests.
    pub canary_cadence_min: u64,
    /// Minutes between quasi-static drift applications.
    pub drift_epoch_min: u64,
    /// Poisson arrival rate of user jobs, per trap per minute (0
    /// disables the internal load generator — jobs then only come from
    /// the API).
    pub arrival_rate_per_min: f64,
    /// Mean of the exponential job service time, seconds.
    pub service_secs_mean: f64,
    /// Deadline allowance added to a job's arrival time, seconds.
    pub job_deadline_s: f64,
    /// The calibration drift process.
    pub drift: JumpDrift,
    /// Diagnosis protocol configuration (canary threshold/shots live
    /// here too).
    pub diag: MultiFaultConfig,
}

/// Everything one trap produced in one tick (or, merged tick by tick, in
/// one run), merged by the scheduler in trap-id order.
#[derive(Debug, Default)]
pub struct TrapTickOut {
    /// Jobs that arrived (internal load + API submissions).
    pub submitted: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Completion latency (seconds from arrival) per completed job, in
    /// completion order.
    pub latencies: Vec<f64>,
    /// Canary tests run.
    pub canaries: u64,
    /// Canaries that tripped.
    pub trips: u64,
    /// Full diagnoses run.
    pub diagnoses: u64,
    /// Test circuits executed inside diagnoses.
    pub tests_run: u64,
    /// Couplings diagnosed faulty and recalibrated.
    pub faults_fixed: u64,
}

impl TrapTickOut {
    /// Appends a later tick's (or trap's) output.
    pub fn absorb(&mut self, later: TrapTickOut) {
        self.submitted += later.submitted;
        self.completed += later.completed;
        self.latencies.extend(later.latencies);
        self.canaries += later.canaries;
        self.trips += later.trips;
        self.diagnoses += later.diagnoses;
        self.tests_run += later.tests_run;
        self.faults_fixed += later.faults_fixed;
    }
}

/// One-line operational status of a trap (the `status` command).
#[derive(Clone, Debug)]
pub struct TrapStatus {
    /// Trap id.
    pub id: usize,
    /// Machine wall clock, simulated seconds.
    pub clock_seconds: f64,
    /// Pending queue items.
    pub queue_depth: usize,
    /// Most recent canary score.
    pub last_canary: f64,
    /// Jobs completed since construction.
    pub jobs_completed: u64,
    /// Faults diagnosed and recalibrated since construction.
    pub faults_fixed: u64,
    /// Most recent diagnosed faults as `(tick, coupling)`.
    pub recent_faults: Vec<(u64, Coupling)>,
}

/// Per-trap end-of-run accounting for the fleet summary.
#[derive(Clone, Debug)]
pub struct TrapDrain {
    /// Seconds per activity, `Activity::ALL` order.
    pub duty: [f64; Activity::ALL.len()],
    /// Jobs still queued.
    pub queue_depth: usize,
}

/// A SplitMix64-derived stream seed — the same construction the bench
/// trial engine uses, so per-trap streams are decorrelated and depend
/// only on `(master, stream)`.
pub fn split_seed(master: u64, stream: u64) -> u64 {
    let mut z = master.wrapping_add(stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Knuth's product method: one Poisson(`lambda`) draw.
pub fn poisson(rng: &mut SmallRng, lambda: f64) -> usize {
    let floor = (-lambda).exp();
    let mut k = 0usize;
    let mut p = 1.0f64;
    loop {
        p *= rng.gen::<f64>();
        if p <= floor {
            return k;
        }
        k += 1;
    }
}

/// One exponential draw with the given mean.
pub fn exponential(rng: &mut SmallRng, mean: f64) -> f64 {
    -mean * (1.0 - rng.gen::<f64>()).ln()
}

/// One trap of the fleet: the virtual machine, its work queue, and the
/// scheduling counters.
pub struct TrapState {
    id: usize,
    params: Arc<FleetParams>,
    trap: VirtualTrap,
    arrival_rng: SmallRng,
    queue: WorkQueue,
    canary_spec: TestSpec,
    next_canary_min: u64,
    submitted_this_tick: u64,
    last_canary: f64,
    jobs_completed: u64,
    faults_fixed: u64,
    recent_faults: Vec<(u64, Coupling)>,
}

impl TrapState {
    /// Builds trap `id` of a fleet seeded with `master_seed`. The trap's
    /// machine RNG and its arrival RNG are independent derived streams.
    pub fn new(id: usize, master_seed: u64, params: Arc<FleetParams>) -> Self {
        let trap = VirtualTrap::new(TrapConfig::ideal(
            params.n_qubits,
            split_seed(master_seed, id as u64),
        ));
        let arrival_rng = SmallRng::seed_from_u64(split_seed(master_seed ^ 0xF1EE_7D00, id as u64));
        let max_reps = *params.diag.reps_ladder.last().expect("non-empty ladder");
        let canary_spec = canary_for(&trap.couplings(), max_reps, params.diag.canary_score);
        TrapState {
            id,
            params,
            trap,
            arrival_rng,
            queue: WorkQueue::default(),
            canary_spec,
            next_canary_min: 0,
            submitted_this_tick: 0,
            last_canary: 1.0,
            jobs_completed: 0,
            faults_fixed: 0,
            recent_faults: Vec::new(),
        }
    }

    /// Trap id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Enqueues an externally submitted job (the `FleetHandle::submit`
    /// path); `now_s` is the fleet clock at submission.
    pub fn submit_job(&mut self, service_seconds: f64, now_s: f64) {
        self.queue.push(
            WorkKind::UserJob { service_seconds },
            PRIO_JOB,
            now_s,
            now_s + self.params.job_deadline_s,
        );
        self.submitted_this_tick += 1;
    }

    /// Runs `tick`: arrivals, quasi-static drift, the canary when one is
    /// due, then the queue drain and the idle-fill to the minute
    /// boundary.
    pub fn tick(&mut self, tick: u64) -> TrapTickOut {
        let now = tick as f64 * 60.0;
        if self.params.arrival_rate_per_min > 0.0 {
            let n = poisson(&mut self.arrival_rng, self.params.arrival_rate_per_min);
            for _ in 0..n {
                let service = exponential(&mut self.arrival_rng, self.params.service_secs_mean);
                self.queue.push(
                    WorkKind::UserJob { service_seconds: service },
                    PRIO_JOB,
                    now,
                    now + self.params.job_deadline_s,
                );
                self.submitted_this_tick += 1;
            }
        }
        if tick > 0 && tick.is_multiple_of(self.params.drift_epoch_min) {
            self.trap.apply_drift(self.params.drift_epoch_min as f64, &self.params.drift);
        }
        if tick >= self.next_canary_min {
            self.next_canary_min = tick + self.params.canary_cadence_min;
            self.queue.push(WorkKind::Canary, PRIO_CANARY, now, now);
        }
        let minute_end = (tick + 1) as f64 * 60.0;
        let mut out = TrapTickOut { submitted: self.submitted_this_tick, ..Default::default() };
        self.submitted_this_tick = 0;
        while let Some(front) = self.queue.peek() {
            // Maintenance runs even when it overruns the minute (it was
            // due); user jobs only start while the minute has budget.
            if matches!(front.kind, WorkKind::UserJob { .. })
                && self.trap.clock_seconds() >= minute_end
            {
                break;
            }
            let item = self.queue.pop().expect("peeked");
            match item.kind {
                WorkKind::Canary => {
                    out.canaries += 1;
                    let score = CachedTrapExecutor::new(&mut self.trap)
                        .run_test(&self.canary_spec, self.params.diag.canary_shots);
                    self.last_canary = score;
                    if score < self.params.diag.canary_threshold {
                        out.trips += 1;
                        let now = self.trap.clock_seconds();
                        self.queue.push(WorkKind::Diagnose, PRIO_DIAGNOSE, now, now);
                    }
                }
                WorkKind::Diagnose => {
                    out.diagnoses += 1;
                    let mut exec = CachedTrapExecutor::new(&mut self.trap);
                    let report = diagnose_all(&mut exec, self.params.n_qubits, &self.params.diag);
                    out.tests_run += report.tests_run as u64;
                    for fault in &report.diagnosed {
                        self.trap.recalibrate(fault.coupling);
                        out.faults_fixed += 1;
                        self.faults_fixed += 1;
                        self.recent_faults.push((tick, fault.coupling));
                    }
                    let overflow = self.recent_faults.len().saturating_sub(8);
                    if overflow > 0 {
                        self.recent_faults.drain(..overflow);
                    }
                }
                WorkKind::UserJob { service_seconds } => {
                    self.trap.bill_job_time(service_seconds);
                    out.latencies.push(self.trap.clock_seconds() - item.arrival_s);
                    out.completed += 1;
                    self.jobs_completed += 1;
                }
            }
        }
        let now = self.trap.clock_seconds();
        if now < minute_end {
            self.trap.bill_idle_time(minute_end - now);
        }
        out
    }

    /// Operational status snapshot.
    pub fn status(&self) -> TrapStatus {
        TrapStatus {
            id: self.id,
            clock_seconds: self.trap.clock_seconds(),
            queue_depth: self.queue.len(),
            last_canary: self.last_canary,
            jobs_completed: self.jobs_completed,
            faults_fixed: self.faults_fixed,
            recent_faults: self.recent_faults.clone(),
        }
    }

    /// End-of-run accounting.
    pub fn drain(&self) -> TrapDrain {
        let duty = self.trap.duty();
        let mut secs = [0.0f64; Activity::ALL.len()];
        for (slot, &a) in secs.iter_mut().zip(Activity::ALL.iter()) {
            *slot = duty.seconds(a);
        }
        TrapDrain { duty: secs, queue_depth: self.queue.len() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine_day::fig2_diagnosis_config;
    use itqc_faults::drift::OrnsteinUhlenbeckDrift;

    fn params() -> Arc<FleetParams> {
        Arc::new(FleetParams {
            n_qubits: 5,
            canary_cadence_min: 2,
            drift_epoch_min: 10,
            arrival_rate_per_min: 3.0,
            service_secs_mean: 4.0,
            job_deadline_s: 300.0,
            drift: JumpDrift {
                base: OrnsteinUhlenbeckDrift { tau_minutes: 240.0, sigma: 0.02 },
                jumps_per_minute: 0.0,
                jump_scale: 0.3,
            },
            diag: fig2_diagnosis_config(),
        })
    }

    #[test]
    fn arrivals_and_canary_cadence_are_deterministic() {
        let p = params();
        let mut a = TrapState::new(3, 99, Arc::clone(&p));
        let mut b = TrapState::new(3, 99, Arc::clone(&p));
        for tick in 0..6 {
            let oa = a.tick(tick);
            let ob = b.tick(tick);
            assert_eq!(oa.canaries, ob.canaries);
            assert_eq!(oa.canaries, u64::from(tick % 2 == 0), "cadence 2 runs on even ticks");
            assert_eq!(a.last_canary.to_bits(), b.last_canary.to_bits());
            assert_eq!(oa.submitted, ob.submitted);
            assert_eq!(oa.completed, ob.completed);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&oa.latencies), bits(&ob.latencies));
        }
        assert_eq!(a.status().clock_seconds.to_bits(), b.status().clock_seconds.to_bits());
    }

    #[test]
    fn minute_budget_defers_jobs_but_not_maintenance() {
        let p = Arc::new(FleetParams { arrival_rate_per_min: 0.0, ..(*params()).clone() });
        let mut t = TrapState::new(0, 1, Arc::clone(&p));
        // Overload: 100 jobs of 10 s each at the fleet clock's origin.
        for _ in 0..100 {
            t.submit_job(10.0, 0.0);
        }
        let out = t.tick(0);
        // The canary ran (maintenance), then ~6 jobs fit the minute.
        assert_eq!(out.canaries, 1);
        assert!(out.completed < 100, "the minute budget must defer work");
        assert!(t.status().queue_depth > 0);
        // Later ticks drain the backlog; latencies grow with queue wait.
        let mut total = out.completed;
        for tick in 1..40 {
            total += t.tick(tick).completed;
        }
        assert_eq!(total, 100, "backlog drains across ticks");
    }

    #[test]
    fn injected_jump_trips_canary_and_diagnosis_recalibrates() {
        let p = Arc::new(FleetParams {
            arrival_rate_per_min: 0.0,
            canary_cadence_min: 1,
            ..(*params()).clone()
        });
        let mut t = TrapState::new(0, 5, Arc::clone(&p));
        let victim = Coupling::new(1, 3);
        // Tick 0: clean canary.
        let out = t.tick(0);
        assert_eq!((out.canaries, out.trips), (1, 0));
        // Tick 1: a hard fault appears.
        t.trap.inject_fault(victim, 0.35);
        let out = t.tick(1);
        assert_eq!((out.canaries, out.trips, out.diagnoses), (1, 1, 1));
        assert_eq!(out.faults_fixed, 1, "diagnosis pinpoints the injected fault");
        assert_eq!(t.trap.true_under_rotation(victim), 0.0, "recalibrated");
        assert_eq!(t.status().recent_faults, vec![(1, victim)]);
    }
}
