//! The three workloads: what one request is, how its inputs derive from
//! the seed, and what its deterministic output is.
//!
//! * `oracle` — the Table II pipeline at 16 qubits on the exact oracle:
//!   decoder-bound, heavy on score-memo hits, no sampling, no fleet.
//!   A request diagnoses three machines, with 1, 2 and 3 planted
//!   faults: single diagnoses take 0.2 to 6 ms by fault count, so their
//!   median would sit in the gap between two modes and jump with it.
//! * `strings` — Fig. 8 single-fault detection at 32 qubits from
//!   300-shot string statistics: sampler-bound, fresh outcome tables
//!   every request, almost no decoder work.
//! * `fleet` — a 256-trap fleet on two workers advancing in 30-minute
//!   steps: the tick-barrier scheduler, the hit-heavy shared cache and
//!   the 11-qubit canary tables. Each request crosses exactly one drift
//!   epoch, whose circuit builds cost as much as the other 29 minutes;
//!   shorter steps split requests into a fast and a slow mode.

use crate::trace::{TracedExec, Tracer};
use itqc_backend::BackendChoice;
use itqc_bench::ambient::{ambient_executor_uniform_with, random_couplings};
use itqc_bench::detectability::{fig8_ambient_bound, fig8_threshold, FIG8_SCORE, FIG8_SHOTS};
use itqc_bench::protocol_stats::{table2_config, TABLE2_FAULT_U};
use itqc_bench::split_seed;
use itqc_circuit::Coupling;
use itqc_core::{
    diagnose_all, DecoderPolicy, Diagnosis, ExactExecutor, MultiFaultConfig, SingleFaultProtocol,
};
use itqc_fleet::{Fleet, FleetConfig};
use itqc_obs::Counter;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Seed stream of the untimed set-up work; request `i` uses stream `i`.
const SETUP_STREAM: u64 = 1 << 40;

/// What one completed request reports to the harness.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Outcome {
    /// Hash of everything the request computed deterministically.
    pub digest: u64,
    /// Completed work units: diagnoses, or simulated jobs for `fleet`.
    pub units: u64,
    /// Diagnoses run by the request.
    pub diags: u64,
    /// Test circuits those diagnoses executed.
    pub tests: u64,
    /// Diagnoses whose result equals the planted fault(s); for `fleet`,
    /// faults diagnosed and recalibrated.
    pub identified: u64,
    /// Simulated minutes advanced (`fleet` only).
    pub minutes: u64,
}

/// The deterministic result of a run's first [`Workload::prefix`]
/// requests, compared across repeats and tracing modes.
#[derive(Clone, Debug, PartialEq)]
pub struct Verdict {
    /// Rendered result (the `FleetSummary` text for `fleet`).
    pub text: String,
    /// Test circuits per diagnosis.
    pub tests_per_diag: f64,
    /// Share of diagnoses that identified their fault(s).
    pub identify_rate: f64,
    /// Simulated user-job p99 latency, seconds (`fleet` only, else 0).
    pub sim_job_p99_s: f64,
}

/// A closed-loop workload driven by the harness.
pub trait Workload: Sync {
    /// State built by set-up and used by every request.
    type Session;
    /// One request's generated inputs.
    type Input;

    /// Threads the workload keeps busy inside a request.
    const THREADS: usize = 1;

    /// Requests whose outputs make up the reported [`Verdict`]; every
    /// run completes at least this many.
    fn prefix(&self) -> u64;
    /// Leading requests re-run in the other tracing mode; their
    /// outcomes and verdict must repeat bit for bit. At most
    /// [`Workload::prefix`].
    fn replay(&self) -> u64;
    /// The set-up work; returns the session and a rendering of its
    /// deterministic result. Calls `pause` between steps, where the
    /// harness may stop its clock and sample the probe.
    fn setup(&self, pause: &mut dyn FnMut()) -> (Self::Session, String);
    /// Generates request `i`'s inputs from the seed.
    fn input(&self, i: u64) -> Self::Input;
    /// Runs one request; with a tracer, through the span decorator
    /// under the open request span.
    fn call(
        &self,
        session: &mut Self::Session,
        input: Self::Input,
        trace: Option<(&mut Tracer, usize)>,
    ) -> Outcome;
    /// The verdict over the leading `outcomes` of a session.
    fn verdict(&self, _session: &mut Self::Session, outcomes: &[Outcome]) -> Verdict {
        let sum = |f: fn(&Outcome) -> u64| outcomes.iter().map(f).sum::<u64>();
        let diags = sum(|o| o.diags).max(1) as f64;
        let mut digest = Digest::new();
        outcomes.iter().for_each(|o| digest.u64(o.digest));
        Verdict {
            text: format!("{} requests, digest {:016x}", outcomes.len(), digest.finish()),
            tests_per_diag: sum(|o| o.tests) as f64 / diags,
            identify_rate: sum(|o| o.identified) as f64 / diags,
            sim_job_p99_s: 0.0,
        }
    }
    /// Counters the program keeps outside the global registry.
    fn counters(&self, _session: &Self::Session) -> Vec<(&'static str, u64)> {
        Vec::new()
    }
}

/// FNV-1a over the words fed to it.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn coupling(&mut self, c: Coupling) {
        let (a, b) = c.endpoints();
        self.u64(a as u64);
        self.u64(b as u64);
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

fn request_rng(seed: u64, i: u64) -> SmallRng {
    SmallRng::seed_from_u64(split_seed(seed, i as usize))
}

/// `oracle`: Table II at 16 qubits, one machine each with k = 1, 2, 3
/// planted faults of u = 0.30, ranked decoder, exact oracle scores.
pub struct Oracle {
    seed: u64,
    configs: [MultiFaultConfig; 3],
}

impl Oracle {
    const QUBITS: usize = 16;
    /// Requests in the set-up pass that fills the score memo.
    const WARMUP: u64 = 100;

    pub fn new(seed: u64) -> Self {
        let configs = [1, 2, 3].map(|k| table2_config(k, DecoderPolicy::Ranked));
        Oracle { seed, configs }
    }
}

/// One `oracle` request: for k = 1, 2, 3, the planted faults and the
/// oracle that holds them.
pub struct OracleInput {
    machines: Vec<(Vec<Coupling>, ExactExecutor)>,
}

impl Workload for Oracle {
    type Session = ();
    type Input = OracleInput;

    fn prefix(&self) -> u64 {
        1000
    }

    fn replay(&self) -> u64 {
        100
    }

    fn setup(&self, pause: &mut dyn FnMut()) -> ((), String) {
        let mut digest = Digest::new();
        for j in 0..Self::WARMUP {
            let input = self.input(SETUP_STREAM + j);
            digest.u64(self.call(&mut (), input, None).digest);
            pause();
        }
        ((), format!("{:016x}", digest.finish()))
    }

    fn input(&self, i: u64) -> OracleInput {
        let mut rng = request_rng(self.seed, i);
        let machines = (1..=3)
            .map(|k| {
                let mut planted = random_couplings(Self::QUBITS, k, &mut rng);
                planted.sort();
                let exec = ExactExecutor::new(Self::QUBITS)
                    .with_faults(planted.iter().map(|&c| (c, TABLE2_FAULT_U)));
                (planted, exec)
            })
            .collect();
        OracleInput { machines }
    }

    fn call(
        &self,
        _: &mut (),
        input: OracleInput,
        mut trace: Option<(&mut Tracer, usize)>,
    ) -> Outcome {
        let mut digest = Digest::new();
        let mut out = Outcome::default();
        for (planted, mut exec) in input.machines {
            let config = &self.configs[planted.len() - 1];
            let report = match &mut trace {
                Some((tracer, span)) => {
                    diagnose_all(&mut TracedExec::new(exec, tracer, *span), Self::QUBITS, config)
                }
                None => diagnose_all(&mut exec, Self::QUBITS, config),
            };
            let found = report.couplings();
            found.iter().for_each(|&c| digest.coupling(c));
            digest.u64(report.tests_run as u64);
            digest.u64(report.adaptations as u64);
            digest.u64(report.converged as u64);
            out.units += 1;
            out.diags += 1;
            out.tests += report.tests_run as u64;
            out.identified += (found == planted) as u64;
        }
        out.digest = digest.finish();
        out
    }
}

/// `strings`: Fig. 8 at 32 qubits, 2 MS gates per coupling, one planted
/// coupling at u = 0.35 … 0.50 (at and above the paper's knee) on a
/// ±10% ambient machine, 300-shot worst-qubit string statistics.
pub struct Strings {
    seed: u64,
}

impl Strings {
    const QUBITS: usize = 32;
    const REPS: usize = 2;
    const SWEEP: [f64; 4] = [0.35, 0.40, 0.45, 0.50];
    /// Ambient machines the threshold calibration scores (as `fig8`).
    const CALIBRATION_TRIALS: usize = 60;

    pub fn new(seed: u64) -> Self {
        Strings { seed }
    }
}

/// One `strings` request: the planted coupling, its machine, and the
/// shot stream's seed.
pub struct StringsInput {
    target: Coupling,
    exec: ExactExecutor,
    shot_seed: u64,
}

impl Workload for Strings {
    /// The calibrated pass/fail threshold.
    type Session = f64;
    type Input = StringsInput;

    fn prefix(&self) -> u64 {
        100
    }

    fn replay(&self) -> u64 {
        8
    }

    fn setup(&self, _: &mut dyn FnMut()) -> (f64, String) {
        let threshold = fig8_threshold(
            Self::QUBITS,
            Self::REPS,
            Self::CALIBRATION_TRIALS,
            1,
            BackendChoice::Analytic,
            split_seed(self.seed, SETUP_STREAM as usize),
        );
        (threshold, format!("threshold {threshold:e}"))
    }

    fn input(&self, i: u64) -> StringsInput {
        let mut rng = request_rng(self.seed, i);
        let target = random_couplings(Self::QUBITS, 1, &mut rng)[0];
        let u = Self::SWEEP[(i % Self::SWEEP.len() as u64) as usize];
        let exec = ambient_executor_uniform_with(
            Self::QUBITS,
            fig8_ambient_bound(Self::QUBITS),
            &[(target, u)],
            BackendChoice::Analytic,
            &mut rng,
        );
        StringsInput { target, exec, shot_seed: rng.gen() }
    }

    fn call(
        &self,
        threshold: &mut f64,
        input: StringsInput,
        trace: Option<(&mut Tracer, usize)>,
    ) -> Outcome {
        let mut sampler = itqc_bench::StringSampled::new(input.exec, input.shot_seed);
        let protocol = SingleFaultProtocol::new(Self::QUBITS, Self::REPS, *threshold, FIG8_SHOTS)
            .with_score(FIG8_SCORE)
            .with_contrast_verification();
        let report = match trace {
            Some((tracer, span)) => protocol.diagnose(&mut TracedExec::new(sampler, tracer, span)),
            None => protocol.diagnose(&mut sampler),
        };
        let mut digest = Digest::new();
        for record in &report.tests {
            digest.u64(record.fidelity.to_bits());
            digest.u64(record.failed as u64);
        }
        match report.diagnosis {
            Diagnosis::Fault(c) => digest.coupling(c),
            Diagnosis::NoFault => digest.u64(u64::MAX),
            Diagnosis::MultipleFaultsSuspected => digest.u64(u64::MAX - 1),
            Diagnosis::Inconclusive => digest.u64(u64::MAX - 2),
        }
        digest.u64(report.adaptations as u64);
        Outcome {
            digest: digest.finish(),
            units: 1,
            diags: 1,
            tests: report.tests_run() as u64,
            identified: (report.diagnosis == Diagnosis::Fault(input.target)) as u64,
            minutes: 0,
        }
    }
}

/// `fleet`: 256 traps at the default operating point on 2 workers;
/// one request advances 30 simulated minutes.
pub struct FleetLoad {
    seed: u64,
}

impl FleetLoad {
    const TRAPS: usize = 256;
    const WORKERS: usize = 2;
    const MINUTES_PER_REQUEST: u64 = 30;
    /// Simulated minutes of set-up: the shared cache fills its 64 MiB
    /// budget after about 300 minutes and evicts from then on, and the
    /// drift-epoch requests stop growing.
    const WARMUP_MINUTES: u64 = 300;

    pub fn new(seed: u64) -> Self {
        FleetLoad { seed }
    }
}

/// The fleet and handles on the registry counters a request reads.
pub struct FleetSession {
    fleet: Fleet,
    handles: Vec<(&'static str, Counter)>,
}

/// The fleet registry counters the benchmark reads, in digest order.
const FLEET_COUNTERS: [&str; 14] = [
    "fleet.jobs.submitted",
    "fleet.jobs.completed",
    "fleet.canary.runs",
    "fleet.canary.trips",
    "fleet.diagnose.runs",
    "fleet.diagnose.tests",
    "fleet.faults.fixed",
    "fleet.prep.requests",
    "fleet.prep.batch_builds",
    "fleet.cache.l2.hits",
    "fleet.cache.l2.misses",
    "fleet.cache.l2.evictions",
    "fleet.cache.l1.hits",
    "fleet.cache.l1.misses",
];

impl FleetSession {
    fn read(&self) -> Vec<u64> {
        self.handles.iter().map(|(_, c)| c.get()).collect()
    }
}

impl Workload for FleetLoad {
    type Session = FleetSession;
    type Input = ();
    const THREADS: usize = Self::WORKERS;

    /// One simulated day.
    fn prefix(&self) -> u64 {
        48
    }

    fn replay(&self) -> u64 {
        8
    }

    fn setup(&self, pause: &mut dyn FnMut()) -> (FleetSession, String) {
        let config = FleetConfig {
            traps: Self::TRAPS,
            workers: Self::WORKERS,
            seed: split_seed(self.seed, SETUP_STREAM as usize),
            ..FleetConfig::default()
        };
        let mut fleet = Fleet::new(config);
        for _ in 0..Self::WARMUP_MINUTES / Self::MINUTES_PER_REQUEST {
            fleet.run_minutes(Self::MINUTES_PER_REQUEST);
            pause();
        }
        let handles =
            FLEET_COUNTERS.iter().map(|&name| (name, fleet.obs().counter(name))).collect();
        let rendered = fleet.obs().deterministic_snapshot().to_json();
        (FleetSession { fleet, handles }, rendered)
    }

    fn input(&self, _: u64) {}

    fn call(&self, session: &mut FleetSession, (): (), _: Option<(&mut Tracer, usize)>) -> Outcome {
        let before = session.read();
        session.fleet.run_minutes(Self::MINUTES_PER_REQUEST);
        let after = session.read();
        let delta: Vec<u64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
        let mut digest = Digest::new();
        delta.iter().for_each(|&d| digest.u64(d));
        Outcome {
            digest: digest.finish(),
            units: delta[1],
            diags: delta[4],
            tests: delta[5],
            identified: delta[6],
            minutes: Self::MINUTES_PER_REQUEST,
        }
    }

    fn verdict(&self, session: &mut FleetSession, _: &[Outcome]) -> Verdict {
        let summary = session.fleet.summary();
        let diags = summary.diagnoses.max(1) as f64;
        Verdict {
            text: summary.to_string(),
            tests_per_diag: summary.tests_run as f64 / diags,
            identify_rate: summary.faults_fixed as f64 / diags,
            sim_job_p99_s: summary.latency_p99,
        }
    }

    fn counters(&self, session: &FleetSession) -> Vec<(&'static str, u64)> {
        session.handles.iter().map(|(n, c)| (*n, c.get())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_inputs_follow_the_seed() {
        let planted = |seed, i| {
            Oracle::new(seed).input(i).machines.into_iter().map(|(p, _)| p).collect::<Vec<_>>()
        };
        assert_eq!(planted(7, 3), planted(7, 3));
        assert_ne!(planted(7, 3), planted(8, 3));
        assert_ne!(planted(7, 3), planted(7, 4));
        let sizes: Vec<usize> = planted(7, 0).iter().map(Vec::len).collect();
        assert_eq!(sizes, [1, 2, 3]);
    }

    #[test]
    fn strings_inputs_follow_the_seed() {
        let input = |seed, i| {
            let x = Strings::new(seed).input(i);
            (x.target, x.shot_seed)
        };
        assert_eq!(input(7, 3), input(7, 3));
        assert_ne!(input(7, 3), input(8, 3));
        assert_ne!(input(7, 3), input(7, 4));
    }

    #[test]
    fn a_request_repeats_with_and_without_the_decorator() {
        let w = Oracle::new(11);
        let plain = w.call(&mut (), w.input(2), None);
        let mut tracer = Tracer::new();
        let span = tracer.begin(crate::trace::REQUEST, 2, None);
        let traced = w.call(&mut (), w.input(2), Some((&mut tracer, span)));
        tracer.end(span);
        assert_eq!(plain, traced);
        let tests = tracer.spans().iter().filter(|s| s.name == crate::trace::RUN_TEST).count();
        assert_eq!(tests as u64, traced.tests);
    }
}
