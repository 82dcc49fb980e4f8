//! Fleet-service integration suite: the determinism contract `fleetd`
//! ships under (the `fleetd-smoke` CI job runs the same checks against
//! the release binary).
//!
//! The load-bearing property is that the end-of-run `FleetSummary` is a
//! pure function of `(config minus workers, minutes, submissions)` —
//! the worker-thread count may only change wall-clock time.

use itqc::fleet::machine_day::FIG2_QUBITS;
use itqc::prelude::*;

fn exercised_config(workers: usize) -> FleetConfig {
    FleetConfig {
        traps: 6,
        workers,
        n_qubits: 7,
        canary_cadence_min: 2,
        arrival_rate_per_min: 3.0,
        ..FleetConfig::default()
    }
}

/// The ISSUE's hard requirement: one fleet, three worker counts, one
/// summary string. Mixed API submissions land mid-run so the
/// shard-ordered merge is exercised, not just the internal load.
#[test]
fn summary_bit_identical_at_one_two_and_eight_workers() {
    let mut renders = Vec::new();
    let mut reference = None;
    for workers in [1usize, 2, 8] {
        let mut fleet = Fleet::new(exercised_config(workers));
        fleet.submit(0, 25.0, 1).unwrap();
        fleet.submit(5, 4.0, 1).unwrap();
        fleet.run_minutes(20);
        for trap in 0..6 {
            fleet.submit(trap, 10.0, 1).unwrap();
        }
        fleet.run_minutes(15);
        let summary = fleet.summary();
        renders.push(summary.to_string());
        reference.get_or_insert(summary);
    }
    assert_eq!(renders[0], renders[1], "workers=2 diverged from workers=1");
    assert_eq!(renders[0], renders[2], "workers=8 diverged from workers=1");
    // And the run did real work — the equality is not vacuous.
    let s = reference.expect("three runs");
    assert!(s.canaries > 0 && s.completed > 0, "inactive fleet: {s}");
    assert_eq!(s.submitted - s.completed, s.queued as u64, "job conservation");
}

/// Re-running the same configuration must reproduce the same summary
/// (the seed pins every stream), and a different seed must not.
#[test]
fn summary_is_seeded() {
    let run = |seed: u64| {
        let mut fleet = Fleet::new(FleetConfig { seed, ..exercised_config(2) });
        fleet.run_minutes(12);
        fleet.summary().to_string()
    };
    assert_eq!(run(7), run(7));
    assert_ne!(run(7), run(8));
}

/// Short drift epochs make every epoch mint a new generation of canary
/// circuits, so each shard's score memo sees a different mix of hits
/// and first evaluations at each worker count; the summary must not.
#[test]
fn short_drift_epochs_stay_worker_invariant() {
    let short_epochs = |workers| FleetConfig {
        traps: 4,
        workers,
        n_qubits: 7,
        canary_cadence_min: 2,
        drift_epoch_min: 5,
        arrival_rate_per_min: 3.0,
        ..FleetConfig::default()
    };
    let run = |workers: usize| {
        let mut fleet = Fleet::new(short_epochs(workers));
        fleet.run_minutes(25);
        fleet.summary()
    };
    let a = run(1);
    let b = run(8);
    assert_eq!(a.to_string(), b.to_string());
}

/// Regression pin for the `itqc_obs` counter migration: the summary
/// block below was captured from the pre-migration build (bespoke
/// counter structs) with `fleetd --traps=4 --workers=3 --seed=7`,
/// `run 30`, less the two lines of the since-deleted shared
/// prepared-circuit cache. Now that every fleet counter is a
/// registry-backed [`itqc::obs::Counter`] handle and every test scores
/// on the memoised exact path, the rendering must still be
/// byte-identical to that capture.
#[test]
fn stats_and_summary_render_the_pre_migration_bytes() {
    let mut fleet =
        Fleet::new(FleetConfig { traps: 4, workers: 3, seed: 7, ..FleetConfig::default() });
    fleet.run_minutes(30);
    let expected = "\
fleet summary
  traps 4 seed 7 minutes 30
  jobs submitted 506 completed 506 queued 0 per-machine-day 24288.0
  latency_s p50 23.867 p90 75.940 p99 175.826
  canaries 60 trips 0 diagnoses 0 tests 0 faults_fixed 0
  duty_s jobs=3830.8 testing=151.4 calibration=0.0 adaptation=0.0 idle=3217.9
";
    assert_eq!(fleet.summary().to_string(), expected);
}

/// End-to-end: a drifting fleet trips canaries, diagnoses through the
/// fleet executor, and recalibrates — the maintenance loop of the
/// paper's Fig. 2, fleet-wide.
#[test]
fn fleet_maintains_itself_under_drift() {
    let mut fleet = Fleet::new(FleetConfig {
        traps: 4,
        workers: 2,
        n_qubits: FIG2_QUBITS,
        drift: itqc::faults::drift::JumpDrift {
            base: itqc::faults::drift::OrnsteinUhlenbeckDrift { tau_minutes: 240.0, sigma: 0.02 },
            jumps_per_minute: 0.02, // hot fleet: ~29 hard faults/trap/day
            jump_scale: 0.30,
        },
        ..FleetConfig::default()
    });
    fleet.run_minutes(180);
    let s = fleet.summary();
    assert!(s.trips > 0, "a hot fleet must trip canaries: {s}");
    assert_eq!(s.trips, s.diagnoses, "every trip triggers a diagnosis");
    assert!(s.faults_fixed > 0, "diagnoses must recalibrate faults: {s}");
    assert!(s.tests_run > 0);
    // Jobs kept flowing while maintenance ran.
    assert!(s.completed > 0 && s.duty[0] > 0.0);
}

/// `fleetd`'s line protocol under a seeded command fuzz: malformed
/// lines, out-of-range traps, non-finite and negative service times,
/// huge counts and run lengths, and `run 0`. Every non-blank line must
/// get a reply, no line may panic, and the fleet must keep serving.
#[test]
fn fleetd_protocol_answers_every_fuzzed_line_without_panicking() {
    use itqc::fleet::api::MAX_SUBMIT_COUNT;
    use itqc::fleet::service::{handle_line, Reply, MAX_RUN_MINUTES};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    let mut fleet = Fleet::new(FleetConfig {
        traps: 3,
        workers: 2,
        n_qubits: 6,
        arrival_rate_per_min: 1.0,
        ..FleetConfig::default()
    });
    // The daemon killers this protocol used to accept.
    for (line, reply) in [
        (
            "submit 0 nan 1",
            "error: service time NaN is not a finite, non-negative number of seconds",
        ),
        ("submit 0 inf", "error: service time inf is not a finite, non-negative number of seconds"),
        ("submit 0 -1 2", "error: service time -1 is not a finite, non-negative number of seconds"),
        ("submit 0 5.0 99999999999", "error: count 99999999999 exceeds 10000"),
        ("submit 3 5.0", "error: trap 3 out of range"),
        ("submit 3 5.0 0", "error: trap 3 out of range"),
        ("submit 0 5.0 abc", "error: submit <trap> <service_s> [count]"),
        ("run 99999999999", "error: run 99999999999 exceeds 10080 minutes"),
        ("run 0", "ok ran 0 minutes (now at 0)"),
        ("run 1", "ok ran 1 minutes (now at 1)"),
    ] {
        assert_eq!(handle_line(&mut fleet, line), Reply::Text(reply.to_string()), "{line}");
    }

    let words =
        ["run", "submit", "status", "stats", "metrics", "summary", "help", "frobnicate", ""];
    let args = [
        "0",
        "1",
        "2",
        "3",
        "7",
        "-1",
        "nan",
        "NaN",
        "inf",
        "-inf",
        "1e308",
        "0.5",
        "abc",
        "",
        "18446744073709551616",
        "99999999999",
    ];
    // `run` lengths stay short or beyond the cap, so the fuzz never
    // simulates long stretches: a long one must be refused unexecuted.
    let runs = ["0", "1", "3", "-1", "abc", "", "99999999999", "18446744073709551616"];
    let too_long = (MAX_RUN_MINUTES + 1).to_string();
    let huge = [(MAX_SUBMIT_COUNT + 1).to_string(), usize::MAX.to_string()];
    let mut rng = SmallRng::seed_from_u64(0xF1EE7D);
    for i in 0..400 {
        let cmd = words[rng.gen_range(0..words.len())];
        let mut line = cmd.to_string();
        for _ in 0..rng.gen_range(0..4) {
            line.push(' ');
            line.push_str(args[rng.gen_range(0..args.len())]);
        }
        let mut refused = matches!(cmd, "frobnicate" | "stats");
        if cmd == "run" {
            let arg =
                if rng.gen_bool(0.8) { runs[rng.gen_range(0..runs.len())] } else { &too_long };
            line = format!("run {arg}");
            refused = !matches!(arg, "0" | "1" | "3");
        } else if cmd == "submit" && rng.gen_bool(0.2) {
            line = format!(
                "submit {} 2.0 {}",
                rng.gen_range(0..5),
                huge[rng.gen_range(0..huge.len())]
            );
            refused = true;
        }
        match handle_line(&mut fleet, &line) {
            Reply::Text(reply) => {
                assert!(!reply.is_empty(), "line {i} '{line}' got an empty reply");
                if refused {
                    assert!(reply.starts_with("error: "), "line {i} '{line}': {reply}");
                }
            }
            Reply::Nothing => assert!(line.trim().is_empty(), "line {i} '{line}' got no reply"),
            Reply::Quit => panic!("line {i} '{line}' quit"),
        }
    }
    assert_eq!(handle_line(&mut fleet, "quit"), Reply::Quit);
    // Still serving after the fuzz.
    assert!(
        matches!(handle_line(&mut fleet, "run 1"), Reply::Text(r) if r.starts_with("ok ran 1"))
    );
    let s = fleet.summary();
    assert_eq!(s.submitted - s.completed, s.queued as u64, "job conservation");
}

/// Order pin for a saturated fleet: at 20 jobs/trap/minute of 30 s mean
/// service every trap ends each minute with a backlog, so jobs wait
/// across many ticks behind earlier arrivals and behind every canary
/// and diagnosis, and the latency percentiles depend on the order in
/// which each trap drains its queue. API submissions land part-way
/// through. The block below was captured before the per-trap queue
/// became a plain FIFO; it must not move, at any worker count.
#[test]
fn saturated_backlog_summary_is_pinned() {
    for workers in [1usize, 2] {
        let mut fleet = Fleet::new(FleetConfig {
            traps: 8,
            workers,
            arrival_rate_per_min: 20.0,
            service_secs_mean: 30.0,
            ..FleetConfig::default()
        });
        fleet.run_minutes(90);
        fleet.submit(2, 45.0, 50).unwrap();
        fleet.submit(5, 1.0, 3).unwrap();
        fleet.run_minutes(60);
        fleet.submit(0, 5.0, 10).unwrap();
        fleet.submit(7, 0.0, 1).unwrap();
        fleet.run_minutes(90);
        let expected = "\
fleet summary
  traps 8 seed 20220402 minutes 240
  jobs submitted 38459 completed 3633 queued 34826 per-machine-day 21798.0
  latency_s p50 6565.741 p90 11746.837 p99 12921.731
  canaries 960 trips 10 diagnoses 10 tests 155 faults_fixed 11
  duty_s jobs=112341.7 testing=3080.8 calibration=11.0 adaptation=10.0 idle=0.0
";
        assert_eq!(fleet.summary().to_string(), expected, "workers={workers}");
    }
}
