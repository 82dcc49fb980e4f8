//! The Fig. 2 duty-cycle averaging helper.
//!
//! The machine-day scheduling model itself lives in
//! [`itqc_fleet::machine_day`] — the fleet service (`fleetd`) schedules
//! every trap through the same state machine that renders this figure.
//! The `fig2` binary and the tier-2 statistical regression suite import
//! the policies from there; only the trial-parallel averaging helper is
//! local.

use crate::par_map;
use itqc_trap::{Activity, VirtualTrap};

/// Mean seconds per activity (in `Activity::ALL` order) over `trials`
/// independent simulated days, run on the parallel trial engine. Each
/// trial owns its seed, so the result is identical at any thread count.
pub fn mean_duty(
    threads: usize,
    trials: usize,
    seed_of: impl Fn(usize) -> u64 + Sync,
    run: impl Fn(u64) -> VirtualTrap + Sync,
) -> [f64; Activity::ALL.len()] {
    let traps = par_map(threads, trials, |t| run(seed_of(t)));
    let mut mean = [0.0f64; Activity::ALL.len()];
    for trap in &traps {
        let d = trap.duty();
        for (acc, &a) in mean.iter_mut().zip(Activity::ALL.iter()) {
            *acc += d.seconds(a) / traps.len() as f64;
        }
    }
    mean
}
