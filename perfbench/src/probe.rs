//! The calibration probe that turns wall-clock into reference units.
//!
//! Identical seeded work on a shared container moves by ±20% from run
//! to run, and by more within one run. The probe is a fixed piece of
//! CPU work with the program's own mix of access patterns: it writes a
//! fresh 128 KiB array, sorts it, and folds it through a hash map. The
//! benchmark runs it between requests, never while the program works,
//! on as many threads as the program keeps busy, and divides every
//! timing by a probe factor: probe time over [`REFERENCE_NS`].

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::sync::Barrier;
use std::time::Instant;

/// Words in the probe array (128 KiB of `u64`).
const WORDS: usize = 16 * 1024;

/// Distinct hash-map keys the fold spreads the array over.
const KEYS: u64 = 4096;

/// Samples on either side of a timing that its local factor uses.
pub const LOCAL_HALF_WINDOW: usize = 4;

/// Probe time on the reference machine, nanoseconds: the median of this
/// probe on a 2-vCPU x86-64 cloud container. Only the ratio of a run's
/// probe time to this constant enters any reported number.
pub const REFERENCE_NS: f64 = 800_000.0;

/// One thread's probe buffers.
struct Lane {
    words: Vec<u64>,
    // A fixed-key hasher: the probe's work must not depend on the
    // process's random hash seed.
    map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    state: u64,
}

impl Lane {
    fn new(seed: u64) -> Self {
        Lane {
            words: vec![0; WORDS],
            map: HashMap::with_capacity_and_hasher(KEYS as usize, Default::default()),
            state: seed,
        }
    }

    /// One pass: fresh array contents, sort, hash-map fold.
    fn pass(&mut self) -> u64 {
        let mut x = self.state;
        for w in &mut self.words {
            // xorshift64*: same statistics every pass, fresh values.
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            *w = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
        }
        self.state = x;
        self.words.sort_unstable();
        self.map.clear();
        for &w in &self.words {
            *self.map.entry(w % KEYS).or_insert(0) ^= w;
        }
        self.map.values().fold(0, |acc, &v| acc.wrapping_add(v))
    }

    /// An untimed pass that pulls the lane's own buffers back into
    /// cache, so the program's cache footprint cannot leak into the
    /// timing, then `ready` (all lanes together), then one timed pass.
    fn timed_pass(&mut self, ready: &Barrier) -> f64 {
        black_box(self.pass());
        ready.wait();
        let start = Instant::now();
        black_box(self.pass());
        start.elapsed().as_nanos() as f64
    }
}

/// The probe's lanes and its record of samples.
pub struct Probe {
    lanes: Vec<Lane>,
    samples_ns: Vec<f64>,
}

impl Probe {
    /// A probe with one lane per thread the measured program keeps
    /// busy; no samples yet.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is 0.
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "a probe needs a lane");
        let lanes = (0..threads as u64).map(|t| Lane::new(0x9E37_79B9_7F4A_7C15 ^ t)).collect();
        Probe { lanes, samples_ns: Vec::new() }
    }

    /// Takes one timed sample and returns its duration in nanoseconds.
    /// With several lanes, they run at once on their own threads and the
    /// sample is the slowest lane's time: a program whose threads meet
    /// at a barrier waits for its slowest core the same way.
    pub fn sample(&mut self) -> f64 {
        let ready = Barrier::new(self.lanes.len());
        let (first, rest) = self.lanes.split_first_mut().expect("at least one lane");
        let ns = std::thread::scope(|s| {
            let others: Vec<_> =
                rest.iter_mut().map(|lane| s.spawn(|| lane.timed_pass(&ready))).collect();
            let mine = first.timed_pass(&ready);
            others.into_iter().map(|h| h.join().expect("probe lane panicked")).fold(mine, f64::max)
        });
        self.samples_ns.push(ns);
        ns
    }

    /// Takes `n` samples.
    pub fn samples(&mut self, n: usize) {
        for _ in 0..n {
            self.sample();
        }
    }

    /// Every sample taken so far, nanoseconds, in order.
    pub fn samples_ns(&self) -> &[f64] {
        &self.samples_ns
    }

    /// The run's factor: median sample over [`REFERENCE_NS`].
    ///
    /// # Panics
    ///
    /// Panics before the first sample.
    pub fn factor(&self) -> f64 {
        crate::stats::median(&self.samples_ns) / REFERENCE_NS
    }

    /// The factor for work that ended when `at` samples had been
    /// taken: the median of the [`LOCAL_HALF_WINDOW`] samples on either
    /// side over [`REFERENCE_NS`]. The machine's speed drifts in phases
    /// of a fraction of a second to seconds, which a run-wide factor
    /// averages away and a local one follows.
    ///
    /// # Panics
    ///
    /// Panics before the first sample.
    pub fn local_factor(&self, at: usize) -> f64 {
        crate::stats::median(crate::stats::window(&self.samples_ns, at, LOCAL_HALF_WINDOW))
            / REFERENCE_NS
    }
}
