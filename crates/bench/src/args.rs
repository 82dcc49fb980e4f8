//! Minimal CLI-argument parsing for the harness binaries.

/// Where `--metrics[=PATH]` sends the end-of-run metrics document
/// (never stdout — every byte-identity gate diffs stdout).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricsSink {
    /// Print the JSON document to stderr (bare `--metrics`).
    Stderr,
    /// Write the JSON document to a sidecar file (`--metrics=PATH`).
    File(String),
}

/// Common harness options:
/// `--trials=N  --seed=S  --threads=N|auto  --csv  --fast  --metrics[=PATH]`.
/// A binary's own flags (fig8's `--sizes=` and `--backend=`, fig9's and
/// table2's `--decoder=`, table2's `--xl`) come back from
/// [`Args::parse_with`]; every other binary refuses them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Args {
    /// Monte-Carlo trials per configuration.
    pub trials: usize,
    /// Master RNG seed.
    pub seed: u64,
    /// Worker threads for the parallel trial engine; `0` (or
    /// `--threads=auto`) = all available cores via
    /// `std::thread::available_parallelism`. Results are identical at
    /// any thread count, so this only changes wall-clock — note that on
    /// a 1-vCPU container `auto` resolves to a single worker and the
    /// parallel engine degrades gracefully to the sequential path.
    pub threads: usize,
    /// Emit CSV after the human-readable tables.
    pub csv: bool,
    /// Shrink workloads for smoke testing.
    pub fast: bool,
    /// Emit the end-of-run metrics document (`--metrics` → stderr,
    /// `--metrics=PATH` → sidecar file); also enables the `itqc_obs`
    /// event layer for the run.
    pub metrics: Option<MetricsSink>,
}

/// The common flags, for usage messages.
const USAGE: &str = "--trials=N --seed=S --threads=N|auto --csv --fast --metrics[=PATH]";

/// Prints `error: {msg}` and the common flags to stderr and exits with
/// status 2 — the harness binaries' answer to a bad command line.
pub fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("flags: {USAGE}");
    std::process::exit(2);
}

fn value<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("{flag}: malformed value '{v}'"))
}

impl Args {
    /// Parses `std::env::args`, with the given default trial count.
    /// An unknown flag or a malformed value exits with status 2 and a
    /// message naming it ([`usage_error`]).
    pub fn parse(default_trials: usize) -> Self {
        Self::parse_with(default_trials, &[]).0
    }

    /// [`Self::parse`] for a binary with flags of its own. Each entry
    /// of `extra` is an exact flag (`--xl`) or, ending in `=`, a flag
    /// prefix (`--sizes=`); matching arguments come back verbatim, in
    /// command-line order, for the binary to interpret.
    pub fn parse_with(default_trials: usize, extra: &[&str]) -> (Self, Vec<String>) {
        Self::parse_from(default_trials, extra, std::env::args().skip(1))
            .unwrap_or_else(|e| usage_error(&e))
    }

    /// [`Self::parse_with`] over an explicit argument list, returning
    /// the error instead of exiting (testable core).
    pub fn parse_from(
        default_trials: usize,
        extra: &[&str],
        args: impl Iterator<Item = String>,
    ) -> Result<(Self, Vec<String>), String> {
        let mut out = Args {
            trials: default_trials,
            seed: 20220402,
            threads: 0,
            csv: false,
            fast: false,
            metrics: None,
        };
        let mut own = Vec::new();
        for arg in args {
            if let Some(v) = arg.strip_prefix("--trials=") {
                out.trials = value("--trials", v)?;
                if out.trials == 0 {
                    return Err("--trials=0: at least one trial is needed".to_string());
                }
            } else if let Some(v) = arg.strip_prefix("--seed=") {
                out.seed = value("--seed", v)?;
            } else if let Some(v) = arg.strip_prefix("--threads=") {
                out.threads = if v == "auto" { 0 } else { value("--threads", v)? };
            } else if arg == "--csv" {
                out.csv = true;
            } else if arg == "--fast" {
                out.fast = true;
            } else if arg == "--metrics" {
                out.metrics = Some(MetricsSink::Stderr);
            } else if let Some(path) = arg.strip_prefix("--metrics=") {
                if path.is_empty() {
                    return Err("--metrics=: empty path".to_string());
                }
                out.metrics = Some(MetricsSink::File(path.to_string()));
            } else if extra.iter().any(|&e| arg == e || (e.ends_with('=') && arg.starts_with(e))) {
                own.push(arg);
            } else {
                return Err(format!("unknown flag '{arg}'"));
            }
        }
        if out.fast {
            out.trials = out.trials.div_ceil(10).max(2);
        }
        Ok((out, own))
    }

    /// The worker thread count with `0` resolved to the machine's
    /// available parallelism.
    pub fn threads(&self) -> usize {
        crate::par_trials::resolve_threads(self.threads)
    }

    /// A deterministic per-configuration seed derived from the master
    /// seed, so adding configurations does not reshuffle earlier ones.
    pub fn seed_for(&self, tag: &str) -> u64 {
        // FNV-1a over the tag, mixed with the master seed.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ self.seed;
        for b in tag.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }
}

/// The value of a binary's own `--name=` flag (`flag` includes the `=`)
/// among the arguments [`Args::parse_with`] handed back, parsed; the
/// last occurrence wins. `Ok(None)` when the flag was not given; a
/// malformed value is an error naming the flag.
pub fn own_value<T: std::str::FromStr>(own: &[String], flag: &str) -> Result<Option<T>, String> {
    own.iter()
        .rev()
        .find_map(|arg| arg.strip_prefix(flag))
        .map(|v| value(flag.trim_end_matches('='), v))
        .transpose()
}

/// Parses a comma-separated `--sizes=` list, accepting only sizes in
/// `measured`: an empty, malformed or unmeasured entry is an error
/// rather than an empty table.
pub fn parse_sizes(v: &str, measured: &[usize]) -> Result<Vec<usize>, String> {
    v.split(',')
        .map(|s| match s.parse() {
            Ok(n) if measured.contains(&n) => Ok(n),
            _ => Err(format!("--sizes: '{s}' is not one of the measured sizes {measured:?}")),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use itqc_backend::BackendChoice;
    use itqc_core::DecoderPolicy;

    fn args() -> Args {
        Args { trials: 10, seed: 1, threads: 0, csv: false, fast: false, metrics: None }
    }

    fn parse(argv: &[&str]) -> Result<Args, String> {
        parse_extra(argv, &[]).map(|(a, _)| a)
    }

    fn parse_extra(argv: &[&str], extra: &[&str]) -> Result<(Args, Vec<String>), String> {
        Args::parse_from(10, extra, argv.iter().map(|s| s.to_string()))
    }

    #[test]
    fn metrics_flag_parses_both_sinks() {
        assert_eq!(args().metrics, None);
        assert_eq!(parse(&["--metrics"]).unwrap().metrics, Some(MetricsSink::Stderr));
        assert_eq!(
            parse(&["--metrics=/tmp/m.json"]).unwrap().metrics,
            Some(MetricsSink::File("/tmp/m.json".to_string()))
        );
        assert!(parse(&["--metrics="]).is_err());
    }

    /// A binary's own flag parsed from what [`Args::parse_with`] hands
    /// back when the binary declares `flag`.
    fn own<T: std::str::FromStr>(argv: &[&str], flag: &str) -> Result<Option<T>, String> {
        let (_, own) = parse_extra(argv, &[flag])?;
        own_value(&own, flag)
    }

    #[test]
    fn backend_choice_parses() {
        assert_eq!("analytic".parse::<BackendChoice>(), Ok(BackendChoice::Analytic));
        assert_eq!(own::<BackendChoice>(&[], "--backend="), Ok(None));
        assert_eq!(BackendChoice::default(), BackendChoice::Auto);
        let dense = own(&["--fast", "--backend=dense"], "--backend=");
        assert_eq!(dense, Ok(Some(BackendChoice::Dense)));
    }

    #[test]
    fn per_config_seeds_differ() {
        let a = args();
        assert_ne!(a.seed_for("fig8/n=8"), a.seed_for("fig8/n=16"));
        assert_eq!(a.seed_for("x"), a.seed_for("x"));
    }

    #[test]
    fn threads_zero_resolves_to_at_least_one() {
        let a = args();
        assert!(a.threads() >= 1);
        let b = Args { threads: 8, ..a };
        assert_eq!(b.threads(), 8);
    }

    #[test]
    fn threads_auto_parses_like_zero() {
        let auto = parse(&["--threads=auto"]).unwrap();
        assert_eq!(auto.threads, 0, "`auto` defers to available_parallelism");
        assert!(auto.threads() >= 1);
        assert_eq!(parse(&["--threads=3"]).unwrap().threads, 3);
        let junk = parse(&["--threads=lots"]).unwrap_err();
        assert!(junk.contains("--threads"), "{junk}");
    }

    #[test]
    fn decoder_defaults_to_ranked() {
        assert_eq!(DecoderPolicy::default(), DecoderPolicy::Ranked);
        assert_eq!(own::<DecoderPolicy>(&[], "--decoder="), Ok(None));
        assert_eq!("set-cover".parse::<DecoderPolicy>(), Ok(DecoderPolicy::SetCoverFallback));
        let greedy = own(&["--decoder=ranked", "--decoder=greedy"], "--decoder=");
        assert_eq!(greedy, Ok(Some(DecoderPolicy::Greedy)), "the last occurrence wins");
    }

    #[test]
    fn binary_flags_are_refused_where_undeclared() {
        // Only fig8 declares --backend= and only fig9 and table2
        // declare --decoder=; every other binary refuses them by name,
        // which `Args::parse_with` turns into exit status 2.
        for flag in ["--backend=dense", "--decoder=greedy"] {
            let err = parse(&[flag]).unwrap_err();
            assert!(err.contains(flag), "{flag}: {err}");
        }
        let err = parse_extra(&["--decoder=greedy"], &["--backend="]).unwrap_err();
        assert!(err.contains("--decoder=greedy"), "{err}");
    }

    #[test]
    fn common_flags_parse_and_fast_shrinks_trials() {
        let a = parse(&["--trials=40", "--seed=7", "--csv", "--fast"]).unwrap();
        assert_eq!((a.trials, a.seed, a.csv, a.fast), (4, 7, true, true));
        assert_eq!(parse(&[]).unwrap(), Args { seed: 20220402, ..args() });
        // `--fast` never shrinks below two trials.
        assert_eq!(parse(&["--trials=1", "--fast"]).unwrap().trials, 2);
    }

    #[test]
    fn unknown_flags_are_rejected_by_name() {
        for bad in ["--trails=10", "--report", "--xl", "--sizes=8", "-v", "fast"] {
            let err = parse(&[bad]).unwrap_err();
            assert!(err.contains(bad), "{bad}: {err}");
        }
    }

    #[test]
    fn malformed_values_are_rejected_by_flag() {
        for (bad, flag) in [
            ("--trials=abc", "--trials"),
            ("--trials=0", "--trials"),
            ("--trials=-3", "--trials"),
            ("--seed=x", "--seed"),
        ] {
            let err = parse(&[bad]).unwrap_err();
            assert!(err.contains(flag), "{bad}: {err}");
        }
        let err = own::<DecoderPolicy>(&["--decoder=best"], "--decoder=").unwrap_err();
        assert!(err.contains("--decoder") && err.contains("best"), "{err}");
        let err = own::<BackendChoice>(&["--backend=gpu"], "--backend=").unwrap_err();
        assert!(err.contains("--backend") && err.contains("gpu"), "{err}");
    }

    #[test]
    fn declared_binary_flags_come_back_in_order() {
        let (a, own) =
            parse_extra(&["--xl", "--fast", "--sizes=8,16"], &["--sizes=", "--xl"]).unwrap();
        assert!(a.fast);
        assert_eq!(own, ["--xl", "--sizes=8,16"]);
        // An exact flag does not match as a prefix.
        assert!(parse_extra(&["--xlarge"], &["--xl"]).is_err());
    }

    #[test]
    fn sizes_accept_only_measured_machines() {
        let measured = [8, 16, 32, 64, 128];
        assert_eq!(parse_sizes("8", &measured), Ok(vec![8]));
        assert_eq!(parse_sizes("8,16,64", &measured), Ok(vec![8, 16, 64]));
        for bad in ["0", "3", "abc", "", "8,", "8,3"] {
            let err = parse_sizes(bad, &measured).unwrap_err();
            assert!(err.contains("--sizes"), "{bad}: {err}");
        }
    }
}
