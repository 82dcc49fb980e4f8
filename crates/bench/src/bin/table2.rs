//! Table II — probability of identifying 1, 2, and 3 simultaneous
//! same-magnitude faults on 8, 16, and 32 qubits.
//!
//! Equal-magnitude faults cannot be separated by the repetition ladder, so
//! identification rests entirely on the combinatorics: the observed
//! first-round failing set is the union of the individual syndromes, and
//! as faults accumulate, unions start aliasing ("how syndromes start
//! repeating with the increased number of faults", §VII). Each trial
//! plants k distinct faults of 30% under-rotation, runs the full
//! sequential pipeline on a clean machine oracle, and requires the
//! diagnosed set to equal the planted set exactly.
//!
//! The paper's reference values:
//!
//! | qubits | 1 fault | 2 faults | 3 faults |
//! |--------|---------|----------|----------|
//! |   8    |  100%   |   47%    |   22%    |
//! |  16    |  100%   |   23%    |    5%    |
//! |  32    |  100%   |   12%    |    1%    |
//!
//! The main table runs the pipeline with the likelihood-ranked
//! evidence-fusion decoder (`--decoder=ranked`, the reproduction
//! default); a second section ablates the policy (greedy peel vs ranked
//! fusion vs the disputed-member interrogation and set-cover +
//! point-verification fallback extensions) on the 8-qubit cells.

use itqc_bench::args::{own_value, usage_error, TABLE2_FLAGS};
use itqc_bench::output::{pct, section, Table};
use itqc_bench::{table2_identification_rate, Args};
use itqc_core::DecoderPolicy;

fn main() {
    let started = std::time::Instant::now();
    let (args, own) = Args::parse_with(300, TABLE2_FLAGS);
    itqc_bench::metrics::init(&args);
    let xl = own.iter().any(|arg| arg == "--xl");
    let decoder: DecoderPolicy = own_value(&own, "--decoder=")
        .unwrap_or_else(|e| usage_error(&e, TABLE2_FLAGS))
        .unwrap_or_default();
    section(&format!("Table II: P(identify) for k same-magnitude faults ({decoder} decoder)"));

    let paper: [[f64; 3]; 3] = [[1.00, 0.47, 0.22], [1.00, 0.23, 0.05], [1.00, 0.12, 0.01]];

    let mut t =
        Table::new(["qubits", "1 fault", "(paper)", "2 faults", "(paper)", "3 faults", "(paper)"]);
    for (ni, n) in [8usize, 16, 32].into_iter().enumerate() {
        let mut cells = vec![n.to_string()];
        for k in 1..=3usize {
            let trials = if n == 32 && k == 3 { args.trials / 2 } else { args.trials };
            let p = table2_identification_rate(
                n,
                k,
                trials.max(2),
                args.threads,
                decoder,
                args.seed_for(&format!("t2/{n}/{k}")),
            );
            cells.push(pct(p));
            cells.push(format!("({})", pct(paper[ni][k - 1])));
        }
        t.row(cells);
    }
    println!("{}", t.render());

    section("decoder-policy ablation, 8 qubits (greedy | ranked | interrogate | set-cover)");
    let mut t2 = Table::new(["faults", "greedy", "ranked", "interrogate", "set-cover"]);
    for k in 1..=3usize {
        let mut cells = vec![k.to_string()];
        for policy in DecoderPolicy::ALL {
            let p = table2_identification_rate(
                8,
                k,
                args.trials.max(2),
                args.threads,
                policy,
                args.seed_for(&format!("t2ab/{policy}/{k}")),
            );
            cells.push(pct(p));
        }
        t2.row(cells);
    }
    println!("{}", t2.render());

    if xl {
        // Beyond-paper scale: N = 64 makes every first-round class a
        // 32-qubit complete component, past the joint-table cap — the
        // exact oracle answers those targets from the chain sampler's
        // polynomial (z_T, k) tables.
        section("table2_xl: beyond-paper N = 64 row (backend-routed exact scores)");
        let mut txl = Table::new(["qubits", "1 fault", "2 faults", "3 faults"]);
        let mut cells = vec!["64".to_string()];
        for k in 1..=3usize {
            let trials = if k == 3 { args.trials / 4 } else { args.trials / 2 };
            let p = table2_identification_rate(
                64,
                k,
                trials.max(2),
                args.threads,
                decoder,
                args.seed_for(&format!("t2xl/64/{k}")),
            );
            cells.push(pct(p));
        }
        txl.row(cells);
        println!("{}", txl.render());
    }

    println!(
        "expected shape: single faults are always identified; multi-fault\n\
         identification decays with fault count and machine size (syndrome\n\
         aliasing grows). The ranked evidence-fusion decoder closes the greedy\n\
         peel's gap to the paper's 3-fault row by accumulating every adaptive\n\
         round's class scores into a shared cover posterior; the interrogation\n\
         and set-cover policies go beyond the paper's pipeline by point-testing\n\
         disputed members (targeted) or every implicated coupling (exhaustive)."
    );
    itqc_bench::metrics::emit_if_requested("table2", &args, started.elapsed());
}
