//! `--metrics=PATH` on the harness binaries: the run writes a metrics
//! document with `wall_seconds` to PATH and prints the same stdout as a
//! plain run, at `--fast --trials=1`. fig8, fig9 and loadgen wrote their
//! documents before these binaries did and are checked by
//! `make obs-check`.

use std::process::Command;

fn stdout_of(bin: &str, extra: &[&str]) -> Vec<u8> {
    let out = Command::new(bin)
        .args(["--fast", "--trials=1", "--threads=1"])
        .args(extra)
        .output()
        .expect("binary starts");
    assert!(out.status.success(), "{bin} {extra:?} exited {:?}", out.status);
    out.stdout
}

fn check(name: &str, bin: &str) {
    let path = std::env::temp_dir().join(format!("itqc_metrics_flag_{name}.json"));
    let _ = std::fs::remove_file(&path);
    let plain = stdout_of(bin, &[]);
    let metered = stdout_of(bin, &[&format!("--metrics={}", path.display())]);
    assert_eq!(plain, metered, "{name}: --metrics changed stdout");
    let doc = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{name}: no metrics document written: {e}"));
    let _ = std::fs::remove_file(&path);
    assert!(doc.contains("\"wall_seconds\""), "{name}: document lacks wall_seconds: {doc}");
}

macro_rules! metrics_flag_tests {
    ($($name:ident),* $(,)?) => {$(
        #[test]
        fn $name() {
            check(stringify!($name), env!(concat!("CARGO_BIN_EXE_", stringify!($name))));
        }
    )*};
}

metrics_flag_tests!(ablations, fig2, fig3, fig6, fig7, fig10, fig11, fig_adv, rb, table1, table2);
