//! `repro` rejects an experiment it does not know before doing any work,
//! so a typo or a retired experiment name fails the script that passed it.

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

#[test]
fn unknown_experiments_exit_nonzero_with_the_usage() {
    for args in [&["ops"][..], &["nosuch"], &["table2", "tabel7"]] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran an experiment");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: repro"), "{args:?}: {stderr}");
    }
}

#[test]
fn a_known_dataset_free_experiment_succeeds() {
    let out = repro(&["table2"]);
    assert!(out.status.success(), "{out:?}");
    assert!(!out.stdout.is_empty());
}
