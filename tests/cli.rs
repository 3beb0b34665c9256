//! End-to-end tests of the `hsp` CLI binary: real process invocations over
//! a temporary N-Triples file, exercising query execution, formats,
//! explain output, planner selection, ASK, and updates.

use std::path::PathBuf;
use std::process::Command;

const DATA: &str = r#"<http://e/j1> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://e/Journal> .
<http://e/j1> <http://e/title> "Journal 1 (1940)" .
<http://e/j1> <http://e/issued> "1940"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://e/j2> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://e/Journal> .
<http://e/j2> <http://e/title> "Journal 1 (1952)" .
<http://e/j2> <http://e/issued> "1952"^^<http://www.w3.org/2001/XMLSchema#integer> .
"#;

fn data_file(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("hsp-cli-test-{name}.nt"));
    std::fs::write(&path, DATA).expect("writable temp dir");
    path
}

fn hsp(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_hsp"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn select_table_output() {
    let data = data_file("select");
    let (stdout, stderr, ok) = hsp(&[
        data.to_str().unwrap(),
        "--query",
        "SELECT ?t WHERE { ?j <http://e/title> ?t . } ORDER BY ?t",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("Journal 1 (1940)"));
    assert!(stdout.contains("(2 rows)"));
    assert!(stderr.contains("loaded 6 triples"));
}

#[test]
fn json_output_across_planners() {
    let data = data_file("planners");
    for planner in ["hsp", "cdp", "sql", "hybrid", "stocker"] {
        let (stdout, stderr, ok) = hsp(&[
            data.to_str().unwrap(),
            "--query",
            "SELECT ?j WHERE { ?j a <http://e/Journal> . ?j <http://e/issued> ?yr . }",
            "--planner",
            planner,
            "--format",
            "json",
        ]);
        assert!(ok, "{planner} failed: {stderr}");
        assert!(stdout.starts_with("{\"head\""), "{planner}: {stdout}");
        assert_eq!(stdout.matches("http://e/j").count(), 2, "{planner}");
    }
}

#[test]
fn explain_prints_plan_tree() {
    let data = data_file("explain");
    // A row budget no longer changes which executor runs: the pipeline
    // DAG is part of the explanation either way.
    for budget in [&[][..], &["--budget", "100"]] {
        let mut args = vec![
            data.to_str().unwrap(),
            "--query",
            "SELECT ?j WHERE { ?j a <http://e/Journal> . ?j <http://e/issued> ?yr . }",
            "--explain",
        ];
        args.extend_from_slice(budget);
        let (stdout, _, ok) = hsp(&args);
        assert!(ok);
        assert!(stdout.contains("⋈mj"), "{stdout}");
        assert!(stdout.contains("[tp0]"));
        assert!(stdout.contains("pipeline DAG:"), "{budget:?}: {stdout}");
    }
    // OPTIONAL and UNION queries are one plan too: the same tree, with
    // the scans of every block numbered apart.
    for (query, operator) in [
        (
            "SELECT ?j ?t WHERE { ?j a <http://e/Journal> . \
             OPTIONAL { ?j <http://e/title> ?t . } }",
            "⟕hj ?j",
        ),
        (
            "SELECT ?j WHERE { { ?j <http://e/title> ?t . } UNION \
             { ?j <http://e/issued> ?yr . } }",
            "∪",
        ),
    ] {
        let (stdout, stderr, ok) = hsp(&[data.to_str().unwrap(), "--query", query, "--explain"]);
        assert!(ok, "{query}: {stderr}");
        assert!(stdout.contains(operator), "{stdout}");
        assert!(
            stdout.contains("[tp0]") && stdout.contains("[tp1]"),
            "{stdout}"
        );
        assert!(stdout.contains("pipeline DAG:"), "{stdout}");
    }
}

#[test]
fn ask_and_filter() {
    let data = data_file("ask");
    let (stdout, _, ok) = hsp(&[
        data.to_str().unwrap(),
        "--query",
        r#"ASK { ?j <http://e/issued> ?yr . FILTER (?yr > 1950) }"#,
    ]);
    assert!(ok);
    assert_eq!(stdout.trim(), "true");
    let (stdout, _, ok) = hsp(&[
        data.to_str().unwrap(),
        "--query",
        r#"ASK { ?j <http://e/issued> ?yr . FILTER (?yr > 2000) }"#,
        "--format",
        "json",
    ]);
    assert!(ok);
    assert_eq!(stdout.trim(), "{\"head\":{},\"boolean\":false}");
}

#[test]
fn update_writes_out_file() {
    let data = data_file("update");
    let out_path = std::env::temp_dir().join("hsp-cli-test-update-out.nt");
    let (_, stderr, ok) = hsp(&[
        data.to_str().unwrap(),
        "--update",
        "DELETE WHERE { ?j <http://e/issued> ?yr . }",
        "--out",
        out_path.to_str().unwrap(),
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stderr.contains("-2 triples"));
    let rendered = std::fs::read_to_string(&out_path).unwrap();
    assert!(!rendered.contains("issued"));
    assert_eq!(rendered.lines().count(), 4);
}

#[test]
fn errors_exit_nonzero() {
    let data = data_file("errors");
    // Unknown flag.
    let (_, stderr, ok) = hsp(&[data.to_str().unwrap(), "--frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag"));
    // Unknown planner.
    let (_, stderr, ok) = hsp(&[
        data.to_str().unwrap(),
        "--query",
        "SELECT ?s WHERE { ?s ?p ?o . }",
        "--planner",
        "oracle",
    ]);
    assert!(!ok);
    assert!(stderr.contains("unknown planner"));
    // Missing data file.
    let (_, stderr, ok) = hsp(&[
        "/no/such/file.nt",
        "--query",
        "SELECT ?s WHERE { ?s ?p ?o . }",
    ]);
    assert!(!ok);
    assert!(stderr.contains("cannot read"));
}

#[test]
fn extended_queries_fall_back() {
    let data = data_file("extended");
    let (stdout, _, ok) = hsp(&[
        data.to_str().unwrap(),
        "--query",
        "SELECT ?t ?yr WHERE { ?j <http://e/title> ?t . OPTIONAL { ?j <http://e/nosuch> ?yr . } }",
        "--format",
        "csv",
    ]);
    assert!(ok);
    // CSV header + 2 rows; the OPTIONAL column is empty.
    assert!(stdout.starts_with("t,yr\r\n"));
    assert!(stdout.contains("Journal 1 (1940),\r\n"));
}
