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

/// SP4a (author pairs sharing a homepage, joined only through a FILTER
/// equality) on two articles whose authors share one homepage.
#[test]
fn cdp_answers_sp4a_through_the_filter_rewrite() {
    let path = std::env::temp_dir().join("hsp-cli-test-sp4a.nt");
    let mut doc = String::new();
    for i in 1..=2 {
        doc.push_str(&format!(
            "<http://e/a{i}> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://e/Article> .\n\
             <http://e/a{i}> <http://e/creator> <http://e/au{i}> .\n\
             <http://e/au{i}> <http://e/homepage> <http://e/hp> .\n"
        ));
    }
    std::fs::write(&path, doc).expect("writable temp dir");
    let query = "SELECT ?au1 ?au2 WHERE {
        ?a1 a <http://e/Article> . ?a1 <http://e/creator> ?au1 . ?au1 <http://e/homepage> ?hp1 .
        ?a2 a <http://e/Article> . ?a2 <http://e/creator> ?au2 . ?au2 <http://e/homepage> ?hp2 .
        FILTER (?hp1 = ?hp2) }";
    let rows = |planner: &str| {
        let (stdout, stderr, ok) = hsp(&[
            path.to_str().unwrap(),
            "--query",
            query,
            "--planner",
            planner,
            "--format",
            "csv",
        ]);
        assert!(ok, "{planner} failed: {stderr}");
        let mut lines: Vec<String> = stdout.lines().map(str::to_string).collect();
        lines.sort();
        (lines, stderr)
    };
    let (hsp_rows, hsp_stderr) = rows("hsp");
    assert_eq!(hsp_rows.len(), 5, "header + 4 rows: {hsp_rows:?}");
    assert!(!hsp_stderr.contains("note:"), "{hsp_stderr}");
    let (cdp_rows, cdp_stderr) = rows("cdp");
    assert_eq!(cdp_rows, hsp_rows);
    assert!(cdp_stderr.contains("note:"), "{cdp_stderr}");
}

#[test]
fn explain_prints_plan_tree() {
    let data = data_file("explain");
    // A governed run explains the same plan: the pipeline DAG is part of
    // the explanation either way.
    for budget in [&[][..], &["--mem-budget-mb", "64"]] {
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

/// The pipeline DAG section of an `--explain` output: from its header to
/// its `result:` line.
fn dag_of(explain: &str) -> &str {
    let start = explain.find("pipeline DAG:").expect("a DAG section");
    let end = start + explain[start..].find("result:").expect("a result line");
    &explain[start..end]
}

#[test]
fn explain_shows_merge_blocks_as_one_source() {
    // The DAG depends on the plan alone, so any data file will do.
    let data = data_file("merge-blocks");
    let query = |id: &str| {
        sparql_hsp::datagen::workload()
            .into_iter()
            .find(|q| q.id == id)
            .expect("a paper query")
            .text
    };
    // SP2a's ten-pattern star is one merge block: one pipeline, no
    // materialised scan or merge-join breaker.
    let (stdout, stderr, ok) = hsp(&[
        data.to_str().unwrap(),
        "--query",
        query("SP2a"),
        "--explain",
    ]);
    assert!(ok, "{stderr}");
    let dag = dag_of(&stdout);
    assert!(
        dag.starts_with("pipeline DAG: 1 pipeline, 0 breakers"),
        "{dag}"
    );
    assert!(dag.contains("← pipeline: ⋈k ?inproc [σ("), "{dag}");
    assert!(!dag.contains("⋈mj"), "{dag}");
    // Y1's blocks stream too, but its hash joins keep their build slots.
    let (stdout, stderr, ok) = hsp(&[data.to_str().unwrap(), "--query", query("Y1"), "--explain"]);
    assert!(ok, "{stderr}");
    let dag = dag_of(&stdout);
    assert!(dag.contains("⋈k ?p ["), "{dag}");
    assert!(dag.contains("⋈hj ?uni [build s"), "{dag}");
    assert!(dag.contains("⋈hj ?city,?lcity [build s"), "{dag}");
    assert!(!dag.contains("⋈mj"), "{dag}");
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
