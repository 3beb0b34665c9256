//! Plan rendering — the format of the paper's Figures 2 and 3.
//!
//! Plans are printed as indented trees; when a [`Profile`] is supplied the
//! per-operator output cardinalities are annotated exactly like the
//! `(26.851)`-style labels in the paper's plan figures.

use hsp_sparql::{JoinQuery, TermOrVar, TriplePattern, Var};

use crate::exec::Profile;
use crate::plan::PhysicalPlan;

/// Render a plan as an indented tree without cardinalities.
pub fn render_plan(plan: &PhysicalPlan, query: &JoinQuery) -> String {
    let mut out = String::new();
    render(plan, None, query, 0, &mut out);
    out
}

/// Render a plan annotated with the output cardinalities recorded in
/// `profile` (which must come from executing the same plan).
pub fn render_plan_with_profile(
    plan: &PhysicalPlan,
    profile: &Profile,
    query: &JoinQuery,
) -> String {
    let mut out = String::new();
    render(plan, Some(profile), query, 0, &mut out);
    out
}

fn render(
    plan: &PhysicalPlan,
    profile: Option<&Profile>,
    query: &JoinQuery,
    depth: usize,
    out: &mut String,
) {
    let indent = "  ".repeat(depth);
    let cards = profile.map_or(String::new(), |p| {
        format!("  ({})", group_digits(p.output_rows))
    });
    match plan {
        PhysicalPlan::Scan {
            pattern_idx,
            pattern,
            order,
        } => {
            let op = if pattern.num_consts() > 0 {
                "σ"
            } else {
                "scan"
            };
            out.push_str(&format!(
                "{indent}{op}({}) {} [tp{pattern_idx}]{cards}\n",
                order.upper_name(),
                describe_pattern(pattern, query),
            ));
        }
        PhysicalPlan::MergeJoin { left, right, var } => {
            out.push_str(&format!("{indent}⋈mj ?{}{cards}\n", query.var_name(*var)));
            render(left, profile.map(|p| &p.children[0]), query, depth + 1, out);
            render(
                right,
                profile.map(|p| &p.children[1]),
                query,
                depth + 1,
                out,
            );
        }
        PhysicalPlan::HashJoin { left, right, vars } => {
            let names: Vec<String> = vars
                .iter()
                .map(|v| format!("?{}", query.var_name(*v)))
                .collect();
            out.push_str(&format!("{indent}⋈hj {}{cards}\n", names.join(",")));
            render(left, profile.map(|p| &p.children[0]), query, depth + 1, out);
            render(
                right,
                profile.map(|p| &p.children[1]),
                query,
                depth + 1,
                out,
            );
        }
        PhysicalPlan::LeftOuterHashJoin { left, right, vars } => {
            let names: Vec<String> = vars
                .iter()
                .map(|v| format!("?{}", query.var_name(*v)))
                .collect();
            out.push_str(&format!("{indent}⟕hj {}{cards}\n", names.join(",")));
            render(left, profile.map(|p| &p.children[0]), query, depth + 1, out);
            render(
                right,
                profile.map(|p| &p.children[1]),
                query,
                depth + 1,
                out,
            );
        }
        PhysicalPlan::CrossProduct { left, right } => {
            out.push_str(&format!("{indent}×{cards}\n"));
            render(left, profile.map(|p| &p.children[0]), query, depth + 1, out);
            render(
                right,
                profile.map(|p| &p.children[1]),
                query,
                depth + 1,
                out,
            );
        }
        PhysicalPlan::Union { left, right } => {
            out.push_str(&format!("{indent}∪{cards}\n"));
            render(left, profile.map(|p| &p.children[0]), query, depth + 1, out);
            render(
                right,
                profile.map(|p| &p.children[1]),
                query,
                depth + 1,
                out,
            );
        }
        PhysicalPlan::Sort { input, var } => {
            out.push_str(&format!("{indent}sort ?{}{cards}\n", query.var_name(*var)));
            render(
                input,
                profile.map(|p| &p.children[0]),
                query,
                depth + 1,
                out,
            );
        }
        PhysicalPlan::Filter { input, .. } => {
            out.push_str(&format!("{indent}σ(filter){cards}\n"));
            render(
                input,
                profile.map(|p| &p.children[0]),
                query,
                depth + 1,
                out,
            );
        }
        PhysicalPlan::Project {
            input,
            projection,
            distinct,
        } => {
            let names: Vec<String> = projection.iter().map(|(n, _)| format!("?{n}")).collect();
            let op = if *distinct { "π-distinct" } else { "π" };
            out.push_str(&format!("{indent}{op} {}{cards}\n", names.join(",")));
            render(
                input,
                profile.map(|p| &p.children[0]),
                query,
                depth + 1,
                out,
            );
        }
        PhysicalPlan::HashAggregate {
            input,
            group_by,
            aggs,
            having,
        } => {
            out.push_str(&format!(
                "{indent}{}{cards}\n",
                describe_aggregate(group_by, aggs, having.is_some(), query)
            ));
            render(
                input,
                profile.map(|p| &p.children[0]),
                query,
                depth + 1,
                out,
            );
        }
        PhysicalPlan::OrderBy { input, keys } => {
            let rendered: Vec<String> = keys
                .iter()
                .map(|k| {
                    if k.descending {
                        format!("DESC({})", k.expr)
                    } else {
                        k.expr.to_string()
                    }
                })
                .collect();
            out.push_str(&format!(
                "{indent}order by {}{cards}\n",
                rendered.join(", ")
            ));
            render(
                input,
                profile.map(|p| &p.children[0]),
                query,
                depth + 1,
                out,
            );
        }
        PhysicalPlan::Slice {
            input,
            offset,
            limit,
        } => {
            let lim = limit.map_or("∞".to_string(), |n| n.to_string());
            out.push_str(&format!("{indent}slice[{offset}..{lim}]{cards}\n"));
            render(
                input,
                profile.map(|p| &p.children[0]),
                query,
                depth + 1,
                out,
            );
        }
    }
}

/// The γ (grouping) line of an aggregate node: group keys, then the
/// aggregate specs with their output aliases, plus a `HAVING` marker.
pub(crate) fn describe_aggregate(
    group_by: &[Var],
    aggs: &[hsp_sparql::AggSpec],
    having: bool,
    query: &JoinQuery,
) -> String {
    let keys: Vec<String> = group_by
        .iter()
        .map(|v| format!("?{}", query.var_name(*v)))
        .collect();
    let specs: Vec<String> = aggs
        .iter()
        .map(|a| {
            let distinct = if a.distinct { "DISTINCT " } else { "" };
            let arg = a
                .arg
                .map_or("*".to_string(), |v| format!("?{}", query.var_name(v)));
            format!("{}({distinct}{arg}) AS ?{}", a.func.name(), a.name)
        })
        .collect();
    let mut line = format!("γ{{{}}} {}", keys.join(","), specs.join(", "));
    if having {
        line.push_str(" HAVING");
    }
    line
}

/// Describe a pattern like the paper's figures: `p = locatedIn` under a
/// `σ(PSO)` node, with variables shown by name.
pub(crate) fn describe_pattern(pattern: &TriplePattern, query: &JoinQuery) -> String {
    let mut parts = Vec::new();
    for pos in hsp_rdf::TriplePos::ALL {
        match pattern.slot(pos) {
            TermOrVar::Const(t) => parts.push(format!("{}={}", pos.letter(), short_term(t))),
            TermOrVar::Var(v) => parts.push(format!("?{}", var_name(query, *v))),
        }
    }
    parts.join(" ")
}

fn var_name(query: &JoinQuery, v: Var) -> String {
    query
        .var_names
        .get(v.index())
        .cloned()
        .unwrap_or_else(|| format!("v{}", v.0))
}

/// Shorten an IRI to its local name for readable figures.
fn short_term(t: &hsp_rdf::Term) -> String {
    match t {
        hsp_rdf::Term::Iri(iri) => {
            let local = iri.rsplit(['/', '#']).next().unwrap_or(iri);
            local.to_string()
        }
        lit => format!("\"{}\"", lit.lexical()),
    }
}

/// Group digits with dots the way the paper prints cardinalities
/// (`16.348.563`).
fn group_digits(n: usize) -> String {
    let s = n.to_string();
    let mut out = String::new();
    for (i, ch) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push('.');
        }
        out.push(ch);
    }
    out
}

/// One-line summary of an execution's morsel/pool runtime counters — what
/// the CLI prints under an `--explain` plan. Reports the parallel-kernel
/// and per-morsel counts only when something actually ran parallel (on a
/// one-core budget every kernel is sequential).
pub fn render_runtime_metrics(m: &crate::metrics::RuntimeMetrics) -> String {
    let parallel = if m.parallel_kernels > 0 {
        let mut line = format!(
            "{} parallel kernel{} ({} morsels) on {} threads",
            m.parallel_kernels,
            if m.parallel_kernels == 1 { "" } else { "s" },
            m.morsels,
            m.threads
        );
        let mut stages = Vec::new();
        if m.parallel_builds > 0 {
            stages.push(format!("{} parallel builds", m.parallel_builds));
        }
        if m.merge_partitions > 0 {
            stages.push(format!("{} merge partitions", m.merge_partitions));
        }
        if m.parallel_filters > 0 {
            stages.push(format!("{} parallel filters", m.parallel_filters));
        }
        if m.parallel_sorts > 0 {
            stages.push(format!("{} parallel sorts", m.parallel_sorts));
        }
        if !stages.is_empty() {
            line.push_str(&format!(" [{}]", stages.join(", ")));
        }
        line
    } else {
        format!("all kernels sequential ({} thread budget)", m.threads)
    };
    let pipelines = if m.pipelines > 0 {
        let mut extras = String::new();
        if m.pipeline_outer_probes > 0 {
            extras.push_str(&format!(
                ", {} outer probe{}",
                m.pipeline_outer_probes,
                if m.pipeline_outer_probes == 1 {
                    ""
                } else {
                    "s"
                },
            ));
        }
        if m.breaker_handoffs > 0 {
            extras.push_str(&format!(
                ", {} breaker handoff{}",
                m.breaker_handoffs,
                if m.breaker_handoffs == 1 { "" } else { "s" },
            ));
        }
        format!(
            "{} pipeline{} launched ({} morsel{} pushed, {} intermediate row{} avoided{extras}); ",
            m.pipelines,
            if m.pipelines == 1 { "" } else { "s" },
            m.pipeline_morsels,
            if m.pipeline_morsels == 1 { "" } else { "s" },
            m.pipeline_rows_avoided,
            if m.pipeline_rows_avoided == 1 {
                ""
            } else {
                "s"
            },
        )
    } else {
        String::new()
    };
    // The governor segment appears only on governed executions (a
    // timeout, memory budget, or cancel token was configured), so
    // ungoverned output is byte-identical to what it always was.
    let governor = if m.governor_checks > 0 {
        format!(
            "; governor {} checkpoint{}, {} peak bytes",
            m.governor_checks,
            if m.governor_checks == 1 { "" } else { "s" },
            m.governor_mem_peak
        )
    } else {
        String::new()
    };
    // The shared-pool segment appears only when a kernel ran parallel.
    let shared = if m.shared_pool_batches > 0 {
        format!(
            "; shared pool: {} batch{}",
            m.shared_pool_batches,
            if m.shared_pool_batches == 1 { "" } else { "es" }
        )
    } else {
        String::new()
    };
    // The cache segment appears only on the session path when a cache
    // tier was consulted (the session stamps the flags after the run),
    // so cache-less output stays byte-identical to what it always was.
    let cache = if m.plan_cache_used || m.result_cache_used {
        let mut tiers = Vec::new();
        if m.plan_cache_used {
            tiers.push(format!(
                "plan {}",
                if m.plan_cache_hit { "hit" } else { "miss" }
            ));
        }
        if m.result_cache_used {
            tiers.push(format!(
                "result {}",
                if m.result_cache_hit { "hit" } else { "miss" }
            ));
        }
        format!("; cache: {}", tiers.join(", "))
    } else {
        String::new()
    };
    // The storage segment appears only on the session path (the session
    // stamps the snapshot's version after the run) or when a scan had to
    // merge a delta overlay, so plain engine output stays byte-identical
    // to what it always was.
    let storage = if m.store_version > 0 || m.store_delta_rows > 0 || m.merged_scans > 0 {
        format!(
            "; storage: v{}, {} delta row{}, {} merged scan{}, {} compaction{}",
            m.store_version,
            m.store_delta_rows,
            if m.store_delta_rows == 1 { "" } else { "s" },
            m.merged_scans,
            if m.merged_scans == 1 { "" } else { "s" },
            m.store_compactions,
            if m.store_compactions == 1 { "" } else { "s" },
        )
    } else {
        String::new()
    };
    format!(
        "runtime: {parallel}; {pipelines}buffer pool {} hit{} / {} miss{} / {} recycled{governor}{shared}{cache}{storage}\n",
        m.pool_hits,
        if m.pool_hits == 1 { "" } else { "s" },
        m.pool_misses,
        if m.pool_misses == 1 { "" } else { "es" },
        m.pool_recycled
    )
}

/// Render the pipeline DAG the default executor lowers `plan` into — one
/// line per step: materialising breakers (`← breaker:`) and streaming
/// pipelines (`← pipeline: source → stage → … → sink`), in dependency
/// order. See [`crate::pipeline`].
pub fn render_pipeline_dag(plan: &PhysicalPlan, query: &JoinQuery) -> String {
    crate::pipeline::lower(plan).render(query)
}

/// Render a physical plan in Graphviz `dot` syntax: one node per operator
/// (labelled like the text explain, with cardinalities when a profile is
/// supplied), edges from children to parents — the shape of the paper's
/// Figures 2 and 3 as a picture.
pub fn render_plan_dot(
    plan: &PhysicalPlan,
    profile: Option<&Profile>,
    query: &JoinQuery,
) -> String {
    let mut out = String::from("digraph plan {\n  node [shape=box, fontname=\"monospace\"];\n");
    let mut counter = 0usize;
    dot_node(plan, profile, query, &mut counter, &mut out);
    out.push_str("}\n");
    out
}

/// Emit the node for `plan` (and its subtree); returns its dot id.
fn dot_node(
    plan: &PhysicalPlan,
    profile: Option<&Profile>,
    query: &JoinQuery,
    counter: &mut usize,
    out: &mut String,
) -> usize {
    let id = *counter;
    *counter += 1;
    let label = match plan {
        PhysicalPlan::Scan {
            pattern_idx,
            pattern,
            order,
        } => {
            let op = if pattern.num_consts() > 0 {
                "σ"
            } else {
                "scan"
            };
            format!(
                "{op}({}) {} [tp{pattern_idx}]",
                order.upper_name(),
                describe_pattern(pattern, query)
            )
        }
        PhysicalPlan::MergeJoin { var, .. } => format!("⋈mj ?{}", query.var_name(*var)),
        PhysicalPlan::HashJoin { vars, .. } => {
            let names: Vec<String> = vars
                .iter()
                .map(|v| format!("?{}", query.var_name(*v)))
                .collect();
            format!("⋈hj {}", names.join(","))
        }
        PhysicalPlan::LeftOuterHashJoin { vars, .. } => {
            let names: Vec<String> = vars
                .iter()
                .map(|v| format!("?{}", query.var_name(*v)))
                .collect();
            format!("⟕hj {}", names.join(","))
        }
        PhysicalPlan::CrossProduct { .. } => "×".to_string(),
        PhysicalPlan::Union { .. } => "∪".to_string(),
        PhysicalPlan::Sort { var, .. } => format!("sort ?{}", query.var_name(*var)),
        PhysicalPlan::Filter { .. } => "σ(filter)".to_string(),
        PhysicalPlan::Project {
            projection,
            distinct,
            ..
        } => {
            let names: Vec<String> = projection.iter().map(|(n, _)| format!("?{n}")).collect();
            format!(
                "{} {}",
                if *distinct { "π-distinct" } else { "π" },
                names.join(",")
            )
        }
        PhysicalPlan::HashAggregate {
            group_by,
            aggs,
            having,
            ..
        } => describe_aggregate(group_by, aggs, having.is_some(), query),
        PhysicalPlan::OrderBy { keys, .. } => format!("order by ({} keys)", keys.len()),
        PhysicalPlan::Slice { offset, limit, .. } => {
            format!(
                "slice[{offset}..{}]",
                limit.map_or("∞".into(), |n| n.to_string())
            )
        }
    };
    let cards = profile.map_or(String::new(), |p| {
        format!("\\n{} rows", group_digits(p.output_rows))
    });
    out.push_str(&format!(
        "  n{id} [label=\"{}{}\"];\n",
        label.replace('\\', "\\\\").replace('"', "\\\""),
        cards
    ));
    let children: Vec<(&PhysicalPlan, Option<&Profile>)> = match plan {
        PhysicalPlan::Scan { .. } => vec![],
        PhysicalPlan::MergeJoin { left, right, .. }
        | PhysicalPlan::HashJoin { left, right, .. }
        | PhysicalPlan::LeftOuterHashJoin { left, right, .. }
        | PhysicalPlan::CrossProduct { left, right }
        | PhysicalPlan::Union { left, right } => vec![
            (left.as_ref(), profile.map(|p| &p.children[0])),
            (right.as_ref(), profile.map(|p| &p.children[1])),
        ],
        PhysicalPlan::Sort { input, .. }
        | PhysicalPlan::Filter { input, .. }
        | PhysicalPlan::Project { input, .. }
        | PhysicalPlan::HashAggregate { input, .. }
        | PhysicalPlan::OrderBy { input, .. }
        | PhysicalPlan::Slice { input, .. } => {
            vec![(input.as_ref(), profile.map(|p| &p.children[0]))]
        }
    };
    for (child, cp) in children {
        let cid = dot_node(child, cp, query, counter, out);
        out.push_str(&format!("  n{cid} -> n{id};\n"));
    }
    id
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute, ExecConfig};
    use hsp_store::{Dataset, Order};

    fn setup() -> (Dataset, JoinQuery, PhysicalPlan) {
        let ds = Dataset::from_ntriples(
            r#"<http://e/a1> <http://e/p> <http://e/b1> .
<http://e/a1> <http://e/q> "5" .
<http://e/a2> <http://e/p> <http://e/b2> .
"#,
        )
        .unwrap();
        let query =
            JoinQuery::parse("SELECT ?x WHERE { ?x <http://e/p> ?y . ?x <http://e/q> ?z . }")
                .unwrap();
        let plan = PhysicalPlan::Project {
            input: Box::new(PhysicalPlan::MergeJoin {
                left: Box::new(PhysicalPlan::Scan {
                    pattern_idx: 0,
                    pattern: query.patterns[0].clone(),
                    order: Order::Pso,
                }),
                right: Box::new(PhysicalPlan::Scan {
                    pattern_idx: 1,
                    pattern: query.patterns[1].clone(),
                    order: Order::Pso,
                }),
                var: Var(0),
            }),
            projection: query.projection.clone(),
            distinct: false,
        };
        (ds, query, plan)
    }

    #[test]
    fn renders_dot_graph() {
        let (ds, query, plan) = setup();
        let out = crate::exec::execute(&plan, &ds, &crate::exec::ExecConfig::unlimited()).unwrap();
        let dot = render_plan_dot(&plan, Some(&out.profile), &query);
        assert!(dot.starts_with("digraph plan {"));
        assert!(dot.trim_end().ends_with('}'));
        assert!(dot.contains("⋈mj"));
        assert!(dot.contains("rows"));
        // One edge per non-root operator: scan + scan + join under project.
        assert_eq!(dot.matches(" -> ").count(), 3);
        // Balanced braces.
        assert_eq!(dot.matches('{').count(), dot.matches('}').count());
    }

    #[test]
    fn renders_tree_with_named_vars() {
        let (_, query, plan) = setup();
        let text = render_plan(&plan, &query);
        assert!(text.contains("π ?x"));
        assert!(text.contains("⋈mj ?x"));
        assert!(text.contains("σ(PSO)"));
        assert!(text.contains("[tp0]"));
        assert!(text.contains("[tp1]"));
        assert!(text.contains("p=p")); // constant predicate shortened
    }

    #[test]
    fn renders_cardinalities_from_profile() {
        let (ds, query, plan) = setup();
        let out = execute(&plan, &ds, &ExecConfig::unlimited()).unwrap();
        let text = render_plan_with_profile(&plan, &out.profile, &query);
        assert!(text.contains("(1)")); // the join result has 1 row
        assert!(text.contains("(2)")); // the p-scan has 2 rows
    }

    #[test]
    fn runtime_metrics_render_both_shapes() {
        use crate::metrics::RuntimeMetrics;
        let sequential = RuntimeMetrics {
            threads: 1,
            pool_hits: 3,
            pool_misses: 7,
            ..RuntimeMetrics::default()
        };
        let line = render_runtime_metrics(&sequential);
        assert!(line.contains("all kernels sequential"));
        assert!(line.contains("3 hits / 7 misses"));
        let parallel = RuntimeMetrics {
            parallel_kernels: 2,
            morsels: 40,
            threads: 4,
            pool_hits: 1,
            pool_misses: 1,
            pool_recycled: 5,
            ..RuntimeMetrics::default()
        };
        let line = render_runtime_metrics(&parallel);
        assert!(line.contains("2 parallel kernels (40 morsels) on 4 threads"));
        assert!(line.contains("1 hit / 1 miss / 5 recycled"));
        // No per-stage suffix when no stage counter fired.
        assert!(!line.contains('['));
        let staged = RuntimeMetrics {
            parallel_builds: 1,
            merge_partitions: 4,
            parallel_filters: 2,
            ..parallel
        };
        let line = render_runtime_metrics(&staged);
        assert!(line.contains("[1 parallel builds, 4 merge partitions, 2 parallel filters]"));
        let with_sorts = RuntimeMetrics {
            parallel_sorts: 3,
            ..staged
        };
        assert!(render_runtime_metrics(&with_sorts).contains("3 parallel sorts"));
    }

    #[test]
    fn runtime_metrics_report_storage_only_when_stamped() {
        use crate::metrics::RuntimeMetrics;
        // Plain engine runs never stamp storage fields: no segment.
        let plain = RuntimeMetrics {
            threads: 1,
            ..RuntimeMetrics::default()
        };
        assert!(!render_runtime_metrics(&plain).contains("storage"));
        // Session-stamped metrics render the snapshot's storage state.
        let stamped = RuntimeMetrics {
            threads: 1,
            store_version: 3,
            store_delta_rows: 2,
            merged_scans: 1,
            store_compactions: 0,
            ..RuntimeMetrics::default()
        };
        let line = render_runtime_metrics(&stamped);
        assert!(
            line.contains("storage: v3, 2 delta rows, 1 merged scan, 0 compactions"),
            "{line}"
        );
    }

    #[test]
    fn runtime_metrics_report_pipelines() {
        use crate::metrics::RuntimeMetrics;
        let m = RuntimeMetrics {
            threads: 1,
            pipelines: 2,
            pipeline_morsels: 5,
            pipeline_rows_avoided: 1234,
            ..RuntimeMetrics::default()
        };
        let line = render_runtime_metrics(&m);
        assert!(
            line.contains(
                "2 pipelines launched (5 morsels pushed, 1234 intermediate rows avoided)"
            ),
            "{line}"
        );
        // The oracle path launches none and stays silent about pipelines.
        let none = RuntimeMetrics {
            threads: 1,
            ..RuntimeMetrics::default()
        };
        assert!(!render_runtime_metrics(&none).contains("pipeline"));
    }

    #[test]
    fn runtime_metrics_report_governor_only_when_governed() {
        use crate::metrics::RuntimeMetrics;
        let governed = RuntimeMetrics {
            threads: 1,
            governor_checks: 12,
            governor_mem_peak: 4096,
            ..RuntimeMetrics::default()
        };
        let line = render_runtime_metrics(&governed);
        assert!(
            line.contains("governor 12 checkpoints, 4096 peak bytes"),
            "{line}"
        );
        let ungoverned = RuntimeMetrics {
            threads: 1,
            ..RuntimeMetrics::default()
        };
        assert!(!render_runtime_metrics(&ungoverned).contains("governor"));
    }

    #[test]
    fn pipeline_dag_renders_for_a_planned_query() {
        let (_, query, plan) = setup();
        let dag = render_pipeline_dag(&plan, &query);
        assert!(dag.starts_with("pipeline DAG"), "{dag}");
        assert!(dag.contains("result: s"), "{dag}");
    }

    #[test]
    fn digit_grouping() {
        assert_eq!(group_digits(16_348_563), "16.348.563");
        assert_eq!(group_digits(432), "432");
        assert_eq!(group_digits(1_000), "1.000");
    }
}
