//! The benchmark's contract: workload and metric names, units, directions
//! and regression bounds. `../../BENCHMARK.json` states the same facts for
//! the driver; a unit test below keeps the two in step.

/// Length of one measured run in seconds (`run_seconds` in BENCHMARK.json).
pub const RUN_SECONDS: u64 = 10;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 42;

/// How many times a run builds the system under test; `setup_s` is the
/// typical one (see `run::TYPICAL`), so neither the cold first build nor a
/// disturbed one decides it.
pub const SETUP_REPEATS: usize = 5;

/// One named workload and the reason it exists.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

/// The five workloads. Names are normative: later issues cite them.
pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "paper14.inproc",
        why: "the paper's 14 queries in-process, caches off, 1 caller: engine and store scans do the work, serve and cache none",
    },
    WorkloadSpec {
        name: "analytic.tcp.c2",
        why: "2 TCP clients, SP queries plus OPTIONAL/UNION/regex/GROUP BY/DISTINCT/ORDER BY/ASK, cache off: extended evaluator and shared pool",
    },
    WorkloadSpec {
        name: "lookup.tcp",
        why: "1 TCP client, selective templates over pools far larger than the result cache: frame, parse, canonicalise, render dominate",
    },
    WorkloadSpec {
        name: "repeat.tcp",
        why: "1 TCP client, 128 hot requests in Zipf proportion that fit both cache tiers: frame I/O, key build, clone and re-render remain",
    },
    WorkloadSpec {
        name: "readwrite.tcp",
        why: "1 TCP client, 4 reads per write of 64 triples: COW deltas, merged scans, compaction stalls and predicate-exact invalidation",
    },
];

/// Which way a metric improves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees, with the share of
/// the parent's median by which it may worsen before a change is rejected.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// The gated metrics, reported by every workload of an untraced run.
///
/// `write_p50_ms`, `write_p95_ms` and `failed_share` are printed with them
/// but are not gated here: only `readwrite.tcp` writes, so the write
/// latencies have no value on four workloads, and `failed_share` is 0 on a
/// correct build — the driver wants metrics that are never 0. Failures
/// travel in the result line's `failed` / `attempted` instead, and a write
/// regression moves `throughput_ops_s` on `readwrite.tcp`.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "throughput_ops_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "read_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "read_p95_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A per-layer metric of the traced run: `(name, unit, better)`. Times are
/// means per sampled request; see README.md for how each is taken.
pub const PER_LAYER: [(&str, &str, Better); 38] = [
    ("datagen.generate_s", "s", Better::Lower),
    ("store.build_s", "s", Better::Lower),
    ("sparql.parse_ms", "ms", Better::Lower),
    ("sparql.canon_ms", "ms", Better::Lower),
    ("core.plan_ms", "ms", Better::Lower),
    ("baseline.cdp_plan_ms", "ms", Better::Lower),
    ("core.hsp_over_cdp_exec", "ratio", Better::Lower),
    ("engine.lower_ms", "ms", Better::Lower),
    ("engine.execute_ms", "ms", Better::Lower),
    ("engine.intermediate_rows", "count", Better::Lower),
    ("engine.rows_examined_per_result", "ratio", Better::Lower),
    ("engine.pool_batches", "count", Better::Higher),
    ("engine.pool_cross_query_switches", "count", Better::Higher),
    ("store.scan_ms", "ms", Better::Lower),
    ("store.scan_rows", "count", Better::Lower),
    ("store.merged_scan_share", "ratio", Better::Lower),
    ("store.delta_rows", "count", Better::Lower),
    ("store.compactions", "count", Better::Lower),
    ("store.compact_ms", "ms", Better::Lower),
    ("session.query_ms", "ms", Better::Lower),
    ("session.self_ms", "ms", Better::Lower),
    ("cache.plan_hit_rate", "ratio", Better::Higher),
    ("cache.result_hit_rate", "ratio", Better::Higher),
    ("cache.invalidations", "count", Better::Lower),
    ("cache.result_bytes", "bytes", Better::Lower),
    ("results.render_ms", "ms", Better::Lower),
    ("results.bytes_out", "bytes", Better::Lower),
    ("serve.wire_ms", "ms", Better::Lower),
    ("serve.frame_ms", "ms", Better::Lower),
    ("serve.rejected", "count", Better::Lower),
    ("serve.errors", "count", Better::Lower),
    ("update.apply_ms", "ms", Better::Lower),
    ("session.update_ms", "ms", Better::Lower),
    ("session.publish_ms", "ms", Better::Lower),
    ("client.write_p50_ms", "ms", Better::Lower),
    ("client.write_p95_ms", "ms", Better::Lower),
    ("trace.ops", "count", Better::Higher),
    ("trace.overhead", "ratio", Better::Higher),
];

/// The workload called `name`, if there is one.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn benchmark_json_states_the_same_contract() {
        let j = BENCHMARK_JSON;
        assert!(j.contains(&format!("\"run_seconds\": {RUN_SECONDS}")));
        assert!(j.contains("\"paths\": [\"benchmark\"]"));
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            let row = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why);
            assert!(j.contains(&row), "BENCHMARK.json lacks {row}");
        }
        for m in &END_TO_END {
            assert!(m.bound <= 0.25);
            let row = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            );
            assert!(j.contains(&row), "BENCHMARK.json lacks {row}");
        }
        for (name, unit, better) in &PER_LAYER {
            let row = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                better.as_str()
            );
            assert!(j.contains(&row), "BENCHMARK.json lacks {row}");
        }
        assert_eq!(
            j.matches("\"name\":").count(),
            WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json names something the code does not"
        );
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.as_bytes()[0].is_ascii_alphanumeric()
                && s.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.0));
        assert!(names.iter().all(|n| ok_name(n)));
        assert!(END_TO_END.iter().all(|m| ok_unit(m.unit)));
        assert!(PER_LAYER.iter().all(|m| ok_unit(m.1)));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
