//! Allocation budget of one small query's execution: `execute_in` on
//! three lookup shapes — a constant-subject star, a single pattern and a
//! merge-block pair — counted by a counting global allocator. A lookup's
//! time should be its scans; these bounds keep the fixed cost of
//! lowering, running and profiling a plan from creeping back unnoticed.
//!
//! The config is an explicit one-thread budget, so the counts are the
//! same under `HSP_FORCE_THREADS` (which only replaces the automatic
//! budget); the dataset is built once and never updated, so
//! `HSP_COMPACT_THRESHOLD` has nothing to compact.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hsp_baseline::{plan, Planner};
use hsp_engine::{execute_in, ExecConfig};
use hsp_sparql::{parse_query, JoinQuery};
use hsp_store::Dataset;

/// Counts the allocations (and reallocations) of the calling thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread's allocations after its locals are gone are
    // not counted (none happen inside a measured call).
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a const-initialised thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// 60 articles, each with a title, a year and a page count.
fn dataset() -> Dataset {
    let mut nt = String::new();
    for i in 0..60 {
        nt.push_str(&format!(
            "<http://e/a{i}> <http://e/title> \"Title {i}\" .\n\
             <http://e/a{i}> <http://e/issued> \"{}\" .\n\
             <http://e/a{i}> <http://e/pages> \"{}\" .\n",
            2000 + i % 5,
            i % 7
        ));
    }
    Dataset::from_ntriples(&nt).expect("valid N-Triples")
}

/// Allocations made by one `execute_in` of `text`'s HSP plan (planned,
/// configured and given its context outside the count), after a warm-up
/// run, and the rows it returned.
fn execute_allocs(ds: &Dataset, text: &str) -> (u64, usize) {
    let query = JoinQuery::from_ast(&parse_query(text).expect("parses")).expect("a join query");
    let planned = plan(Planner::Hsp, ds, &query).expect("plans");
    let config = ExecConfig::unlimited().with_threads(1);
    let warm = execute_in(&planned.plan, ds, &config, &config.context()).expect("runs");
    let ctx = config.context();
    let before = ALLOCS.with(Cell::get);
    let out = execute_in(&planned.plan, ds, &config, &ctx).expect("runs");
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_eq!(out.table.len(), warm.table.len());
    (allocs, out.table.len())
}

#[test]
fn a_lookup_allocates_within_its_budget() {
    let ds = dataset();
    // (query, rows, allocation budget). Each comment gives the count
    // before lowering numbered the plan's nodes by position, the profile
    // stopped timing and labelling through temporaries, and the pipeline
    // sink stopped copying its layout.
    let cases = [
        // A constant-subject star: three one-row scans, two × breakers
        // and the projection pipeline. Was 83.
        (
            "SELECT ?t ?y ?pg WHERE { <http://e/a7> <http://e/title> ?t . \
             <http://e/a7> <http://e/issued> ?y . <http://e/a7> <http://e/pages> ?pg . }",
            1,
            41,
        ),
        // One pattern: a scan pipeline. Was 36.
        (
            "SELECT ?a WHERE { ?a <http://e/title> \"Title 7\" . }",
            1,
            18,
        ),
        // A merge-block pair on ?a. Was 60.
        (
            "SELECT ?a WHERE { ?a <http://e/pages> \"3\" . ?a <http://e/issued> \"2003\" . }",
            2,
            33,
        ),
    ];
    for (text, rows, budget) in cases {
        let (allocs, got) = execute_allocs(&ds, text);
        assert_eq!(got, rows, "{text}");
        assert!(
            allocs <= budget,
            "{allocs} allocations, over the budget of {budget}: {text}"
        );
    }
}
