//! `IdRows::decode` — the one place result ids become owned terms — must
//! agree with resolving every cell on its own through `ExecOutput::term`
//! (and with the borrowing `IdRows::cell`), for any mix of dictionary ids,
//! computed (aggregate-overlay) ids and the unbound sentinel, any
//! projection (reordered, repeated, or naming a variable the table does
//! not bind), and any row selection — and building an `IdRows` without a
//! selection must move the projected columns, not copy them.

use hsp_engine::binding::{BindingTable, IdRows};
use hsp_engine::pool::COMPUTED_BASE;
use hsp_engine::{ExecOutput, Profile, RuntimeMetrics};
use hsp_rdf::{Term, TermId};
use hsp_sparql::Var;
use hsp_store::Dataset;
use proptest::prelude::*;

/// Table variables are `?0..?2`; `?3` is never bound.
const TABLE_VARS: u32 = 3;
const COMPUTED_TERMS: u32 = 4;

fn dataset() -> Dataset {
    Dataset::from_ntriples(
        "<http://e/s1> <http://e/p> \"plain\" .\n\
         <http://e/s2> <http://e/p> \"tagged\"@en .\n\
         <http://e/s3> <http://e/q> \"7\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n",
    )
    .expect("dataset parses")
}

fn computed() -> Vec<Term> {
    (0..COMPUTED_TERMS)
        .map(|i| Term::typed_literal(format!("{i}.5"), "http://www.w3.org/2001/XMLSchema#decimal"))
        .collect()
}

/// A cell id: mostly dictionary ids, some computed ids, some unbound.
fn arb_id(dict_len: u32) -> impl Strategy<Value = TermId> {
    (0u32..10, 0u32..1000).prop_map(move |(kind, n)| match kind {
        0 | 1 => TermId::UNBOUND,
        2 | 3 => TermId(COMPUTED_BASE + n % COMPUTED_TERMS),
        _ => TermId(n % dict_len),
    })
}

proptest! {
    #[test]
    fn decode_rows_matches_per_cell_resolution(
        rows in proptest::collection::vec(
            (arb_id(8), arb_id(8), arb_id(8)), 0..40),
        projection in proptest::collection::vec(0u32..=TABLE_VARS, 0..6),
        picks in proptest::collection::vec(0usize..1000, 0..60),
        select in any::<bool>(),
    ) {
        let ds = dataset();
        prop_assert_eq!(ds.dict().len(), 8);
        let table = BindingTable::from_columns(
            (0..TABLE_VARS).map(Var).collect(),
            vec![
                rows.iter().map(|r| r.0).collect(),
                rows.iter().map(|r| r.1).collect(),
                rows.iter().map(|r| r.2).collect(),
            ],
            None,
        );
        let out = ExecOutput {
            profile: Profile {
                label: "test".into(),
                output_rows: table.len(),
                children: vec![],
            },
            table,
            runtime: RuntimeMetrics::default(),
            computed: computed(),
        };
        let projection: Vec<Var> = projection.into_iter().map(Var).collect();
        let cell = |v: Var, i: usize| {
            (v.0 < TABLE_VARS)
                .then(|| out.term(&ds, out.table.value(v, i)))
                .flatten()
        };
        let per_cell = |i: usize| -> Vec<Option<Term>> {
            projection.iter().map(|&v| cell(v, i)).collect()
        };

        // The whole table, in order: through the kept `decode_rows`, and
        // through an `IdRows` built without a selection.
        let expected: Vec<_> = (0..out.table.len()).map(per_cell).collect();
        prop_assert_eq!(&out.decode_rows(&ds, &projection), &expected);
        let buffers: Vec<*const TermId> =
            out.table.columns().iter().map(|c| c.as_ptr()).collect();
        let whole = IdRows::new(out.table.clone(), &projection, None, out.computed.clone());
        prop_assert_eq!(whole.len(), out.table.len());
        prop_assert_eq!(whole.width(), projection.len());
        prop_assert_eq!(&whole.decode(ds.dict()), &expected);
        for (i, row) in expected.iter().enumerate() {
            for (c, term) in row.iter().enumerate() {
                prop_assert_eq!(whole.cell(ds.dict(), i, c), term.as_ref());
            }
        }

        // A selection: any order, repeats allowed, possibly empty.
        if select && !out.table.is_empty() {
            let sel: Vec<u32> = picks.iter().map(|p| (p % out.table.len()) as u32).collect();
            let expected: Vec<_> = sel.iter().map(|&i| per_cell(i as usize)).collect();
            let picked =
                IdRows::new(out.table.clone(), &projection, Some(&sel), out.computed.clone());
            prop_assert_eq!(picked.len(), sel.len());
            prop_assert_eq!(picked.decode(ds.dict()), expected);
        }

        // Moved, not copied: with no selection, the last mention of each
        // projected table variable holds the table's own column buffer.
        let moved = IdRows::new(out.table, &projection, None, out.computed);
        prop_assert_eq!(&moved, &whole);
        for (k, v) in projection.iter().enumerate() {
            let last_mention = !projection[k + 1..].contains(v);
            match moved.column(k) {
                Some(col) if last_mention => {
                    prop_assert_eq!(col.as_ptr(), buffers[v.0 as usize]);
                }
                Some(_) => {} // an earlier mention of a repeated variable: a copy
                None => prop_assert_eq!(v.0, TABLE_VARS),
            }
        }
    }
}
