//! Columnar intermediate results.

use std::ops::Range;

use hsp_rdf::{Dictionary, Term, TermId};
use hsp_sparql::Var;
use hsp_store::Dataset;

use crate::pool::{is_computed, COMPUTED_BASE};

/// Borrow the term behind one result id: `None` for the unbound sentinel,
/// `computed` (an execution's overlay snapshot, indexed by `id -`
/// [`COMPUTED_BASE`]) for aggregate outputs, `dict` otherwise.
#[inline]
fn resolve<'a>(dict: &'a Dictionary, computed: &'a [Term], id: TermId) -> Option<&'a Term> {
    if id.is_unbound() {
        None
    } else if is_computed(id) {
        computed.get((id.0 - COMPUTED_BASE) as usize)
    } else {
        Some(dict.term(id))
    }
}

/// How far apart two consecutive ids of a column must be for
/// [`IdRows::resolve_block`] to prefetch the second one's text.
const PREFETCH_ID_GAP: u32 = 2;

/// Ask the memory system for the first cache line of `text` ahead of its
/// use; a no-op where no prefetch instruction is wired up.
#[inline(always)]
fn prefetch(text: &str) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch is a hint. It never faults, whatever the address,
    // and changes nothing the program can observe.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(text.as_ptr().cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = text;
}

/// Resolve one result id to an owned term (see [`IdRows::cell`] for the
/// borrowing form). The returned term shares its string payloads with the
/// dictionary / overlay entry: the cost is one to three reference-count
/// bumps, never a string copy.
#[inline]
pub fn resolve_term(ds: &Dataset, computed: &[Term], id: TermId) -> Option<Term> {
    resolve(ds.dict(), computed, id).cloned()
}

/// A fully materialised, columnar table of variable bindings.
///
/// `cols[i]` is the column of values bound to `vars[i]`; all columns have
/// equal length. `sorted_by` records which variable (if any) the rows are
/// sorted on — the property merge joins require and preserve.
#[derive(Debug, Clone, PartialEq)]
pub struct BindingTable {
    vars: Vec<Var>,
    cols: Vec<Vec<TermId>>,
    sorted_by: Option<Var>,
    /// Explicit row count: zero-column tables (the result of matching a
    /// fully ground pattern, or of an empty projection) still have rows.
    rows: usize,
}

impl BindingTable {
    /// An empty table over the given variables.
    pub fn empty(vars: Vec<Var>) -> Self {
        let cols = vars.iter().map(|_| Vec::new()).collect();
        BindingTable {
            vars,
            cols,
            sorted_by: None,
            rows: 0,
        }
    }

    /// A zero-column table with `rows` rows — the relational *unit* rows a
    /// fully ground triple pattern produces (0 or 1 in practice).
    pub fn unit(rows: usize) -> Self {
        BindingTable {
            vars: Vec::new(),
            cols: Vec::new(),
            sorted_by: None,
            rows,
        }
    }

    /// Build from columns. All columns must have the same length; `vars`
    /// must be distinct.
    ///
    /// # Panics
    /// Panics if lengths differ or variables repeat.
    pub fn from_columns(vars: Vec<Var>, cols: Vec<Vec<TermId>>, sorted_by: Option<Var>) -> Self {
        assert_eq!(vars.len(), cols.len(), "one column per variable");
        if let Some(first) = cols.first() {
            assert!(
                cols.iter().all(|c| c.len() == first.len()),
                "ragged columns"
            );
        }
        assert!(
            vars.iter().enumerate().all(|(i, v)| !vars[..i].contains(v)),
            "repeated variable in table"
        );
        if let Some(v) = sorted_by {
            assert!(vars.contains(&v), "sorted_by variable not in table");
        }
        let rows = cols.first().map_or(0, Vec::len);
        let table = BindingTable {
            vars,
            cols,
            sorted_by,
            rows,
        };
        debug_assert!(table.check_sortedness());
        table
    }

    /// The table's variables, in column order.
    pub fn vars(&self) -> &[Var] {
        &self.vars
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// `true` if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The variable the rows are sorted by, if any.
    pub fn sorted_by(&self) -> Option<Var> {
        self.sorted_by
    }

    /// Column index of `v`.
    pub fn col_index(&self, v: Var) -> Option<usize> {
        self.vars.iter().position(|&x| x == v)
    }

    /// The column of `v`.
    ///
    /// # Panics
    /// Panics if `v` is not a variable of this table.
    pub fn column(&self, v: Var) -> &[TermId] {
        // invariant: engine callers only reach here with variables the
        // plan binds — `PhysicalPlan::validate` rejects unbound filter,
        // join, sort, and projection variables before any kernel runs.
        let idx = self
            .col_index(v)
            .unwrap_or_else(|| panic!("variable {v} not in table"));
        &self.cols[idx]
    }

    /// All columns, in variable order.
    pub fn columns(&self) -> &[Vec<TermId>] {
        &self.cols
    }

    /// One row as a vector (variable order).
    pub fn row(&self, i: usize) -> Vec<TermId> {
        self.cols.iter().map(|c| c[i]).collect()
    }

    /// Value of `v` in row `i`.
    pub fn value(&self, v: Var, i: usize) -> TermId {
        self.column(v)[i]
    }

    /// Append a row given in this table's variable order.
    ///
    /// # Panics
    /// Panics if `row.len() != vars.len()`.
    pub fn push_row(&mut self, row: &[TermId]) {
        assert_eq!(row.len(), self.cols.len(), "row arity mismatch");
        for (col, &val) in self.cols.iter_mut().zip(row) {
            col.push(val);
        }
        self.rows += 1;
    }

    /// Declare the rows sorted by `v`. Debug builds verify the claim.
    ///
    /// # Panics
    /// Panics if `v` is not a variable of this table.
    pub fn set_sorted_by(&mut self, v: Option<Var>) {
        if let Some(v) = v {
            assert!(self.vars.contains(&v), "sorted_by variable not in table");
        }
        self.sorted_by = v;
        debug_assert!(self.check_sortedness());
    }

    /// Verify the `sorted_by` claim (used by debug assertions and tests).
    pub fn check_sortedness(&self) -> bool {
        match self.sorted_by {
            None => true,
            Some(v) => {
                let col = self.column(v);
                col.windows(2).all(|w| w[0] <= w[1])
            }
        }
    }

    /// Select the given rows (in `sel` order) — a column-at-a-time gather,
    /// the shared materialisation primitive of all vectorized operators.
    /// The result advertises no sortedness; callers that preserve an order
    /// re-declare it via [`BindingTable::set_sorted_by`].
    ///
    /// Zero-column (unit) tables gather to `sel.len()` unit rows.
    ///
    /// # Panics
    /// Panics if an index is out of bounds.
    pub fn gather(&self, sel: &[u32]) -> BindingTable {
        let cols = self
            .cols
            .iter()
            .map(|col| gather_column(col, sel))
            .collect();
        BindingTable {
            vars: self.vars.clone(),
            cols,
            sorted_by: None,
            rows: sel.len(),
        }
    }

    /// Tear the table down into its raw columns (variable order), so a
    /// consumed intermediate's columns can move into another table.
    pub fn into_columns(self) -> Vec<Vec<TermId>> {
        self.cols
    }

    /// Tear the table down into the columns of `vars`, in that order; the
    /// other columns drop.
    ///
    /// # Panics
    /// Panics if a variable of `vars` is not in the table.
    pub(crate) fn into_selected(mut self, vars: &[Var]) -> Vec<Vec<TermId>> {
        vars.iter()
            .map(|&v| {
                let idx = self.col_index(v).expect("selected variable in table");
                std::mem::take(&mut self.cols[idx])
            })
            .collect()
    }

    /// Materialise a join output from `(left_row, right_row)` index pairs:
    /// the left table's columns gathered by `lidx`, then the right table's
    /// `right_extra` columns gathered by `ridx`. A `ridx` entry of
    /// `u32::MAX` reads as [`TermId::UNBOUND`] (left-outer padding).
    ///
    /// # Panics
    /// Panics if the pair vectors differ in length or `right_extra`
    /// contains a variable missing from `right`.
    pub fn from_join_pairs(
        left: &BindingTable,
        right: &BindingTable,
        right_extra: &[Var],
        lidx: &[u32],
        ridx: &[u32],
    ) -> BindingTable {
        assert_eq!(lidx.len(), ridx.len(), "ragged join pair vectors");
        let mut vars = left.vars.clone();
        vars.extend_from_slice(right_extra);
        let mut cols = Vec::with_capacity(vars.len());
        for col in &left.cols {
            cols.push(gather_column(col, lidx));
        }
        for &v in right_extra {
            let col = right.column(v);
            cols.push(
                ridx.iter()
                    .map(|&j| {
                        if j == u32::MAX {
                            TermId::UNBOUND
                        } else {
                            col[j as usize]
                        }
                    })
                    .collect(),
            );
        }
        BindingTable {
            vars,
            cols,
            sorted_by: None,
            rows: lidx.len(),
        }
    }

    /// Row indices sorted by lexicographic row comparison (column order).
    /// Comparisons read the columns in place — no per-row materialisation.
    pub fn sort_index(&self) -> Vec<u32> {
        assert!(
            self.rows <= u32::MAX as usize,
            "table too large for u32 row indices"
        );
        let cols = self.column_slices();
        let mut idx: Vec<u32> = (0..self.rows as u32).collect();
        idx.sort_unstable_by(|&a, &b| cmp_rows_at(&cols, a as usize, b as usize));
        idx
    }

    /// Borrow every column as a slice (the shape the shared row-comparison
    /// and kernel helpers work over).
    pub(crate) fn column_slices(&self) -> Vec<&[TermId]> {
        self.cols.iter().map(Vec::as_slice).collect()
    }

    /// Rows as a set-like sorted vector (for order-insensitive comparison in
    /// tests and result checking). Sorting happens on an index vector over
    /// the columns; rows are only materialised for the returned value.
    pub fn sorted_rows(&self) -> Vec<Vec<TermId>> {
        self.sort_index()
            .iter()
            .map(|&i| self.row(i as usize))
            .collect()
    }

    /// Rows projected to a variable subset, sorted (order-insensitive
    /// comparison across tables with different column orders).
    pub fn sorted_rows_for(&self, vars: &[Var]) -> Vec<Vec<TermId>> {
        let idx: Vec<usize> = vars
            .iter()
            .map(|&v| {
                // invariant: validated plans only project bound variables.
                self.col_index(v)
                    .unwrap_or_else(|| panic!("{v} not in table"))
            })
            .collect();
        assert!(
            self.rows <= u32::MAX as usize,
            "table too large for u32 row indices"
        );
        let cols: Vec<&[TermId]> = idx.iter().map(|&c| self.cols[c].as_slice()).collect();
        let mut order: Vec<u32> = (0..self.rows as u32).collect();
        order.sort_unstable_by(|&a, &b| cmp_rows_at(&cols, a as usize, b as usize));
        order
            .iter()
            .map(|&i| idx.iter().map(|&c| self.cols[c][i as usize]).collect())
            .collect()
    }
}

/// A query result in id form: the projected id columns *after* the
/// solution modifiers, plus the execution's computed-term overlay — what
/// the engine hands to the two edges of the system. The library edge
/// [`decode`](IdRows::decode)s it into owned terms; the wire edge renders
/// it cell by cell through [`cell`](IdRows::cell), which only borrows.
///
/// Ids are meaningful against the dictionary of the dataset the query ran
/// on *and every later version of it*: dictionary ids are append-only
/// (interning, compaction, copy-on-write clones and deletes never move or
/// reuse one), so an `IdRows` may be resolved against a newer snapshot's
/// dictionary than the one it was produced under.
#[derive(Debug, Clone, PartialEq)]
pub struct IdRows {
    /// One entry per projected variable, in projection order; `None` for
    /// a variable the table never bound (unbound in every row).
    cols: Vec<Option<Vec<TermId>>>,
    /// Explicit, like [`BindingTable`]'s: an `ASK` result has rows but no
    /// columns.
    rows: usize,
    computed: Vec<Term>,
}

impl IdRows {
    /// Project `table` to `projection`, keeping rows `sel` (in `sel`
    /// order) or, with `None`, every row in table order. `computed` is
    /// the execution's overlay snapshot (empty for plans that do not
    /// aggregate).
    ///
    /// Without a selection the projected columns are *moved* out of the
    /// table — no per-cell work at all (a variable projected twice is
    /// copied for all but its last mention); with one, each column is a
    /// gather of 4-byte ids. Callers apply DISTINCT / ORDER BY / OFFSET /
    /// LIMIT on ids and row indices first and pass the survivors as
    /// `sel`, so only rows that are returned are ever gathered.
    ///
    /// # Panics
    /// Panics if a `sel` index is out of bounds.
    pub fn new(
        table: BindingTable,
        projection: &[Var],
        sel: Option<&[u32]>,
        computed: Vec<Term>,
    ) -> IdRows {
        let rows = sel.map_or(table.len(), <[u32]>::len);
        let source: Vec<Option<usize>> = projection.iter().map(|&v| table.col_index(v)).collect();
        let mut table_cols = table.into_columns();
        let cols = source
            .iter()
            .enumerate()
            .map(|(k, &c)| {
                let c = c?;
                Some(match sel {
                    Some(sel) => gather_column(&table_cols[c], sel),
                    None if source[k + 1..].contains(&Some(c)) => table_cols[c].clone(),
                    None => std::mem::take(&mut table_cols[c]),
                })
            })
            .collect();
        IdRows {
            cols,
            rows,
            computed,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// `true` if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Number of projected columns.
    pub fn width(&self) -> usize {
        self.cols.len()
    }

    /// The ids of projected column `col`; `None` when the query never
    /// bound its variable.
    pub fn column(&self, col: usize) -> Option<&[TermId]> {
        self.cols[col].as_deref()
    }

    /// The computed-term overlay the ids at or above
    /// [`COMPUTED_BASE`] index into.
    pub fn computed(&self) -> &[Term] {
        &self.computed
    }

    /// Borrow the term of one cell (`None` = unbound) from `dict` or the
    /// overlay: no reference count is touched and nothing is allocated.
    ///
    /// # Panics
    /// Panics if `row` / `col` are out of range or `dict` is older than
    /// the dictionary the ids were produced under.
    #[inline]
    pub fn cell<'a>(&'a self, dict: &'a Dictionary, row: usize, col: usize) -> Option<&'a Term> {
        resolve(dict, &self.computed, self.cols[col].as_ref()?[row])
    }

    /// Append the terms of column `col` for `rows` to `out` — [`cell`]
    /// for a block of rows, in one tight loop over the column's ids. A
    /// renderer that resolves a block before writing any of it lets the
    /// dictionary's cache misses overlap instead of stalling once per cell.
    ///
    /// The loop also prefetches the text of every term whose id is more
    /// than two (`PREFETCH_ID_GAP`) away from the id above it. Ids close
    /// together were interned together, so their entries and text sit
    /// next to each other and the hardware prefetcher already streams them;
    /// an explicit prefetch there only costs instructions.
    ///
    /// [`cell`]: IdRows::cell
    ///
    /// # Panics
    /// As [`IdRows::cell`].
    pub fn resolve_block<'a>(
        &'a self,
        dict: &'a Dictionary,
        col: usize,
        rows: Range<usize>,
        out: &mut Vec<Option<&'a Term>>,
    ) {
        let Some(ids) = self.cols[col].as_deref() else {
            out.resize(out.len() + rows.len(), None);
            return;
        };
        let mut previous = TermId::UNBOUND;
        out.extend(ids[rows].iter().map(|&id| {
            let term = resolve(dict, &self.computed, id);
            if let Some(term) = term {
                if id.0.abs_diff(previous.0) > PREFETCH_ID_GAP {
                    prefetch(term.lexical());
                }
            }
            previous = id;
            term
        }));
    }

    /// Decode to term-level rows — the one place result ids become owned
    /// terms. Each projected column's id slice is looked up once, and
    /// every row is allocated at its final width.
    pub fn decode(&self, dict: &Dictionary) -> Vec<Vec<Option<Term>>> {
        let cols: Vec<Option<&[TermId]>> = self.cols.iter().map(Option::as_deref).collect();
        (0..self.rows)
            .map(|i| {
                cols.iter()
                    .map(|col| col.and_then(|col| resolve(dict, &self.computed, col[i]).cloned()))
                    .collect()
            })
            .collect()
    }
}

/// Lexicographic comparison of rows `a` and `b` over a column list — the
/// one row comparator behind `sort_index`, `sorted_rows_for`, and the
/// sort-based DISTINCT path.
pub(crate) fn cmp_rows_at(cols: &[&[TermId]], a: usize, b: usize) -> std::cmp::Ordering {
    for col in cols {
        match col[a].cmp(&col[b]) {
            std::cmp::Ordering::Equal => continue,
            other => return other,
        }
    }
    std::cmp::Ordering::Equal
}

/// Gather `col` values at the `sel` indices into one column — the single
/// per-column gather loop behind [`BindingTable::gather`],
/// [`BindingTable::from_join_pairs`], and the operators' column gathers.
pub(crate) fn gather_column(col: &[TermId], sel: &[u32]) -> Vec<TermId> {
    sel.iter().map(|&i| col[i as usize]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(vals: &[u32]) -> Vec<TermId> {
        vals.iter().map(|&v| TermId(v)).collect()
    }

    #[test]
    fn build_and_inspect() {
        let t = BindingTable::from_columns(
            vec![Var(0), Var(1)],
            vec![ids(&[1, 2, 3]), ids(&[10, 20, 30])],
            Some(Var(0)),
        );
        assert_eq!(t.len(), 3);
        assert_eq!(t.vars(), &[Var(0), Var(1)]);
        assert_eq!(t.column(Var(1)), ids(&[10, 20, 30]).as_slice());
        assert_eq!(t.row(1), ids(&[2, 20]));
        assert_eq!(t.value(Var(0), 2), TermId(3));
        assert_eq!(t.sorted_by(), Some(Var(0)));
    }

    #[test]
    fn empty_table() {
        let t = BindingTable::empty(vec![Var(0)]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_columns_rejected() {
        BindingTable::from_columns(vec![Var(0), Var(1)], vec![ids(&[1]), ids(&[1, 2])], None);
    }

    #[test]
    #[should_panic(expected = "repeated variable")]
    fn repeated_vars_rejected() {
        BindingTable::from_columns(vec![Var(0), Var(0)], vec![ids(&[1]), ids(&[1])], None);
    }

    #[test]
    #[should_panic(expected = "not in table")]
    fn sorted_by_must_be_a_table_var() {
        BindingTable::from_columns(vec![Var(0)], vec![ids(&[1])], Some(Var(9)));
    }

    #[test]
    fn push_row_appends() {
        let mut t = BindingTable::empty(vec![Var(0), Var(1)]);
        t.push_row(&ids(&[1, 10]));
        t.push_row(&ids(&[2, 20]));
        assert_eq!(t.len(), 2);
        assert_eq!(t.row(1), ids(&[2, 20]));
    }

    #[test]
    fn sortedness_check() {
        let mut t = BindingTable::from_columns(vec![Var(0)], vec![ids(&[3, 1, 2])], None);
        assert!(t.check_sortedness());
        t.sorted_by = Some(Var(0)); // bypass set_sorted_by's debug assert
        assert!(!t.check_sortedness());
    }

    #[test]
    fn sorted_rows_for_projection() {
        let t = BindingTable::from_columns(
            vec![Var(0), Var(1)],
            vec![ids(&[2, 1]), ids(&[20, 10])],
            None,
        );
        assert_eq!(t.sorted_rows_for(&[Var(1)]), vec![ids(&[10]), ids(&[20])]);
    }
}
