//! Cursor type returned by snapshot range scans.

use std::ops::Deref;

use hsp_rdf::IdTriple;

/// The rows matching a bound key prefix, in key coordinates, sorted by the
/// remaining key components.
///
/// When the relation's delta overlay is empty for the requested range the
/// scan borrows the base run directly (`Borrowed`) — zero-copy, exactly the
/// pre-copy-on-write read path. When delta entries overlap the range the
/// rows are merged into a private buffer (`Owned`). Either way the scan
/// derefs to a contiguous `&[IdTriple]`, so morsel carving and the column
/// gathers keep working on plain slices.
#[derive(Debug, Clone)]
pub enum OrderScan<'a> {
    /// Zero-copy view of the base run (delta empty over this range).
    Borrowed(&'a [IdTriple]),
    /// Merged base+delta rows materialised for this scan.
    Owned(Vec<IdTriple>),
}

impl<'a> OrderScan<'a> {
    /// An empty scan (used for patterns with unresolvable constants).
    pub fn empty() -> Self {
        OrderScan::Borrowed(&[])
    }

    /// The rows as a contiguous sorted slice.
    pub fn as_slice(&self) -> &[IdTriple] {
        match self {
            OrderScan::Borrowed(rows) => rows,
            OrderScan::Owned(rows) => rows,
        }
    }

    /// `true` when the scan borrows the base run directly (no merge was
    /// needed). Observability: the engine counts non-contiguous scans.
    pub fn is_contiguous(&self) -> bool {
        matches!(self, OrderScan::Borrowed(_))
    }
}

impl Deref for OrderScan<'_> {
    type Target = [IdTriple];

    fn deref(&self) -> &[IdTriple] {
        self.as_slice()
    }
}

impl<'a> From<&'a [IdTriple]> for OrderScan<'a> {
    fn from(rows: &'a [IdTriple]) -> Self {
        OrderScan::Borrowed(rows)
    }
}

impl From<Vec<IdTriple>> for OrderScan<'_> {
    fn from(rows: Vec<IdTriple>) -> Self {
        OrderScan::Owned(rows)
    }
}
