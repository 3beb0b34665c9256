//! Columnar triple store with six sorted relations.
//!
//! The paper (Section 5) assumes "the RDF data are stored in a triple table,
//! and that all possible ordering combinations are also present … We refer to
//! these six orderings as `spo, sop, ops, osp, pos, pso`". This crate is that
//! substrate:
//!
//! * [`Order`] — the six collation orders (all permutations of `s, p, o`).
//! * `SortedRelation` (crate-private) — one fully sorted copy of the data
//!   per order, with binary-search range lookup by bound prefix. A scan
//!   over a relation whose key starts with a pattern's constants returns
//!   rows *sorted by the next key component* — the property merge joins
//!   exploit.
//! * [`TripleStore`] — all six relations plus exact `count` / `distinct`
//!   statistics. The counts are what RDF-3X's *aggregated indexes* provide,
//!   so the CDP baseline planner is fed the same information as in the paper.
//! * [`Dataset`] — a store bundled with its [`Dictionary`].
//!
//! Each relation is an immutable `Arc`-shared base run plus a two-level
//! sorted delta overlay (an `Arc`-shared middle level and a small top
//! level), reads go through the [`StorageBackend`] trait
//! ([`StorageBackend::scan`] returns an [`OrderScan`] cursor that borrows
//! the base run whenever the overlay is empty over the range), and a
//! write costs its batch: cloning a store for snapshot publication copies
//! only the six top levels.

pub mod backend;
pub mod dataset;
pub mod order;
pub(crate) mod relation;
pub mod scan;
pub mod store;

pub use backend::StorageBackend;
pub use dataset::Dataset;
pub use order::Order;
pub(crate) use relation::SortedRelation;
pub use scan::OrderScan;
pub use store::TripleStore;

pub use hsp_rdf::{Dictionary, IdTriple, TermId, TriplePos};
