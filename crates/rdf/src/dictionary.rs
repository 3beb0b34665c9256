//! The mapping dictionary: terms ⇄ dense integer identifiers.
//!
//! Like the systems surveyed in Section 2 of the paper ("the majority of the
//! systems replace constants appearing in RDF triples by identifiers using a
//! mapping dictionary"), all query processing in this workspace happens over
//! [`TermId`]s; strings are only touched at load time and when rendering
//! results.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::term::{Term, TermKind};

/// A dense identifier for an interned [`Term`].
///
/// Identifiers are assigned in first-seen order and are only meaningful
/// relative to the [`Dictionary`] that produced them. `u32` keeps the sorted
/// triple relations at 12 bytes per triple; the benchmark datasets stay far
/// below `u32::MAX` distinct terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TermId(pub u32);

impl TermId {
    /// Sentinel for an *unbound* value in OPTIONAL/UNION results. Never a
    /// valid dictionary id: the dictionary panics before handing out
    /// `u32::MAX` ids.
    pub const UNBOUND: TermId = TermId(u32::MAX);

    /// The raw index value.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// `true` if this is the [`TermId::UNBOUND`] sentinel.
    #[inline]
    pub fn is_unbound(self) -> bool {
        self == TermId::UNBOUND
    }
}

impl fmt::Display for TermId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Two-way mapping between [`Term`]s and [`TermId`]s.
///
/// Interning the same term twice returns the same identifier. Lookup by term
/// is hash-based; lookup by id is an array index. Each distinct term is
/// stored **once**: the by-id vector and the by-term map hold clones of the
/// same [`Term`], and a `Term` clone shares its `Arc<str>` payloads, so the
/// two directions cost one string allocation between them — and
/// `dict.term(id).clone()`, the decode step of every result cell, is a
/// reference-count bump.
///
/// Like the triple relations, the dictionary is copy-on-write: ids
/// `0..base_len` live in an immutable `Arc`-shared base segment and newer
/// ids in a small mutable delta, so cloning a dictionary for snapshot
/// publication costs O(delta). Ids are dense across both segments and never
/// move; [`Dictionary::compact`] folds the delta into a fresh base segment.
#[derive(Debug, Default, Clone)]
pub struct Dictionary {
    /// Immutable shared segment: ids `0..base_terms.len()`.
    base_terms: Arc<Vec<Term>>,
    base_by_term: Arc<HashMap<Term, TermId>>,
    /// Mutable overlay: ids `base_terms.len()..len()`.
    delta_terms: Vec<Term>,
    delta_by_term: HashMap<Term, TermId>,
    /// Kind of each interned term (both segments), kept separately so
    /// hot-path kind checks (heuristic H4) avoid touching the string data.
    /// Plain `Vec`: one byte per term, cloning it is a memcpy.
    kinds: Vec<TermKind>,
}

impl Dictionary {
    /// Create an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct interned terms.
    pub fn len(&self) -> usize {
        self.base_terms.len() + self.delta_terms.len()
    }

    /// `true` if no terms have been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of terms in the mutable delta segment (0 after `compact`).
    pub fn delta_len(&self) -> usize {
        self.delta_terms.len()
    }

    /// Intern `term`, returning its identifier (allocating one if new).
    pub fn intern(&mut self, term: Term) -> TermId {
        if let Some(&id) = self.base_by_term.get(&term) {
            return id;
        }
        if let Some(&id) = self.delta_by_term.get(&term) {
            return id;
        }
        let id = TermId(u32::try_from(self.len()).expect("dictionary overflow: > u32::MAX terms"));
        self.kinds.push(term.kind());
        self.delta_terms.push(term.clone());
        self.delta_by_term.insert(term, id);
        id
    }

    /// Fold the delta segment into a fresh shared base segment (ids are
    /// unchanged). O(n); callers keep it off the write path alongside
    /// store compaction. Returns `false` if the delta was already empty.
    pub fn compact(&mut self) -> bool {
        if self.delta_terms.is_empty() {
            return false;
        }
        let mut terms = Vec::with_capacity(self.len());
        terms.extend_from_slice(&self.base_terms);
        terms.append(&mut self.delta_terms);
        let mut by_term = HashMap::with_capacity(terms.len());
        by_term.extend((*self.base_by_term).clone());
        by_term.extend(self.delta_by_term.drain());
        self.base_terms = Arc::new(terms);
        self.base_by_term = Arc::new(by_term);
        true
    }

    /// Intern an IRI given as a string (or an already shared `Arc<str>`).
    pub fn intern_iri(&mut self, iri: impl Into<Arc<str>>) -> TermId {
        self.intern(Term::iri(iri))
    }

    /// Intern a plain literal given as a string (or an already shared
    /// `Arc<str>`).
    pub fn intern_literal(&mut self, lexical: impl Into<Arc<str>>) -> TermId {
        self.intern(Term::literal(lexical))
    }

    /// Look up the identifier of an already-interned term.
    pub fn id(&self, term: &Term) -> Option<TermId> {
        self.base_by_term
            .get(term)
            .or_else(|| self.delta_by_term.get(term))
            .copied()
    }

    /// Look up the identifier of an already-interned IRI.
    ///
    /// Builds a temporary key term (one short-lived `Arc<str>`): the map is
    /// keyed by [`Term`], which has no borrowed form. Planning-time only,
    /// never per tuple.
    pub fn iri_id(&self, iri: &str) -> Option<TermId> {
        self.id(&Term::iri(iri))
    }

    /// Resolve an identifier back to its term.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this dictionary.
    pub fn term(&self, id: TermId) -> &Term {
        self.get(id).expect("term id out of range")
    }

    /// Resolve an identifier if it is valid for this dictionary.
    pub fn get(&self, id: TermId) -> Option<&Term> {
        let i = id.index();
        if i < self.base_terms.len() {
            self.base_terms.get(i)
        } else {
            self.delta_terms.get(i - self.base_terms.len())
        }
    }

    /// The kind (IRI/literal) of an interned term without touching its data.
    pub fn kind(&self, id: TermId) -> TermKind {
        self.kinds[id.index()]
    }

    /// Iterate over all `(id, term)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &Term)> {
        self.base_terms
            .iter()
            .chain(self.delta_terms.iter())
            .enumerate()
            .map(|(i, t)| (TermId(i as u32), t))
    }

    /// The id of `rdf:type`, if it has been interned.
    pub fn rdf_type(&self) -> Option<TermId> {
        self.iri_id(crate::vocab::RDF_TYPE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut d = Dictionary::new();
        let a = d.intern_iri("http://e.org/a");
        let b = d.intern_iri("http://e.org/a");
        assert_eq!(a, b);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn distinct_terms_get_distinct_ids() {
        let mut d = Dictionary::new();
        let a = d.intern_iri("http://e.org/a");
        let b = d.intern_literal("http://e.org/a"); // same text, different kind
        assert_ne!(a, b);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn roundtrip_id_term() {
        let mut d = Dictionary::new();
        let t = Term::typed_literal("1940", "http://www.w3.org/2001/XMLSchema#integer");
        let id = d.intern(t.clone());
        assert_eq!(d.term(id), &t);
        assert_eq!(d.id(&t), Some(id));
    }

    #[test]
    fn kind_matches_term() {
        let mut d = Dictionary::new();
        let i = d.intern_iri("http://e.org/a");
        let l = d.intern_literal("x");
        assert_eq!(d.kind(i), TermKind::Iri);
        assert_eq!(d.kind(l), TermKind::Literal);
    }

    #[test]
    fn get_out_of_range_is_none() {
        let d = Dictionary::new();
        assert!(d.get(TermId(0)).is_none());
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut d = Dictionary::new();
        for i in 0..100 {
            let id = d.intern_literal(format!("lit{i}"));
            assert_eq!(id.index(), i);
        }
        let collected: Vec<_> = d.iter().map(|(id, _)| id.index()).collect();
        assert_eq!(collected, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn rdf_type_lookup() {
        let mut d = Dictionary::new();
        assert!(d.rdf_type().is_none());
        let id = d.intern_iri(crate::vocab::RDF_TYPE);
        assert_eq!(d.rdf_type(), Some(id));
    }

    #[test]
    fn interning_after_clone_is_copy_on_write() {
        let mut d = Dictionary::new();
        let a = d.intern_iri("http://e.org/a");
        d.compact();
        let snapshot = d.clone();
        assert!(Arc::ptr_eq(&d.base_terms, &snapshot.base_terms));
        // New terms land in the delta; the shared base is untouched.
        let b = d.intern_iri("http://e.org/b");
        assert!(Arc::ptr_eq(&d.base_terms, &snapshot.base_terms));
        assert_eq!(d.delta_len(), 1);
        assert_eq!(snapshot.len(), 1);
        assert!(snapshot.get(b).is_none());
        // Both segments resolve ids and terms.
        assert_eq!(d.term(a), &Term::iri("http://e.org/a"));
        assert_eq!(d.term(b), &Term::iri("http://e.org/b"));
        assert_eq!(d.id(&Term::iri("http://e.org/b")), Some(b));
    }

    /// The by-id and by-term copies of `id`'s term share their string
    /// payloads (pointer-equal `Arc<str>`s), in whichever segment it lives.
    fn shares_storage(d: &Dictionary, id: TermId) -> bool {
        let by_id = d.term(id);
        let (by_term, _) = d
            .base_by_term
            .get_key_value(by_id)
            .or_else(|| d.delta_by_term.get_key_value(by_id))
            .expect("interned term is in a by-term map");
        match (by_id, by_term) {
            (Term::Iri(a), Term::Iri(b)) => Arc::ptr_eq(a, b),
            (
                Term::Literal {
                    lexical: la,
                    datatype: da,
                    language: ga,
                },
                Term::Literal {
                    lexical: lb,
                    datatype: db,
                    language: gb,
                },
            ) => {
                let same = |a: &Option<Arc<str>>, b: &Option<Arc<str>>| match (a, b) {
                    (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                    (None, None) => true,
                    _ => false,
                };
                Arc::ptr_eq(la, lb) && same(da, db) && same(ga, gb)
            }
            _ => false,
        }
    }

    #[test]
    fn by_id_and_by_term_share_one_allocation() {
        let mut d = Dictionary::new();
        let ids = [
            d.intern_iri("http://e.org/a"),
            d.intern_literal("plain"),
            d.intern(Term::typed_literal("1940", "http://e.org/int")),
            d.intern(Term::lang_literal("chat", "fr")),
        ];
        // In the delta, after folding into the base, and across a COW
        // clone that interns on top of the shared base.
        assert!(ids.iter().all(|&id| shares_storage(&d, id)));
        assert!(d.compact());
        assert!(ids.iter().all(|&id| shares_storage(&d, id)));
        let snapshot = d.clone();
        let late = d.intern_iri("http://e.org/late");
        assert!(shares_storage(&d, late));
        assert!(ids
            .iter()
            .all(|&id| shares_storage(&d, id) && shares_storage(&snapshot, id)));
        // The clone shares the strings themselves, not copies of them.
        match (d.term(ids[0]), snapshot.term(ids[0])) {
            (Term::Iri(a), Term::Iri(b)) => assert!(Arc::ptr_eq(a, b)),
            other => panic!("expected two IRIs, got {other:?}"),
        }
        // A decoded cell is the dictionary's allocation, not a copy.
        let decoded = d.term(ids[1]).clone();
        match (&decoded, d.term(ids[1])) {
            (Term::Literal { lexical: a, .. }, Term::Literal { lexical: b, .. }) => {
                assert!(Arc::ptr_eq(a, b));
            }
            other => panic!("expected two literals, got {other:?}"),
        }
    }

    #[test]
    fn compact_preserves_ids_and_lookup() {
        let mut d = Dictionary::new();
        let ids: Vec<_> = (0..50)
            .map(|i| d.intern_literal(format!("lit{i}")))
            .collect();
        d.compact();
        let more: Vec<_> = (50..80)
            .map(|i| d.intern_literal(format!("lit{i}")))
            .collect();
        assert_eq!(d.delta_len(), 30);
        assert!(d.compact());
        assert!(!d.compact(), "second compact is a no-op");
        assert_eq!(d.delta_len(), 0);
        assert_eq!(d.len(), 80);
        for (i, id) in ids.iter().chain(more.iter()).enumerate() {
            assert_eq!(id.index(), i);
            assert_eq!(d.term(*id), &Term::literal(format!("lit{i}")));
            assert_eq!(d.id(&Term::literal(format!("lit{i}"))), Some(*id));
            assert_eq!(d.kind(*id), TermKind::Literal);
        }
        let collected: Vec<_> = d.iter().map(|(id, _)| id.index()).collect();
        assert_eq!(collected, (0..80).collect::<Vec<_>>());
        // Interning an existing term still finds it in either segment.
        assert_eq!(d.intern_literal("lit5"), ids[5]);
        assert_eq!(d.len(), 80);
    }
}
