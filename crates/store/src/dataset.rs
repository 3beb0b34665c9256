//! A triple store bundled with the dictionary that encodes it.

use hsp_rdf::ntriples::{self, ParseError};
use hsp_rdf::{Dictionary, IdTriple, Term, Triple};

use crate::store::TripleStore;

/// Terms the dictionary's delta segment may hold before
/// [`Dataset::compact_if_needed`] folds it, base rebuild or not: a write
/// that interns a new term copies the delta when a snapshot shares it, so
/// this bounds that copy.
const DICT_FOLD_TERMS: usize = 4 * 1024;

/// A loaded RDF dataset: the [`Dictionary`] plus the six-order [`TripleStore`].
///
/// This is the unit the planners and the execution engine operate on.
#[derive(Debug, Clone)]
pub struct Dataset {
    dict: Dictionary,
    store: TripleStore,
}

impl Dataset {
    /// Build a dataset from term-level triples.
    pub fn from_triples(triples: &[Triple]) -> Self {
        let mut dict = Dictionary::new();
        let encoded: Vec<IdTriple> = triples.iter().map(|t| t.intern(&mut dict)).collect();
        // Loading interns every term into the dictionary's mutable delta
        // segment; fold it into the shared base now so the first snapshot
        // clone is O(delta)=O(0), not one String clone per loaded term.
        dict.compact();
        Dataset {
            store: TripleStore::from_triples(&encoded),
            dict,
        }
    }

    /// Build a dataset from already-encoded triples and their dictionary.
    pub fn from_encoded(mut dict: Dictionary, triples: &[IdTriple]) -> Self {
        if let Some(bad) = triples.iter().flatten().find(|id| dict.get(**id).is_none()) {
            panic!("triple references id {bad} not present in the dictionary");
        }
        dict.compact();
        Dataset {
            store: TripleStore::from_triples(triples),
            dict,
        }
    }

    /// Parse an N-Triples document into a dataset.
    pub fn from_ntriples(document: &str) -> Result<Self, ParseError> {
        Ok(Self::from_triples(&ntriples::parse_document(document)?))
    }

    /// Parse a Turtle document into a dataset (prefixes, `a`,
    /// predicate/object lists, literal sugar — see [`hsp_rdf::turtle`]).
    pub fn from_turtle(document: &str) -> Result<Self, hsp_rdf::turtle::TurtleError> {
        Ok(Self::from_triples(&hsp_rdf::turtle::parse_turtle(
            document,
        )?))
    }

    /// The dictionary.
    pub fn dict(&self) -> &Dictionary {
        &self.dict
    }

    /// The six-order store.
    pub fn store(&self) -> &TripleStore {
        &self.store
    }

    /// Number of distinct triples.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// `true` if the dataset holds no triples.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Resolve a term to its id, if the term occurs in the data.
    pub fn id_of(&self, term: &Term) -> Option<hsp_rdf::TermId> {
        self.dict.id(term)
    }

    /// Insert ground triples (SPARQL `INSERT DATA`), interning new terms
    /// and keeping all six orders sorted. Returns the number of triples
    /// that were genuinely new.
    pub fn insert_data(&mut self, triples: &[Triple]) -> usize {
        let encoded: Vec<IdTriple> = triples.iter().map(|t| t.intern(&mut self.dict)).collect();
        self.store.insert_batch(&encoded)
    }

    /// Remove ground triples (SPARQL `DELETE DATA`). Triples mentioning a
    /// term the dictionary has never seen cannot be present and are
    /// skipped. Returns the number of triples actually removed.
    ///
    /// Dictionary entries are never reclaimed — ids stay stable across
    /// deletes, which keeps previously planned queries and cached scans
    /// valid (the usual RDF-store trade; a vacuum pass could reclaim them).
    pub fn remove_data(&mut self, triples: &[Triple]) -> usize {
        let encoded: Vec<IdTriple> = triples
            .iter()
            .filter_map(|t| {
                Some([
                    self.dict.id(&t.subject)?,
                    self.dict.id(&t.predicate)?,
                    self.dict.id(&t.object)?,
                ])
            })
            .collect();
        self.store.remove_batch(&encoded)
    }

    /// Remove already-encoded triples (used by `DELETE WHERE` executors
    /// that obtained ids from query results). Returns the number removed.
    pub fn remove_encoded(&mut self, triples: &[IdTriple]) -> usize {
        self.store.remove_batch(triples)
    }

    /// Set a per-dataset compaction threshold (inherited by clones).
    pub fn set_compaction_threshold(&mut self, threshold: Option<usize>) {
        self.store.set_compaction_threshold(threshold);
    }

    /// `true` when [`Dataset::compact_if_needed`] would do work: the
    /// store's overlay has reached its compaction threshold, or the
    /// dictionary's delta holds 4096 terms.
    pub fn needs_compaction(&self) -> bool {
        self.store.needs_compaction() || self.dict.delta_len() >= DICT_FOLD_TERMS
    }

    /// Fold the store's delta overlays into fresh base runs when they have
    /// outgrown the threshold, and the dictionary's delta with them or
    /// once it holds 4096 terms. Returns `true` if the store compacted.
    pub fn compact_if_needed(&mut self) -> bool {
        let ran = self.store.compact_if_needed();
        if ran || self.dict.delta_len() >= DICT_FOLD_TERMS {
            self.dict.compact();
        }
        ran
    }

    /// Unconditionally fold deltas into fresh base runs (content-neutral).
    pub fn compact(&mut self) -> bool {
        let ran = self.store.compact();
        self.dict.compact();
        ran
    }

    /// Render all triples back as an N-Triples document (in SPO order).
    pub fn to_ntriples(&self) -> String {
        use crate::backend::StorageBackend;
        use crate::order::Order;
        let rows = self.store.scan(Order::Spo, &[]);
        let mut out = String::new();
        for &key in rows.as_slice() {
            let spo = Order::Spo.from_key(key);
            let triple = hsp_rdf::triple::resolve(&self.dict, spo);
            out.push_str(&triple.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsp_rdf::TriplePos;

    const DOC: &str = "\
<http://e/Journal1> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://e/Journal> .
<http://e/Journal1> <http://e/title> \"Journal 1 (1940)\" .
<http://e/Journal1> <http://e/issued> \"1940\" .
<http://e/Article9> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://e/Article> .
";

    #[test]
    fn from_ntriples_loads_all_triples() {
        let ds = Dataset::from_ntriples(DOC).unwrap();
        assert_eq!(ds.len(), 4);
        assert!(!ds.is_empty());
    }

    #[test]
    fn dictionary_contains_every_term() {
        let ds = Dataset::from_ntriples(DOC).unwrap();
        assert!(ds.id_of(&Term::iri("http://e/Journal1")).is_some());
        assert!(ds.id_of(&Term::literal("Journal 1 (1940)")).is_some());
        assert!(ds.id_of(&Term::literal("no such term")).is_none());
    }

    #[test]
    fn counts_work_through_dataset() {
        let ds = Dataset::from_ntriples(DOC).unwrap();
        let j1 = ds.id_of(&Term::iri("http://e/Journal1")).unwrap();
        assert_eq!(ds.store().count_bound(&[(TriplePos::S, j1)]), 3);
    }

    #[test]
    fn ntriples_roundtrip_through_dataset() {
        let ds = Dataset::from_ntriples(DOC).unwrap();
        let doc2 = ds.to_ntriples();
        let ds2 = Dataset::from_ntriples(&doc2).unwrap();
        assert_eq!(ds2.len(), ds.len());
        assert_eq!(ds2.to_ntriples(), doc2);
    }

    #[test]
    fn from_turtle_loads_prefixed_data() {
        let ds = Dataset::from_turtle(
            "@prefix e: <http://e/> .\n\
             e:j1 a e:Journal ; e:title \"Journal 1 (1940)\" ; e:issued 1940 .",
        )
        .unwrap();
        assert_eq!(ds.len(), 3);
        assert!(ds.id_of(&Term::iri("http://e/j1")).is_some());
        assert!(ds
            .id_of(&Term::typed_literal(
                "1940",
                "http://www.w3.org/2001/XMLSchema#integer"
            ))
            .is_some());
    }

    /// The dictionary's delta folds at 4096 terms even when the store's
    /// overlay is far from its threshold.
    #[test]
    fn the_dictionary_delta_folds_on_its_own_bound() {
        let mut ds = Dataset::from_ntriples(DOC).unwrap();
        ds.set_compaction_threshold(Some(usize::MAX));
        let p = Term::iri("http://e/p");
        let triples: Vec<Triple> = (0..DICT_FOLD_TERMS / 2)
            .map(|i| {
                Triple::new(
                    Term::iri(format!("http://e/s{i}")),
                    p.clone(),
                    Term::literal(i.to_string()),
                )
            })
            .collect();
        ds.insert_data(&triples[..10]);
        assert!(!ds.needs_compaction());
        assert!(!ds.compact_if_needed());
        assert_eq!(ds.dict().delta_len(), 21);
        ds.insert_data(&triples[10..]);
        assert!(ds.dict().delta_len() >= DICT_FOLD_TERMS);
        assert!(ds.needs_compaction());
        assert!(
            !ds.compact_if_needed(),
            "the store's overlay is below its threshold"
        );
        assert_eq!(ds.dict().delta_len(), 0);
        assert_eq!(ds.store().delta_rows(), DICT_FOLD_TERMS / 2);
        assert_eq!(
            ds.id_of(&Term::literal("7"))
                .map(|id| ds.dict().term(id).clone()),
            Some(Term::literal("7"))
        );
    }

    #[test]
    fn parse_error_propagates() {
        assert!(Dataset::from_ntriples("garbage").is_err());
    }

    #[test]
    #[should_panic(expected = "not present in the dictionary")]
    fn from_encoded_validates_ids() {
        let dict = Dictionary::new();
        Dataset::from_encoded(dict, &[[hsp_rdf::TermId(0); 3]]);
    }
}
