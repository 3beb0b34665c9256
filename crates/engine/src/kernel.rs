//! Low-level building blocks of the vectorized join kernels: an FxHash-style
//! mixer, a drop-in `BuildHasher` for `u64`-keyed std collections, the
//! allocation-free hash-join build table, and the galloping search both
//! merge kernels advance their sorted cursors with.
//!
//! A build table is built once, sequentially, when a pipeline prepares its
//! probe stage (the breaker work of a hash join); every morsel worker then
//! probes it. It comes in two layouts, both flat (CSR-style: one offsets
//! array + one row-index array, no per-key `Vec`s and no per-probe
//! allocation):
//!
//! * **Packed** — join keys of one or two variables fit a single `u64`
//!   (`TermId` is 32 bits), so the table stores one packed key per build
//!   row and bucket membership is verified by a single integer compare.
//!   This covers the overwhelming majority of SPARQL joins (the planner
//!   joins on one variable; two-variable keys appear after FILTER
//!   unification).
//! * **Wide** — three or more key variables verify by comparing the key
//!   columns directly; only the 64-bit hash is precomputed per row.

use hsp_rdf::TermId;

/// The Firefox-hash multiplier (the `rustc-hash`/FxHash constant).
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Fold one 64-bit word into an Fx-style running hash.
#[inline]
pub fn fx_fold(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED)
}

/// Hash a single packed key. For one word this reduces to a multiplicative
/// hash, whose *high* bits are well mixed — bucket indices below are taken
/// from the top of the word.
#[inline]
pub fn fx_hash_u64(key: u64) -> u64 {
    fx_fold(0, key)
}

/// An Fx-backed `std::hash::BuildHasher`, for `u64`-keyed sets on hot paths
/// (e.g. DISTINCT over packed rows) where SipHash dominates the profile.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxBuildHasher;

/// The streaming hasher behind [`FxBuildHasher`].
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl std::hash::Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.hash = fx_fold(
                self.hash,
                // invariant: `chunks_exact(8)` yields 8-byte slices only.
                u64::from_le_bytes(chunk.try_into().expect("8 bytes")),
            );
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.hash = fx_fold(self.hash, u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.hash = fx_fold(self.hash, n);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.hash = fx_fold(self.hash, n as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.hash = fx_fold(self.hash, n as u64);
    }
}

impl std::hash::BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;
    fn build_hasher(&self) -> FxHasher {
        FxHasher::default()
    }
}

/// Pack a one- or two-column key into a `u64` (injective: `TermId` is 32
/// bits). Shared by the hash-join build table and the packed DISTINCT path
/// so the two key encodings can never diverge.
#[inline]
pub(crate) fn pack2(a: TermId, b: TermId) -> u64 {
    a.0 as u64 | ((b.0 as u64) << 32)
}

/// Flat bucket directory: `rows[offsets[b]..offsets[b + 1]]` are the build
/// rows hashing to bucket `b`, in build order (stable, so probe results
/// come out in the same order the seed's `HashMap<_, Vec<usize>>` produced).
#[derive(Debug)]
struct CsrBuckets {
    shift: u32,
    offsets: Vec<u32>,
    rows: Vec<u32>,
}

impl CsrBuckets {
    /// Counting-sort `hashes` into a bucket directory with ~2x occupancy.
    fn build(hashes: &[u64]) -> CsrBuckets {
        let buckets = (hashes.len() * 2).next_power_of_two().max(16);
        let shift = 64 - buckets.trailing_zeros();
        let mut offsets = vec![0u32; buckets + 1];
        for &h in hashes {
            offsets[(h >> shift) as usize + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut cursor = offsets[..buckets].to_vec();
        let mut rows = vec![0u32; hashes.len()];
        for (j, &h) in hashes.iter().enumerate() {
            let b = (h >> shift) as usize;
            rows[cursor[b] as usize] = j as u32;
            cursor[b] += 1;
        }
        CsrBuckets {
            shift,
            offsets,
            rows,
        }
    }

    /// The build rows in the bucket of `hash`.
    #[inline]
    fn slot(&self, hash: u64) -> &[u32] {
        let b = (hash >> self.shift) as usize;
        &self.rows[self.offsets[b] as usize..self.offsets[b + 1] as usize]
    }
}

/// The hash-join build side: right-table rows indexed by join key.
///
/// Construction hashes every build row once; probing walks one bucket and
/// verifies candidates, calling back with matching build-row indices in
/// build order. Neither phase allocates per row/probe beyond the flat
/// arrays built up front.
#[derive(Debug)]
pub struct BuildTable {
    buckets: CsrBuckets,
    layout: Layout,
}

#[derive(Debug)]
enum Layout {
    /// Keys of ≤ 2 variables, packed into a `u64` per build row.
    Packed { keys: Vec<u64> },
    /// Keys of ≥ 3 variables, verified against the key columns at probe
    /// time; only the per-row hash is precomputed.
    Wide { hashes: Vec<u64> },
}

impl BuildTable {
    /// Index `rows` build rows by the given key columns.
    ///
    /// # Panics
    /// Panics if `key_cols` is empty or a column is shorter than `rows`.
    pub fn build(key_cols: &[&[TermId]], rows: usize) -> BuildTable {
        assert!(!key_cols.is_empty(), "join key needs at least one column");
        assert!(
            rows < u32::MAX as usize,
            "build side exceeds u32 row indexing"
        );
        if key_cols.len() <= 2 {
            let keys: Vec<u64> = (0..rows)
                .map(|j| pack2(key_cols[0][j], key_cols.get(1).map_or(TermId(0), |c| c[j])))
                .collect();
            let hashes: Vec<u64> = keys.iter().map(|&k| fx_hash_u64(k)).collect();
            BuildTable {
                buckets: CsrBuckets::build(&hashes),
                layout: Layout::Packed { keys },
            }
        } else {
            let hashes: Vec<u64> = (0..rows)
                .map(|j| {
                    key_cols
                        .iter()
                        .fold(0u64, |h, col| fx_fold(h, col[j].0 as u64))
                })
                .collect();
            BuildTable {
                buckets: CsrBuckets::build(&hashes),
                layout: Layout::Wide { hashes },
            }
        }
    }

    /// Call `on_match` with every build row whose key equals probe row `i`
    /// of `probe_cols` (same column layout as the build's `key_cols`),
    /// in build order. `build_cols` must be the columns the table was built
    /// from (used for verification in the wide layout).
    #[inline]
    pub fn probe(
        &self,
        build_cols: &[&[TermId]],
        probe_cols: &[&[TermId]],
        i: usize,
        mut on_match: impl FnMut(usize),
    ) {
        match &self.layout {
            Layout::Packed { keys } => {
                let key = pack2(
                    probe_cols[0][i],
                    probe_cols.get(1).map_or(TermId(0), |c| c[i]),
                );
                for &j in self.buckets.slot(fx_hash_u64(key)) {
                    if keys[j as usize] == key {
                        on_match(j as usize);
                    }
                }
            }
            Layout::Wide { hashes } => {
                let hash = probe_cols
                    .iter()
                    .fold(0u64, |h, col| fx_fold(h, col[i].0 as u64));
                for &j in self.buckets.slot(hash) {
                    let j = j as usize;
                    if hashes[j] == hash
                        && build_cols
                            .iter()
                            .zip(probe_cols)
                            .all(|(bc, pc)| bc[j] == pc[i])
                    {
                        on_match(j);
                    }
                }
            }
        }
    }

    /// Probe a contiguous `range` of probe rows, appending every matching
    /// `(probe_row, build_row)` pair to `lidx`/`ridx` in probe order (build
    /// order within one probe row). `extra_pairs` are additional shared
    /// `(probe column, build column)` pairs that must also match — the
    /// repeated-variable check of the join operators.
    ///
    /// This is the one probe loop: the sequential hash join calls it over
    /// `0..rows`, the morsel-driven hash join calls it per morsel with
    /// thread-local output buffers (see [`crate::morsel`]). Output is a
    /// pure function of `range`, so stitching the per-morsel buffers in
    /// morsel order reproduces the sequential output exactly.
    #[allow(clippy::too_many_arguments)]
    pub fn probe_range(
        &self,
        build_cols: &[&[TermId]],
        probe_cols: &[&[TermId]],
        extra_pairs: &[(&[TermId], &[TermId])],
        range: std::ops::Range<usize>,
        lidx: &mut Vec<u32>,
        ridx: &mut Vec<u32>,
    ) {
        for i in range {
            self.probe(build_cols, probe_cols, i, |j| {
                if extra_pairs.iter().all(|(pc, bc)| pc[i] == bc[j]) {
                    lidx.push(i as u32);
                    ridx.push(j as u32);
                }
            });
        }
    }

    /// [`BuildTable::probe_range`] with left-outer semantics: a probe row
    /// with no surviving match emits one `(probe_row, u32::MAX)` sentinel
    /// pair, which the gather phase turns into UNBOUND padding.
    #[allow(clippy::too_many_arguments)]
    pub fn probe_range_outer(
        &self,
        build_cols: &[&[TermId]],
        probe_cols: &[&[TermId]],
        extra_pairs: &[(&[TermId], &[TermId])],
        range: std::ops::Range<usize>,
        lidx: &mut Vec<u32>,
        ridx: &mut Vec<u32>,
    ) {
        for i in range {
            let mut matched = false;
            self.probe(build_cols, probe_cols, i, |j| {
                if extra_pairs.iter().all(|(pc, bc)| pc[i] == bc[j]) {
                    matched = true;
                    lidx.push(i as u32);
                    ridx.push(j as u32);
                }
            });
            if !matched {
                lidx.push(i as u32);
                ridx.push(u32::MAX);
            }
        }
    }
}

/// The merge join's cursor-pair scan over two sorted key columns: append
/// every matching `(left_row, right_row)` pair to `lidx`/`ridx`, in left
/// order (right order within an equal-key group), filtered by the
/// `extra_pairs` repeated-variable checks.
pub fn merge_join_pairs(
    lcol: &[TermId],
    rcol: &[TermId],
    extra_pairs: &[(&[TermId], &[TermId])],
    lidx: &mut Vec<u32>,
    ridx: &mut Vec<u32>,
) {
    let (mut i, mut j) = (0, 0);
    while i < lcol.len() && j < rcol.len() {
        let (a, b) = (lcol[i], rcol[j]);
        if a < b {
            i = gallop(lcol, i, |&x| x < b);
        } else if b < a {
            j = gallop(rcol, j, |&x| x < a);
        } else {
            // Equal-key groups: cross-combine.
            let i_end = gallop(lcol, i, |&x| x == a);
            let j_end = gallop(rcol, j, |&x| x == a);
            if extra_pairs.is_empty() {
                lidx.reserve((i_end - i) * (j_end - j));
                ridx.reserve((i_end - i) * (j_end - j));
                for li in i..i_end {
                    for rj in j..j_end {
                        lidx.push(li as u32);
                        ridx.push(rj as u32);
                    }
                }
            } else {
                for li in i..i_end {
                    for rj in j..j_end {
                        if extra_pairs.iter().all(|(lc, rc)| lc[li] == rc[rj]) {
                            lidx.push(li as u32);
                            ridx.push(rj as u32);
                        }
                    }
                }
            }
            i = i_end;
            j = j_end;
        }
    }
}

/// Galloping (exponential-then-binary) search: the first index `≥ from`
/// at which `pred` fails, for a `pred` that holds on a prefix of
/// `slice[from..]` — `from + slice[from..].partition_point(pred)`, in time
/// logarithmic in the distance moved rather than in the slice's length.
///
/// This is the one cursor advance of the sorted kernels: the binary merge
/// join ([`merge_join_pairs`]) skips unmatched keys and finds each
/// equal-key group's end with it, and the pipeline's merge-block source
/// leapfrogs its leaves to the driver's keys with it. A cursor already at
/// its target costs a single comparison.
pub fn gallop<T>(slice: &[T], from: usize, pred: impl Fn(&T) -> bool) -> usize {
    if from >= slice.len() || !pred(&slice[from]) {
        return from;
    }
    // `pred` holds at `lo`; double the step until it fails (or the slice
    // ends), then binary-search the last step.
    let (mut lo, mut step) = (from, 1);
    let hi = loop {
        match lo.checked_add(step).filter(|&p| p < slice.len()) {
            Some(probe) if pred(&slice[probe]) => {
                lo = probe;
                step *= 2;
            }
            Some(probe) => break probe,
            None => break slice.len(),
        }
    };
    lo + 1 + slice[lo + 1..hi].partition_point(pred)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(vals: &[u32]) -> Vec<TermId> {
        vals.iter().map(|&v| TermId(v)).collect()
    }

    #[test]
    fn packed_single_column_probe_finds_all_matches_in_order() {
        let col = ids(&[5, 3, 5, 9, 5]);
        let cols: Vec<&[TermId]> = vec![&col];
        let table = BuildTable::build(&cols, col.len());
        let probe = ids(&[5, 1]);
        let pcols: Vec<&[TermId]> = vec![&probe];
        let mut hits = Vec::new();
        table.probe(&cols, &pcols, 0, |j| hits.push(j));
        assert_eq!(hits, vec![0, 2, 4]);
        hits.clear();
        table.probe(&cols, &pcols, 1, |j| hits.push(j));
        assert!(hits.is_empty());
    }

    #[test]
    fn packed_two_column_keys_distinguish_pairs() {
        let a = ids(&[1, 1, 2]);
        let b = ids(&[10, 20, 10]);
        let cols: Vec<&[TermId]> = vec![&a, &b];
        let table = BuildTable::build(&cols, 3);
        let pa = ids(&[1]);
        let pb = ids(&[10]);
        let pcols: Vec<&[TermId]> = vec![&pa, &pb];
        let mut hits = Vec::new();
        table.probe(&cols, &pcols, 0, |j| hits.push(j));
        assert_eq!(hits, vec![0]);
    }

    #[test]
    fn wide_three_column_keys_verify_columns() {
        let a = ids(&[1, 1, 1]);
        let b = ids(&[2, 2, 9]);
        let c = ids(&[3, 3, 3]);
        let cols: Vec<&[TermId]> = vec![&a, &b, &c];
        let table = BuildTable::build(&cols, 3);
        let pcols: Vec<&[TermId]> = vec![&a, &b, &c];
        let mut hits = Vec::new();
        table.probe(&cols, &pcols, 0, |j| hits.push(j));
        assert_eq!(hits, vec![0, 1]);
    }

    /// Deterministic pseudo-random key columns with heavy collisions.
    fn random_cols(n: usize, domain: u32, salt: u64) -> Vec<TermId> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ salt;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                TermId((state >> 33) as u32 % domain)
            })
            .collect()
    }

    #[test]
    fn merge_join_pairs_full_range_matches_manual_scan() {
        let l = ids(&[1, 1, 2, 4, 4, 4, 7]);
        let r = ids(&[1, 2, 2, 4, 6]);
        let mut lidx = Vec::new();
        let mut ridx = Vec::new();
        merge_join_pairs(&l, &r, &[], &mut lidx, &mut ridx);
        // 1×1 (two left 1s), 2×2 (two right 2s), 4×4 (three left 4s).
        assert_eq!(lidx, vec![0, 1, 2, 2, 3, 4, 5]);
        assert_eq!(ridx, vec![0, 0, 1, 2, 3, 3, 3]);
    }

    #[test]
    fn gallop_equals_partition_point_from_every_cursor() {
        let col = random_cols(300, 40, 8);
        let mut sorted = col.clone();
        sorted.sort();
        for from in 0..=sorted.len() {
            for bound in [0, 1, 7, 20, 39, 40] {
                let pred = |x: &TermId| x.0 < bound;
                let want = from + sorted[from..].partition_point(pred);
                assert_eq!(
                    gallop(&sorted, from, pred),
                    want,
                    "from={from} bound={bound}"
                );
            }
        }
        assert_eq!(gallop::<TermId>(&[], 0, |_| true), 0);
    }

    #[test]
    fn merge_join_pairs_skip_runs_of_unmatched_keys() {
        // Long unmatched runs on both sides are galloped over; the pairs
        // are those of the plain cursor walk.
        let l = ids(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 50, 50, 60]);
        let r = ids(&[0, 0, 0, 50, 51, 52, 53, 54, 55, 56, 60, 60]);
        let mut lidx = Vec::new();
        let mut ridx = Vec::new();
        merge_join_pairs(&l, &r, &[], &mut lidx, &mut ridx);
        assert_eq!(lidx, vec![9, 10, 11, 11]);
        assert_eq!(ridx, vec![3, 3, 10, 11]);
    }

    #[test]
    fn empty_build_side_matches_nothing() {
        let empty: Vec<TermId> = Vec::new();
        let cols: Vec<&[TermId]> = vec![&empty];
        let table = BuildTable::build(&cols, 0);
        let probe = ids(&[7]);
        let pcols: Vec<&[TermId]> = vec![&probe];
        let mut hits = Vec::new();
        table.probe(&cols, &pcols, 0, |j| hits.push(j));
        assert!(hits.is_empty());
    }
}
