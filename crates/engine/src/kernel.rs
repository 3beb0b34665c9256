//! Low-level building blocks of the vectorized join kernels: an FxHash-style
//! mixer, a drop-in `BuildHasher` for `u64`-keyed std collections, and the
//! allocation-free hash-join build table.
//!
//! The build table comes in two layouts, both flat (CSR-style: one offsets
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

use crate::morsel::{self, MorselConfig, MorselRun};

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
#[derive(Debug, PartialEq, Eq)]
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

    /// [`CsrBuckets::build`] as a **two-pass partitioned counting sort**
    /// over contiguous row stripes, producing a directory byte-identical
    /// to the sequential build.
    ///
    /// Pass 1: each worker histograms its stripe's bucket occupancy. The
    /// per-stripe histograms are then prefix-summed (stripe-major within
    /// each bucket) into per-stripe write cursors — stripe `s`'s slice of
    /// bucket `b` starts where stripe `s − 1`'s ends, which is exactly the
    /// row order the sequential counting sort produces. Pass 2: each
    /// worker scatters its stripe's row indices through its own cursors.
    /// The cursor construction hands every worker a *disjoint* set of
    /// slots in the shared `rows` array, so the scatter is race-free by
    /// construction (asserted through a raw-pointer wrapper below).
    ///
    /// The cursor carve-out between the passes is itself parallel over
    /// **disjoint bucket chunks**: each carve task computes its chunk's
    /// per-stripe cursors from a chunk base offset, so the former
    /// `O(stripes × buckets)` serial term (with `buckets ≈ 2 × rows` it
    /// bounded the build's speedup by Amdahl) shrinks to an
    /// `O(workers)` sequential prefix over per-chunk totals. The carved
    /// cursor values are the same integers the sequential interleaved
    /// scan produces — chunk `c`'s base is exactly the row count of all
    /// buckets before it — so the directory stays byte-identical.
    fn build_par(hashes: &[u64], config: &MorselConfig) -> (CsrBuckets, MorselRun) {
        let workers = config.workers_for(hashes.len()).min(MAX_BUILD_WORKERS);
        if workers <= 1 {
            return (CsrBuckets::build(hashes), MorselRun::SEQUENTIAL);
        }
        let buckets = (hashes.len() * 2).next_power_of_two().max(16);
        let shift = 64 - buckets.trailing_zeros();
        let stripes = morsel::stripe_ranges(hashes.len(), workers, config.morsel_rows());

        // Pass 1 (parallel): per-stripe bucket histograms.
        let (mut histograms, mut run) = morsel::run_tasks(stripes.len(), workers, config, |s| {
            let mut counts = vec![0u32; buckets];
            for &h in &hashes[stripes[s].clone()] {
                counts[(h >> shift) as usize] += 1;
            }
            counts
        });

        // Carve-out (parallel over disjoint bucket chunks): per-chunk
        // totals, a sequential prefix over the chunk totals, then each
        // chunk turns its slice of the histograms into per-stripe write
        // cursors and fills its slice of the global offsets array.
        let chunk_size = buckets.div_ceil(workers);
        let chunks: Vec<std::ops::Range<usize>> = (0..workers)
            .map(|c| (c * chunk_size).min(buckets)..((c + 1) * chunk_size).min(buckets))
            .filter(|r| !r.is_empty())
            .collect();
        let (chunk_totals, totals_run) = morsel::run_tasks(chunks.len(), workers, config, |c| {
            let mut sum = 0u32;
            for b in chunks[c].clone() {
                for hist in &histograms {
                    sum += hist[b];
                }
            }
            sum
        });
        let mut chunk_base = vec![0u32; chunks.len() + 1];
        for (c, &total) in chunk_totals.iter().enumerate() {
            chunk_base[c + 1] = chunk_base[c] + total;
        }
        let mut offsets = vec![0u32; buckets + 1];
        let carve_run = {
            let offsets_out = ScatterSlice(offsets.as_mut_ptr());
            let hist_slices: Vec<ScatterSlice<u32>> = histograms
                .iter_mut()
                .map(|h| ScatterSlice(h.as_mut_ptr()))
                .collect();
            morsel::run_tasks(chunks.len(), workers, config, |c| {
                // SAFETY: bucket chunks are disjoint, so every histogram
                // slot `hist[b]` and offsets slot `offsets[b + 1]` is
                // touched by exactly one task; `offsets[0]` stays 0.
                let mut cursor = chunk_base[c];
                for b in chunks[c].clone() {
                    for hist in &hist_slices {
                        let count = unsafe { hist.read(b) };
                        unsafe { hist.write(b, cursor) };
                        cursor += count;
                    }
                    unsafe { offsets_out.write(b + 1, cursor) };
                }
            })
            .1
        };

        // Pass 2 (parallel): scatter row indices through the per-stripe
        // cursors. Every write lands at a distinct index (the cursors
        // partition `0..rows.len()`), so sharing the output across workers
        // is sound; the `ScatterSlice` wrapper carries that promise. Each
        // task takes *ownership* of its stripe's cursor vector (one
        // uncontended lock per stripe) instead of cloning `buckets`
        // entries per stripe.
        let mut rows = vec![0u32; hashes.len()];
        let out = ScatterSlice(rows.as_mut_ptr());
        let cursor_slots: Vec<std::sync::Mutex<Vec<u32>>> =
            histograms.into_iter().map(std::sync::Mutex::new).collect();
        let (_, scatter_run) = morsel::run_tasks(stripes.len(), workers, config, |s| {
            let out = &out;
            // Poison-tolerant: a caught worker panic elsewhere must not
            // cascade into a second panic here.
            let mut cursors = std::mem::take(
                &mut *cursor_slots[s]
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner),
            );
            for j in stripes[s].clone() {
                let b = (hashes[j] >> shift) as usize;
                // SAFETY: `cursors[b]` values across stripes are disjoint
                // and each is bumped past-the-end exactly `hist[s][b]`
                // times, staying inside this stripe's slice of bucket `b`.
                unsafe { out.write(cursors[b] as usize, j as u32) };
                cursors[b] += 1;
            }
        });
        run.batches += totals_run.batches + carve_run.batches + scatter_run.batches;
        (
            CsrBuckets {
                shift,
                offsets,
                rows,
            },
            run,
        )
    }
}

/// Cap on the worker count of the parallel build: each pass-1 worker owns
/// a full bucket histogram (`~2 × rows` u32 entries), so the histogram
/// memory is bounded at 8× the directory instead of growing with the
/// machine's core count.
const MAX_BUILD_WORKERS: usize = 8;

/// A raw mutable slice shared across scatter workers. The *caller*
/// guarantees the workers write disjoint index sets (see
/// [`CsrBuckets::build_par`]); the wrapper only exists to carry the
/// pointer across the `Sync` bound of the task closures.
struct ScatterSlice<T>(*mut T);

unsafe impl<T: Send> Send for ScatterSlice<T> {}
unsafe impl<T: Send> Sync for ScatterSlice<T> {}

impl<T> ScatterSlice<T> {
    /// Write `value` at `index`.
    ///
    /// # Safety
    /// `index` must be in bounds and not written concurrently by any other
    /// worker.
    unsafe fn write(&self, index: usize, value: T) {
        unsafe { self.0.add(index).write(value) };
    }
}

impl<T: Copy> ScatterSlice<T> {
    /// Read the value at `index`.
    ///
    /// # Safety
    /// `index` must be in bounds and not written concurrently by any other
    /// worker.
    unsafe fn read(&self, index: usize) -> T {
        unsafe { self.0.add(index).read() }
    }
}

/// The hash-join build side: right-table rows indexed by join key.
///
/// Construction hashes every build row once; probing walks one bucket and
/// verifies candidates, calling back with matching build-row indices in
/// build order. Neither phase allocates per row/probe beyond the flat
/// arrays built up front.
#[derive(Debug, PartialEq, Eq)]
pub struct BuildTable {
    buckets: CsrBuckets,
    layout: Layout,
}

#[derive(Debug, PartialEq, Eq)]
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

    /// [`BuildTable::build`] with morsel-parallel row hashing and a
    /// two-pass partitioned-counting-sort bucket fill.
    /// The output is **byte-identical** to the sequential build — same
    /// packed keys / hashes, same bucket directory, same in-bucket row
    /// order — so sequential and parallel probes over it cannot diverge.
    /// Below the config's row threshold (or on a one-thread budget) this
    /// degenerates to the sequential build. The returned [`MorselRun`]
    /// reports what the build did, for the engine's runtime counters.
    ///
    /// # Panics
    /// Panics if `key_cols` is empty or a column is shorter than `rows`.
    pub fn build_par(
        key_cols: &[&[TermId]],
        rows: usize,
        config: &MorselConfig,
    ) -> (BuildTable, MorselRun) {
        assert!(!key_cols.is_empty(), "join key needs at least one column");
        assert!(
            rows < u32::MAX as usize,
            "build side exceeds u32 row indexing"
        );
        if config.workers_for(rows) <= 1 {
            return (BuildTable::build(key_cols, rows), MorselRun::SEQUENTIAL);
        }
        if key_cols.len() <= 2 {
            // Packed layout: key packing and hashing are both
            // position-deterministic stripe fills.
            let mut keys = vec![0u64; rows];
            let key_run = morsel::fill_stripes(&mut keys, config, |offset, chunk| {
                for (i, k) in chunk.iter_mut().enumerate() {
                    let j = offset + i;
                    *k = pack2(key_cols[0][j], key_cols.get(1).map_or(TermId(0), |c| c[j]));
                }
            });
            let mut hashes = vec![0u64; rows];
            let hash_run = morsel::fill_stripes(&mut hashes, config, |offset, chunk| {
                for (i, h) in chunk.iter_mut().enumerate() {
                    *h = fx_hash_u64(keys[offset + i]);
                }
            });
            let (buckets, sort_run) = CsrBuckets::build_par(&hashes, config);
            let run = key_run.then(hash_run).then(sort_run);
            (
                BuildTable {
                    buckets,
                    layout: Layout::Packed { keys },
                },
                run,
            )
        } else {
            let mut hashes = vec![0u64; rows];
            let hash_run = morsel::fill_stripes(&mut hashes, config, |offset, chunk| {
                for (i, h) in chunk.iter_mut().enumerate() {
                    let j = offset + i;
                    *h = key_cols
                        .iter()
                        .fold(0u64, |acc, col| fx_fold(acc, col[j].0 as u64));
                }
            });
            let (buckets, sort_run) = CsrBuckets::build_par(&hashes, config);
            let run = hash_run.then(sort_run);
            (
                BuildTable {
                    buckets,
                    layout: Layout::Wide { hashes },
                },
                run,
            )
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

/// The merge join's cursor-pair scan over explicit subranges of the two
/// sorted key columns: append every matching `(left_row, right_row)` pair
/// with `left_row ∈ l_range`, `right_row ∈ r_range` to `lidx`/`ridx`, in
/// left order (right order within an equal-key group), filtered by the
/// `extra_pairs` repeated-variable checks.
///
/// This is the one merge scan: the sequential merge join calls it over the
/// full columns, the range-partitioned parallel merge join calls it once
/// per partition. As long as no equal-key group spans a partition boundary
/// (the partitioner splits at key-group starts), concatenating per-
/// partition outputs in partition order reproduces the sequential output
/// exactly.
pub fn merge_join_pairs(
    lcol: &[TermId],
    rcol: &[TermId],
    extra_pairs: &[(&[TermId], &[TermId])],
    l_range: std::ops::Range<usize>,
    r_range: std::ops::Range<usize>,
    lidx: &mut Vec<u32>,
    ridx: &mut Vec<u32>,
) {
    let (mut i, l_end) = (l_range.start, l_range.end);
    let (mut j, r_end) = (r_range.start, r_range.end);
    while i < l_end && j < r_end {
        let (a, b) = (lcol[i], rcol[j]);
        if a < b {
            i += 1;
        } else if b < a {
            j += 1;
        } else {
            // Equal-key groups: cross-combine.
            let i_end = i + lcol[i..l_end].partition_point(|&x| x == a);
            let j_end = j + rcol[j..r_end].partition_point(|&x| x == a);
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

    /// A forced-parallel config: tiny morsels, no row threshold.
    fn forced(threads: usize) -> MorselConfig {
        MorselConfig::with_threads(threads)
            .with_morsel_rows(64)
            .with_min_parallel_rows(0)
    }

    #[test]
    fn parallel_build_is_byte_identical_packed_one_column() {
        let col = random_cols(3_000, 101, 1);
        let cols: Vec<&[TermId]> = vec![&col];
        let sequential = BuildTable::build(&cols, col.len());
        for threads in 2..=4 {
            let (parallel, run) = BuildTable::build_par(&cols, col.len(), &forced(threads));
            assert_eq!(parallel, sequential, "threads={threads}");
            assert!(run.threads > 1);
            assert!(run.morsels > 1);
        }
    }

    #[test]
    fn parallel_build_is_byte_identical_packed_two_columns() {
        let a = random_cols(2_500, 37, 2);
        let b = random_cols(2_500, 11, 3);
        let cols: Vec<&[TermId]> = vec![&a, &b];
        let sequential = BuildTable::build(&cols, a.len());
        for threads in 2..=4 {
            let (parallel, _) = BuildTable::build_par(&cols, a.len(), &forced(threads));
            assert_eq!(parallel, sequential, "threads={threads}");
        }
    }

    #[test]
    fn parallel_build_is_byte_identical_wide_three_columns() {
        let a = random_cols(2_000, 7, 4);
        let b = random_cols(2_000, 5, 5);
        let c = random_cols(2_000, 3, 6);
        let cols: Vec<&[TermId]> = vec![&a, &b, &c];
        let sequential = BuildTable::build(&cols, a.len());
        for threads in 2..=4 {
            let (parallel, _) = BuildTable::build_par(&cols, a.len(), &forced(threads));
            assert_eq!(parallel, sequential, "threads={threads}");
        }
    }

    #[test]
    fn parallel_build_below_threshold_stays_sequential() {
        let col = random_cols(100, 11, 7);
        let cols: Vec<&[TermId]> = vec![&col];
        let config = MorselConfig::with_threads(4); // default 32k threshold
        let (table, run) = BuildTable::build_par(&cols, col.len(), &config);
        assert_eq!(run.threads, 1);
        assert_eq!(table, BuildTable::build(&cols, col.len()));
    }

    #[test]
    fn parallel_build_of_empty_input() {
        let empty: Vec<TermId> = Vec::new();
        let cols: Vec<&[TermId]> = vec![&empty];
        let (table, _) = BuildTable::build_par(&cols, 0, &forced(3));
        assert_eq!(table, BuildTable::build(&cols, 0));
    }

    #[test]
    fn parallel_carve_out_survives_skewed_buckets() {
        // All rows hash to few buckets: most chunks carve empty ranges,
        // one chunk carves everything — the directory must still equal
        // the sequential build's.
        let col: Vec<TermId> = (0..4_000).map(|i| TermId(i % 3)).collect();
        let cols: Vec<&[TermId]> = vec![&col];
        let sequential = BuildTable::build(&cols, col.len());
        for threads in 2..=4 {
            let (parallel, _) = BuildTable::build_par(&cols, col.len(), &forced(threads));
            assert_eq!(parallel, sequential, "threads={threads}");
        }
    }

    #[test]
    fn merge_join_pairs_full_range_matches_manual_scan() {
        let l = ids(&[1, 1, 2, 4, 4, 4, 7]);
        let r = ids(&[1, 2, 2, 4, 6]);
        let mut lidx = Vec::new();
        let mut ridx = Vec::new();
        merge_join_pairs(&l, &r, &[], 0..l.len(), 0..r.len(), &mut lidx, &mut ridx);
        // 1×1 (two left 1s), 2×2 (two right 2s), 4×4 (three left 4s).
        assert_eq!(lidx, vec![0, 1, 2, 2, 3, 4, 5]);
        assert_eq!(ridx, vec![0, 0, 1, 2, 3, 3, 3]);
    }

    #[test]
    fn merge_join_pairs_partitioned_at_key_boundaries_concatenates() {
        let l = ids(&[1, 1, 2, 4, 4, 4, 7]);
        let r = ids(&[1, 2, 2, 4, 6]);
        let mut full_l = Vec::new();
        let mut full_r = Vec::new();
        merge_join_pairs(
            &l,
            &r,
            &[],
            0..l.len(),
            0..r.len(),
            &mut full_l,
            &mut full_r,
        );
        // Split both sides at the start of key 4's groups.
        let (ls, rs) = (3, 3);
        let mut part_l = Vec::new();
        let mut part_r = Vec::new();
        merge_join_pairs(&l, &r, &[], 0..ls, 0..rs, &mut part_l, &mut part_r);
        merge_join_pairs(
            &l,
            &r,
            &[],
            ls..l.len(),
            rs..r.len(),
            &mut part_l,
            &mut part_r,
        );
        assert_eq!(part_l, full_l);
        assert_eq!(part_r, full_r);
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
