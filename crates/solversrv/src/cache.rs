//! Byte-budgeted LRU cache of factorizations.
//!
//! The service's entire economic argument is *amortization*: an `O(n³)`
//! factorization paid once serves any number of `O(n²)` solves. The cache
//! makes that concrete — keyed by [`Fingerprint`] (content, not id), sized
//! in bytes (factors of different orders have wildly different footprints,
//! so entry-count limits would be meaningless), evicting least-recently
//! used first, and counting hits/misses/evictions for the
//! [`crate::ServiceStats`] snapshot. Factors are immutable once cached and
//! shared behind an [`Arc`]: a hit hands out a pointer, not a copy.

use std::collections::HashMap;
use std::sync::Arc;

use denselin::lu::LuFactorization;
use denselin::trsm::{trsm_lower_left, trsm_upper_left};
use denselin::Matrix;
use sparselin::PrecondSetup;

use crate::fingerprint::Fingerprint;

/// A cached, reusable factorization.
#[derive(Clone, Debug)]
pub enum CachedFactor {
    /// Partial-pivoting LU (the general path).
    Lu(LuFactorization),
    /// Cholesky `A = L·Lᵀ` for SPD-tagged matrices. The transpose is
    /// materialized once at insert time so every solve reuses the same
    /// row-major upper factor instead of re-transposing.
    Cholesky {
        /// Lower-triangular factor.
        l: Matrix,
        /// `Lᵀ`, precomputed for the backward substitution.
        lt: Matrix,
    },
    /// Prepared preconditioner for a sparse CG solve — the sparse analogue
    /// of a dense factor: setup (level schedules, extracted triangles /
    /// diagonal) is the expensive pattern-dependent phase, and caching it
    /// lets repeat solves skip straight to the iteration. `Arc`-shared so
    /// a CG batch can hold it apart from the cache entry.
    Sparse {
        /// The cached setup.
        setup: Arc<PrecondSetup>,
        /// Order of the system the setup belongs to.
        n: usize,
    },
}

impl CachedFactor {
    /// Resident size in bytes (matrix payloads + permutation).
    pub fn bytes(&self) -> usize {
        match self {
            CachedFactor::Lu(f) => {
                f.lu.len() * std::mem::size_of::<f64>()
                    + f.perm.len() * std::mem::size_of::<usize>()
            }
            CachedFactor::Cholesky { l, lt } => (l.len() + lt.len()) * std::mem::size_of::<f64>(),
            CachedFactor::Sparse { setup, .. } => setup.bytes(),
        }
    }

    /// Matrix order this factor solves for.
    pub fn n(&self) -> usize {
        match self {
            CachedFactor::Lu(f) => f.perm.len(),
            CachedFactor::Cholesky { l, .. } => l.rows(),
            CachedFactor::Sparse { n, .. } => *n,
        }
    }

    /// Kernel tag for per-request stats.
    pub fn kernel(&self) -> &'static str {
        match self {
            CachedFactor::Lu(_) => "lu",
            CachedFactor::Cholesky { .. } => "cholesky",
            CachedFactor::Sparse { .. } => "cg",
        }
    }

    /// The LU factorization, if that is what is cached (the refinement
    /// path needs the concrete type for [`denselin::solve_refined`]).
    pub fn as_lu(&self) -> Option<&LuFactorization> {
        match self {
            CachedFactor::Lu(f) => Some(f),
            CachedFactor::Cholesky { .. } | CachedFactor::Sparse { .. } => None,
        }
    }

    /// The cached preconditioner setup, if this is a sparse entry.
    pub fn as_sparse(&self) -> Option<&Arc<PrecondSetup>> {
        match self {
            CachedFactor::Sparse { setup, .. } => Some(setup),
            _ => None,
        }
    }

    /// Solve `A·x = b` for all columns of `b` at once into `out`
    /// (same shape as `b`). This is the batching primitive: the blocked
    /// `trsm` kernels stream the factor from memory once regardless of how
    /// many right-hand sides ride along.
    pub fn solve_into(&self, b: &Matrix, out: &mut Matrix) {
        match self {
            CachedFactor::Lu(f) => f.solve_into(b, out),
            CachedFactor::Cholesky { l, lt } => {
                assert_eq!(out.shape(), b.shape(), "output buffer shape must match b");
                assert_eq!(b.rows(), l.rows(), "rhs rows must match the factor");
                out.as_mut_slice().copy_from_slice(b.as_slice());
                trsm_lower_left(l, out, false);
                trsm_upper_left(lt, out, false);
            }
            // a preconditioner setup is not a factor of A: solving needs the
            // matrix itself (the CG iteration), which lives on the request —
            // workers route Sparse batches through the CG path instead
            CachedFactor::Sparse { .. } => {
                unreachable!("sparse entries solve through the CG path, not solve_into")
            }
        }
    }
}

#[derive(Debug)]
struct Entry {
    factor: Arc<CachedFactor>,
    bytes: usize,
    last_used: u64,
}

/// LRU factor cache with a byte budget and full accounting.
#[derive(Debug)]
pub struct FactorCache {
    entries: HashMap<Fingerprint, Entry>,
    budget_bytes: usize,
    bytes: usize,
    tick: u64,
    /// Lookups that found a live factor.
    pub hits: u64,
    /// Lookups that missed (each implies a factorization).
    pub misses: u64,
    /// Entries evicted to stay under budget.
    pub evictions: u64,
    /// Total insertions.
    pub insertions: u64,
}

impl FactorCache {
    /// An empty cache holding at most `budget_bytes` of factor payload.
    pub fn new(budget_bytes: usize) -> Self {
        FactorCache {
            entries: HashMap::new(),
            budget_bytes,
            bytes: 0,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            insertions: 0,
        }
    }

    /// Current resident bytes.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Hit fraction of all lookups so far (0.0 when none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Look up a factor, counting a hit or miss and refreshing recency.
    /// Returns a shared handle (a pointer clone, `O(1)` under the caller's
    /// lock), so workers solve outside the lock and an eviction never
    /// pulls a factor from under a solve in flight.
    pub fn lookup(&mut self, fp: Fingerprint) -> Option<Arc<CachedFactor>> {
        self.tick += 1;
        let tick = self.tick;
        match self.entries.get_mut(&fp) {
            Some(e) => {
                e.last_used = tick;
                self.hits += 1;
                Some(Arc::clone(&e.factor))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Does the cache currently hold `fp`? (No accounting side effects.)
    pub fn contains(&self, fp: Fingerprint) -> bool {
        self.entries.contains_key(&fp)
    }

    /// Credit `n` additional hits: coalesced batch members share the
    /// factor their leader looked up, and each counts as a served hit.
    pub fn note_extra_hits(&mut self, n: u64) {
        self.hits += n;
    }

    /// Fingerprints of every resident factor, in no particular order.
    /// The cluster's rebalance path uses this to find factors whose
    /// primary shard has rejoined.
    pub fn fingerprints(&self) -> Vec<Fingerprint> {
        self.entries.keys().copied().collect()
    }

    /// Borrow a resident factor without touching the hit/miss counters or
    /// recency (replication reads, not client traffic).
    pub fn peek(&self, fp: Fingerprint) -> Option<&Arc<CachedFactor>> {
        self.entries.get(&fp).map(|e| &e.factor)
    }

    /// Drop every resident factor (a crashed shard loses its memory).
    /// Cumulative hit/miss/eviction/insertion counters are preserved —
    /// wiped entries are lost state, not evictions.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.bytes = 0;
    }

    /// Insert a factor, evicting least-recently-used entries until the
    /// budget holds. A factor larger than the whole budget is still
    /// admitted alone (the service must be able to serve it); it will be
    /// the first evicted when anything else arrives. The cache keeps the
    /// handle it is given; callers keep theirs.
    pub fn insert(&mut self, fp: Fingerprint, factor: Arc<CachedFactor>) {
        let bytes = factor.bytes();
        self.tick += 1;
        if let Some(old) = self.entries.remove(&fp) {
            self.bytes -= old.bytes;
        }
        while !self.entries.is_empty() && self.bytes + bytes > self.budget_bytes {
            let victim = *self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(fp, _)| fp)
                .expect("nonempty");
            let gone = self.entries.remove(&victim).expect("present");
            self.bytes -= gone.bytes;
            self.evictions += 1;
        }
        self.bytes += bytes;
        self.insertions += 1;
        self.entries.insert(
            fp,
            Entry {
                factor,
                bytes,
                last_used: self.tick,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use denselin::lu_blocked;

    fn factor_of(n: usize, seed: u64) -> (Fingerprint, Arc<CachedFactor>) {
        let a = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                n as f64 + seed as f64
            } else {
                1.0 / (1.0 + (i + 2 * j) as f64)
            }
        });
        let f = lu_blocked(&a, 8).unwrap();
        (Fingerprint::of(&a), Arc::new(CachedFactor::Lu(f)))
    }

    #[test]
    fn hit_miss_accounting() {
        let mut c = FactorCache::new(1 << 20);
        let (fp, f) = factor_of(8, 1);
        assert!(c.lookup(fp).is_none());
        c.insert(fp, f);
        assert!(c.lookup(fp).is_some());
        assert_eq!((c.hits, c.misses), (1, 1));
        assert!((c.hit_rate() - 0.5).abs() < 1e-15);
        c.note_extra_hits(3);
        assert_eq!(c.hits, 4);
    }

    #[test]
    fn byte_budget_evicts_lru() {
        let (fp1, f1) = factor_of(16, 1);
        let (fp2, f2) = factor_of(16, 2);
        let (fp3, f3) = factor_of(16, 3);
        let per = f1.bytes();
        // room for exactly two factors
        let mut c = FactorCache::new(2 * per + per / 2);
        c.insert(fp1, f1);
        c.insert(fp2, f2);
        c.lookup(fp1); // refresh fp1 -> fp2 becomes LRU
        c.insert(fp3, f3);
        assert!(c.contains(fp1), "recently used entry evicted");
        assert!(!c.contains(fp2), "LRU entry survived");
        assert!(c.contains(fp3));
        assert_eq!(c.evictions, 1);
        assert!(c.bytes() <= 2 * per + per / 2);
    }

    #[test]
    fn oversized_factor_still_admitted() {
        let (fp, f) = factor_of(16, 1);
        let mut c = FactorCache::new(1); // absurdly small budget
        c.insert(fp, f);
        assert!(c.contains(fp));
        assert_eq!(c.len(), 1);
        // and it is the first to go
        let (fp2, f2) = factor_of(16, 2);
        c.insert(fp2, f2);
        assert!(!c.contains(fp));
        assert!(c.contains(fp2));
    }

    #[test]
    fn reinsert_same_key_replaces() {
        let (fp, f) = factor_of(8, 1);
        let bytes = f.bytes();
        let mut c = FactorCache::new(1 << 20);
        c.insert(fp, f.clone());
        c.insert(fp, f);
        assert_eq!(c.len(), 1);
        assert_eq!(c.bytes(), bytes);
        assert_eq!(c.evictions, 0);
    }

    #[test]
    fn clear_wipes_entries_but_keeps_counters() {
        let mut c = FactorCache::new(1 << 20);
        let (fp, f) = factor_of(8, 1);
        c.insert(fp, f);
        c.lookup(fp);
        assert!(c.peek(fp).is_some());
        assert_eq!(c.fingerprints(), vec![fp]);
        let (hits, evictions) = (c.hits, c.evictions);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.bytes(), 0);
        assert!(c.peek(fp).is_none());
        assert_eq!(c.hits, hits);
        assert_eq!(c.evictions, evictions, "clear is not an eviction");
        assert_eq!(c.insertions, 1);
    }

    #[test]
    fn peek_has_no_accounting_side_effects() {
        let mut c = FactorCache::new(1 << 20);
        let (fp, f) = factor_of(8, 2);
        c.insert(fp, f);
        let (h, m) = (c.hits, c.misses);
        assert!(c.peek(fp).is_some());
        let (fp_other, _) = factor_of(8, 3);
        assert!(c.peek(fp_other).is_none());
        assert_eq!((c.hits, c.misses), (h, m));
    }

    #[test]
    fn cholesky_factor_solves() {
        use denselin::cholesky_blocked;
        let n = 12;
        // SPD by construction: A = M·Mᵀ + n·I
        let m = Matrix::from_fn(n, n, |i, j| 1.0 / (1.0 + i as f64 + j as f64));
        let mut a = m.matmul(&m.transpose());
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        let l = cholesky_blocked(&a, 4).unwrap();
        let lt = l.transpose();
        let factor = CachedFactor::Cholesky { l, lt };
        assert_eq!(factor.kernel(), "cholesky");
        assert_eq!(factor.n(), n);
        assert!(factor.as_lu().is_none());
        let x_true = Matrix::from_fn(n, 2, |i, j| (i + j) as f64);
        let b = a.matmul(&x_true);
        let mut x = Matrix::zeros(n, 2);
        factor.solve_into(&b, &mut x);
        assert!(x.allclose(&x_true, 1e-8));
    }
}
