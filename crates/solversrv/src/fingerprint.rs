//! Content-addressed matrix identity.
//!
//! The factor cache must never serve a stale factor after a tenant
//! re-registers an id with different data, so cache keys are derived from
//! the matrix *contents*, not the caller-chosen id: dimensions plus an
//! FNV-1a hash over the element bit patterns. Two registrations of
//! bit-identical matrices (even under different ids) share one cache entry
//! — deduplication for free.

use denselin::Matrix;
use sparselin::CsrMatrix;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Domain tag mixed into sparse fingerprints so a CSR matrix and a dense
/// matrix with the same dimensions and value stream can never collide.
const SPARSE_TAG: u64 = 0x5350_4152_5345_4353; // "SPARSECS"

/// Identity of a matrix by shape and content.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint {
    /// Row count.
    pub rows: u64,
    /// Column count.
    pub cols: u64,
    /// FNV-1a over the row-major `f64::to_bits` stream.
    pub hash: u64,
}

impl Fingerprint {
    /// Fingerprint a matrix. `O(n²)` but branch-free and sequential —
    /// negligible next to the `O(n³)` factorization it deduplicates.
    pub fn of(m: &Matrix) -> Self {
        Self::of_checked(m).0
    }

    /// [`Fingerprint::of`], plus whether every entry is finite, from the
    /// same single pass over the entries.
    pub(crate) fn of_checked(m: &Matrix) -> (Self, bool) {
        let mut finite = true;
        let mut hash = FNV_OFFSET;
        let mut mix = |word: u64| {
            for byte in word.to_le_bytes() {
                hash ^= byte as u64;
                hash = hash.wrapping_mul(FNV_PRIME);
            }
        };
        mix(m.rows() as u64);
        mix(m.cols() as u64);
        for &x in m.as_slice() {
            finite &= x.is_finite();
            mix(x.to_bits());
        }
        let fp = Fingerprint {
            rows: m.rows() as u64,
            cols: m.cols() as u64,
            hash,
        };
        (fp, finite)
    }

    /// Fingerprint a sparse CSR matrix: dimensions, the full sparsity
    /// pattern (`row_ptr` + `col_idx`) *and* the value bit patterns, under
    /// a domain tag separating the sparse stream from [`Fingerprint::of`].
    /// Same-pattern matrices with different values get different prints —
    /// the cached preconditioner setup depends on values too (diagonal,
    /// triangle entries), not just structure.
    pub fn of_csr(a: &CsrMatrix) -> Self {
        Self::of_csr_checked(a).0
    }

    /// [`Fingerprint::of_csr`], plus whether every stored value is finite,
    /// from the same single pass.
    pub(crate) fn of_csr_checked(a: &CsrMatrix) -> (Self, bool) {
        let mut finite = true;
        let mut hash = FNV_OFFSET;
        let mut mix = |word: u64| {
            for byte in word.to_le_bytes() {
                hash ^= byte as u64;
                hash = hash.wrapping_mul(FNV_PRIME);
            }
        };
        mix(SPARSE_TAG);
        mix(a.rows() as u64);
        mix(a.cols() as u64);
        for &p in a.row_ptr() {
            mix(p as u64);
        }
        for &j in a.col_idx() {
            mix(j as u64);
        }
        for &v in a.values() {
            finite &= v.is_finite();
            mix(v.to_bits());
        }
        let fp = Fingerprint {
            rows: a.rows() as u64,
            cols: a.cols() as u64,
            hash,
        };
        (fp, finite)
    }

    /// Derive a fingerprint with `tag` folded into the hash. The sparse
    /// registration path uses this to key the cache by *(matrix contents,
    /// preconditioner)* — the cached object is the preconditioner setup, so
    /// the same matrix registered under Jacobi and SymGS must occupy two
    /// distinct cache entries.
    pub fn with_tag(self, tag: u64) -> Self {
        let mut hash = self.hash;
        for byte in tag.to_le_bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        Fingerprint { hash, ..self }
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}#{:016x}", self.rows, self.cols, self.hash)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_content_same_fingerprint() {
        let a = Matrix::from_fn(5, 5, |i, j| (i * 7 + j) as f64);
        let b = Matrix::from_fn(5, 5, |i, j| (i * 7 + j) as f64);
        assert_eq!(Fingerprint::of(&a), Fingerprint::of(&b));
    }

    #[test]
    fn single_element_flip_changes_hash() {
        let a = Matrix::from_fn(6, 6, |i, j| (i + j) as f64);
        let mut b = a.clone();
        b[(3, 4)] = f64::from_bits(b[(3, 4)].to_bits() ^ 1); // one-ulp flip
        assert_ne!(Fingerprint::of(&a), Fingerprint::of(&b));
    }

    #[test]
    fn shape_disambiguates_equal_streams() {
        // same element stream, different shapes: dims are mixed into the
        // hash and stored alongside it
        let a = Matrix::from_fn(2, 6, |i, j| (i * 6 + j) as f64);
        let b = Matrix::from_fn(6, 2, |i, j| (i * 2 + j) as f64);
        assert_eq!(a.as_slice(), b.as_slice());
        assert_ne!(Fingerprint::of(&a), Fingerprint::of(&b));
    }

    #[test]
    fn display_is_compact() {
        let fp = Fingerprint::of(&Matrix::identity(3));
        let s = fp.to_string();
        assert!(s.starts_with("3x3#"), "{s}");
    }
}
