//! Backend-selectable local LDLᵀ — one interface over the scalar up-looking
//! factorization ([`SparseLdlt`]) and the blocked multifrontal one
//! ([`SupernodalLdlt`]).
//!
//! The SPMD layer factors every subdomain Dirichlet matrix through this
//! wrapper so the backend is a run-time option. The set-up pipelines
//! default to the supernodal backend for the blocked kernels' raw speed;
//! the scalar path stays the bit-for-bit differential oracle it is pinned
//! against.
//!
//! [`LocalLdlt::perm`] exposes the fill-reducing permutation a factor was
//! computed with, and [`LocalLdlt::factor_with_perm`] factors another
//! matrix on the same unknowns with it: GenEO's shifted pencil reuses the
//! Dirichlet factor's ordering instead of computing its own.

use crate::ldlt::{LdltError, Ordering, PivotPolicy, SparseLdlt};
use crate::supernodal::SupernodalLdlt;
use dd_linalg::{CsrMatrix, DMat};

/// Which factorization backs a [`LocalLdlt`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum LdltBackend {
    /// Up-looking scalar LDLᵀ — the differential oracle. It is the
    /// `Default` of this type; the set-up pipelines' `SpmdOpts` choose
    /// [`LdltBackend::Supernodal`] instead.
    #[default]
    Scalar,
    /// Multifrontal LDLᵀ with relaxed supernodes and register-blocked
    /// panel updates (`dd_linalg::smallgemm`). Same pivoting policy and
    /// fill-reducing orderings; results differ from the scalar path only
    /// in rounding (different but equally valid summation order).
    Supernodal,
}

/// A factored subdomain matrix, backed by either LDLᵀ implementation.
pub enum LocalLdlt {
    Scalar(SparseLdlt),
    Supernodal(SupernodalLdlt),
}

impl LocalLdlt {
    pub fn factor(a: &CsrMatrix, ord: Ordering, backend: LdltBackend) -> Result<Self, LdltError> {
        Self::factor_with(a, ord, PivotPolicy::default(), backend)
    }

    pub fn factor_with(
        a: &CsrMatrix,
        ord: Ordering,
        pivot: PivotPolicy,
        backend: LdltBackend,
    ) -> Result<Self, LdltError> {
        match backend {
            LdltBackend::Scalar => SparseLdlt::factor_with(a, ord, pivot).map(LocalLdlt::Scalar),
            LdltBackend::Supernodal => {
                SupernodalLdlt::factor_with(a, ord, pivot).map(LocalLdlt::Supernodal)
            }
        }
    }

    /// Factor with a caller-supplied fill-reducing permutation, skipping
    /// the ordering step (see [`SparseLdlt::factor_with_perm`] and
    /// [`SupernodalLdlt::factor_with_perm`]). `perm` may come from a
    /// matrix with a different pattern on the same unknowns; passing
    /// [`LocalLdlt::perm`] of an earlier factorization of `a` with the same
    /// backend reproduces it bit for bit.
    pub fn factor_with_perm(
        a: &CsrMatrix,
        perm: &[usize],
        pivot: PivotPolicy,
        backend: LdltBackend,
    ) -> Result<Self, LdltError> {
        match backend {
            LdltBackend::Scalar => {
                SparseLdlt::factor_with_perm(a, perm, pivot).map(LocalLdlt::Scalar)
            }
            LdltBackend::Supernodal => {
                SupernodalLdlt::factor_with_perm(a, perm, pivot).map(LocalLdlt::Supernodal)
            }
        }
    }

    pub fn backend(&self) -> LdltBackend {
        match self {
            LocalLdlt::Scalar(_) => LdltBackend::Scalar,
            LocalLdlt::Supernodal(_) => LdltBackend::Supernodal,
        }
    }

    /// The final fill-reducing permutation (`perm[i]` = original index
    /// placed at position `i`; the supernodal backend's includes its
    /// elimination-tree postorder).
    pub fn perm(&self) -> &[usize] {
        match self {
            LocalLdlt::Scalar(f) => f.perm(),
            LocalLdlt::Supernodal(f) => f.perm(),
        }
    }

    pub fn n(&self) -> usize {
        match self {
            LocalLdlt::Scalar(f) => f.n(),
            LocalLdlt::Supernodal(f) => f.n(),
        }
    }

    /// Stored entries of `L` (strictly lower part; supernodal counts the
    /// same structural quantity, excluding relaxation padding).
    pub fn nnz_l(&self) -> usize {
        match self {
            LocalLdlt::Scalar(f) => f.nnz_l(),
            LocalLdlt::Supernodal(f) => f.nnz_l(),
        }
    }

    pub fn n_boosted(&self) -> usize {
        match self {
            LocalLdlt::Scalar(f) => f.n_boosted(),
            LocalLdlt::Supernodal(f) => f.n_boosted(),
        }
    }

    pub fn inertia(&self) -> (usize, usize, usize) {
        match self {
            LocalLdlt::Scalar(f) => f.inertia(),
            LocalLdlt::Supernodal(f) => f.inertia(),
        }
    }

    pub fn solve_in_place(&self, b: &mut [f64]) {
        match self {
            LocalLdlt::Scalar(f) => f.solve_in_place(b),
            LocalLdlt::Supernodal(f) => f.solve_in_place(b),
        }
    }

    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        match self {
            LocalLdlt::Scalar(f) => f.solve(b),
            LocalLdlt::Supernodal(f) => f.solve(b),
        }
    }

    pub fn solve_mat(&self, b: &DMat) -> DMat {
        match self {
            LocalLdlt::Scalar(f) => f.solve_mat(b),
            LocalLdlt::Supernodal(f) => f.solve_mat(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_linalg::CooBuilder;

    fn laplacian_1d(n: usize) -> CsrMatrix {
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            b.push(i, i, 2.0);
            if i + 1 < n {
                b.push(i, i + 1, -1.0);
                b.push(i + 1, i, -1.0);
            }
        }
        b.to_csr()
    }

    #[test]
    fn both_backends_solve_to_machine_precision() {
        let a = laplacian_1d(40);
        let b: Vec<f64> = (0..40).map(|i| (i as f64 * 0.3).sin()).collect();
        for backend in [LdltBackend::Scalar, LdltBackend::Supernodal] {
            let f = LocalLdlt::factor(&a, Ordering::MinDegree, backend).unwrap();
            let x = f.solve(&b);
            let mut r = vec![0.0; 40];
            a.spmv(&x, &mut r);
            for (ri, bi) in r.iter().zip(&b) {
                assert!((ri - bi).abs() < 1e-10, "{backend:?}");
            }
            assert_eq!(f.n(), 40);
            assert_eq!(f.n_boosted(), 0);
            assert_eq!(f.inertia(), (0, 0, 40), "SPD: all pivots positive");
        }
    }

    #[test]
    fn refactoring_with_the_own_permutation_is_bit_identical() {
        let a = laplacian_1d(40);
        let b: Vec<f64> = (0..40).map(|i| (i as f64 * 0.7).cos()).collect();
        for backend in [LdltBackend::Scalar, LdltBackend::Supernodal] {
            let f = LocalLdlt::factor(&a, Ordering::MinDegree, backend).unwrap();
            let g =
                LocalLdlt::factor_with_perm(&a, f.perm(), PivotPolicy::default(), backend).unwrap();
            assert_eq!(g.backend(), backend);
            assert_eq!(g.perm(), f.perm());
            assert_eq!(g.nnz_l(), f.nnz_l());
            let (x, y) = (f.solve(&b), g.solve(&b));
            assert!(x.iter().zip(&y).all(|(p, q)| p.to_bits() == q.to_bits()));
        }
    }
}
