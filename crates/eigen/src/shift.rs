//! The shift-invert set-up both eigensolvers share: choose the shift σ,
//! assemble `K = A − σB` and factor it once.
//!
//! Factoring `K` dominates a GenEO eigensolve, so its ordering and backend
//! are the caller's choice ([`ShiftFactor`]). The default orders `K` itself
//! and factors it with the scalar LDLᵀ — the oracle path. A caller that has
//! already factored a matrix on the same unknowns (the subdomain Dirichlet
//! matrix, in the set-up pipelines) hands in that factor's fill-reducing
//! permutation and backend instead, so the ordering is computed once.

use crate::lanczos::EigenError;
use dd_linalg::CsrMatrix;
use dd_solver::{LdltBackend, LocalLdlt, Ordering, PivotPolicy};

/// How the shifted matrix `K = A − σB` is factored.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShiftFactor<'a> {
    /// Fill-reducing permutation for `K`; `None` orders `K` itself.
    pub perm: Option<&'a [usize]>,
    /// LDLᵀ backend for `K`.
    pub backend: LdltBackend,
}

impl<'a> ShiftFactor<'a> {
    /// Reuse `f`'s permutation and backend. `f` must factor a matrix on the
    /// same unknowns as the pencil; its pattern may differ from `K`'s.
    pub fn reusing(f: &'a LocalLdlt) -> Self {
        ShiftFactor {
            perm: Some(f.perm()),
            backend: f.backend(),
        }
    }
}

/// A factored shifted pencil.
pub(crate) struct ShiftedPencil {
    pub sigma: f64,
    /// `‖A‖∞`, the scale of the solvers' residual tests.
    pub norm_a: f64,
    pub k: LocalLdlt,
}

/// Factor `K = A − σB`, with `σ = −0.01 ‖A‖∞ / ‖B‖∞` unless `shift` is
/// given. `ordering` applies when `how` carries no permutation.
pub(crate) fn factor_shifted(
    a: &CsrMatrix,
    b: &CsrMatrix,
    shift: Option<f64>,
    ordering: Ordering,
    how: ShiftFactor,
) -> Result<ShiftedPencil, EigenError> {
    let norm_a = a.norm_inf().max(f64::MIN_POSITIVE);
    let norm_b = b.norm_inf().max(f64::MIN_POSITIVE);
    let sigma = shift.unwrap_or(-0.01 * norm_a / norm_b);
    assert!(sigma < 0.0, "shift must lie strictly below a PSD spectrum");
    // K = A − σB, SPD whenever ker A ∩ ker B = {0}.
    let k_mat = a.add_scaled(-sigma, b);
    let k = match how.perm {
        Some(perm) => LocalLdlt::factor_with_perm(&k_mat, perm, PivotPolicy::Reject, how.backend),
        None => LocalLdlt::factor(&k_mat, ordering, how.backend),
    }
    .map_err(EigenError::ShiftFactorization)?;
    Ok(ShiftedPencil { sigma, norm_a, k })
}

/// Tiny deterministic xorshift generator for starting vectors (keeps the
/// solvers dependency-free and reproducible). Fills with values in
/// (−0.5, 0.5).
pub(crate) fn xorshift_fill(seed: u64, out: &mut [f64]) {
    let mut s = seed.max(1);
    for v in out {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        *v = (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
    }
}
