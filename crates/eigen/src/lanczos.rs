//! Shift-invert Lanczos for the generalized symmetric eigenproblem
//! `A x = λ B x` with `A` symmetric positive semi-definite and `B`
//! symmetric positive semi-definite (possibly singular).
//!
//! This is the workspace's replacement for ARPACK's shift-invert mode used
//! by the paper to extract the deflation vectors of eq. (9): the smallest
//! eigenvalues of the pencil (Neumann matrix vs. its partition-of-unity
//! weighted restriction to the overlap).
//!
//! ## Algorithm
//!
//! With a shift `σ < 0` strictly below the spectrum, `K = A − σ B` is
//! symmetric positive definite whenever `ker A ∩ ker B = {0}` (true for
//! GenEO pencils: the kernel of the Neumann matrix consists of global
//! rigid-body/constant modes which do not vanish on the overlap). We factor
//! `K` once ([`crate::shift`]) and run the Lanczos recurrence on the
//! operator `op = K⁻¹ B` in the `B`-(semi-)inner product, with full
//! reorthogonalization. [`smallest_generalized`] orders `K` itself and
//! factors it with the scalar LDLᵀ — the oracle. The GenEO set-up
//! pipelines call [`smallest_generalized_with`], handing in the
//! fill-reducing permutation and backend of the subdomain's Dirichlet
//! factor, so each subdomain is ordered once and `K` runs through the
//! supernodal kernels. Eigenvalues of the pencil are recovered from Ritz
//! values `θ` of `op` as `λ = σ + 1/θ`; the largest `θ` correspond to the
//! smallest `λ` — exactly the ones GenEO wants.

use crate::shift::{factor_shifted, xorshift_fill, ShiftFactor};
use crate::tridiag::tridiag_eig;
use dd_linalg::{vector, CsrMatrix, DMat};
use dd_solver::{LdltError, Ordering};

/// Options for [`smallest_generalized`].
#[derive(Clone, Debug)]
pub struct LanczosOpts {
    /// Spectral shift σ. Must be strictly below the smallest eigenvalue;
    /// for PSD pencils any σ < 0 works. `None` picks
    /// `−0.01 · ‖A‖∞ / ‖B‖∞` automatically.
    pub shift: Option<f64>,
    /// Maximum Lanczos subspace dimension (`ncv` in ARPACK terms).
    /// Clamped to the problem size.
    pub max_subspace: usize,
    /// Relative residual tolerance on `‖A x − λ B x‖ / (‖A‖ ‖x‖)`.
    pub tol: f64,
    /// Deterministic seed for the starting vector.
    pub seed: u64,
    /// Ordering used for the factorization of `A − σB` when the caller
    /// supplies no permutation.
    pub ordering: Ordering,
}

impl Default for LanczosOpts {
    fn default() -> Self {
        LanczosOpts {
            shift: None,
            max_subspace: 80,
            tol: 1e-8,
            seed: 0x5eed_1234,
            ordering: Ordering::MinDegree,
        }
    }
}

/// Result of a generalized eigensolve: `values[k]` ascending, `vectors`
/// holding the matching `B`-orthonormal eigenvectors as columns, plus
/// solver diagnostics.
#[derive(Clone, Debug)]
pub struct GeneralizedEig {
    pub values: Vec<f64>,
    pub vectors: DMat,
    /// Lanczos steps actually performed.
    pub steps: usize,
    /// Number of requested pairs that met the residual tolerance.
    pub converged: usize,
}

/// Errors from the eigensolver.
#[derive(Debug)]
pub enum EigenError {
    /// The shifted matrix `A − σB` could not be factored (σ inside the
    /// spectrum, or pencil singular: `ker A ∩ ker B ≠ {0}`).
    ShiftFactorization(LdltError),
    /// Dimension/shape mismatch between `A` and `B`.
    ShapeMismatch,
}

impl std::fmt::Display for EigenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EigenError::ShiftFactorization(e) => write!(f, "shifted factorization failed: {e}"),
            EigenError::ShapeMismatch => write!(f, "A and B must be square with equal order"),
        }
    }
}

impl std::error::Error for EigenError {}

/// Compute the `nev` smallest eigenpairs of `A x = λ B x`.
///
/// See the module documentation for the assumptions on `A` and `B`.
/// Returned eigenvectors are `B`-orthonormal where `B` is nonsingular on
/// the computed subspace; vectors with negligible `B`-norm (pure `ker B`
/// directions) cannot appear since the recurrence stays in `range(K⁻¹B)`.
pub fn smallest_generalized(
    a: &CsrMatrix,
    b: &CsrMatrix,
    nev: usize,
    opts: &LanczosOpts,
) -> Result<GeneralizedEig, EigenError> {
    smallest_generalized_with(a, b, nev, opts, ShiftFactor::default())
}

/// [`smallest_generalized`] with `K = A − σB` factored as `how` says.
pub fn smallest_generalized_with(
    a: &CsrMatrix,
    b: &CsrMatrix,
    nev: usize,
    opts: &LanczosOpts,
    how: ShiftFactor,
) -> Result<GeneralizedEig, EigenError> {
    if a.rows() != a.cols() || b.rows() != b.cols() || a.rows() != b.rows() {
        return Err(EigenError::ShapeMismatch);
    }
    let n = a.rows();
    let nev = nev.min(n);
    if nev == 0 {
        return Ok(GeneralizedEig {
            values: Vec::new(),
            vectors: DMat::zeros(n, 0),
            steps: 0,
            converged: 0,
        });
    }
    let shifted = factor_shifted(a, b, opts.shift, opts.ordering, how)?;
    let (sigma, norm_a, k) = (shifted.sigma, shifted.norm_a, &shifted.k);

    let m_max = opts.max_subspace.clamp(nev + 2, n.max(nev + 2));
    // Lanczos basis Q (B-orthonormal), and BQ = B·Q kept alongside so that
    // full reorthogonalization costs dots instead of spmv's.
    let mut q: Vec<Vec<f64>> = Vec::with_capacity(m_max);
    let mut bq: Vec<Vec<f64>> = Vec::with_capacity(m_max);
    let mut alpha: Vec<f64> = Vec::with_capacity(m_max);
    let mut beta: Vec<f64> = Vec::with_capacity(m_max);

    // Starting vector: r = K⁻¹ B r₀ purges components outside range(K⁻¹B),
    // the standard ARPACK mode-3 trick for semidefinite B.
    let mut r = vec![0.0; n];
    xorshift_fill(opts.seed, &mut r);
    let mut t = vec![0.0; n];
    b.spmv(&r, &mut t);
    r = k.solve(&t);
    b.spmv(&r, &mut t);
    let mut bnorm = vector::dot(&r, &t).max(0.0).sqrt();
    if bnorm <= 1e-300 {
        // range(B) trivial — no finite eigenvalues to find.
        return Ok(GeneralizedEig {
            values: Vec::new(),
            vectors: DMat::zeros(n, 0),
            steps: 0,
            converged: 0,
        });
    }
    vector::scal(1.0 / bnorm, &mut r);
    vector::scal(1.0 / bnorm, &mut t);
    q.push(r.clone());
    bq.push(t.clone());

    let mut steps = 0;
    let breakdown_tol = 1e-12;
    while q.len() <= m_max {
        let j = q.len() - 1;
        steps = j + 1;
        // w = K⁻¹ (B q_j)
        let mut w = k.solve(&bq[j]);
        // α_j = ⟨w, q_j⟩_B = wᵀ (B q_j)
        let aj = vector::dot(&w, &bq[j]);
        alpha.push(aj);
        vector::axpy(-aj, &q[j], &mut w);
        if j > 0 {
            vector::axpy(-beta[j - 1], &q[j - 1], &mut w);
        }
        // Full reorthogonalization (twice is enough).
        for _ in 0..2 {
            for i in 0..q.len() {
                let c = vector::dot(&w, &bq[i]);
                if c != 0.0 {
                    vector::axpy(-c, &q[i], &mut w);
                }
            }
        }
        b.spmv(&w, &mut t);
        bnorm = vector::dot(&w, &t).max(0.0).sqrt();
        if bnorm <= breakdown_tol {
            break; // invariant subspace found (happy breakdown)
        }
        beta.push(bnorm);
        if q.len() == m_max {
            break;
        }
        vector::scal(1.0 / bnorm, &mut w);
        vector::scal(1.0 / bnorm, &mut t);
        q.push(w);
        bq.push(t.clone());
    }

    let m = alpha.len();
    let (theta, s) = tridiag_eig(&alpha, &beta[..m.saturating_sub(1)]);
    // Largest θ ↔ smallest λ. Assemble the nev largest-θ Ritz pairs.
    let take = nev.min(m);
    let mut values = Vec::with_capacity(take);
    let mut vectors = DMat::zeros(n, take);
    for p in 0..take {
        let col = m - 1 - p; // θ ascending → take from the back
        let th = theta[col];
        let lambda = if th.abs() > 1e-300 {
            sigma + 1.0 / th
        } else {
            f64::INFINITY
        };
        values.push(lambda);
        let dst = vectors.col_mut(p);
        for (i, qi) in q.iter().enumerate().take(m) {
            vector::axpy(s[(i, col)], qi, dst);
        }
    }
    // Purification (ARPACK mode-3, semidefinite B): Ritz vectors live in
    // range(K⁻¹B) and lack their ker(B) components; a true eigenvector is
    // a fixed point of x = (λ−σ) K⁻¹ B x, so one application of that map
    // restores the missing components. Then renormalize in the B-norm
    // (falling back to the 2-norm for vectors with negligible B-energy).
    for p in 0..take {
        let lam = values[p];
        if !lam.is_finite() {
            continue;
        }
        let x = vectors.col(p);
        b.spmv(x, &mut t);
        let mut purified = k.solve(&t);
        vector::scal(lam - sigma, &mut purified);
        b.spmv(&purified, &mut t);
        let bnorm = vector::dot(&purified, &t).max(0.0).sqrt();
        let nrm = if bnorm > 1e-150 {
            bnorm
        } else {
            vector::norm2(&purified)
        };
        if nrm > 0.0 {
            vector::scal(1.0 / nrm, &mut purified);
            vectors.col_mut(p).copy_from_slice(&purified);
        }
    }
    // Sort the selected pairs ascending in λ.
    let mut order: Vec<usize> = (0..take).collect();
    order.sort_by(|&x, &y| values[x].partial_cmp(&values[y]).unwrap());
    let sorted_vals: Vec<f64> = order.iter().map(|&i| values[i]).collect();
    let mut sorted_vecs = DMat::zeros(n, take);
    for (newj, &oldj) in order.iter().enumerate() {
        sorted_vecs.col_mut(newj).copy_from_slice(vectors.col(oldj));
    }
    // Residual-based convergence count.
    let mut converged = 0;
    let mut ax = vec![0.0; n];
    let mut bx = vec![0.0; n];
    for jcol in 0..take {
        let x = sorted_vecs.col(jcol);
        a.spmv(x, &mut ax);
        b.spmv(x, &mut bx);
        let lam = sorted_vals[jcol];
        if !lam.is_finite() {
            continue;
        }
        let mut res = ax.clone();
        vector::axpy(-lam, &bx, &mut res);
        let denom = norm_a * vector::norm2(x).max(1e-300);
        if vector::norm2(&res) <= opts.tol.max(1e-14) * denom * 10.0 {
            converged += 1;
        }
    }
    Ok(GeneralizedEig {
        values: sorted_vals,
        vectors: sorted_vecs,
        steps,
        converged,
    })
}

/// Select how many of the returned eigenpairs fall under a spectral
/// threshold — the paper's criterion for choosing ν_i per subdomain
/// ("a threshold criterion is used to select the ν_i eigenvectors").
pub fn count_below_threshold(values: &[f64], threshold: f64) -> usize {
    values.iter().take_while(|&&v| v < threshold).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_linalg::jacobi;
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
    fn standard_problem_b_identity() {
        // Smallest eigenvalues of the 1D Laplacian: 2 − 2cos(kπ/(n+1)).
        let n = 40;
        let a = laplacian_1d(n);
        let b = CsrMatrix::identity(n);
        let res = smallest_generalized(&a, &b, 4, &LanczosOpts::default()).unwrap();
        for k in 1..=4 {
            let exact = 2.0 - 2.0 * (k as f64 * std::f64::consts::PI / (n as f64 + 1.0)).cos();
            assert!(
                (res.values[k - 1] - exact).abs() < 1e-8,
                "λ_{k}: {} vs {exact}",
                res.values[k - 1]
            );
        }
        assert!(res.converged >= 4);
    }

    #[test]
    fn generalized_spd_b_matches_dense() {
        let n = 25;
        let a = laplacian_1d(n);
        // B: SPD diagonal-dominant mass-like matrix.
        let mut bb = CooBuilder::new(n, n);
        for i in 0..n {
            bb.push(i, i, 2.0 + (i % 3) as f64);
            if i + 1 < n {
                bb.push(i, i + 1, 0.3);
                bb.push(i + 1, i, 0.3);
            }
        }
        let b = bb.to_csr();
        let res = smallest_generalized(&a, &b, 3, &LanczosOpts::default()).unwrap();
        let dref = jacobi::sym_eig_generalized(&a.to_dense(), &b.to_dense(), 1e-14).unwrap();
        for k in 0..3 {
            assert!(
                (res.values[k] - dref.eigenvalues[k]).abs() < 1e-7,
                "λ_{k}: {} vs {}",
                res.values[k],
                dref.eigenvalues[k]
            );
        }
    }

    #[test]
    fn singular_b_projector_pencil() {
        // A = 1D Laplacian (Neumann-like semidefinite variant), B = A
        // restricted to the last few nodes — mimics the GenEO pencil where
        // B acts only on the overlap. Verify residuals of returned pairs.
        let n = 30;
        let mut ab = CooBuilder::new(n, n);
        for i in 0..n {
            let d = match i {
                0 => 1.0,
                x if x == n - 1 => 1.0,
                _ => 2.0,
            };
            ab.push(i, i, d);
            if i + 1 < n {
                ab.push(i, i + 1, -1.0);
                ab.push(i + 1, i, -1.0);
            }
        }
        let a = ab.to_csr(); // singular Neumann Laplacian (constants in kernel)
                             // B = P A P with P selecting the last 6 nodes.
        let mut p = vec![0.0; n];
        for i in n - 6..n {
            p[i] = 1.0;
        }
        let pd = CsrMatrix::from_diag(&p);
        let b = pd.spmm(&a).spmm(&pd);
        let res = smallest_generalized(&a, &b, 3, &LanczosOpts::default()).unwrap();
        assert!(res.values[0].is_finite());
        // All returned pairs satisfy the pencil equation.
        let mut ax = vec![0.0; n];
        let mut bx = vec![0.0; n];
        for k in 0..res.values.len() {
            if !res.values[k].is_finite() {
                continue;
            }
            let x = res.vectors.col(k);
            a.spmv(x, &mut ax);
            b.spmv(x, &mut bx);
            let mut r = ax.clone();
            vector::axpy(-res.values[k], &bx, &mut r);
            assert!(
                vector::norm2(&r) < 1e-6 * vector::norm2(x).max(1.0) * a.norm_inf(),
                "pencil residual for pair {k}: λ={}",
                res.values[k]
            );
        }
    }

    #[test]
    fn eigenvectors_b_orthonormal() {
        let n = 20;
        let a = laplacian_1d(n);
        let b = CsrMatrix::identity(n);
        let res = smallest_generalized(&a, &b, 5, &LanczosOpts::default()).unwrap();
        for i in 0..5 {
            for j in 0..=i {
                let d = vector::dot(res.vectors.col(i), res.vectors.col(j));
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((d - expect).abs() < 1e-7, "⟨v{i},v{j}⟩ = {d}");
            }
        }
    }

    #[test]
    fn nev_zero_and_threshold_helper() {
        let a = laplacian_1d(5);
        let b = CsrMatrix::identity(5);
        let res = smallest_generalized(&a, &b, 0, &LanczosOpts::default()).unwrap();
        assert_eq!(res.values.len(), 0);
        assert_eq!(count_below_threshold(&[0.1, 0.2, 0.9, 1.5], 0.5), 2);
    }

    #[test]
    fn explicit_shift_matches_auto() {
        let a = laplacian_1d(20);
        let b = CsrMatrix::identity(20);
        let auto = smallest_generalized(&a, &b, 3, &LanczosOpts::default()).unwrap();
        let manual = smallest_generalized(
            &a,
            &b,
            3,
            &LanczosOpts {
                shift: Some(-0.5),
                ..Default::default()
            },
        )
        .unwrap();
        for k in 0..3 {
            assert!(
                (auto.values[k] - manual.values[k]).abs() < 1e-7,
                "λ_{k}: {} vs {}",
                auto.values[k],
                manual.values[k]
            );
        }
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = laplacian_1d(5);
        let b = CsrMatrix::identity(6);
        assert!(matches!(
            smallest_generalized(&a, &b, 1, &LanczosOpts::default()),
            Err(EigenError::ShapeMismatch)
        ));
    }

    #[test]
    fn singular_pencil_rejected() {
        // ker A ∩ ker B ≠ {0}: both zero on the last dof.
        let n = 5;
        let mut ab = CooBuilder::new(n, n);
        for i in 0..n - 1 {
            ab.push(i, i, 2.0);
        }
        // last row/col entirely zero in both matrices
        let a = ab.to_csr();
        let b = a.clone();
        assert!(matches!(
            smallest_generalized(&a, &b, 1, &LanczosOpts::default()),
            Err(EigenError::ShiftFactorization(_))
        ));
    }

    #[test]
    fn purified_vectors_have_small_residuals_with_masked_b() {
        // Diagonal mask B: only the first 4 dofs weighted — strongly
        // singular B exercising the purification step.
        let n = 24;
        let a = laplacian_1d(n);
        let mut mask = vec![0.0; n];
        for m in mask.iter_mut().take(4) {
            *m = 1.0;
        }
        let b = CsrMatrix::from_diag(&mask);
        let res = smallest_generalized(&a, &b, 2, &LanczosOpts::default()).unwrap();
        let mut ax = vec![0.0; n];
        let mut bx = vec![0.0; n];
        for k in 0..res.values.len() {
            if !res.values[k].is_finite() {
                continue;
            }
            let x = res.vectors.col(k);
            a.spmv(x, &mut ax);
            b.spmv(x, &mut bx);
            let mut r = ax.clone();
            vector::axpy(-res.values[k], &bx, &mut r);
            assert!(
                vector::norm2(&r) < 1e-8 * a.norm_inf() * vector::norm2(x),
                "pair {k} residual too large"
            );
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let a = laplacian_1d(15);
        let b = CsrMatrix::identity(15);
        let r1 = smallest_generalized(&a, &b, 2, &LanczosOpts::default()).unwrap();
        let r2 = smallest_generalized(&a, &b, 2, &LanczosOpts::default()).unwrap();
        assert_eq!(r1.values, r2.values);
    }
}
