//! Inverse subspace iteration for the generalized symmetric pencil — a
//! second, independent eigensolver used to cross-check the Lanczos solver
//! and as ablation material (the paper's framework treats the eigensolver
//! as pluggable; ARPACK was their choice, but the GenEO construction only
//! needs *some* solver for the smallest pencil eigenpairs).
//!
//! Algorithm: with `K = A − σB` SPD factored once (the step shared with
//! the Lanczos solver, [`crate::shift`]), iterate
//! `X ← K⁻¹ B X`, B-orthonormalize, and solve the projected `m × m`
//! Rayleigh–Ritz problem until the eigenvalue estimates stabilize.
//! Simpler and more robust than Lanczos, at the cost of more `K⁻¹`
//! applications per converged pair.

use crate::lanczos::{EigenError, GeneralizedEig, LanczosOpts};
use crate::shift::{factor_shifted, xorshift_fill, ShiftFactor};
use dd_linalg::{jacobi, vector, CsrMatrix, DMat};
use dd_solver::Ordering;

/// Options for [`smallest_generalized_si`].
#[derive(Clone, Debug)]
pub struct SubspaceOpts {
    /// Shift σ < 0 (auto like the Lanczos solver when `None`).
    pub shift: Option<f64>,
    /// Subspace dimension (≥ nev; extra guard vectors speed convergence).
    pub guard: usize,
    /// Convergence tolerance on the relative change of the Ritz values.
    pub tol: f64,
    /// Maximum iterations.
    pub max_iters: usize,
    /// Deterministic seed.
    pub seed: u64,
}

impl Default for SubspaceOpts {
    fn default() -> Self {
        SubspaceOpts {
            shift: None,
            guard: 5,
            tol: 1e-10,
            max_iters: 200,
            seed: 0x5eed_5678,
        }
    }
}

/// Compute the `nev` smallest eigenpairs of `A x = λ B x` (same contract as
/// [`crate::lanczos::smallest_generalized`]) by inverse subspace iteration.
pub fn smallest_generalized_si(
    a: &CsrMatrix,
    b: &CsrMatrix,
    nev: usize,
    opts: &SubspaceOpts,
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
    let shifted = factor_shifted(
        a,
        b,
        opts.shift,
        Ordering::MinDegree,
        ShiftFactor::default(),
    )?;
    let (norm_a, k) = (shifted.norm_a, &shifted.k);

    let m = (nev + opts.guard).min(n);
    // Start from random vectors pushed into range(K⁻¹B).
    let mut x: Vec<Vec<f64>> = (0..m)
        .map(|c| {
            let mut v = vec![0.0; n];
            xorshift_fill(opts.seed.wrapping_add(c as u64 * 7919), &mut v);
            let mut t = vec![0.0; n];
            b.spmv(&v, &mut t);
            k.solve(&t)
        })
        .collect();
    let mut prev = vec![f64::INFINITY; nev];
    let mut values: Vec<f64> = vec![0.0; m];
    let mut steps = 0;
    let mut t = vec![0.0; n];
    for it in 0..opts.max_iters {
        steps = it + 1;
        // B-orthonormalize X (modified Gram–Schmidt in the B semi-product),
        // dropping directions with negligible B-energy — the iteration
        // space is range(K⁻¹B), whose dimension is rank(B), which may be
        // smaller than the requested subspace.
        let mut kept: Vec<Vec<f64>> = Vec::with_capacity(x.len());
        for mut xc in std::mem::take(&mut x) {
            b.spmv(&xc, &mut t);
            let nrm0 = vector::dot(&xc, &t).max(0.0).sqrt();
            for xp in &kept {
                b.spmv(xp, &mut t);
                let d = vector::dot(&xc, &t);
                vector::axpy(-d, xp, &mut xc);
            }
            // Second projection pass for numerical B-orthogonality.
            for xp in &kept {
                b.spmv(xp, &mut t);
                let d = vector::dot(&xc, &t);
                vector::axpy(-d, xp, &mut xc);
            }
            b.spmv(&xc, &mut t);
            let nrm = vector::dot(&xc, &t).max(0.0).sqrt();
            // Drop directions whose B-energy collapsed under projection —
            // they are (numerically) linear combinations of the kept ones.
            if nrm > 1e-300 && nrm > 1e-6 * nrm0 {
                vector::scal(1.0 / nrm, &mut xc);
                kept.push(xc);
            }
        }
        x = kept;
        let meff = x.len();
        if meff == 0 {
            break;
        }
        // Rayleigh–Ritz on the projected pencil: G_A = Xᵀ A X, G_B = Xᵀ B X
        // (G_B = I by construction).
        let mut ga = DMat::zeros(meff, meff);
        let mut gb = DMat::zeros(meff, meff);
        for c in 0..meff {
            a.spmv(&x[c], &mut t);
            for r in 0..meff {
                ga[(r, c)] = vector::dot(&x[r], &t);
            }
            b.spmv(&x[c], &mut t);
            for r in 0..meff {
                gb[(r, c)] = vector::dot(&x[r], &t);
            }
        }
        for i in 0..meff {
            for j in 0..i {
                let s1 = 0.5 * (ga[(i, j)] + ga[(j, i)]);
                ga[(i, j)] = s1;
                ga[(j, i)] = s1;
                let s2 = 0.5 * (gb[(i, j)] + gb[(j, i)]);
                gb[(i, j)] = s2;
                gb[(j, i)] = s2;
            }
        }
        // G_B = I up to roundoff after the B-orthonormalization, so the
        // dense reduction cannot fail.
        let eig = jacobi::sym_eig_generalized(&ga, &gb, 1e-13)
            .expect("projected pencil not SPD after B-orthonormalization");
        // Rotate the basis: X ← X S, eigenvalues ascending.
        let mut xs: Vec<Vec<f64>> = vec![vec![0.0; n]; meff];
        for (c, xc) in xs.iter_mut().enumerate() {
            let s = eig.eigenvectors.col(c);
            for (r, xr) in x.iter().enumerate() {
                vector::axpy(s[r], xr, xc);
            }
        }
        x = xs;
        values.resize(meff, 0.0);
        values[..meff].copy_from_slice(&eig.eigenvalues);
        // Convergence on the leading min(nev, available) Ritz values.
        let lead = nev.min(values.len());
        let rel_change = (0..lead)
            .map(|i| (values[i] - prev[i]).abs() / values[i].abs().max(1e-300))
            .fold(0.0f64, f64::max);
        prev[..lead].copy_from_slice(&values[..lead]);
        if rel_change < opts.tol && it > 1 {
            break;
        }
        // Inverse iteration step: X ← K⁻¹ B X.
        for xc in x.iter_mut() {
            b.spmv(xc, &mut t);
            *xc = k.solve(&t);
        }
    }
    let nev = nev.min(x.len());
    let mut vectors = DMat::zeros(n, nev);
    for c in 0..nev {
        vectors.col_mut(c).copy_from_slice(&x[c]);
    }
    // Residual-based convergence count (same metric as the Lanczos solver).
    let mut converged = 0;
    let mut ax = vec![0.0; n];
    let mut bx = vec![0.0; n];
    for c in 0..nev {
        let xc = vectors.col(c);
        a.spmv(xc, &mut ax);
        b.spmv(xc, &mut bx);
        let mut r = ax.clone();
        vector::axpy(-values[c], &bx, &mut r);
        if vector::norm2(&r) <= 1e-7 * norm_a * vector::norm2(xc).max(1e-300) {
            converged += 1;
        }
    }
    Ok(GeneralizedEig {
        values: values[..nev].to_vec(),
        vectors,
        steps,
        converged,
    })
}

/// Convenience: match the [`LanczosOpts`] shift conventions.
pub fn subspace_opts_from(lanczos: &LanczosOpts) -> SubspaceOpts {
    SubspaceOpts {
        shift: lanczos.shift,
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lanczos::smallest_generalized;
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
    fn matches_analytic_standard_problem() {
        let n = 30;
        let a = laplacian_1d(n);
        let b = CsrMatrix::identity(n);
        let res = smallest_generalized_si(&a, &b, 3, &SubspaceOpts::default()).unwrap();
        for k in 1..=3 {
            let exact = 2.0 - 2.0 * (k as f64 * std::f64::consts::PI / (n as f64 + 1.0)).cos();
            assert!(
                (res.values[k - 1] - exact).abs() < 1e-7,
                "λ_{k}: {} vs {exact}",
                res.values[k - 1]
            );
        }
        assert!(res.converged >= 3);
    }

    #[test]
    fn agrees_with_lanczos_on_singular_b() {
        // Masked-B pencil (singular B), the GenEO-like case.
        let n = 24;
        let a = laplacian_1d(n);
        let mut mask = vec![0.0; n];
        for m in mask.iter_mut().take(6) {
            *m = 1.0;
        }
        let d = CsrMatrix::from_diag(&mask);
        let b = d.spmm(&a).spmm(&d);
        let si = smallest_generalized_si(&a, &b, 2, &SubspaceOpts::default()).unwrap();
        let lz = smallest_generalized(&a, &b, 2, &LanczosOpts::default()).unwrap();
        for k in 0..2 {
            if !si.values[k].is_finite() || !lz.values[k].is_finite() {
                continue;
            }
            assert!(
                (si.values[k] - lz.values[k]).abs() < 1e-5 * lz.values[k].abs().max(1e-6),
                "λ_{k}: SI {} vs Lanczos {}",
                si.values[k],
                lz.values[k]
            );
        }
    }

    #[test]
    fn deterministic() {
        let a = laplacian_1d(16);
        let b = CsrMatrix::identity(16);
        let r1 = smallest_generalized_si(&a, &b, 2, &SubspaceOpts::default()).unwrap();
        let r2 = smallest_generalized_si(&a, &b, 2, &SubspaceOpts::default()).unwrap();
        assert_eq!(r1.values, r2.values);
    }
}
