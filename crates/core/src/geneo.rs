//! GenEO deflation vectors (eq. 9 of the paper; theory in Spillane et al.).
//!
//! Per subdomain, solve the generalized eigenproblem
//!
//! ```text
//! A_i^δ Λ = λ · (P_i D_i) A_i^δ (P_i D_i) Λ
//! ```
//!
//! where `A_i^δ` is the local Neumann matrix and `P_i` the indicator of the
//! overlap (`R_{i,0}ᵀ R_{i,0}` in the paper's notation). The right-hand
//! side matrix is the partition-of-unity-weighted restriction of the
//! Neumann operator to the overlap — symmetric positive semidefinite. The
//! eigenvectors with the smallest eigenvalues capture exactly the modes
//! (rigid-body motions of floating subdomains, high-contrast channels
//! crossing the interface) that defeat one-level methods; deflating them
//! makes the condition number independent of `N` and of the coefficient
//! contrast.
//!
//! The deflation block is `W_i = D_i Λ_i` (eq. 8).

use crate::decomp::Subdomain;
use dd_eigen::{smallest_generalized_with, EigenError, LanczosOpts, ShiftFactor};
use dd_linalg::{CsrMatrix, DMat};
use dd_solver::{LdltBackend, LocalLdlt};

/// Options controlling the deflation-space construction.
#[derive(Clone, Debug)]
pub struct GeneoOpts {
    /// Number of eigenvectors requested per subdomain (the paper uses a
    /// uniform ν after `MPI_Allreduce(ν_i, MPI_MAX)`; typically ν ≤ 30).
    pub nev: usize,
    /// Optional spectral threshold: keep only eigenvalues `λ < threshold`
    /// among the `nev` computed ("a threshold criterion is used to select
    /// the ν_i eigenvectors").
    pub threshold: Option<f64>,
    /// Inner Lanczos options.
    pub lanczos: LanczosOpts,
}

impl Default for GeneoOpts {
    fn default() -> Self {
        GeneoOpts {
            nev: 10,
            threshold: None,
            lanczos: LanczosOpts::default(),
        }
    }
}

/// Result of the local eigensolve.
pub struct DeflationBlock {
    /// `W_i = D_i Λ_i` for **all** computed finite eigenpairs (so a later
    /// uniformization to `ν = max_i ν_i` can draw real eigenvectors rather
    /// than zero columns, which would make `E` singular).
    pub w: DMat,
    /// All computed eigenvalues (ascending), matching `w`'s columns.
    pub values: Vec<f64>,
    /// How many leading columns pass the threshold criterion (the ν_i the
    /// subdomain would choose on its own).
    pub kept: usize,
}

/// The overlap-weighted right-hand-side matrix `B_i = (P D) A^δ (P D)`.
///
/// `P D` is diagonal, so `B` has the entries of `A^δ` scaled by
/// `pd_k · pd_l`; rows/columns outside the overlap (or on globally
/// constrained dofs) vanish.
pub fn overlap_weighted_matrix(sub: &Subdomain) -> CsrMatrix {
    let n = sub.n_local();
    let pd: Vec<f64> = (0..n)
        .map(|k| {
            if sub.overlap[k] && !sub.dirichlet[k] {
                sub.d[k]
            } else {
                0.0
            }
        })
        .collect();
    let a = &sub.a_neumann;
    let mut values = a.values().to_vec();
    let mut idx = 0usize;
    for i in 0..n {
        for (j, _) in a.row(i) {
            values[idx] *= pd[i] * pd[j];
            idx += 1;
        }
    }
    CsrMatrix::from_raw(n, n, a.row_ptr().to_vec(), a.col_idx().to_vec(), values)
}

/// Compute the deflation block of one subdomain, panicking on eigensolver
/// failure. See [`try_deflation_block`] for the fallible variant the SPMD
/// driver uses to trigger the Nicolaides fallback.
pub fn deflation_block(sub: &Subdomain, opts: &GeneoOpts) -> DeflationBlock {
    try_deflation_block(sub, opts).expect("GenEO eigensolve failed: shifted pencil not SPD")
}

/// Compute the deflation block of one subdomain, ordering the shifted
/// pencil `K = A^δ − σB` itself and factoring it with the scalar LDLᵀ —
/// the oracle the set-up pipelines' [`try_deflation_block_for`] is pinned
/// to.
///
/// Returns an empty block (ν = 0) when the subdomain has no overlap (e.g.
/// `N = 1`) — there is nothing to deflate.
pub fn try_deflation_block(
    sub: &Subdomain,
    opts: &GeneoOpts,
) -> Result<DeflationBlock, EigenError> {
    deflation_block_with(sub, opts, ShiftFactor::default())
}

/// Compute the deflation block of one subdomain next to its Dirichlet
/// factor `dirichlet` — the set-up pipelines' path. Under the supernodal
/// backend `K` is factored with `dirichlet`'s fill-reducing permutation
/// and backend, so the subdomain is ordered once; the elimination tree and
/// supernodes still come from `K`'s own pattern, which need not lie inside
/// the Dirichlet pattern. Under the scalar backend this is exactly
/// [`try_deflation_block`].
pub fn try_deflation_block_for(
    sub: &Subdomain,
    opts: &GeneoOpts,
    dirichlet: &LocalLdlt,
) -> Result<DeflationBlock, EigenError> {
    let how = match dirichlet.backend() {
        LdltBackend::Scalar => ShiftFactor::default(),
        LdltBackend::Supernodal => ShiftFactor::reusing(dirichlet),
    };
    deflation_block_with(sub, opts, how)
}

fn deflation_block_with(
    sub: &Subdomain,
    opts: &GeneoOpts,
    how: ShiftFactor,
) -> Result<DeflationBlock, EigenError> {
    let n = sub.n_local();
    if !sub.overlap.iter().any(|&o| o) || opts.nev == 0 {
        return Ok(DeflationBlock {
            w: DMat::zeros(n, 0),
            values: Vec::new(),
            kept: 0,
        });
    }
    let b = overlap_weighted_matrix(sub);
    let eig = smallest_generalized_with(&sub.a_neumann, &b, opts.nev, &opts.lanczos, how)?;
    // Keep every finite eigenpair; record how many pass the threshold.
    let finite = eig.values.iter().take_while(|&&l| l.is_finite()).count();
    let kept = eig
        .values
        .iter()
        .take(finite)
        .take_while(|&&l| opts.threshold.is_none_or(|t| l < t))
        .count();
    let mut w = DMat::zeros(n, finite);
    for c in 0..finite {
        let src = eig.vectors.col(c);
        let dst = w.col_mut(c);
        for k in 0..n {
            // W = D Λ, with constrained dofs explicitly zeroed so the
            // coarse space never injects into Dirichlet rows.
            dst[k] = if sub.dirichlet[k] {
                0.0
            } else {
                sub.d[k] * src[k]
            };
        }
        // Normalize each column: Lanczos returns B-orthonormal vectors
        // whose 2-norms vary over many orders of magnitude under high
        // coefficient contrast (components in ker B are unconstrained).
        // Column scaling of Z leaves the deflation subspace unchanged but
        // keeps the coarse operator E well-conditioned for the
        // no-pivoting LDLᵀ factorization.
        let nrm = dd_linalg::vector::norm2(dst);
        if nrm > 0.0 {
            dd_linalg::vector::scal(1.0 / nrm, dst);
        }
    }
    Ok(DeflationBlock {
        w,
        values: eig.values[..finite].to_vec(),
        kept,
    })
}

/// The [`nicolaides_block`] packaged as a [`DeflationBlock`]: the
/// per-subdomain fallback coarse space when the GenEO eigensolve fails.
/// The number of solution components is derived from the subdomain's dof
/// and coordinate counts.
pub fn nicolaides_fallback_block(sub: &Subdomain) -> DeflationBlock {
    let n_scalar = (sub.coords.len() / sub.dim.max(1)).max(1);
    let components = (sub.n_local() / n_scalar).max(1);
    let w = nicolaides_block(sub, components);
    let kept = w.cols();
    DeflationBlock {
        w,
        values: vec![0.0; kept],
        kept,
    }
}

/// Take the first `nu` columns of a deflation block (capped at the number
/// of computed eigenvectors). Used after the global `Allreduce(MAX)`
/// uniformization: every subdomain contributes (up to) the same ν, drawing
/// real eigenvectors beyond its own threshold rather than zero columns.
pub fn resize_block(block: &DeflationBlock, nu: usize) -> DMat {
    let take = nu.min(block.w.cols());
    let n = block.w.rows();
    let mut w = DMat::zeros(n, take);
    for c in 0..take {
        w.col_mut(c).copy_from_slice(block.w.col(c));
    }
    w
}

/// The Nicolaides coarse space: per subdomain, the partition-of-unity
/// weighted *kernel modes* of the operator — the classical alternative to
/// GenEO, oblivious to coefficient heterogeneity. For scalar problems this
/// is the single vector `D_i·1`; for elasticity the `D_i`-weighted rigid
/// body modes (2 translations + 1 rotation in 2D; 3 + 3 in 3D).
///
/// Exists here as the paper's "abstract deflation vectors" escape hatch
/// (§3: the framework "is not directly linked to domain decomposition
/// methods, meaning that it is possible to use it to assemble coarse
/// operators with other abstract deflation vectors") and as the ablation
/// baseline GenEO is measured against.
pub fn nicolaides_block(sub: &Subdomain, components: usize) -> DMat {
    let n = sub.n_local();
    let dim = sub.dim;
    let n_modes = match (components, dim) {
        (1, _) => 1,
        (2, 2) => 3,
        (3, 3) => 6,
        _ => panic!("unsupported components/dim combination"),
    };
    let mut w = DMat::zeros(n, n_modes);
    let n_scalar = n / components;
    for s in 0..n_scalar {
        let x = &sub.coords[s * dim..(s + 1) * dim];
        for c in 0..components {
            let k = s * components + c;
            if sub.dirichlet[k] {
                continue;
            }
            let d = sub.d[k];
            if components == 1 {
                w.col_mut(0)[k] = d;
            } else {
                // translations
                w.col_mut(c)[k] = d;
                if dim == 2 {
                    // rotation (−y, x)
                    let r = if c == 0 { -x[1] } else { x[0] };
                    w.col_mut(2)[k] = d * r;
                } else {
                    // rotations about z, y, x: (−y,x,0), (z,0,−x), (0,−z,y)
                    let rots = [[-x[1], x[0], 0.0], [x[2], 0.0, -x[0]], [0.0, -x[2], x[1]]];
                    for (m, rot) in rots.iter().enumerate() {
                        w.col_mut(3 + m)[k] = d * rot[c];
                    }
                }
            }
        }
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::decompose;
    use crate::problem::presets;
    use dd_mesh::Mesh;
    use dd_part::partition_mesh_rcb;

    fn setup(nparts: usize) -> crate::decomp::Decomposition {
        let mesh = Mesh::unit_square(10, 10);
        let part = partition_mesh_rcb(&mesh, nparts);
        let p = presets::uniform_diffusion(1);
        decompose(&mesh, &p, &part, nparts, 1)
    }

    #[test]
    fn weighted_matrix_supported_on_overlap() {
        let d = setup(4);
        for s in &d.subdomains {
            let b = overlap_weighted_matrix(s);
            for i in 0..s.n_local() {
                for (j, v) in b.row(i) {
                    if v != 0.0 {
                        assert!(s.overlap[i] && s.overlap[j]);
                    }
                }
            }
            assert!(b.symmetry_defect() < 1e-10 * b.norm_inf().max(1e-300));
        }
    }

    #[test]
    fn deflation_block_shapes_and_pencil_residuals() {
        let d = setup(4);
        let opts = GeneoOpts {
            nev: 4,
            ..Default::default()
        };
        for s in &d.subdomains {
            let blk = deflation_block(s, &opts);
            assert!(blk.w.cols() >= 1, "no deflation vectors found");
            assert!(blk.w.cols() <= 4);
            assert_eq!(blk.w.rows(), s.n_local());
            // eigenvalues ascending, non-negative up to roundoff
            for w in blk.values.windows(2) {
                assert!(w[0] <= w[1] + 1e-12);
            }
            assert!(blk.values[0] > -1e-8);
        }
    }

    #[test]
    fn interior_subdomain_smallest_mode_is_flat() {
        // For uniform diffusion, the smallest GenEO mode of a floating
        // subdomain is the constant — so W's first column ≈ D_i · const.
        let mesh = Mesh::unit_square(12, 12);
        let part = partition_mesh_rcb(&mesh, 16);
        let p = presets::uniform_diffusion(1);
        let d = decompose(&mesh, &p, &part, 16, 1);
        let opts = GeneoOpts {
            nev: 3,
            ..Default::default()
        };
        // find a floating subdomain (no Dirichlet dof)
        let s = d
            .subdomains
            .iter()
            .find(|s| s.dirichlet.iter().all(|&b| !b))
            .expect("no floating subdomain in 16-way split");
        let blk = deflation_block(s, &opts);
        // smallest eigenvalue ≈ 0 (constants in the kernel of A^Neu)
        assert!(
            blk.values[0].abs() < 1e-6,
            "floating subdomain λ₀ = {}",
            blk.values[0]
        );
        // W[:,0] proportional to D (constant Λ scaled by PoU)
        let w0 = blk.w.col(0);
        let mut ratio = None;
        let mut proportional = true;
        for k in 0..s.n_local() {
            if s.d[k] > 1e-8 {
                let r = w0[k] / s.d[k];
                match ratio {
                    None => ratio = Some(r),
                    Some(r0) => {
                        if (r - r0).abs() > 1e-5 * r0.abs().max(1e-10) {
                            proportional = false;
                        }
                    }
                }
            }
        }
        assert!(proportional, "first mode is not the PoU-weighted constant");
    }

    #[test]
    fn zero_nev_or_no_overlap_yields_empty() {
        let d = setup(4);
        let blk = deflation_block(
            &d.subdomains[0],
            &GeneoOpts {
                nev: 0,
                ..Default::default()
            },
        );
        assert_eq!(blk.w.cols(), 0);
        // single subdomain: no overlap
        let mesh = Mesh::unit_square(4, 4);
        let part = vec![0u32; mesh.n_elements()];
        let p = presets::uniform_diffusion(1);
        let d1 = decompose(&mesh, &p, &part, 1, 1);
        let blk1 = deflation_block(&d1.subdomains[0], &GeneoOpts::default());
        assert_eq!(blk1.w.cols(), 0);
    }

    #[test]
    fn dirichlet_rows_of_w_vanish() {
        let d = setup(4);
        let opts = GeneoOpts {
            nev: 3,
            ..Default::default()
        };
        for s in &d.subdomains {
            let blk = deflation_block(s, &opts);
            for c in 0..blk.w.cols() {
                for k in 0..s.n_local() {
                    if s.dirichlet[k] {
                        assert_eq!(blk.w.col(c)[k], 0.0);
                    }
                }
            }
        }
    }

    #[test]
    fn nicolaides_scalar_is_pou() {
        let d = setup(4);
        for s in &d.subdomains {
            let w = nicolaides_block(s, 1);
            assert_eq!(w.cols(), 1);
            for k in 0..s.n_local() {
                let expect = if s.dirichlet[k] { 0.0 } else { s.d[k] };
                assert_eq!(w.col(0)[k], expect);
            }
        }
    }

    #[test]
    fn nicolaides_elasticity_spans_rigid_modes() {
        let mesh = Mesh::rectangle(8, 4, 2.0, 1.0);
        let part = partition_mesh_rcb(&mesh, 4);
        let p = presets::heterogeneous_elasticity(1, 2);
        let d = decompose(&mesh, &p, &part, 4, 1);
        for s in &d.subdomains {
            let w = nicolaides_block(s, 2);
            assert_eq!(w.cols(), 3);
            // On a floating (no Dirichlet) subdomain, A^Neu annihilates the
            // unweighted rigid modes; we check W columns are D·mode by
            // reconstructing the mode and verifying A^Neu·mode ≈ 0.
            if s.dirichlet.iter().any(|&b| b) {
                continue;
            }
            for c in 0..3 {
                let mut mode = vec![0.0; s.n_local()];
                for k in 0..s.n_local() {
                    mode[k] = if s.d[k] > 1e-14 {
                        w.col(c)[k] / s.d[k]
                    } else {
                        // fill from the analytic mode
                        let sdof = k / 2;
                        let x = &s.coords[sdof * 2..sdof * 2 + 2];
                        match (c, k % 2) {
                            (0, 0) => 1.0,
                            (0, 1) => 0.0,
                            (1, 0) => 0.0,
                            (1, 1) => 1.0,
                            (2, 0) => -x[1],
                            (2, 1) => x[0],
                            _ => unreachable!(),
                        }
                    };
                }
                let mut y = vec![0.0; s.n_local()];
                s.a_neumann.spmv(&mode, &mut y);
                let rel = dd_linalg::vector::norm_inf(&y)
                    / (s.a_neumann.norm_inf() * dd_linalg::vector::norm_inf(&mode));
                assert!(rel < 1e-10, "rigid mode {c} not in kernel: {rel}");
            }
        }
    }

    #[test]
    fn resize_truncates_and_caps() {
        let d = setup(4);
        let blk = deflation_block(
            &d.subdomains[0],
            &GeneoOpts {
                nev: 3,
                ..Default::default()
            },
        );
        let wide = resize_block(&blk, 6);
        assert_eq!(wide.cols(), blk.w.cols().min(6));
        let narrow = resize_block(&blk, 1);
        assert_eq!(narrow.cols(), 1);
        assert_eq!(narrow.col(0), blk.w.col(0));
    }
}
