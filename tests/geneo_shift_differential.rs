//! Differential test pinning the set-up pipelines' GenEO path to its
//! oracle.
//!
//! The pipelines factor each subdomain's Dirichlet matrix once and then
//! factor the shifted pencil `K = A^δ − σB` with that factor's
//! fill-reducing permutation and backend
//! ([`try_deflation_block_for`]). The oracle, [`try_deflation_block`],
//! orders `K` itself and factors it with the scalar LDLᵀ. The contract:
//!
//! * every GenEO eigenvalue agrees to `|Δλ| ≤ 1e-10·max(1, |λ|)`, and the
//!   threshold count `kept` is equal;
//! * under the scalar backend the pipeline path *is* the oracle, bit for
//!   bit;
//! * re-factoring the Dirichlet matrix through the shared permutation
//!   reproduces `LocalLdlt::factor` exactly: same `nnz_l`, bit-identical
//!   solves, on both backends.
//!
//! Two decompositions: 3D-P2 elasticity, and 2D-P3 elasticity, whose
//! Neumann patterns are not contained in the Dirichlet ones — so the
//! supernodal structure of `K` must come from `K`'s own pattern.

use dd_geneo::core::{
    decompose, problem::presets, try_deflation_block, try_deflation_block_for, Decomposition,
    GeneoOpts, SpmdOpts,
};
use dd_geneo::linalg::CsrMatrix;
use dd_geneo::mesh::Mesh;
use dd_geneo::part::partition_mesh_rcb;
use dd_geneo::solver::{LdltBackend, LocalLdlt, PivotPolicy};

fn elasticity_3d_p2() -> Decomposition {
    let mesh = Mesh::box3d(4, 2, 2, 2.0, 1.0, 1.0);
    let part = partition_mesh_rcb(&mesh, 2);
    decompose(&mesh, &presets::heterogeneous_elasticity(2, 3), &part, 2, 1)
}

fn elasticity_2d_p3() -> Decomposition {
    let mesh = Mesh::rectangle(12, 3, 5.0, 1.0);
    let part = partition_mesh_rcb(&mesh, 4);
    decompose(&mesh, &presets::heterogeneous_elasticity(3, 2), &part, 4, 1)
}

/// Whether every stored entry of `a` has a stored counterpart in `b`.
fn pattern_within(a: &CsrMatrix, b: &CsrMatrix) -> bool {
    (0..a.rows()).all(|i| a.row(i).all(|(j, _)| b.row(i).any(|(k, _)| k == j)))
}

fn geneo_opts() -> GeneoOpts {
    GeneoOpts {
        nev: 8,
        threshold: Some(0.3),
        ..Default::default()
    }
}

fn check_against_oracle(d: &Decomposition) {
    let spmd = SpmdOpts::default();
    assert_eq!(spmd.local_ldlt, LdltBackend::Supernodal);
    let opts = geneo_opts();
    for (s, sub) in d.subdomains.iter().enumerate() {
        let oracle = try_deflation_block(sub, &opts).unwrap();
        assert!(!oracle.values.is_empty(), "sub {s}: no eigenpairs");
        for backend in [LdltBackend::Supernodal, LdltBackend::Scalar] {
            let dirichlet = LocalLdlt::factor(&sub.a_dirichlet, spmd.ordering, backend).unwrap();
            let piped = try_deflation_block_for(sub, &opts, &dirichlet).unwrap();
            assert_eq!(
                piped.values.len(),
                oracle.values.len(),
                "sub {s} {backend:?}"
            );
            assert_eq!(piped.kept, oracle.kept, "sub {s} {backend:?}");
            for (k, (p, o)) in piped.values.iter().zip(&oracle.values).enumerate() {
                assert!(
                    (p - o).abs() <= 1e-10 * o.abs().max(1.0),
                    "sub {s} {backend:?} λ_{k}: pipeline {p:e} vs oracle {o:e}"
                );
            }
            if backend == LdltBackend::Scalar {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&piped.values), bits(&oracle.values), "sub {s}");
                assert_eq!(bits(piped.w.data()), bits(oracle.w.data()), "sub {s}: W");
            }
        }
    }
}

fn check_shared_ordering_reproduces_dirichlet_factor(d: &Decomposition) {
    let ordering = SpmdOpts::default().ordering;
    for (s, sub) in d.subdomains.iter().enumerate() {
        let n = sub.n_local();
        let rhs: Vec<f64> = (0..n).map(|i| ((i * 37) % 11) as f64 - 5.0).collect();
        for backend in [LdltBackend::Supernodal, LdltBackend::Scalar] {
            let f = LocalLdlt::factor(&sub.a_dirichlet, ordering, backend).unwrap();
            let g = LocalLdlt::factor_with_perm(
                &sub.a_dirichlet,
                f.perm(),
                PivotPolicy::default(),
                backend,
            )
            .unwrap();
            assert_eq!(g.nnz_l(), f.nnz_l(), "sub {s} {backend:?}");
            assert_eq!(g.perm(), f.perm(), "sub {s} {backend:?}");
            let (x, y) = (f.solve(&rhs), g.solve(&rhs));
            assert!(
                x.iter().zip(&y).all(|(p, q)| p.to_bits() == q.to_bits()),
                "sub {s} {backend:?}: solves differ"
            );
        }
    }
}

#[test]
fn pipeline_geneo_matches_oracle_on_3d_p2_elasticity() {
    let d = elasticity_3d_p2();
    check_against_oracle(&d);
    check_shared_ordering_reproduces_dirichlet_factor(&d);
}

#[test]
fn pipeline_geneo_matches_oracle_when_neumann_pattern_exceeds_dirichlet() {
    let d = elasticity_2d_p3();
    assert!(
        d.subdomains
            .iter()
            .any(|s| !pattern_within(&s.a_neumann, &s.a_dirichlet)),
        "fixture lost its point: every Neumann pattern lies inside the Dirichlet one"
    );
    check_against_oracle(&d);
    check_shared_ordering_reproduces_dirichlet_factor(&d);
}
