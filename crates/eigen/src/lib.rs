//! # dd-eigen
//!
//! Iterative eigensolvers — the workspace's replacement for ARPACK, used to
//! compute the GenEO deflation vectors of the paper's eq. (9).
//!
//! * [`tridiag`] — implicit-QL symmetric tridiagonal eigensolver (the inner
//!   kernel of Lanczos).
//! * [`lanczos`] — shift-invert Lanczos with full B-reorthogonalization for
//!   generalized symmetric pencils `A x = λ B x` with PSD (possibly
//!   singular) `B`.
//! * [`subspace`] — inverse subspace iteration, an independent second
//!   solver for the same pencils.
//! * [`shift`] — the shift-invert set-up both solvers share: the shift σ
//!   and the factorization of `K = A − σB`, with a caller-chosen
//!   permutation and LDLᵀ backend ([`ShiftFactor`]).

// Numerical kernels and assembly loops read most naturally with
// explicit indices; complex intermediate types are local plumbing.
#![allow(clippy::needless_range_loop, clippy::type_complexity)]

pub mod lanczos;
pub mod shift;
pub mod subspace;
pub mod tridiag;

pub use lanczos::{
    count_below_threshold, smallest_generalized, smallest_generalized_with, EigenError,
    GeneralizedEig, LanczosOpts,
};
pub use shift::ShiftFactor;
pub use subspace::{smallest_generalized_si, SubspaceOpts};
pub use tridiag::tridiag_eig;
