//! The three workloads and one repetition ("rep") of each: build the
//! decomposition, set up the solver, solve seeded right-hand sides, and
//! (on serve) stream a seeded request mix through `try_serve`. Wall time
//! is read with `Instant` here, outside the library, around the public
//! entry points; virtual time comes from the library's own reports.

use crate::spans::{Span, Track};
use dd_bench::{diffusion_3d, elasticity_2d, elasticity_3d, Workload};
use dd_comm::{thread_cpu_time, Communicator, CostModel, World, WorldTrace};
use dd_core::{
    repartition_plan, try_setup, try_setup_partitioned, CoarseCache, CoarseOutcome,
    DeflationSource, GeneoOpts, PreparedMulti, PreparedSolver, SpmdError, SpmdOpts, SpmdReport,
};
use dd_krylov::{GmresOpts, SolveResult};
use dd_serve::{plan_batches, try_serve, Payload, Request, ResponseStore, ServeOpts, ServeReport};
use dd_solver::{LdltBackend, LocalLdlt, Ordering};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Rank threads of every workload.
const RANKS: usize = 2;
/// Deflation vectors per subdomain (ν).
const NU: usize = 8;
/// Right-hand sides in one serve stream.
const SERVE_RHS: usize = 64;
/// Interarrival of serve requests, in virtual seconds: about a third of
/// the server's capacity.
const SERVE_INTERARRIVAL: f64 = 0.15;
/// Largest answer error accepted as correct (see [`Oracle::error`]).
pub const ACCEPT_ERROR: f64 = 1e-4;
/// Perturbations stay inside the admissible ball, so the server answers
/// them by preconditioner reuse and never re-factorizes.
const THETA_MAX: f64 = 0.04;

/// Which public entry points a workload drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pipeline {
    /// `try_setup` + `PreparedSolver::try_apply`, one subdomain per rank.
    Spmd,
    /// `try_setup_partitioned` + `PreparedMulti::try_apply`.
    Partitioned,
    /// As `Partitioned`, then the request stream through `try_serve`.
    Serve,
}

pub struct Spec {
    pub name: &'static str,
    pub pipeline: Pipeline,
    build: fn() -> Workload,
    tol: f64,
    /// Right-hand sides solved on the set-up solver in one rep.
    n_rhs: usize,
}

pub const SPECS: [Spec; 3] = [
    Spec {
        name: "oneshot-elast3d",
        pipeline: Pipeline::Spmd,
        build: || elasticity_3d(5, 2, 2, 1),
        tol: 1e-6,
        n_rhs: 16,
    },
    Spec {
        name: "serve-elast2d",
        pipeline: Pipeline::Serve,
        build: || elasticity_2d(48, 10, 3, 8, 1),
        tol: 1e-7,
        n_rhs: 16,
    },
    Spec {
        name: "coarse-diff3d",
        pipeline: Pipeline::Partitioned,
        build: || diffusion_3d(24, 1, 256, 1),
        tol: 1e-6,
        n_rhs: 16,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

impl Spec {
    pub fn spmd_opts(&self) -> SpmdOpts {
        SpmdOpts {
            geneo: GeneoOpts {
                nev: NU,
                ..Default::default()
            },
            gmres: GmresOpts {
                tol: self.tol,
                ..SpmdOpts::default().gmres
            },
            ..Default::default()
        }
    }

    fn serve_opts(&self) -> ServeOpts {
        ServeOpts {
            spmd: self.spmd_opts(),
            ..Default::default()
        }
    }

    pub fn build(&self) -> Workload {
        (self.build)()
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The inputs of one rep: a pure function of `(seed, rep)`.
pub struct Inputs {
    pub rhs: Vec<Vec<f64>>,
    pub stream: Option<dd_serve::Workload>,
}

/// Uniform draws in `[0, 1)` from a splitmix64 stream.
struct Draw(u64);

impl Draw {
    fn unit(&mut self) -> f64 {
        (splitmix64(&mut self.0) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A right-hand side with entries uniform in `[-1, 1]`.
    fn rhs(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| 2.0 * self.unit() - 1.0).collect()
    }
}

pub fn inputs(spec: &Spec, n_global: usize, seed: u64, rep: u64) -> Inputs {
    let mut draw = Draw(seed ^ rep.wrapping_mul(0xD1B5_4A32_D192_ED03));
    let rhs = (0..spec.n_rhs).map(|_| draw.rhs(n_global)).collect();
    let stream = (spec.pipeline == Pipeline::Serve).then(|| stream(&mut draw, n_global));
    Inputs { rhs, stream }
}

/// Request kinds of one serve stream, `(count, right-hand sides each,
/// perturbed)`: [`SERVE_RHS`] right-hand sides in 52 requests, ~27% of
/// them admissible θ-perturbations. The proportions are fixed so every
/// seed offers the server the same mix.
const STREAM_MIX: [(usize, usize, bool); 4] =
    [(30, 1, false), (14, 1, true), (4, 2, false), (4, 3, false)];

/// A seeded open-loop stream: the [`STREAM_MIX`] requests in a seeded
/// order, one every [`SERVE_INTERARRIVAL`] virtual seconds, with seeded
/// right-hand sides. The θ of the `n` perturbed requests are stratified,
/// one uniform draw in each of `n` equal slices of `[-θmax, θmax]`, so
/// every stream spans the admissible ball evenly.
fn stream(draw: &mut Draw, n_global: usize) -> dd_serve::Workload {
    let mut kinds: Vec<(usize, bool)> = STREAM_MIX
        .iter()
        .flat_map(|&(count, k, perturbed)| std::iter::repeat_n((k, perturbed), count))
        .collect();
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, (draw.unit() * (i + 1) as f64) as usize);
    }
    let n_perturbed = kinds.iter().filter(|k| k.1).count();
    let mut slice = 0;
    let requests: Vec<Request> = kinds
        .into_iter()
        .enumerate()
        .map(|(id, (k, perturbed))| Request {
            id,
            arrival: (id + 1) as f64 * SERVE_INTERARRIVAL,
            payload: match (k, perturbed) {
                (1, true) => {
                    let u = (slice as f64 + draw.unit()) / n_perturbed as f64;
                    slice += 1;
                    Payload::Perturbed {
                        theta: THETA_MAX * (2.0 * u - 1.0),
                        rhs: draw.rhs(n_global),
                    }
                }
                (1, false) => Payload::Rhs(draw.rhs(n_global)),
                _ => Payload::Batch((0..k).map(|_| draw.rhs(n_global)).collect()),
            },
        })
        .collect();
    let stream = dd_serve::Workload::from_requests(requests);
    debug_assert_eq!(stream.n_rhs_total(), SERVE_RHS);
    stream
}

/// Deterministic counters of one rep: identical for identical inputs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub n_global: usize,
    pub dim_e: usize,
    pub nu: usize,
    pub nnz_e_factor: usize,
    /// Iterations per answered right-hand side, set-up solver first, then
    /// the served stream in submission order.
    pub iterations: Vec<usize>,
    /// Serve: solve invocations, admissible-reuse applies, re-setups.
    pub serve: [usize; 3],
}

/// What one rep measured.
#[derive(Default)]
pub struct Rep {
    /// Wall seconds of the whole rep, decompose through the last answer.
    pub wall_s: f64,
    /// The process's peak resident set when the rep's world ended, MiB.
    pub peak_rss_mb: f64,
    /// Decompose plus the set-up call, wall seconds.
    pub setup_s: f64,
    /// Decompose, set-up and the first solve, wall seconds.
    pub time_to_solution_s: f64,
    /// Modeled parallel set-up seconds (serve: the stream's own set-up).
    pub vt_setup_s: f64,
    /// Wall and virtual seconds per right-hand side on the set-up solver.
    pub solve_s: Vec<f64>,
    pub vt_solve_s: Vec<f64>,
    /// Serve: wall seconds of the `try_serve` call and the RHS it answered.
    pub serve_s: f64,
    pub served: usize,
    /// Per-RHS latency in virtual seconds: from scheduled arrival on
    /// serve; the closed-loop solve time otherwise.
    pub latency_vs: Vec<f64>,
    pub attempted: usize,
    pub failed: usize,
    /// Largest answer error seen (see [`Oracle::error`]).
    pub worst_error: f64,
    /// Wall minus thread CPU seconds around the solve calls, per RHS,
    /// averaged over ranks.
    pub wait_s: f64,
    /// Serve: virtual seconds the server sat idle waiting for arrivals.
    pub idle_vs: f64,
    pub counts: Counts,
    pub errors: Vec<String>,
    /// One line per answer that failed its check.
    pub failures: Vec<String>,
    pub tracks: Vec<(String, Vec<Span>)>,
    pub trace: Option<WorldTrace>,
}

/// The resident solver of either pipeline.
enum Prepared<'a> {
    Spmd(PreparedSolver<'a>),
    Multi(PreparedMulti<'a>),
}

impl Prepared<'_> {
    fn nominal(&self) -> bool {
        let run = match self {
            Prepared::Spmd(p) => p.setup_report(),
            Prepared::Multi(p) => p.setup_report(),
        };
        run.deflation == DeflationSource::Geneo && run.coarse == CoarseOutcome::TwoLevel
    }

    /// Solve one right-hand side.
    fn apply(&self, rhs: &[f64]) -> Result<Answer, SpmdError> {
        match self {
            Prepared::Spmd(p) => {
                let out = p.try_apply(rhs, "solve", None)?;
                Ok(Answer {
                    report: p.report(&out),
                    pieces: vec![(p.rank(), out.result.x.clone())],
                    vt_s: out.t_solution,
                    result: out.result,
                })
            }
            Prepared::Multi(p) => {
                let out = p.try_apply(rhs, "solve", None)?;
                Ok(Answer {
                    report: p.report(&out),
                    vt_s: out.t_solution,
                    result: out.result,
                    pieces: out.locals,
                })
            }
        }
    }
}

/// One rank's view of one solved right-hand side.
struct Answer {
    result: SolveResult,
    /// `(subdomain, local solution)` for every subdomain the rank owns.
    pieces: Vec<(usize, Vec<f64>)>,
    /// Virtual seconds of the apply.
    vt_s: f64,
    report: SpmdReport,
}

#[derive(Default)]
struct RankOut {
    setup_s: f64,
    nominal: bool,
    solve_s: Vec<f64>,
    vt_solve_s: Vec<f64>,
    results: Vec<(usize, bool)>,
    pieces: Vec<Vec<(usize, Vec<f64>)>>,
    report: Option<SpmdReport>,
    serve: Option<(f64, ServeReport)>,
    wait_s: f64,
    spans: Vec<Span>,
    error: Option<String>,
}

/// One rank's share of a rep.
#[allow(clippy::too_many_arguments)]
fn rank_rep(
    spec: &Spec,
    decomp: &dd_core::Decomposition,
    comm: &Communicator,
    inputs: &Inputs,
    cache: &CoarseCache,
    serve_cache: &CoarseCache,
    store: &ResponseStore,
    track: &mut Track,
    out: &mut RankOut,
) -> Result<(), SpmdError> {
    let opts = spec.spmd_opts();
    comm.try_barrier()?;
    let t = Instant::now();
    track.enter("setup");
    let prep = match spec.pipeline {
        Pipeline::Spmd => try_setup(decomp, comm, &opts).map(Prepared::Spmd),
        Pipeline::Partitioned | Pipeline::Serve => {
            let plan = repartition_plan(decomp, comm, None);
            try_setup_partitioned(decomp, comm, &opts, Some(cache), &plan, true)
                .map(Prepared::Multi)
        }
    };
    track.exit();
    let prep = prep?;
    out.setup_s = t.elapsed().as_secs_f64();
    out.nominal = prep.nominal();
    for b in &inputs.rhs {
        let (t, cpu) = (Instant::now(), thread_cpu_time());
        track.enter("apply");
        let applied = prep.apply(b);
        track.exit();
        let a = applied?;
        let wall = t.elapsed().as_secs_f64();
        out.wait_s += wall - (thread_cpu_time() - cpu);
        out.solve_s.push(wall);
        out.vt_solve_s.push(a.vt_s);
        out.results.push((a.result.iterations, a.result.converged));
        out.pieces.push(a.pieces);
        out.report.get_or_insert(a.report);
    }
    drop(prep);
    if let Some(stream) = &inputs.stream {
        let (t, cpu) = (Instant::now(), thread_cpu_time());
        track.enter("serve");
        let served = try_serve(decomp, comm, &spec.serve_opts(), stream, serve_cache, store);
        track.exit();
        let report = served?;
        let wall = t.elapsed().as_secs_f64();
        out.wait_s += wall - (thread_cpu_time() - cpu);
        out.serve = Some((wall, report));
    }
    Ok(())
}

/// The answer oracle: a direct LDLᵀ factorization of the global operator
/// `A`, built once per process (every rep rebuilds the same `A`).
pub type Reference = Option<LocalLdlt>;

/// Run one rep of `spec` on inputs `(seed, rep)`, traced or not.
pub fn run_rep(spec: &Spec, seed: u64, rep: u64, traced: bool, reference: &mut Reference) -> Rep {
    let origin = Instant::now();
    let mut main = Track::new(origin, traced);
    let w = main.span("decompose", || spec.build());
    let decompose_s = origin.elapsed().as_secs_f64();
    let decomp = Arc::clone(&w.decomp);
    let inputs = inputs(spec, decomp.n_global, seed, rep);
    let cache = CoarseCache::new();
    let serve_cache = CoarseCache::new();
    let store = ResponseStore::new();
    let body = |comm: &Communicator| {
        let mut track = Track::new(origin, traced);
        let mut out = RankOut::default();
        let r = rank_rep(
            spec,
            &decomp,
            comm,
            &inputs,
            &cache,
            &serve_cache,
            &store,
            &mut track,
            &mut out,
        );
        if let Err(e) = r {
            // Peers blocked on this rank see it gone instead of hanging.
            comm.abandon();
            out.error = Some(e.to_string());
        }
        out.spans = track.into_spans();
        out
    };
    main.enter("world");
    let (outs, trace) = if traced {
        let (o, tr) = World::run_traced(RANKS, CostModel::default(), body);
        (o, Some(tr))
    } else {
        (World::run(RANKS, CostModel::default(), body), None)
    };
    main.exit();
    let wall_s = origin.elapsed().as_secs_f64();
    let peak_rss_mb = peak_rss_mb();
    let reference = reference.get_or_insert_with(|| {
        LocalLdlt::factor(
            &decomp.a_global,
            Ordering::MinDegree,
            LdltBackend::Supernodal,
        )
        .expect("the global operator is SPD, so its reference factorization succeeds")
    });
    let oracle = Oracle::new(&decomp, reference);
    let mut rep = main.span("check", || assemble(spec, &oracle, &inputs, outs));
    rep.wall_s = wall_s;
    rep.peak_rss_mb = peak_rss_mb;
    rep.setup_s += decompose_s;
    rep.time_to_solution_s += decompose_s;
    rep.trace = trace;
    rep.tracks
        .insert(0, ("main".to_string(), main.into_spans()));
    rep
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Fold the ranks' outputs into one [`Rep`] and check every answer.
fn assemble(spec: &Spec, oracle: &Oracle<'_>, inputs: &Inputs, outs: Vec<RankOut>) -> Rep {
    let decomp = oracle.decomp;
    let mut rep = Rep {
        errors: outs.iter().filter_map(|o| o.error.clone()).collect(),
        ..Default::default()
    };
    let nominal = outs.iter().all(|o| o.nominal);
    if !nominal && rep.errors.is_empty() {
        rep.errors
            .push("set-up degraded: not GenEO with a two-level coarse solve".to_string());
    }
    let r0 = &outs[0];
    let answered = outs.iter().map(|o| o.results.len()).min().unwrap_or(0);
    rep.setup_s = r0.setup_s;
    rep.time_to_solution_s = r0.setup_s + r0.solve_s.first().copied().unwrap_or(f64::NAN);
    rep.solve_s = r0.solve_s.clone();
    rep.vt_solve_s = r0.vt_solve_s.clone();
    rep.wait_s = outs.iter().map(|o| o.wait_s).sum::<f64>() / outs.len() as f64;
    let reports: Vec<&SpmdReport> = outs.iter().filter_map(|o| o.report.as_ref()).collect();
    rep.vt_setup_s = reports
        .iter()
        .map(|r| r.t_factorization + r.t_deflation + r.t_coarse)
        .fold(0.0, f64::max);
    rep.counts.n_global = decomp.n_global;
    if let Some(r) = reports.first() {
        rep.counts.dim_e = r.dim_e;
        rep.counts.nu = r.nu;
    }
    rep.counts.nnz_e_factor = reports.iter().map(|r| r.nnz_e_factor).max().unwrap_or(0);

    // Set-up solver answers: every subdomain's piece, gathered.
    let mut failed = inputs.rhs.len() - answered;
    for (k, b) in inputs.rhs.iter().enumerate().take(answered) {
        let mut locals = vec![Vec::new(); decomp.n_subdomains()];
        for o in &outs {
            for (s, x) in &o.pieces[k] {
                locals[*s] = x.clone();
            }
        }
        let err = oracle.error(0.0, &decomp.from_locals(&locals), b);
        rep.worst_error = rep.worst_error.max(err);
        let converged = outs.iter().all(|o| o.results[k].1);
        if !(converged && nominal && err <= ACCEPT_ERROR) {
            failed += 1;
            rep.failures.push(format!(
                "set-up solver RHS {k}: converged {converged}, error {err:.3e}"
            ));
        }
        rep.counts.iterations.push(r0.results[k].0);
    }
    rep.attempted = inputs.rhs.len();
    rep.latency_vs = r0.vt_solve_s.clone();

    // Served answers, each against the operator its request asked for.
    if let Some(stream) = &inputs.stream {
        let expected = stream.n_rhs_total();
        rep.attempted += expected;
        rep.latency_vs.clear();
        match &r0.serve {
            Some((wall, report)) => {
                rep.serve_s = *wall;
                rep.served = report.responses.len();
                rep.vt_setup_s = report.t_setup;
                rep.latency_vs = report.responses.iter().map(|r| r.latency).collect();
                rep.counts.serve = [report.solves, report.reused_applies, report.resetups];
                rep.idle_vs = idle_vs(spec, stream, report);
                failed += expected.saturating_sub(report.responses.len());
                for r in &report.responses {
                    let req = &stream.requests[r.req];
                    let err = oracle.error(req.theta(), &r.x, req.rhs(r.rhs));
                    rep.worst_error = rep.worst_error.max(err);
                    if !(r.converged && err <= ACCEPT_ERROR) {
                        failed += 1;
                        rep.failures.push(format!(
                            "request {} RHS {} (θ {}): converged {}, {} iterations, error {err:.3e}",
                            r.req,
                            r.rhs,
                            r.theta,
                            r.converged,
                            r.iterations
                        ));
                    }
                    rep.counts.iterations.push(r.iterations);
                }
            }
            None => failed += expected,
        }
    }
    rep.failed = if rep.errors.is_empty() {
        failed.min(rep.attempted)
    } else {
        rep.attempted
    };
    rep.tracks = outs
        .into_iter()
        .enumerate()
        .map(|(i, o)| (format!("rank{i}"), o.spans))
        .collect();
    rep
}

/// Virtual seconds the server idled until a batch's dispatch instant.
/// `dd-serve` advances its clock over the gap inside the apply phase, so
/// the trace charges it to `solve`; this recomputes it from the batch plan
/// (a pure function of the stream) and the responses' completion times.
fn idle_vs(spec: &Spec, stream: &dd_serve::Workload, report: &ServeReport) -> f64 {
    let completed: BTreeMap<(usize, usize), f64> = report
        .responses
        .iter()
        .map(|r| ((r.req, r.rhs), r.completed))
        .collect();
    let mut clock = report.t_setup;
    let mut idle = 0.0;
    for batch in plan_batches(&stream.requests, &spec.serve_opts().batcher) {
        idle += (batch.dispatch - clock).max(0.0);
        for it in &batch.items {
            clock = clock.max(completed.get(&(it.req, it.rhs)).copied().unwrap_or(clock));
        }
    }
    idle
}

/// Checks an answer against a direct solve of the global operator.
struct Oracle<'a> {
    decomp: &'a dd_core::Decomposition,
    reference: &'a LocalLdlt,
    diag: Vec<f64>,
}

impl<'a> Oracle<'a> {
    fn new(decomp: &'a dd_core::Decomposition, reference: &'a LocalLdlt) -> Self {
        Oracle {
            decomp,
            reference,
            diag: decomp.a_global.diag(),
        }
    }

    /// `‖A⁻¹(b − A(θ) x)‖ / ‖A⁻¹ b‖` with `A(θ) = A + θ·diag(A)` off the
    /// Dirichlet rows: the residual against the operator actually solved,
    /// in the norm of an exact solve of the base operator. At θ = 0 it is
    /// the relative forward error against the direct solution. The plain
    /// `‖b − A x‖ / ‖b‖` is no check at these coefficient contrasts: it
    /// reads above 1 on answers whose forward error is 1e-7.
    fn error(&self, theta: f64, x: &[f64], b: &[f64]) -> f64 {
        let d = self.decomp;
        let mut ax = vec![0.0; d.n_global];
        d.a_global.spmv(x, &mut ax);
        let r: Vec<f64> = (0..d.n_global)
            .map(|i| {
                let shift = if d.dirichlet[i] {
                    0.0
                } else {
                    theta * self.diag[i] * x[i]
                };
                b[i] - ax[i] - shift
            })
            .collect();
        let norm = |v: Vec<f64>| v.iter().map(|a| a * a).sum::<f64>().sqrt();
        norm(self.reference.solve(&r)) / norm(self.reference.solve(b))
    }
}

#[cfg(test)]
mod tests {
    //! Self-tests over the real workloads (run with `cargo test --release`):
    //! the phase vocabulary covers every trace phase, the same seed
    //! reproduces every deterministic counter, and another seed changes
    //! the right-hand sides but no size.

    use super::*;
    use crate::phases;

    /// Per raw trace phase, summed over ranks: messages, bytes,
    /// collectives and charged flops (no times).
    fn trace_counts(rep: &Rep) -> Vec<(String, [u64; 9])> {
        let trace = rep.trace.as_ref().expect("traced rep");
        trace
            .phase_names()
            .into_iter()
            .map(|p| {
                let c = trace.phase_totals(&p);
                let v = [
                    c.sends,
                    c.send_bytes,
                    c.recvs,
                    c.recv_bytes,
                    c.collectives_eq,
                    c.collectives_v,
                    c.collective_bytes,
                    c.collective_msgs,
                    c.flops,
                ];
                (p, v)
            })
            .collect()
    }

    fn nnz_l(spec: &Spec) -> usize {
        let opts = spec.spmd_opts();
        spec.build()
            .decomp
            .subdomains
            .iter()
            .map(|s| {
                LocalLdlt::factor(&s.a_dirichlet, opts.ordering, opts.local_ldlt)
                    .expect("subdomain factorization")
                    .nnz_l()
            })
            .sum()
    }

    fn self_test(spec: &Spec) {
        let mut reference = None;
        let a = run_rep(spec, 11, 0, true, &mut reference);
        let b = run_rep(spec, 11, 0, true, &mut reference);
        let c = run_rep(spec, 12, 0, true, &mut reference);
        for rep in [&a, &b, &c] {
            assert!(rep.errors.is_empty(), "{:?}", rep.errors);
            assert_eq!(rep.failed, 0, "{:?}", rep.failures);
        }
        for (phase, _) in trace_counts(&a) {
            let m = phases::matches(&phase);
            assert_eq!(m.len(), 1, "trace phase {phase:?} maps to {m:?}");
        }
        assert_eq!(a.counts, b.counts, "same seed, different counters");
        assert_eq!(
            trace_counts(&a),
            trace_counts(&b),
            "same seed, different trace"
        );
        assert_eq!(nnz_l(spec), nnz_l(spec));
        let size = |r: &Rep| {
            (
                r.counts.n_global,
                r.counts.dim_e,
                r.counts.nu,
                r.counts.nnz_e_factor,
            )
        };
        assert_eq!(size(&a), size(&c), "another seed changed a size");
        let n = a.counts.n_global;
        assert_ne!(inputs(spec, n, 11, 0).rhs, inputs(spec, n, 12, 0).rhs);
    }

    #[test]
    fn oneshot_self_test() {
        self_test(&SPECS[0]);
    }

    #[test]
    fn serve_self_test() {
        self_test(&SPECS[1]);
    }

    #[test]
    fn coarse_self_test() {
        self_test(&SPECS[2]);
    }
}
