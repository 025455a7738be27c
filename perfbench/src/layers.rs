//! The traced run: per-layer metrics.
//!
//! One untraced and one traced rep on the same inputs (their wall-time
//! difference is the tracing overhead, and their deterministic counters
//! must agree), the traced rep's `WorldTrace` folded onto the shared phase
//! vocabulary, and probes that time the benchmark's own calls into the
//! local layers (`LocalLdlt::factor`/`solve`, `try_deflation_block`,
//! `Subdomain::spmv_dirichlet`) under spans.

use crate::spans::{self, Span, Track};
use crate::workloads::{run_rep, Pipeline, Spec};
use crate::{median, phases, Metrics, Outcome};
use dd_comm::{PhaseCounters, WorldTrace};
use dd_core::{try_deflation_block, Subdomain};
use dd_solver::LocalLdlt;
use std::time::Instant;

/// Seconds each sweep probe (local solves, SpMV) runs at least.
const SWEEP_SECONDS: f64 = 0.3;

/// `--trace 1`. The outcome is correct only if the deterministic counters
/// agree between the two reps and every trace phase maps to exactly one
/// reported name.
pub fn traced_run(spec: &Spec, seed: u64) -> Outcome {
    let mut reference = None;
    let plain = run_rep(spec, seed, 0, false, &mut reference);
    let traced = run_rep(spec, seed, 0, true, &mut reference);
    let mut notes: Vec<String> = [&plain, &traced]
        .iter()
        .flat_map(|r| r.errors.iter().chain(&r.failures))
        .cloned()
        .collect();
    let mut consistent = true;
    if plain.counts != traced.counts {
        consistent = false;
        notes.push(format!(
            "deterministic counters differ between untraced and traced reps: {:?} vs {:?}",
            plain.counts, traced.counts
        ));
    }
    let Some(trace) = traced.trace.as_ref() else {
        unreachable!("a traced rep carries its trace")
    };
    for phase in trace.phase_names() {
        let m = phases::matches(&phase);
        if m.len() != 1 {
            consistent = false;
            notes.push(format!("trace phase {phase:?} maps to {m:?}"));
        }
    }

    let origin = Instant::now();
    let mut track = Track::new(origin, true);
    let probe = probe_layers(spec, &mut track);
    let mut tracks = traced.tracks.clone();
    tracks.push(("probe".to_string(), track.into_spans()));
    let self_s = spans::self_times(&tracks);
    let st = |name: &str| self_s.get(name).copied().unwrap_or(0.0);
    if let Err(e) = write_spans(spec, seed, &tracks) {
        notes.push(format!("spans not written: {e}"));
    }

    let mut m = Metrics::new();
    m.insert("decomp.decompose_s".into(), (st("decompose"), "s"));
    m.insert("solver.factor_s".into(), (st("solver.factor"), "s"));
    m.insert("solver.nnz_l".into(), (probe.nnz_l as f64, "count"));
    m.insert("eigen.deflation_s".into(), (st("eigen.deflation"), "s"));
    m.insert("eigen.nu".into(), (probe.nu as f64, "count"));
    m.insert(
        "solver.local_solve_s".into(),
        (st("solver.local_solve") / probe.sweeps_solve as f64, "s"),
    );
    let spmv_s = st("linalg.spmv") / probe.sweeps_spmv as f64;
    m.insert("linalg.spmv_s".into(), (spmv_s, "s"));
    m.insert(
        "linalg.spmv_gbs_computed".into(),
        (probe.spmv_bytes as f64 / spmv_s / 1e9, "GB/s"),
    );

    let iters = &traced.counts.iterations;
    let total_iters: usize = iters.iter().sum();
    m.insert(
        "krylov.iterations".into(),
        (total_iters as f64 / iters.len().max(1) as f64, "count"),
    );
    let per_iter = |t: &[f64]| -> Vec<f64> {
        t.iter()
            .zip(&plain.counts.iterations)
            .map(|(t, &k)| t / k.max(1) as f64)
            .collect()
    };
    m.insert(
        "krylov.iter_s".into(),
        (median(&per_iter(&plain.solve_s)), "s"),
    );
    m.insert(
        "krylov.vt_iter_s".into(),
        (median(&per_iter(&plain.vt_solve_s)), "s"),
    );

    let folded = fold_phases(trace);
    let get = |name: &str| folded.get(name).copied().unwrap_or_default();
    let mut solve = get("solve");
    add_phase(&mut solve, &get("e-solve"));
    let per = total_iters.max(1) as f64;
    m.insert(
        "comm.solve.msgs_per_iter".into(),
        ((solve.sends + solve.collective_msgs) as f64 / per, "count"),
    );
    m.insert(
        "comm.solve.bytes_per_iter".into(),
        (
            (solve.send_bytes + solve.collective_bytes) as f64 / per,
            "B",
        ),
    );
    m.insert(
        "comm.solve.collectives_per_iter".into(),
        (
            (solve.collectives_eq + solve.collectives_v) as f64 / per,
            "count",
        ),
    );
    let mut setup = PhaseCounters::default();
    for name in phases::SETUP {
        add_phase(&mut setup, &get(name));
    }
    m.insert(
        "comm.setup.msgs".into(),
        ((setup.sends + setup.collective_msgs) as f64, "count"),
    );
    m.insert(
        "comm.setup.bytes".into(),
        ((setup.send_bytes + setup.collective_bytes) as f64, "B"),
    );
    m.insert(
        "comm.wait_s".into(),
        (plain.wait_s / plain.attempted.max(1) as f64, "s"),
    );
    for name in phases::NAMES {
        let c = get(name);
        let idle = if name == "solve" { traced.idle_vs } else { 0.0 };
        m.insert(format!("phase.{name}.vt_s"), (c.t_virtual - idle, "s"));
        m.insert(format!("phase.{name}.flops"), (c.flops as f64, "count"));
    }
    m.insert("coarse.dim_e".into(), (traced.counts.dim_e as f64, "count"));
    m.insert(
        "coarse.nnz_e_factor".into(),
        (traced.counts.nnz_e_factor as f64, "count"),
    );
    let [solves, reused, resetups] = traced.counts.serve;
    let served = traced.counts.iterations.len() - traced.vt_solve_s.len();
    let per_response = if spec.pipeline == Pipeline::Serve {
        solves as f64 / served.max(1) as f64
    } else {
        0.0
    };
    m.insert("serve.solves_per_response".into(), (per_response, "ratio"));
    m.insert("serve.reused_applies".into(), (reused as f64, "count"));
    m.insert("serve.resetups".into(), (resetups as f64, "count"));
    m.insert("serve.idle_vs".into(), (traced.idle_vs, "s"));
    m.insert(
        "trace.overhead_s".into(),
        (traced.wall_s - plain.wall_s, "s"),
    );
    let (attempted, failed) = (
        plain.attempted + traced.attempted,
        plain.failed + traced.failed,
    );
    m.insert(
        "failed_frac".into(),
        (failed as f64 / attempted.max(1) as f64, "ratio"),
    );
    notes.push(format!(
        "untraced rep {:.3} s, traced rep {:.3} s; {} trace phases",
        plain.wall_s,
        traced.wall_s,
        trace.phase_names().len()
    ));
    Outcome {
        correct: consistent,
        attempted,
        failed,
        metrics: m,
        notes,
    }
}

/// Accumulate a *different* phase into `acc`: counts and virtual times
/// both add (`PhaseCounters::absorb` takes the max time, for ranks).
fn add_phase(acc: &mut PhaseCounters, o: &PhaseCounters) {
    let t = acc.t_virtual + o.t_virtual;
    acc.absorb(o);
    acc.t_virtual = t;
}

/// Trace counters per reported phase name: counts summed over ranks and
/// over the raw phases that map to the name; virtual time the max over
/// ranks of each raw phase, summed over raw phases.
pub fn fold_phases(trace: &WorldTrace) -> std::collections::BTreeMap<&'static str, PhaseCounters> {
    let mut out = std::collections::BTreeMap::new();
    for raw in trace.phase_names() {
        if let Some(name) = phases::map(&raw) {
            add_phase(out.entry(name).or_default(), &trace.phase_totals(&raw));
        }
    }
    out
}

struct Probe {
    nnz_l: usize,
    nu: usize,
    sweeps_solve: usize,
    sweeps_spmv: usize,
    /// Bytes one SpMV sweep touches, computed from the array sizes.
    spmv_bytes: usize,
}

/// Time the local layers on every subdomain of a fresh decomposition:
/// one factorization and one GenEO eigensolve each, then whole sweeps of
/// local solves and of Dirichlet SpMVs for at least [`SWEEP_SECONDS`].
fn probe_layers(spec: &Spec, track: &mut Track) -> Probe {
    let opts = spec.spmd_opts();
    let decomp = spec.build().decomp;
    let subs = &decomp.subdomains;
    let mut probe = Probe {
        nnz_l: 0,
        nu: 0,
        sweeps_solve: 0,
        sweeps_spmv: 0,
        spmv_bytes: subs.iter().map(spmv_bytes).sum(),
    };
    let mut factors = Vec::with_capacity(subs.len());
    for sub in subs {
        let f = track.span("solver.factor", || {
            LocalLdlt::factor(&sub.a_dirichlet, opts.ordering, opts.local_ldlt)
        });
        match f {
            Ok(f) => {
                probe.nnz_l += f.nnz_l();
                factors.push(f);
            }
            Err(e) => panic!("local factorization failed in the probe: {e}"),
        }
        let block = track.span("eigen.deflation", || try_deflation_block(sub, &opts.geneo));
        if let Ok(b) = block {
            probe.nu = probe.nu.max(b.kept);
        }
    }
    let rhs: Vec<Vec<f64>> = subs.iter().map(|s| probe_vector(s.n_local())).collect();
    let mut work: Vec<Vec<f64>> = rhs.clone();
    let t = Instant::now();
    while probe.sweeps_solve == 0 || t.elapsed().as_secs_f64() < SWEEP_SECONDS {
        for ((f, b), w) in factors.iter().zip(&rhs).zip(&mut work) {
            w.copy_from_slice(b);
            track.span("solver.local_solve", || f.solve_in_place(w));
        }
        probe.sweeps_solve += 1;
    }
    let t = Instant::now();
    while probe.sweeps_spmv == 0 || t.elapsed().as_secs_f64() < SWEEP_SECONDS {
        for ((s, x), y) in subs.iter().zip(&rhs).zip(&mut work) {
            track.span("linalg.spmv", || s.spmv_dirichlet(x, y));
        }
        probe.sweeps_spmv += 1;
    }
    std::hint::black_box(&work);
    probe
}

fn probe_vector(n: usize) -> Vec<f64> {
    (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.125).collect()
}

/// Bytes one `spmv_dirichlet` reads and writes, from the array sizes of
/// the storage it runs on: values, column indices, row pointers, `x`, `y`.
fn spmv_bytes(s: &Subdomain) -> usize {
    let n = s.n_local();
    let matrix = match &s.a_dirichlet_bsr {
        Some(b) => b.nnz_stored() * 8 + b.n_blocks() * 4 + (b.rows() / b.block_size() + 1) * 8,
        None => {
            let a = &s.a_dirichlet;
            a.nnz() * (8 + 4) + (a.rows() + 1) * 8
        }
    };
    matrix + 2 * n * 8
}

fn write_spans(spec: &Spec, seed: u64, tracks: &[(String, Vec<Span>)]) -> std::io::Result<()> {
    let dir = std::path::Path::new("perfbench").join("out");
    std::fs::create_dir_all(&dir)?;
    std::fs::write(
        dir.join(format!("spans-{}-{seed}.json", spec.name)),
        spans::to_json(tracks),
    )
}
