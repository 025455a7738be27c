//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it repeats the workload, untraced, until `--seconds`
//! have passed and prints the end-to-end metrics; with `--trace 1` it runs
//! one untraced and one traced rep plus per-layer probes and prints the
//! per-layer metrics. The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. `--workload all` runs
//! every workload in its own process and prints each one's line.

mod layers;
mod phases;
mod spans;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{run_rep, Pipeline, Rep, Spec, SPECS};

/// Reps a timed run makes at least, whatever `--seconds` says, so every
/// set-up metric is a median of several set-ups.
const MIN_REPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    t => return Err(format!("--trace must be 0 or 1, got {t}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Metrics by name: `(value, unit)`.
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// Linear-interpolation percentile, `p` in `[0, 100]`.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = p / 100.0 * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// What a run prints.
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Metrics,
    /// Lines for the readable report on standard error.
    pub notes: Vec<String>,
}

/// `--trace 0`: untraced reps (at least [`MIN_REPS`]) until `seconds`
/// have passed, folded into the end-to-end metrics.
fn timed_run(spec: &Spec, seed: u64, seconds: f64) -> Outcome {
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut reference = None;
    while reps.len() < MIN_REPS || started.elapsed().as_secs_f64() < seconds {
        reps.push(run_rep(
            spec,
            seed,
            reps.len() as u64,
            false,
            &mut reference,
        ));
    }
    let pool = |f: fn(&Rep) -> &Vec<f64>| -> Vec<f64> {
        reps.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let each = |f: fn(&Rep) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };
    let latency = pool(|r| &r.latency_vs);
    let mut m = Metrics::new();
    m.insert("setup_s".into(), (median(&each(|r| r.setup_s)), "s"));
    m.insert("vt_setup_s".into(), (median(&each(|r| r.vt_setup_s)), "s"));
    m.insert("solve_s".into(), (median(&pool(|r| &r.solve_s)), "s"));
    m.insert("vt_solve_s".into(), (median(&pool(|r| &r.vt_solve_s)), "s"));
    m.insert(
        "time_to_solution_s".into(),
        (median(&each(|r| r.time_to_solution_s)), "s"),
    );
    // Served RHS per wall second of `try_serve`; without a server, the
    // closed-loop rate of the set-up solver, one RHS at a time.
    let rhs_per_s = if spec.pipeline == Pipeline::Serve {
        median(&each(|r| r.served as f64 / r.serve_s))
    } else {
        1.0 / median(&pool(|r| &r.solve_s))
    };
    m.insert("rhs_per_s".into(), (rhs_per_s, "1/s"));
    m.insert("latency_p50_vs".into(), (percentile(&latency, 50.0), "s"));
    m.insert("latency_p90_vs".into(), (percentile(&latency, 90.0), "s"));
    // The first rep's high-water mark: later ones include the answer
    // oracle the benchmark builds after it.
    m.insert("peak_rss_mb".into(), (reps[0].peak_rss_mb, "MiB"));

    let attempted = reps.iter().map(|r| r.attempted).sum();
    let walls: Vec<String> = reps.iter().map(|r| format!("{:.2}", r.wall_s)).collect();
    let mut notes = vec![
        format!("{} reps, {attempted} RHS answered and checked", reps.len()),
        format!("rep walls (s): {}", walls.join(" ")),
        format!(
            "worst answer error {:.3e} (accepted up to {:.0e})",
            reps.iter().map(|r| r.worst_error).fold(0.0, f64::max),
            workloads::ACCEPT_ERROR
        ),
        format!(
            "samples: {} set-up-solver solves, {} latencies",
            reps.iter().map(|r| r.solve_s.len()).sum::<usize>(),
            latency.len()
        ),
    ];
    for r in &reps {
        notes.extend(r.errors.iter().chain(&r.failures).cloned());
    }
    Outcome {
        correct: true,
        attempted,
        failed: reps.iter().map(|r| r.failed).sum(),
        metrics: m,
        notes,
    }
}

fn json_line(out: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.correct, out.attempted, out.failed
    );
    for (i, (name, (value, unit))) in out.metrics.iter().enumerate() {
        let _ = write!(
            s,
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    s.push_str("}}");
    s
}

/// Run one workload and print its result line.
fn run_one(spec: &Spec, args: &Args) {
    let mut out = if args.trace {
        layers::traced_run(spec, args.seed)
    } else {
        timed_run(spec, args.seed, args.seconds)
    };
    out.correct &= out.failed == 0 && out.metrics.values().all(|(v, _)| v.is_finite());
    eprintln!(
        "# {} (seed {}, trace {})",
        spec.name,
        args.seed,
        u8::from(args.trace)
    );
    for n in &out.notes {
        eprintln!("#   {n}");
    }
    for (name, (value, unit)) in &out.metrics {
        eprintln!("{name:>36} {value:>14.6} {unit}");
    }
    eprintln!(
        "{:>36} {:>14.6}",
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64
    );
    println!("{}", json_line(&out));
}

/// `--workload all`: each workload in a child process of its own, so each
/// one's peak resident memory is its own.
fn run_all(args: &Args) -> bool {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("cannot locate the benchmark executable");
        return false;
    };
    let mut ok = true;
    for spec in &SPECS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", spec.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = if args.workload == "all" {
        run_all(&args)
    } else {
        match workloads::spec(&args.workload) {
            Some(spec) => {
                run_one(spec, &args);
                true
            }
            None => {
                let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
                eprintln!("perfbench: unknown workload {} ({names:?})", args.workload);
                return ExitCode::from(2);
            }
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
