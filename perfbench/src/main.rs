//! The repository benchmark: closed-loop workloads through the engine's
//! public front ends (`RealSession`, `JobService`), every result checked.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload dense_cuboid --seed 1 --seconds 20 --trace 0
//! ```
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics; a traced
//! run (`--trace 1`) reports the per-layer metrics and writes its spans
//! to `.bench_out/<workload>-seed<seed>.trace.json` (Chrome trace-event
//! JSON; open it in Perfetto). The last line of standard output is the
//! result object; the line before it carries the host fingerprint and
//! run details. See `WORKLOADS.md` beside this crate for why each
//! workload exists and which layer metric should move which end-to-end
//! metric.

mod als;
mod dense;
mod gnmf;
mod harness;
mod host;
mod layers;
mod report;
mod stats;
mod trace;

use harness::{JobLayers, RunOpts, Window, SETUPS};
use report::{Outcome, END_TO_END, PER_LAYER};
use std::sync::Arc;
use std::time::Instant;
use trace::Tracer;

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["dense_cuboid", "gnmf_service", "als_elastic"];

/// Plan-cache and ingest counters, read before and after a window.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    /// Plan-cache hits.
    pub plan_hits: u64,
    /// Plan-cache misses.
    pub plan_misses: u64,
    /// Operand blocks newly installed by ingest.
    pub ingest_installed: u64,
    /// Ingest calls served by an already-resident placement.
    pub ingest_reused: u64,
}

/// One workload: how it sets up, what it checks against, how its jobs
/// run, and which layer probes apply to it.
pub trait Workload {
    /// Inputs plus the warm front end jobs run on.
    type State;
    /// What results are checked against.
    type Refs;
    /// Tail percentile (per-mille) reported as `job_tail_s`.
    const TAIL_PERMILLE: u32;
    /// Distinct jobs the client cycles through; windows hold whole cycles.
    const CYCLE: usize;

    /// Generates the inputs from `seed`, creates the front end and runs
    /// the workload's fixed warm-up over every distinct job.
    fn set_up(seed: u64) -> Self::State;

    /// Computes the correctness references (outside set-up and windows).
    fn references(state: &Self::State) -> Self::Refs;

    /// Runs closed-loop jobs for `seconds` (and at least `min_jobs`);
    /// with a tracer, each job is traced and its layers returned.
    fn window(
        state: &mut Self::State,
        refs: &Self::Refs,
        seconds: f64,
        min_jobs: usize,
        tracer: Option<&Arc<Tracer>>,
    ) -> (Window, Vec<JobLayers>);

    /// The front end's plan-cache and ingest counters.
    fn counters(state: &Self::State) -> Counters;

    /// The layer probes and window-level layer metrics of a traced run.
    fn layer_probes(state: &mut Self::State, jobs: &[JobLayers], seed: u64, out: &mut Outcome);
}

/// Runs workload `W` as `opts` asks.
fn run<W: Workload>(name: &str, opts: &RunOpts) -> Outcome {
    let mut out = Outcome::default();
    if !opts.trace {
        let mut setups = Vec::with_capacity(SETUPS);
        let mut state = None;
        for _ in 0..SETUPS {
            drop(state.take());
            let t = Instant::now();
            state = Some(W::set_up(opts.seed));
            setups.push(t.elapsed().as_secs_f64());
        }
        let mut state = state.expect("at least one set-up");
        let refs = W::references(&state);
        let min = harness::min_jobs(W::TAIL_PERMILLE, W::CYCLE);
        let (w, _) = W::window(&mut state, &refs, opts.seconds, min, None);
        harness::end_to_end(&mut out, &setups, &w, W::TAIL_PERMILLE);
        return out;
    }

    let mut state = W::set_up(opts.seed);
    let refs = W::references(&state);
    let half = opts.seconds / 2.0;
    let (untraced, _) = W::window(&mut state, &refs, half, W::CYCLE, None);
    let tracer = Arc::new(Tracer::new());
    let before = W::counters(&state);
    let (traced, jobs) = W::window(&mut state, &refs, half, W::CYCLE, Some(&tracer));
    let after = W::counters(&state);
    for w in [&untraced, &traced] {
        out.attempted += w.samples.len() as u64;
        out.failed += w.samples.iter().filter(|s| !s.ok).count() as u64;
    }
    harness::job_layer_metrics(&mut out, &jobs);
    let (hit_ratio, lookups) = harness::ratio(
        after.plan_hits - before.plan_hits,
        after.plan_misses - before.plan_misses,
    );
    out.set("core.plan_cache_hit_ratio", hit_ratio);
    out.set("core.plan_cache_lookups", lookups);
    let (reuse_ratio, ingests) = harness::ratio(
        after.ingest_reused - before.ingest_reused,
        after.ingest_installed - before.ingest_installed,
    );
    out.set("cluster.ingest_reuse_ratio", reuse_ratio);
    out.set("cluster.ingest_blocks", ingests);
    out.set(
        "trace.overhead_frac",
        1.0 - traced.jobs_per_s() / untraced.jobs_per_s(),
    );
    out.note(
        "untraced_jobs_per_s",
        report::json_num(untraced.jobs_per_s()),
    );
    out.note("traced_jobs_per_s", report::json_num(traced.jobs_per_s()));
    W::layer_probes(&mut state, &jobs, opts.seed, &mut out);

    let path = format!(".bench_out/{name}-seed{}.trace.json", opts.seed);
    match std::fs::create_dir_all(".bench_out")
        .and_then(|()| std::fs::write(&path, tracer.chrome_json()))
    {
        Ok(()) => out.note("trace_file", report::json_str(&path)),
        Err(e) => eprintln!("perfbench: could not write {path}: {e}"),
    }
    out
}

fn parse_args() -> Result<(String, RunOpts), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err(format!("--seconds {value}: want 0 < seconds <= 60"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: want 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (want one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok((
        workload,
        RunOpts {
            seed,
            seconds,
            trace,
        },
    ))
}

/// Pins glibc malloc's tunables before any work starts. By default glibc
/// raises its mmap threshold as the allocation history goes and spreads
/// threads over up to eight arenas per core, so identical runs page in
/// different amounts of memory and land at different speeds and peak
/// RSS. Fixed values make runs repeat: two arenas, blocks up to 32 MiB
/// from the heap, and freed heap memory kept for reuse.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn steady_malloc() {
    use std::os::raw::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    const M_TRIM_THRESHOLD: c_int = -1;
    const M_MMAP_THRESHOLD: c_int = -3;
    const M_ARENA_MAX: c_int = -8;
    for (param, value) in [
        (M_ARENA_MAX, 2),
        (M_MMAP_THRESHOLD, 32 << 20),
        (M_TRIM_THRESHOLD, 512 << 20),
    ] {
        // SAFETY: `mallopt` only sets allocator parameters; it runs before
        // the benchmark starts any thread, with parameters and values in
        // the ranges glibc documents.
        unsafe {
            mallopt(param, value);
        }
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn steady_malloc() {}

fn main() {
    steady_malloc();
    let (workload, opts) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let host = host::Fingerprint::detect();
    let outcome = match workload.as_str() {
        "dense_cuboid" => run::<dense::DenseCuboid>(&workload, &opts),
        "gnmf_service" => run::<gnmf::GnmfService>(&workload, &opts),
        _ => run::<als::AlsElastic>(&workload, &opts),
    };
    let catalog = if opts.trace { PER_LAYER } else { END_TO_END };
    for (name, value) in &outcome.metrics {
        eprintln!("perfbench: {workload} {name} = {value}");
    }
    println!(
        "{}",
        report::detail_line(&workload, opts.seed, &host, &outcome)
    );
    println!("{}", report::result_line(&outcome, catalog));
}
