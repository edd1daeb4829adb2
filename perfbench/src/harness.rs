//! What every workload shares: seeded inputs, result fingerprints, the
//! closed-loop driver, and the reduction of job samples to metrics.

use crate::report::{json_num, Outcome};
use crate::stats::{median, min_samples_for, tail};
use crate::trace::OpLog;
use distme_cluster::{JobStats, Phase};
use distme_matrix::{Block, BlockMatrix, MatrixGenerator, MatrixMeta};
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// What a run was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    /// Input seed: every generated matrix and factor seed derives from it.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

/// `splitmix64(seed ⊕ tag)`: independent sub-seeds from one seed.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A matrix drawn from `seed` with values in `[lo, hi)`.
pub fn generate(meta: MatrixMeta, seed: u64, lo: f64, hi: f64) -> BlockMatrix {
    MatrixGenerator::with_seed(seed)
        .value_range(lo, hi)
        .generate(&meta)
        .expect("benchmark metas have valid sparsity")
}

/// A 64-bit fingerprint of a matrix's exact contents: shape, block ids,
/// storage format and every value's bits. Equal fingerprints stand in for
/// bit-identical results.
pub fn fingerprint(m: &BlockMatrix) -> u64 {
    const P: u64 = 0x0000_0100_0000_01B3;
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |x: u64| h = (h ^ x).wrapping_mul(P);
    eat(m.meta().rows);
    eat(m.meta().cols);
    for (id, blk) in m.blocks() {
        eat((u64::from(id.row) << 32) | u64::from(id.col));
        match blk {
            Block::Dense(d) => {
                eat(1);
                d.data().iter().for_each(|v| eat(v.to_bits()));
            }
            Block::Sparse(s) => {
                eat(2);
                s.row_ptr().iter().for_each(|&p| eat(u64::from(p)));
                s.col_idx().iter().for_each(|&c| eat(u64::from(c)));
                s.values().iter().for_each(|v| eat(v.to_bits()));
            }
        }
    }
    h
}

/// One finished (or failed) job.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Seconds from submission to result.
    pub latency_s: f64,
    /// Useful flops of the job, counted from the submitted shapes.
    pub flops: f64,
    /// Returned without error and passed its correctness check.
    pub ok: bool,
}

/// The jobs of one timed window and its length.
#[derive(Debug, Default)]
pub struct Window {
    /// Every job attempted, in completion order.
    pub samples: Vec<Sample>,
    /// Window seconds, excluding the client's correctness checks.
    pub secs: f64,
}

impl Window {
    /// Folds another client's window into this one: samples concatenate,
    /// the window lasts as long as the longer client.
    pub fn absorb(&mut self, other: Window) {
        self.samples.extend(other.samples);
        self.secs = self.secs.max(other.secs);
    }

    /// Completed (correct) jobs per second.
    pub fn jobs_per_s(&self) -> f64 {
        self.samples.iter().filter(|s| s.ok).count() as f64 / self.secs
    }
}

/// Runs `job(i)` for i = 0, 1, … as one closed-loop client until
/// `seconds` have passed, at least `min_jobs` jobs ran, and the count is
/// a multiple of `cycle` (so a window always holds whole cycles of the
/// workload's distinct jobs). `job` returns its sample and the seconds it
/// spent checking the result, which the window excludes.
pub fn closed_loop(
    seconds: f64,
    min_jobs: usize,
    cycle: usize,
    mut job: impl FnMut(usize) -> (Sample, f64),
) -> Window {
    let start = Instant::now();
    let mut w = Window::default();
    let mut checking = 0.0;
    while start.elapsed().as_secs_f64() - checking < seconds
        || w.samples.len() < min_jobs
        || w.samples.len() % cycle != 0
    {
        let (sample, check_s) = job(w.samples.len());
        w.samples.push(sample);
        checking += check_s;
    }
    w.secs = start.elapsed().as_secs_f64() - checking;
    w
}

/// Jobs a window must hold for the `permille` tail to be reportable,
/// rounded up to whole cycles.
pub fn min_jobs(permille: u32, cycle: usize) -> usize {
    min_samples_for(permille).div_ceil(cycle) * cycle
}

/// Fills the end-to-end metrics and job accounting of an untraced run.
pub fn end_to_end(out: &mut Outcome, setups: &[f64], w: &Window, tail_permille: u32) {
    let latencies: Vec<f64> = w.samples.iter().map(|s| s.latency_s).collect();
    let flops: f64 = w.samples.iter().filter(|s| s.ok).map(|s| s.flops).sum();
    let t = tail(&latencies, tail_permille).expect("the window holds enough jobs for its tail");
    out.attempted += w.samples.len() as u64;
    out.failed += w.samples.iter().filter(|s| !s.ok).count() as u64;
    out.set("setup_s", median(setups));
    out.set("jobs_per_s", w.jobs_per_s());
    out.set("gflops", flops / w.secs / 1e9);
    out.set("job_p50_s", median(&latencies));
    out.set("job_tail_s", t.value);
    out.set("peak_rss_mb", crate::host::peak_rss_mb());
    out.note(
        "job_tail",
        format!(
            "{{\"percentile\": {}, \"samples\": {}, \"beyond\": {}}}",
            json_num(f64::from(t.permille) / 10.0),
            t.samples,
            t.beyond
        ),
    );
    out.note("window_s", json_num(w.secs));
    out.note(
        "setup_runs_s",
        format!(
            "[{}]",
            setups
                .iter()
                .map(|&s| json_num(s))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    );
}

/// What a traced job did, as seen from outside the engine.
#[derive(Debug, Default, Clone)]
pub struct JobLayers {
    /// Job wall seconds (submission to result).
    pub wall_s: f64,
    /// Submission to the first line of the job closure (service only).
    pub start_delay_s: f64,
    /// The job's operators, summed.
    pub ops: OpLog,
    /// Ledger communication bytes charged during the job.
    pub shuffle_bytes: f64,
    /// Transport moves during the job.
    pub moves: f64,
    /// Store-resident bytes right after the job.
    pub resident_bytes: f64,
    /// Parity blocks encoded outside the operators (resize re-encode).
    pub extra_parity_blocks: u64,
    /// The job's resize, if it ran one: seconds, moves, payload bytes.
    pub resize: Option<(f64, u64, u64)>,
}

fn med(jobs: &[JobLayers], f: impl Fn(&JobLayers) -> f64) -> f64 {
    median(&jobs.iter().map(f).collect::<Vec<_>>())
}

fn phase_secs(s: &JobStats, p: Phase) -> f64 {
    s.phase(p).secs
}

/// Fills the per-layer metrics that come from traced jobs (medians over
/// jobs; the unexplained share is pooled over all job wall time).
pub fn job_layer_metrics(out: &mut Outcome, jobs: &[JobLayers]) {
    let phases = |s: &JobStats| {
        phase_secs(s, Phase::Repartition)
            + phase_secs(s, Phase::LocalMult)
            + phase_secs(s, Phase::Aggregation)
    };
    out.set(
        "core.rep_s",
        med(jobs, |j| phase_secs(&j.ops.stats, Phase::Repartition)),
    );
    out.set(
        "core.mult_s",
        med(jobs, |j| phase_secs(&j.ops.stats, Phase::LocalMult)),
    );
    out.set(
        "core.agg_s",
        med(jobs, |j| phase_secs(&j.ops.stats, Phase::Aggregation)),
    );
    out.set(
        "core.exec_overhead_s",
        med(jobs, |j| {
            (j.ops.stats.elapsed_secs - phases(&j.ops.stats)).max(0.0)
        }),
    );
    out.set(
        "core.tasks_per_job",
        med(jobs, |j| {
            j.ops.stats.phases.iter().map(|p| p.tasks).sum::<usize>() as f64
        }),
    );
    out.set(
        "cluster.shuffle_bytes_per_job",
        med(jobs, |j| j.shuffle_bytes),
    );
    out.set(
        "cluster.payload_bytes_per_job",
        med(jobs, |j| j.ops.stats.transport_payload_bytes as f64),
    );
    out.set("cluster.moves_per_job", med(jobs, |j| j.moves));
    out.set(
        "cluster.parity_blocks_per_job",
        med(jobs, |j| {
            (j.ops.stats.parity_blocks_encoded + j.extra_parity_blocks) as f64
        }),
    );
    out.set(
        "cluster.resident_mb",
        med(jobs, |j| j.resident_bytes / (1 << 20) as f64),
    );
    let resizes: Vec<&(f64, u64, u64)> = jobs.iter().filter_map(|j| j.resize.as_ref()).collect();
    let resize_med = |f: &dyn Fn(&(f64, u64, u64)) -> f64| {
        median(&resizes.iter().map(|r| f(r)).collect::<Vec<_>>())
    };
    out.set("cluster.resize_s", resize_med(&|r| r.0));
    out.set("cluster.resize_moves", resize_med(&|r| r.1 as f64));
    out.set("cluster.resize_payload_bytes", resize_med(&|r| r.2 as f64));
    out.set("engine.start_delay_s", med(jobs, |j| j.start_delay_s));
    out.set(
        "engine.driver_s",
        med(jobs, |j| {
            let resize = j.resize.map_or(0.0, |r| r.0);
            j.wall_s - j.start_delay_s - resize - j.ops.stats.elapsed_secs
        }),
    );
    out.set("engine.ops_per_job", med(jobs, |j| j.ops.ops as f64));
    let wall: f64 = jobs.iter().map(|j| j.wall_s).sum();
    let covered: f64 = jobs
        .iter()
        .map(|j| (j.ops.covered_s + j.start_delay_s).min(j.wall_s))
        .sum();
    out.set("trace.unexplained_frac", 1.0 - covered / wall);
}

/// `hits / (hits + misses)` and its base, for the ratio metrics.
pub fn ratio(hits: u64, misses: u64) -> (f64, f64) {
    let base = hits + misses;
    let r = if base == 0 {
        0.0
    } else {
        hits as f64 / base as f64
    };
    (r, base as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let meta = MatrixMeta::sparse(96, 64, 0.1).with_block_size(16);
        let a = generate(meta, mix(7, 1), 1.0, 5.0);
        let b = generate(meta, mix(7, 1), 1.0, 5.0);
        let c = generate(meta, mix(8, 1), 1.0, 5.0);
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_ne!(fingerprint(&a), fingerprint(&c));
        assert_ne!(mix(7, 1), mix(7, 2));
        let d = MatrixMeta::dense(64, 48).with_block_size(16);
        assert_eq!(
            fingerprint(&generate(d, 3, -1.0, 1.0)),
            fingerprint(&generate(d, 3, -1.0, 1.0))
        );
    }

    #[test]
    fn fingerprints_see_single_bit_changes() {
        let meta = MatrixMeta::dense(32, 32).with_block_size(16);
        let a = generate(meta, 1, -1.0, 1.0);
        let mut b = a.clone();
        let blk = match b.get(1, 1).expect("dense block") {
            Block::Dense(d) => {
                let mut d = d.clone();
                let x = d.get(3, 4);
                d.set(3, 4, f64::from_bits(x.to_bits() ^ 1));
                Block::Dense(d)
            }
            Block::Sparse(_) => unreachable!("dense meta"),
        };
        b.put(1, 1, blk).expect("in bounds");
        assert_ne!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn failed_jobs_are_counted_against_attempts() {
        let w = Window {
            samples: (0..20)
                .map(|i| Sample {
                    latency_s: 0.01 * (i + 1) as f64,
                    flops: 10.0,
                    ok: i % 10 != 3,
                })
                .collect(),
            secs: 1.0,
        };
        let mut out = Outcome::default();
        end_to_end(&mut out, &[0.5], &w, 500);
        assert_eq!((out.attempted, out.failed), (20, 2));
        assert!((out.failed_frac() - 0.1).abs() < 1e-12);
        let get = |n: &str| out.metrics.iter().find(|(m, _)| *m == n).expect(n).1;
        assert!(
            (get("jobs_per_s") - 18.0).abs() < 1e-9,
            "failed jobs do not complete"
        );
        assert!(
            (get("gflops") - 180.0 / 1e9).abs() < 1e-18,
            "failed flops are not useful"
        );
    }

    #[test]
    fn closed_loop_runs_whole_cycles_and_minimum_counts() {
        let w = closed_loop(0.0, 7, 3, |_| {
            (
                Sample {
                    latency_s: 0.0,
                    flops: 0.0,
                    ok: true,
                },
                0.0,
            )
        });
        assert_eq!(w.samples.len(), 9);
        assert_eq!(min_jobs(600, 3), 27);
        assert_eq!(min_jobs(900, 1), 100);
    }
}
