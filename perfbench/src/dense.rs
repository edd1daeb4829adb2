//! `dense_cuboid`: one client on a `RealSession` cycles three dense
//! products of equal flops — square, outer and inner — so the optimizer
//! picks a different (P, Q, R) per shape while flops per job stay fixed.

use crate::harness::{self, fingerprint, generate, mix, JobLayers, Sample, Window};
use crate::layers;
use crate::report::Outcome;
use crate::trace::{Traced, Tracer};
use crate::{Counters, Workload};
use distme_cluster::ClusterConfig;
use distme_engine::session::{RealOps, RealSession};
use distme_engine::SystemProfile;
use distme_matrix::{BlockMatrix, MatrixMeta};
use std::sync::Arc;
use std::time::Instant;

/// Block edge of every operand.
const BS: u64 = 512;
/// `(m, k, n)` of the square, outer and inner products: 2·m·k·n is the
/// same 17.2 GFLOP for each.
const SHAPES: [(u64, u64, u64); 3] = [(2048, 2048, 2048), (4096, 512, 4096), (1024, 8192, 1024)];
/// Largest element-wise distance from the single-node reference, as in
/// the repository's correctness tests.
const TOLERANCE: f64 = 1e-9;

pub struct DenseCuboid;

pub struct State {
    session: RealSession,
    pairs: Vec<(BlockMatrix, BlockMatrix)>,
    /// Fingerprint of each shape's first (warm-up) product.
    first: Vec<u64>,
}

fn flops(i: usize) -> f64 {
    let (m, k, n) = SHAPES[i];
    2.0 * (m * k * n) as f64
}

/// Drops a checked product's placement from the stores. Without it the
/// residency cache would keep the last 64 products (gigabytes here), and
/// peak RSS would track how many jobs the window happened to finish.
fn release(session: &RealSession, c: &BlockMatrix) {
    session.cluster().stores().evict_matrix(c.uid());
}

impl Workload for DenseCuboid {
    type State = State;
    type Refs = Vec<BlockMatrix>;
    const TAIL_PERMILLE: u32 = 600;
    const CYCLE: usize = 3;

    fn set_up(seed: u64) -> State {
        let pairs: Vec<(BlockMatrix, BlockMatrix)> = SHAPES
            .iter()
            .enumerate()
            .map(|(i, &(m, k, n))| {
                let i = i as u64;
                (
                    generate(
                        MatrixMeta::dense(m, k).with_block_size(BS),
                        mix(seed, 2 * i),
                        -1.0,
                        1.0,
                    ),
                    generate(
                        MatrixMeta::dense(k, n).with_block_size(BS),
                        mix(seed, 2 * i + 1),
                        -1.0,
                        1.0,
                    ),
                )
            })
            .collect();
        let mut session = RealSession::new(ClusterConfig::laptop(), SystemProfile::DistMe);
        let first = pairs
            .iter()
            .map(|(a, b)| {
                let c = session.matmul(a, b).expect("the warm-up product runs");
                release(&session, &c);
                fingerprint(&c)
            })
            .collect();
        State {
            session,
            pairs,
            first,
        }
    }

    fn references(state: &State) -> Vec<BlockMatrix> {
        state
            .pairs
            .iter()
            .map(|(a, b)| a.multiply(b).expect("reference shapes agree"))
            .collect()
    }

    fn window(
        state: &mut State,
        refs: &Vec<BlockMatrix>,
        seconds: f64,
        min_jobs: usize,
        tracer: Option<&Arc<Tracer>>,
    ) -> (Window, Vec<JobLayers>) {
        let mut jobs = Vec::new();
        let w = harness::closed_loop(seconds, min_jobs, Self::CYCLE, |i| {
            let shape = i % SHAPES.len();
            let (a, b) = &state.pairs[shape];
            let session = &mut state.session;
            let start = Instant::now();
            let result = match tracer {
                None => session.matmul(a, b),
                Some(tracer) => {
                    let cluster = session.cluster();
                    let (comm0, moves0) = (
                        cluster.ledger().total_communication(),
                        cluster.transport_stats().moves(),
                    );
                    let (job, root) = (tracer.new_job(), tracer.new_id());
                    let mut t = Traced::new(session, tracer, job, root, 0);
                    let result = t.matmul(a, b);
                    let log = t.log;
                    let end = Instant::now();
                    tracer.record_as(root, "job:dense_cuboid", 0, job, 0, start, end);
                    let cluster = session.cluster();
                    jobs.push(JobLayers {
                        wall_s: (end - start).as_secs_f64(),
                        ops: log,
                        shuffle_bytes: (cluster.ledger().total_communication() - comm0) as f64,
                        moves: (cluster.transport_stats().moves() - moves0) as f64,
                        resident_bytes: cluster.stores().resident_bytes() as f64,
                        ..Default::default()
                    });
                    result
                }
            };
            let latency_s = start.elapsed().as_secs_f64();
            let check = Instant::now();
            let ok = result.is_ok_and(|c| {
                let ok = fingerprint(&c) == state.first[shape]
                    && c.max_abs_diff(&refs[shape]).is_some_and(|d| d < TOLERANCE);
                release(&state.session, &c);
                ok
            });
            let sample = Sample {
                latency_s,
                flops: flops(shape),
                ok,
            };
            (sample, check.elapsed().as_secs_f64())
        });
        (w, jobs)
    }

    fn counters(state: &State) -> Counters {
        let plans = state.session.plan_cache_stats();
        let stores = state.session.cluster().stores();
        Counters {
            plan_hits: plans.hits,
            plan_misses: plans.misses,
            ingest_installed: stores.ingest_installed(),
            ingest_reused: stores.ingest_reused(),
        }
    }

    fn layer_probes(state: &mut State, jobs: &[JobLayers], seed: u64, out: &mut Outcome) {
        let gemm = layers::gemm_call_secs(BS as usize, seed);
        out.set("matrix.gemm_call_us", gemm * 1e6);
        out.set(
            "matrix.gemm_gflops",
            2.0 * (BS * BS * BS) as f64 / gemm / 1e9,
        );
        out.set("matrix.spmm_gflops", 0.0);
        out.set("matrix.sddmm_gflops", 0.0);
        let blocks: Vec<_> = state.pairs[0]
            .0
            .blocks()
            .take(4)
            .map(|(_, b)| b.clone())
            .collect();
        out.set("matrix.codec_gbps", layers::codec_gbps(&blocks));
        out.set("core.plan_s", layers::plan_secs(jobs));
        let (barrier, piped, overlap) = layers::barrier_vs_pipelined(&state.pairs);
        out.set("core.barrier_job_s", barrier);
        out.set("core.pipelined_job_s", piped);
        out.set("core.pipelined_overlap_ratio", overlap);
        out.set("cluster.queue_wait_p50_s", 0.0);
        out.set("cluster.queue_wait_p95_s", 0.0);
        out.set("cluster.parity_encode_gbps", 0.0);
    }
}
