//! `als_elastic`: one client on a coded (`ReplicationPolicy::Xor`)
//! `RealSession` runs one ALS iteration per job and then resizes the
//! cluster, alternating 4 → 9 and 9 → 4 nodes. The only workload where
//! the sparse method family, elastic rebalance, parity encode and
//! re-planning after every epoch bump do real work.

use crate::harness::{self, fingerprint, generate, mix, JobLayers, Sample, Window};
use crate::layers;
use crate::report::Outcome;
use crate::trace::{Traced, Tracer};
use crate::{Counters, Workload};
use distme_cluster::{ClusterConfig, JobError, ReplicationPolicy};
use distme_engine::als::{self, AlsResult};
use distme_engine::session::RealSession;
use distme_engine::{AlsConfig, SystemProfile};
use distme_matrix::{BlockMatrix, MatrixMeta};
use std::sync::Arc;
use std::time::Instant;

const USERS: u64 = 4096;
const ITEMS: u64 = 2048;
const DENSITY: f64 = 0.02;
const BS: u64 = 256;
const CFG: AlsConfig = AlsConfig {
    factor_dim: 32,
    iterations: 1,
    lambda: 0.1,
};
/// Warm-up cycles (one 4 → 9 and one 9 → 4 job each). The stores keep a
/// matrix resident for 64 multiplies after its last use, and every resize
/// migrates whatever is resident, so job time climbs until the residency
/// window has turned over once: 5 cycles run 70 multiplies.
const WARMUP_CYCLES: usize = 5;
/// The two grid sizes jobs alternate between.
const SMALL: usize = 4;
const LARGE: usize = 9;

pub struct AlsElastic;

pub struct State {
    session: RealSession,
    v: BlockMatrix,
    factor_seed: u64,
}

fn config() -> ClusterConfig {
    ClusterConfig::laptop().with_replication(ReplicationPolicy::Xor)
}

fn factors_print(r: &AlsResult) -> u64 {
    mix(fingerprint(&r.w), fingerprint(&r.h))
}

/// Useful flops of one ALS iteration on `v`: the sparse products `VHᵀ`,
/// `VᵀW` and the SDDMM objective (2·nnz·f each), and the four dense
/// products `HHᵀ`, `VHᵀ·G`, `WᵀW`, `VᵀW·G` (2·f²·(users + items) per pair).
fn flops(v: &BlockMatrix) -> f64 {
    let f = CFG.factor_dim as f64;
    6.0 * v.nnz() as f64 * f + 4.0 * f * f * (USERS + ITEMS) as f64
}

/// The resize that follows a job on a `nodes`-node cluster.
fn next_size(nodes: usize) -> usize {
    if nodes == SMALL {
        LARGE
    } else {
        SMALL
    }
}

/// One untraced job: an ALS iteration, then the resize.
fn job(state: &mut State) -> Result<AlsResult, JobError> {
    let target = next_size(state.session.cluster().config().nodes);
    als::run_real_with(
        &mut state.session,
        &state.v,
        &CFG,
        state.factor_seed,
        |s, _| s.scale_to(target).map(|_| ()),
    )
}

impl Workload for AlsElastic {
    type State = State;
    type Refs = [u64; 2];
    const TAIL_PERMILLE: u32 = 800;
    const CYCLE: usize = 2;

    fn set_up(seed: u64) -> State {
        let meta = MatrixMeta::sparse(USERS, ITEMS, DENSITY).with_block_size(BS);
        let mut state = State {
            session: RealSession::new(config(), SystemProfile::DistMe),
            v: generate(meta, mix(seed, 30), 1.0, 5.0),
            factor_seed: mix(seed, 31),
        };
        for _ in 0..WARMUP_CYCLES * Self::CYCLE {
            job(&mut state).expect("the warm-up job runs");
        }
        state
    }

    /// The same iteration on a fixed grid of each size: the elastic
    /// contract promises a job on a resized cluster reproduces the
    /// fixed-grid run of its node count bit for bit.
    fn references(state: &State) -> [u64; 2] {
        [SMALL, LARGE].map(|nodes| {
            let cfg = ClusterConfig { nodes, ..config() };
            let mut fixed = RealSession::new(cfg, SystemProfile::DistMe);
            let r = als::run_real(&mut fixed, &state.v, &CFG, state.factor_seed)
                .expect("the fixed-grid reference runs");
            factors_print(&r)
        })
    }

    fn window(
        state: &mut State,
        refs: &[u64; 2],
        seconds: f64,
        min_jobs: usize,
        tracer: Option<&Arc<Tracer>>,
    ) -> (Window, Vec<JobLayers>) {
        let mut jobs = Vec::new();
        let flops = flops(&state.v);
        let w = harness::closed_loop(seconds, min_jobs, Self::CYCLE, |_| {
            let grid = usize::from(state.session.cluster().config().nodes != SMALL);
            let start = Instant::now();
            let result = match tracer {
                None => job(state),
                Some(tracer) => {
                    let cluster = state.session.cluster();
                    let (comm0, moves0) = (
                        cluster.ledger().total_communication(),
                        cluster.transport_stats().moves(),
                    );
                    let target = next_size(cluster.config().nodes);
                    let (job, root) = (tracer.new_job(), tracer.new_id());
                    let mut resize = None;
                    let mut t = Traced::new(&mut state.session, tracer, job, root, 0);
                    let result =
                        als::run_real_with(&mut t, &state.v, &CFG, state.factor_seed, |t, _| {
                            let r0 = Instant::now();
                            let report = t.span("resize", |s| s.scale_to(target))?;
                            resize = Some((r0.elapsed().as_secs_f64(), report));
                            Ok(())
                        });
                    let log = t.log;
                    let end = Instant::now();
                    tracer.record_as(root, "job:als_elastic", 0, job, 0, start, end);
                    let cluster = state.session.cluster();
                    jobs.push(JobLayers {
                        wall_s: (end - start).as_secs_f64(),
                        // `Traced::span` already counted the resize as
                        // covered time.
                        ops: log,
                        shuffle_bytes: (cluster.ledger().total_communication() - comm0) as f64,
                        moves: (cluster.transport_stats().moves() - moves0) as f64,
                        resident_bytes: cluster.stores().resident_bytes() as f64,
                        extra_parity_blocks: resize
                            .as_ref()
                            .map_or(0, |r| r.1.stats.parity_blocks_encoded),
                        resize: resize.map(|(secs, r)| (secs, r.moves, r.payload_bytes)),
                        ..Default::default()
                    });
                    result
                }
            };
            let latency_s = start.elapsed().as_secs_f64();
            let check = Instant::now();
            let ok = result.is_ok_and(|r| factors_print(&r) == refs[grid]);
            let sample = Sample {
                latency_s,
                flops,
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
        let big = layers::gemm_call_secs(512, seed);
        out.set("matrix.gemm_gflops", 2.0 * 512f64.powi(3) / big / 1e9);
        let (spmm, sddmm) = layers::sparse_gflops(&state.v, CFG.factor_dim as usize, seed);
        out.set("matrix.spmm_gflops", spmm);
        out.set("matrix.sddmm_gflops", sddmm);
        let blocks: Vec<_> = state.v.blocks().take(16).map(|(_, b)| b.clone()).collect();
        out.set("matrix.codec_gbps", layers::codec_gbps(&blocks));
        out.set("core.plan_s", layers::plan_secs(jobs));
        out.set("core.barrier_job_s", 0.0);
        out.set("core.pipelined_job_s", 0.0);
        out.set("core.pipelined_overlap_ratio", 0.0);
        out.set("cluster.queue_wait_p50_s", 0.0);
        out.set("cluster.queue_wait_p95_s", 0.0);
        out.set(
            "cluster.parity_encode_gbps",
            layers::parity_encode_gbps(state.session.cluster()),
        );
    }
}
