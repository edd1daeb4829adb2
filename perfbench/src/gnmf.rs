//! `gnmf_service`: two client threads, one per tenant, share one
//! `JobService`; each job runs one GNMF iteration on the tenant's own
//! small-block rating matrix — the paper's complex query as multi-tenant
//! traffic, in the regime where per-job and per-call fixed costs dominate.

use crate::harness::{self, fingerprint, generate, mix, JobLayers, Sample, Window};
use crate::layers;
use crate::report::Outcome;
use crate::trace::{OpLog, Traced, Tracer};
use crate::{Counters, Workload};
use distme_cluster::{ClusterConfig, JobError, LedgerSnapshot, Phase, TenantId};
use distme_engine::gnmf::{self, GnmfResult};
use distme_engine::{GnmfConfig, JobService, JobSpec, SystemProfile, TenantSession};
use distme_matrix::{BlockMatrix, MatrixMeta};
use std::sync::Arc;
use std::time::Instant;

const TENANTS: usize = 2;
const USERS: u64 = 512;
const ITEMS: u64 = 384;
const DENSITY: f64 = 0.05;
const BS: u64 = 32;
const CFG: GnmfConfig = GnmfConfig {
    factor_dim: 32,
    iterations: 1,
};

/// Warm-up passes (one job per tenant each). Every multiply's result stays
/// resident for 64 multiplies; 6 passes of 12 multiplies turn that
/// residency window over once, so the window starts at steady state.
const WARMUP_PASSES: usize = 6;

pub struct GnmfService;

pub struct State {
    svc: JobService,
    ratings: Vec<Arc<BlockMatrix>>,
    factor_seeds: Vec<u64>,
}

/// One job's outputs: the factors, when the closure started, and
/// (traced) what its operators did plus store residency after it.
type JobValue = (GnmfResult, Instant, Option<(OpLog, u64)>);

fn factors_print(r: &GnmfResult) -> u64 {
    mix(fingerprint(&r.w), fingerprint(&r.h))
}

/// Useful flops of one GNMF iteration on `v`: the four dense products
/// `WᵀW`, `(WᵀW)H`, `HHᵀ`, `W(HHᵀ)` and the two sparse ones `WᵀV`, `VHᵀ`.
fn flops(v: &BlockMatrix) -> f64 {
    let f = CFG.factor_dim as f64;
    let (u, i) = (USERS as f64, ITEMS as f64);
    2.0 * (2.0 * v.nnz() as f64 * f + 2.0 * f * f * (u + i))
}

fn submit(
    svc: &JobService,
    tenant: usize,
    v: &Arc<BlockMatrix>,
    seed: u64,
    trace: Option<(Arc<Tracer>, u64, u64)>,
) -> distme_engine::JobHandle<JobValue> {
    let v = Arc::clone(v);
    svc.submit(
        JobSpec::new(TenantId(tenant as u32 + 1)),
        move |s: &mut TenantSession<'_>| -> Result<JobValue, JobError> {
            let started = Instant::now();
            match trace {
                None => {
                    let r = gnmf::run_real(s, &v, &CFG, seed)?;
                    Ok((r, started, None))
                }
                Some((tracer, job, root)) => {
                    let mut t = Traced::new(s, &tracer, job, root, tenant as u32);
                    let r = gnmf::run_real(&mut t, &v, &CFG, seed)?;
                    let log = t.log;
                    let resident = s.cluster().stores().resident_bytes();
                    Ok((r, started, Some((log, resident))))
                }
            }
        },
    )
}

fn comm(s: &LedgerSnapshot) -> u64 {
    Phase::ALL
        .iter()
        .map(|&p| s.shuffle_bytes(p) + s.broadcast_bytes(p))
        .sum()
}

/// Cluster-wide transport moves so far, read through a job with no
/// operators (the service exposes its cluster only to jobs).
fn moves(svc: &JobService) -> u64 {
    svc.run(JobSpec::new(TenantId(0)), |s| {
        Ok(s.cluster().transport_stats().moves())
    })
    .expect("a probe job with no operators runs")
    .value
}

impl Workload for GnmfService {
    type State = State;
    type Refs = Vec<u64>;
    const TAIL_PERMILLE: u32 = 950;
    const CYCLE: usize = 1;

    fn set_up(seed: u64) -> State {
        let meta = MatrixMeta::sparse(USERS, ITEMS, DENSITY).with_block_size(BS);
        let ratings: Vec<_> = (0..TENANTS as u64)
            .map(|t| Arc::new(generate(meta, mix(seed, 10 + t), 1.0, 5.0)))
            .collect();
        let factor_seeds: Vec<u64> = (0..TENANTS as u64).map(|t| mix(seed, 20 + t)).collect();
        let svc = JobService::new(ClusterConfig::laptop(), SystemProfile::DistMe);
        for _ in 0..WARMUP_PASSES {
            for t in 0..TENANTS {
                submit(&svc, t, &ratings[t], factor_seeds[t], None)
                    .wait()
                    .expect("the warm-up job runs");
            }
        }
        State {
            svc,
            ratings,
            factor_seeds,
        }
    }

    /// Each tenant's job run alone on a fresh service: the service
    /// promises concurrent runs reproduce it bit for bit.
    fn references(state: &State) -> Vec<u64> {
        let solo = JobService::new(ClusterConfig::laptop(), SystemProfile::DistMe);
        (0..TENANTS)
            .map(|t| {
                submit(&solo, t, &state.ratings[t], state.factor_seeds[t], None)
                    .wait()
                    .expect("the solo reference runs")
                    .value
                    .0
            })
            .map(|r| factors_print(&r))
            .collect()
    }

    fn window(
        state: &mut State,
        refs: &Vec<u64>,
        seconds: f64,
        min_jobs: usize,
        tracer: Option<&Arc<Tracer>>,
    ) -> (Window, Vec<JobLayers>) {
        let state = &*state;
        let comm0 = state.svc.ledger_snapshot();
        let moves0 = tracer.map(|_| moves(&state.svc));
        let per_client = min_jobs.div_ceil(TENANTS);
        let results: Vec<(Window, Vec<JobLayers>)> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..TENANTS)
                .map(|t| {
                    scope.spawn(move || {
                        let mut jobs = Vec::new();
                        let w = harness::closed_loop(seconds, per_client, 1, |_| {
                            let trace =
                                tracer.map(|tr| (Arc::clone(tr), tr.new_job(), tr.new_id()));
                            let submitted = Instant::now();
                            let handle = submit(
                                &state.svc,
                                t,
                                &state.ratings[t],
                                state.factor_seeds[t],
                                trace.clone(),
                            );
                            let result = handle.wait();
                            let end = Instant::now();
                            let latency_s = (end - submitted).as_secs_f64();
                            let check = Instant::now();
                            let ok = match result {
                                Ok(out) => {
                                    let (factors, started, layers) = out.value;
                                    if let (Some((tracer, job, root)), Some((log, resident))) =
                                        (trace, layers)
                                    {
                                        tracer.record_as(
                                            root, "job:gnmf", 0, job, t as u32, submitted, end,
                                        );
                                        tracer.record(
                                            "start_delay",
                                            root,
                                            job,
                                            t as u32,
                                            submitted,
                                            started,
                                        );
                                        let delay = (started - submitted).as_secs_f64();
                                        jobs.push(JobLayers {
                                            wall_s: latency_s,
                                            start_delay_s: delay,
                                            ops: log,
                                            resident_bytes: resident as f64,
                                            ..Default::default()
                                        });
                                    }
                                    factors_print(&factors) == refs[t]
                                }
                                Err(_) => false,
                            };
                            let sample = Sample {
                                latency_s,
                                flops: flops(&state.ratings[t]),
                                ok,
                            };
                            (sample, check.elapsed().as_secs_f64())
                        });
                        (w, jobs)
                    })
                })
                .collect();
            clients
                .into_iter()
                .map(|c| c.join().expect("a client thread panicked"))
                .collect()
        });
        let mut window = Window::default();
        let mut jobs = Vec::new();
        for (w, j) in results {
            window.absorb(w);
            jobs.extend(j);
        }
        // Ledger traffic and transport moves of concurrent jobs interleave:
        // charge each job the window's mean.
        let n = window.samples.len() as f64;
        let comm_per_job = comm(&state.svc.ledger_snapshot().minus(&comm0)) as f64 / n;
        let moves_per_job = moves0.map_or(0.0, |m0| (moves(&state.svc) - m0) as f64 / n);
        for j in &mut jobs {
            j.shuffle_bytes = comm_per_job;
            j.moves = moves_per_job;
        }
        (window, jobs)
    }

    fn counters(state: &State) -> Counters {
        let plans = state.svc.plan_cache_stats();
        let (installed, reused) = state
            .svc
            .run(JobSpec::new(TenantId(0)), |s| {
                let stores = s.cluster().stores();
                Ok((stores.ingest_installed(), stores.ingest_reused()))
            })
            .expect("a probe job with no operators runs")
            .value;
        Counters {
            plan_hits: plans.hits,
            plan_misses: plans.misses,
            ingest_installed: installed,
            ingest_reused: reused,
        }
    }

    fn layer_probes(state: &mut State, jobs: &[JobLayers], seed: u64, out: &mut Outcome) {
        let gemm = layers::gemm_call_secs(BS as usize, seed);
        out.set("matrix.gemm_call_us", gemm * 1e6);
        let big = layers::gemm_call_secs(512, seed);
        out.set("matrix.gemm_gflops", 2.0 * 512f64.powi(3) / big / 1e9);
        let (spmm, sddmm) = layers::sparse_gflops(&state.ratings[0], CFG.factor_dim as usize, seed);
        out.set("matrix.spmm_gflops", spmm);
        out.set("matrix.sddmm_gflops", sddmm);
        let blocks: Vec<_> = state.ratings[0]
            .blocks()
            .take(64)
            .map(|(_, b)| b.clone())
            .collect();
        out.set("matrix.codec_gbps", layers::codec_gbps(&blocks));
        out.set("core.plan_s", layers::plan_secs(jobs));
        out.set("core.barrier_job_s", 0.0);
        out.set("core.pipelined_job_s", 0.0);
        out.set("core.pipelined_overlap_ratio", 0.0);
        let waits = state.svc.queue_wait_stats();
        out.set("cluster.queue_wait_p50_s", waits.p50_secs);
        out.set("cluster.queue_wait_p95_s", waits.p95_secs);
        out.set("cluster.parity_encode_gbps", 0.0);
    }
}
