//! Layer probes of a traced run: each times one layer's public functions
//! on the workload's own blocks and shapes, outside any job.

use crate::harness::{mix, JobLayers};
use crate::stats::median;
use crate::trace::Planned;
use bytes::BytesMut;
use distme_cluster::{coding, ClusterConfig, LocalCluster, StoreKind};
use distme_core::real_exec::{self, RealExecOptions};
use distme_core::{pipelined, JobPlan, MatmulProblem, MulMethod, OptimizerConfig, ResolvedMethod};
use distme_engine::SystemProfile;
use distme_matrix::kernels::{gemm::gemm, sddmm, spmm};
use distme_matrix::{codec, Block, BlockMatrix, DenseBlock};
use std::hint::black_box;
use std::time::Instant;

/// Seconds each probe spends measuring (after one warm-up call).
const PROBE_SECS: f64 = 0.25;

/// Times `f` repeatedly for about [`PROBE_SECS`] (at least 5 calls) and
/// returns every call's seconds.
fn probe(mut f: impl FnMut()) -> Vec<f64> {
    f();
    let start = Instant::now();
    let mut secs = Vec::new();
    while secs.len() < 5 || start.elapsed().as_secs_f64() < PROBE_SECS {
        let t = Instant::now();
        f();
        secs.push(t.elapsed().as_secs_f64());
    }
    secs
}

fn dense(rows: usize, cols: usize, seed: u64) -> DenseBlock {
    let mut state = seed;
    DenseBlock::from_fn(rows, cols, |_, _| {
        state = mix(state, 1);
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    })
}

/// Median seconds of one `kernels::gemm::gemm` call at `n × n × n`.
pub fn gemm_call_secs(n: usize, seed: u64) -> f64 {
    let (a, b) = (dense(n, n, seed), dense(n, n, seed ^ 1));
    let mut c = DenseBlock::zeros(n, n);
    median(&probe(|| {
        gemm(1.0, black_box(&a), black_box(&b), 0.0, &mut c).expect("square shapes agree");
        black_box(&c);
    }))
}

/// GFLOP/s of the first sparse block of `v` through the sparse kernels
/// at factor width `f`: `(spmm::csr_dense, sddmm::{sddmm, csr_t_dense})`,
/// flops counted as `2·nnz·f` per call.
pub fn sparse_gflops(v: &BlockMatrix, f: usize, seed: u64) -> (f64, f64) {
    let Some(a) = v.blocks().find_map(|(_, b)| match b {
        Block::Sparse(s) => Some(s.clone()),
        Block::Dense(_) => None,
    }) else {
        return (0.0, 0.0);
    };
    let (r, c) = (a.rows(), a.cols());
    let flops = 2.0 * a.nnz() as f64 * f as f64;
    let right = dense(c, f, seed);
    let left = dense(r, f, seed ^ 2);
    let left_t = dense(f, c, seed ^ 3);
    let spmm_s = median(&probe(|| {
        black_box(spmm::csr_dense(black_box(&a), &right).expect("shapes agree"));
    }));
    let sddmm_s = median(&probe(|| {
        black_box(sddmm::sddmm(&left, &left_t, black_box(&a)).expect("shapes agree"));
    }));
    let csr_t_s = median(&probe(|| {
        black_box(sddmm::csr_t_dense(black_box(&a), &left).expect("shapes agree"));
    }));
    (
        flops / spmm_s / 1e9,
        2.0 * flops / (sddmm_s + csr_t_s) / 1e9,
    )
}

/// Codec round-trip GB/s over `blocks`, each through the path the
/// transport ships it on: dense `encode_aligned` + `decode_view`, sparse
/// `encode_into` + `decode_slice`. Bytes are frame bytes.
pub fn codec_gbps(blocks: &[Block]) -> f64 {
    let bytes: u64 = blocks.iter().map(codec::encoded_len).sum();
    let secs = median(&probe(|| {
        for blk in blocks {
            let mut buf = BytesMut::with_capacity(0);
            let back = match blk {
                Block::Dense(_) => {
                    let pad = codec::encode_aligned(blk, &mut buf);
                    let frame = buf.freeze();
                    codec::decode_view(&frame.slice(pad..frame.len()))
                }
                Block::Sparse(_) => {
                    codec::encode_into(blk, &mut buf);
                    codec::decode_slice(&buf)
                }
            };
            black_box(back.expect("a fresh frame decodes"));
        }
    }));
    bytes as f64 / secs / 1e9
}

/// Builds the plan an operator of kind `p.kind` gets from the engine.
fn plan(p: &Planned) -> JobPlan {
    let problem = match p.mask {
        Some(mask) => MatmulProblem::sddmm(p.a, p.b, mask),
        None => MatmulProblem::new(p.a, p.b),
    }
    .expect("a traced operator's shapes agree");
    let resolved = match p.kind {
        "matmul" => SystemProfile::DistMe.resolve(&problem, &p.cfg),
        "spmm" => ResolvedMethod::resolve(
            MulMethod::SpmmShift,
            &problem,
            &OptimizerConfig::from_cluster(&p.cfg),
        ),
        _ => ResolvedMethod::resolve(
            MulMethod::Sddmm,
            &problem,
            &OptimizerConfig::from_cluster(&p.cfg),
        ),
    };
    JobPlan::from_resolved(&problem, &resolved, &p.cfg)
}

/// Mean over the distinct problems `jobs` planned of the median seconds
/// to plan each one (`JobPlan::from_resolved`, which runs
/// `optimizer::optimize`).
pub fn plan_secs(jobs: &[JobLayers]) -> f64 {
    let mut problems: Vec<Planned> = Vec::new();
    for p in jobs.iter().flat_map(|j| &j.ops.planned) {
        if !problems.contains(p) {
            problems.push(*p);
        }
    }
    if problems.is_empty() {
        return 0.0;
    }
    let total: f64 = problems
        .iter()
        .map(|p| {
            median(&probe(|| {
                black_box(plan(p));
            }))
        })
        .sum();
    total / problems.len() as f64
}

/// Median seconds per job of the barrier executor and of the pipelined
/// one over the same products on one warm cluster, plus the pipelined
/// jobs' mean overlap ratio.
pub fn barrier_vs_pipelined(pairs: &[(BlockMatrix, BlockMatrix)]) -> (f64, f64, f64) {
    let cluster = LocalCluster::new(ClusterConfig::laptop());
    let (mut barrier, mut piped, mut overlap) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..2 {
        for (a, b) in pairs {
            let t = Instant::now();
            let (c, _) = real_exec::multiply_with(
                &cluster,
                a,
                b,
                MulMethod::CuboidAuto,
                RealExecOptions::default(),
            )
            .expect("the barrier job runs");
            let bs = t.elapsed().as_secs_f64();
            cluster.stores().evict_matrix(c.uid());
            drop(c);
            let t = Instant::now();
            let (c, stats) = pipelined::multiply_pipelined(&cluster, a, b, MulMethod::CuboidAuto)
                .expect("the pipelined job runs");
            let ps = t.elapsed().as_secs_f64();
            cluster.stores().evict_matrix(c.uid());
            if round > 0 {
                barrier.push(bs);
                piped.push(ps);
                overlap.push(stats.overlap_ratio.unwrap_or(0.0));
            }
        }
    }
    (
        median(&barrier),
        median(&piped),
        overlap.iter().sum::<f64>() / overlap.len().max(1) as f64,
    )
}

/// Parity encode GB/s on `cluster`'s coded matrices: every parity block
/// is dropped and re-encoded (what a resize does), bytes being the frame
/// bytes of the copy-0 data blocks the groups cover. 0 with coding off.
pub fn parity_encode_gbps(cluster: &LocalCluster) -> f64 {
    let stores = cluster.stores();
    let coded = coding::matrices_with_parity(stores);
    if coded.is_empty() {
        return 0.0;
    }
    let bytes: u64 = stores
        .resident_keys()
        .into_iter()
        .filter(|(k, _)| k.kind == StoreKind::Data && k.copy == 0 && coded.contains(&k.matrix))
        .filter_map(|(k, holders)| {
            let node = *holders.iter().next()?;
            stores.node(node).get(&k).map(|b| codec::encoded_len(&b))
        })
        .sum();
    let secs = median(&probe(|| {
        coding::evict_all_parity(stores);
        for &uid in &coded {
            cluster.encode_parity(uid);
        }
    }));
    bytes as f64 / secs / 1e9
}
