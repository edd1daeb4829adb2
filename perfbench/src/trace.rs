//! Outside-in tracing: spans recorded by the benchmark around its calls
//! into the engine, never inside it.
//!
//! A span has a name, start, end, parent span and job id. Spans stay in
//! memory and are written out as Chrome trace-event JSON (which Perfetto
//! opens) when the run ends. [`Traced`] wraps a session and records one
//! span per operator; under it, the operator's `JobStats` phase seconds
//! become synthesized child spans laid end to end from the operator's
//! start, the order the barrier executor runs them in.

use distme_cluster::{ClusterConfig, JobError, JobStats, Phase};
use distme_engine::session::{RealOps, RealSession};
use distme_engine::TenantSession;
use distme_matrix::elementwise::EwOp;
use distme_matrix::{BlockMatrix, MatrixMeta};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug)]
pub struct Span {
    /// Unique id (0 is "no parent").
    pub id: u64,
    /// The enclosing span's id, 0 at a job's root.
    pub parent: u64,
    /// The job the span belongs to.
    pub job: u64,
    /// What the interval covers.
    pub name: &'static str,
    /// Client thread that recorded it.
    pub tid: u32,
    /// Seconds since the tracer's epoch.
    pub start: f64,
    /// Seconds since the tracer's epoch.
    pub end: f64,
    /// Laid out from a duration rather than stamped (phase spans).
    pub synthesized: bool,
}

/// An in-memory span sink shared by every client thread of a run.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    next_job: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            next_job: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A fresh span id, for a parent recorded after its children.
    pub fn new_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// A fresh job id.
    pub fn new_job(&self) -> u64 {
        self.next_job.fetch_add(1, Ordering::Relaxed)
    }

    fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64()
    }

    /// Records a stamped span and returns its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: u64,
        job: u64,
        tid: u32,
        start: Instant,
        end: Instant,
    ) -> u64 {
        self.record_as(self.new_id(), name, parent, job, tid, start, end)
    }

    /// Records a stamped span under an id taken from [`Tracer::new_id`].
    #[allow(clippy::too_many_arguments)]
    pub fn record_as(
        &self,
        id: u64,
        name: &'static str,
        parent: u64,
        job: u64,
        tid: u32,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let (start, end) = (self.at(start), self.at(end));
        self.push(Span {
            id,
            parent,
            job,
            name,
            tid,
            start,
            end,
            synthesized: false,
        })
    }

    fn push(&self, span: Span) -> u64 {
        let id = span.id;
        self.spans
            .lock()
            .expect("no span recorder panics")
            .push(span);
        id
    }

    /// Lays `stats`' repartition, local-multiply and aggregation seconds
    /// end to end under span `parent`, starting at `start`.
    fn record_phases(&self, parent: u64, job: u64, tid: u32, start: Instant, stats: &JobStats) {
        let mut t = self.at(start);
        for (phase, name) in [
            (Phase::Repartition, "phase:repartition"),
            (Phase::LocalMult, "phase:local_mult"),
            (Phase::Aggregation, "phase:aggregation"),
        ] {
            let secs = stats.phase(phase).secs;
            if secs > 0.0 {
                self.push(Span {
                    id: self.new_id(),
                    parent,
                    job,
                    name,
                    tid,
                    start: t,
                    end: t + secs,
                    synthesized: true,
                });
                t += secs;
            }
        }
    }

    /// The spans as Chrome trace-event JSON (complete `X` events, µs).
    pub fn chrome_json(&self) -> String {
        let events: Vec<String> = self
            .spans
            .lock()
            .expect("no span recorder panics")
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\": \"{}\", \"cat\": \"perfbench\", \"ph\": \"X\", \
                     \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": 1, \"tid\": {}, \
                     \"args\": {{\"id\": {}, \"parent\": {}, \"job\": {}, \"synthesized\": {}}}}}",
                    s.name,
                    s.start * 1e6,
                    (s.end - s.start) * 1e6,
                    s.tid,
                    s.id,
                    s.parent,
                    s.job,
                    s.synthesized
                )
            })
            .collect();
        format!(
            "{{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n{}\n]}}\n",
            events.join(",\n")
        )
    }
}

/// The per-operator readings both session front ends expose.
pub trait Observed: RealOps {
    /// Statistics accumulated over the operators run so far.
    fn stats_now(&self) -> JobStats;
    /// The cluster configuration operators plan against right now.
    fn config_now(&self) -> ClusterConfig;
}

impl Observed for RealSession {
    fn stats_now(&self) -> JobStats {
        *self.stats()
    }
    fn config_now(&self) -> ClusterConfig {
        *self.cluster().config()
    }
}

impl Observed for TenantSession<'_> {
    fn stats_now(&self) -> JobStats {
        *self.stats()
    }
    fn config_now(&self) -> ClusterConfig {
        *self.cluster().config()
    }
}

/// The additive part of `after − before`: phase seconds, bytes and task
/// counts, elapsed seconds, payload and parity counters.
pub fn stats_delta(after: &JobStats, before: &JobStats) -> JobStats {
    let mut d = JobStats::default();
    for (i, p) in d.phases.iter_mut().enumerate() {
        let (a, b) = (&after.phases[i], &before.phases[i]);
        p.secs = a.secs - b.secs;
        p.shuffle_bytes = a.shuffle_bytes - b.shuffle_bytes;
        p.cross_node_bytes = a.cross_node_bytes - b.cross_node_bytes;
        p.broadcast_bytes = a.broadcast_bytes - b.broadcast_bytes;
        p.tasks = a.tasks - b.tasks;
    }
    d.elapsed_secs = after.elapsed_secs - before.elapsed_secs;
    d.transport_payload_bytes = after.transport_payload_bytes - before.transport_payload_bytes;
    d.parity_blocks_encoded = after.parity_blocks_encoded - before.parity_blocks_encoded;
    d
}

/// Which multiply an operator planned: the problem shapes plus the node
/// count it was planned for. Re-planned offline for `core.plan_s`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Planned {
    /// `matmul`, `spmm` or `sddmm`.
    pub kind: &'static str,
    /// Left operand.
    pub a: MatrixMeta,
    /// Right operand.
    pub b: MatrixMeta,
    /// SDDMM sampling mask.
    pub mask: Option<MatrixMeta>,
    /// Cluster configuration at planning time.
    pub cfg: ClusterConfig,
}

/// What one traced job's operators did, summed over its operators.
#[derive(Debug, Default, Clone)]
pub struct OpLog {
    /// Summed per-operator stats deltas.
    pub stats: JobStats,
    /// Operators run.
    pub ops: usize,
    /// Wall seconds covered by operator spans.
    pub covered_s: f64,
    /// Distinct multiplies planned.
    pub planned: Vec<Planned>,
}

/// A session wrapper that records one span per operator under a job span.
pub struct Traced<'a, S> {
    /// The wrapped session (resizes go through it directly).
    pub inner: &'a mut S,
    tracer: &'a Tracer,
    job: u64,
    parent: u64,
    tid: u32,
    /// What the job's operators did so far.
    pub log: OpLog,
}

impl<'a, S: Observed> Traced<'a, S> {
    /// Wraps `inner` for job `job`; operator spans hang under `parent`.
    pub fn new(inner: &'a mut S, tracer: &'a Tracer, job: u64, parent: u64, tid: u32) -> Self {
        Traced {
            inner,
            tracer,
            job,
            parent,
            tid,
            log: OpLog::default(),
        }
    }

    /// Records a span named `name` around `f` under the job's parent span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut S) -> T) -> T {
        let start = Instant::now();
        let out = f(self.inner);
        let end = Instant::now();
        self.tracer
            .record(name, self.parent, self.job, self.tid, start, end);
        self.log.covered_s += (end - start).as_secs_f64();
        out
    }

    fn op<T>(
        &mut self,
        name: &'static str,
        planned: Option<(
            &'static str,
            &BlockMatrix,
            &BlockMatrix,
            Option<&BlockMatrix>,
        )>,
        f: impl FnOnce(&mut S) -> Result<T, JobError>,
    ) -> Result<T, JobError> {
        if let Some((kind, a, b, mask)) = planned {
            let p = Planned {
                kind,
                a: *a.meta(),
                b: *b.meta(),
                mask: mask.map(|m| *m.meta()),
                cfg: self.inner.config_now(),
            };
            if !self.log.planned.contains(&p) {
                self.log.planned.push(p);
            }
        }
        let before = self.inner.stats_now();
        let start = Instant::now();
        let out = f(self.inner);
        let end = Instant::now();
        let delta = stats_delta(&self.inner.stats_now(), &before);
        let id = self
            .tracer
            .record(name, self.parent, self.job, self.tid, start, end);
        self.tracer
            .record_phases(id, self.job, self.tid, start, &delta);
        self.log.stats.merge(&delta);
        self.log.ops += 1;
        self.log.covered_s += (end - start).as_secs_f64();
        out
    }
}

impl<S: Observed> RealOps for Traced<'_, S> {
    fn matmul(&mut self, a: &BlockMatrix, b: &BlockMatrix) -> Result<BlockMatrix, JobError> {
        self.op("op:matmul", Some(("matmul", a, b, None)), |s| {
            s.matmul(a, b)
        })
    }

    fn transpose(&mut self, x: &BlockMatrix) -> Result<BlockMatrix, JobError> {
        self.op("op:transpose", None, |s| s.transpose(x))
    }

    fn elementwise(
        &mut self,
        x: &BlockMatrix,
        op: EwOp,
        y: &BlockMatrix,
    ) -> Result<BlockMatrix, JobError> {
        self.op("op:elementwise", None, |s| s.elementwise(x, op, y))
    }

    fn spmm(&mut self, a: &BlockMatrix, b: &BlockMatrix) -> Result<BlockMatrix, JobError> {
        self.op("op:spmm", Some(("spmm", a, b, None)), |s| s.spmm(a, b))
    }

    fn sddmm(
        &mut self,
        a: &BlockMatrix,
        b: &BlockMatrix,
        mask: &BlockMatrix,
    ) -> Result<BlockMatrix, JobError> {
        self.op("op:sddmm", Some(("sddmm", a, b, Some(mask))), |s| {
            s.sddmm(a, b, mask)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_export_carries_parent_and_job() {
        let t = Tracer::new();
        let now = Instant::now();
        let root = t.record("job", 0, 7, 1, now, now);
        let child = t.record("op:matmul", root, 7, 1, now, now);
        let json = t.chrome_json();
        assert!(json.starts_with("{\"displayTimeUnit\": \"ms\", \"traceEvents\": ["));
        assert!(json.contains(&format!("\"id\": {child}, \"parent\": {root}, \"job\": 7")));
        assert_eq!(json.matches("\"ph\": \"X\"").count(), 2);
    }
}
