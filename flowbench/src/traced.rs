//! Traced-run adapters: each wraps one layer's public trait and times
//! every call into it from outside, so a traced run splits its wall
//! time into per-layer self times without touching the program.
//!
//! Every adapter forwards the whole trait, including the provided
//! methods the engines consult (`len_hint`, `structure_hint`,
//! `shard_plan`, `machine_completions`, `kernel_stats`, `ENABLED`):
//! a wrapper that dropped one would change kernel resolution, report
//! sizing, or recorder wiring, and the traced run would measure a
//! different program. `tests::traced_runs_hash_like_untraced_runs`
//! pins that.

use std::time::Instant;

use flowsched_algos::engine::DispatchSink;
use flowsched_algos::indexed::KernelStats;
use flowsched_algos::ImmediateDispatcher;
use flowsched_core::compact::ProcSetRef;
use flowsched_core::schedule::Assignment;
use flowsched_core::shard::ShardPlan;
use flowsched_core::stream::ArrivalStream;
use flowsched_core::structure::StructureReport;
use flowsched_core::task::Task;
use flowsched_core::time::Time;
use flowsched_obs::{Counter, ProbeKind, Recorder};

/// Calls into one layer and the nanoseconds they took, clock included.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    pub calls: u64,
    pub ns: u64,
}

impl Span {
    #[inline]
    fn close(&mut self, start: Instant) -> u64 {
        let ns = start.elapsed().as_nanos() as u64;
        self.calls += 1;
        self.ns += ns;
        ns
    }

    /// Self time in nanoseconds with `clock_ns` (one empty span's
    /// measured cost) taken off every call.
    pub fn self_ns(&self, clock_ns: f64) -> f64 {
        (self.ns as f64 - self.calls as f64 * clock_ns).max(0.0)
    }

    /// Measured time plus the clock reads that fell outside the span:
    /// what this layer's tracing took out of the enclosing wall time.
    pub fn charged_ns(&self, clock_ns: f64) -> f64 {
        self.ns as f64 + self.calls as f64 * clock_ns
    }
}

/// Times `next_arrival` on the workloads layer.
pub struct TimedStream<S> {
    pub inner: S,
    pub span: Span,
}

impl<S> TimedStream<S> {
    pub fn new(inner: S) -> Self {
        TimedStream {
            inner,
            span: Span::default(),
        }
    }
}

impl<S: ArrivalStream> ArrivalStream for TimedStream<S> {
    fn machines(&self) -> usize {
        self.inner.machines()
    }

    #[inline]
    fn next_arrival(&mut self) -> Option<(Task, ProcSetRef<'_>)> {
        let t = Instant::now();
        let next = self.inner.next_arrival();
        self.span.close(t);
        next
    }

    fn len_hint(&self) -> Option<usize> {
        self.inner.len_hint()
    }

    fn structure_hint(&self) -> Option<StructureReport> {
        self.inner.structure_hint()
    }

    fn shard_plan(&self, max_shards: usize) -> ShardPlan {
        self.inner.shard_plan(max_shards)
    }
}

/// Times `dispatch_task` on the algos layer and keeps every call's
/// duration for the latency tail.
pub struct TimedDispatcher<D> {
    pub inner: D,
    pub span: Span,
    pub latencies_ns: Vec<u32>,
}

impl<D> TimedDispatcher<D> {
    /// Wraps `inner`, with room for `calls` latency samples.
    pub fn new(inner: D, calls: usize) -> Self {
        TimedDispatcher {
            inner,
            span: Span::default(),
            latencies_ns: Vec::with_capacity(calls),
        }
    }
}

impl<D: ImmediateDispatcher> ImmediateDispatcher for TimedDispatcher<D> {
    fn machine_count(&self) -> usize {
        self.inner.machine_count()
    }

    #[inline]
    fn dispatch_task(&mut self, task: Task, set: ProcSetRef<'_>) -> Assignment {
        let t = Instant::now();
        let a = self.inner.dispatch_task(task, set);
        let ns = self.span.close(t);
        self.latencies_ns.push(ns.min(u32::MAX as u64) as u32);
        a
    }

    fn machine_completions(&self) -> &[Time] {
        self.inner.machine_completions()
    }

    fn kernel_stats(&self) -> Option<KernelStats> {
        self.inner.kernel_stats()
    }
}

/// Times `accept` on the sim layer (the report fold).
pub struct TimedSink<K> {
    pub inner: K,
    pub span: Span,
}

impl<K> TimedSink<K> {
    pub fn new(inner: K) -> Self {
        TimedSink {
            inner,
            span: Span::default(),
        }
    }
}

impl<K: DispatchSink> DispatchSink for TimedSink<K> {
    #[inline]
    fn accept(&mut self, seq: u64, task: Task, a: Assignment) {
        let t = Instant::now();
        self.inner.accept(seq, task, a);
        self.span.close(t);
    }
}

/// Times every hook of an obs recorder. `ENABLED` is the inner
/// recorder's, so wrapping `NoopRecorder` still compiles the hooks
/// away and the engine keeps its no-recorder fast path.
pub struct TimedRecorder<R> {
    pub inner: R,
    pub span: Span,
}

impl<R> TimedRecorder<R> {
    pub fn new(inner: R) -> Self {
        TimedRecorder {
            inner,
            span: Span::default(),
        }
    }
}

macro_rules! timed_hook {
    ($self:ident, $call:expr) => {{
        let t = Instant::now();
        $call;
        $self.span.close(t);
    }};
}

impl<R: Recorder> Recorder for TimedRecorder<R> {
    const ENABLED: bool = R::ENABLED;

    #[inline]
    fn task_arrival(&mut self, task: u64, at: f64) {
        timed_hook!(self, self.inner.task_arrival(task, at))
    }

    #[inline]
    fn task_dispatch(&mut self, task: u64, machine: u32, release: f64, start: f64, ptime: f64) {
        timed_hook!(
            self,
            self.inner
                .task_dispatch(task, machine, release, start, ptime)
        )
    }

    #[inline]
    fn machine_busy(&mut self, machine: u32, at: f64) {
        timed_hook!(self, self.inner.machine_busy(machine, at))
    }

    #[inline]
    fn machine_idle(&mut self, machine: u32, at: f64) {
        timed_hook!(self, self.inner.machine_idle(machine, at))
    }

    #[inline]
    fn machine_crash(&mut self, machine: u32, at: f64) {
        timed_hook!(self, self.inner.machine_crash(machine, at))
    }

    #[inline]
    fn machine_recover(&mut self, machine: u32, at: f64) {
        timed_hook!(self, self.inner.machine_recover(machine, at))
    }

    #[inline]
    fn slo_breach(&mut self, at: f64, ratio: f64, bound: f64) {
        timed_hook!(self, self.inner.slo_breach(at, ratio, bound))
    }

    #[inline]
    fn probe(&mut self, kind: ProbeKind, iterations: u64, value: f64) {
        timed_hook!(self, self.inner.probe(kind, iterations, value))
    }

    #[inline]
    fn add(&mut self, c: Counter, delta: u64) {
        timed_hook!(self, self.inner.add(c, delta))
    }
}
