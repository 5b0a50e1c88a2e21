//! The four workloads and how one repetition of each runs: untraced
//! (end-to-end metrics) or traced (per-layer self times), ending in
//! the plain report fold or in the checking sink (schedule hash plus
//! report digest).
//!
//! Every repetition rebuilds its inputs from the seed, so all
//! repetitions of a run see the same arrivals, and the clock splits
//! each repetition in two: *setup* (stream, `build_for_stream`'s state,
//! report fold, recorders) and *run* (first `next_arrival` pull to the
//! last output).

use std::marker::PhantomData;
use std::time::Instant;

use flowsched_algos::engine::{
    run_immediate, run_policy_sharded, run_policy_sharded_probed, ShardedConfig,
};
use flowsched_algos::indexed::KernelStats;
use flowsched_algos::registry::PolicySpec;
use flowsched_algos::ImmediateDispatcher;
use flowsched_algos::TieBreak;
use flowsched_core::shard::DEFAULT_MAX_SHARDS;
use flowsched_core::stream::ArrivalStream;
use flowsched_kvstore::replication::ReplicationStrategy;
use flowsched_obs::{
    chrome_trace, machine_spans, prometheus_text_with, task_spans, windows_to_csv, MemoryRecorder,
    NoopRecorder, PipelineMetrics, PromOptions, Recorder, Tee, WindowedMetrics,
};
use flowsched_sim::{simulate_stream_telemetry, ReportConfig, TelemetryConfig};
use flowsched_stats::rng::derive_rng;
use flowsched_stats::service::ServiceDist;
use flowsched_workloads::random::{PoissonStream, PoissonStreamConfig, StructureKind};
use flowsched_workloads::trace::{TraceConfig, TraceStream};

use crate::check::{Fold, ReportKey};
use crate::traced::{Span, TimedDispatcher, TimedRecorder, TimedSink, TimedStream};

/// The policy every workload dispatches under.
pub const SPEC: &str = "eft:min";
/// The one-pass oracle every output is checked against.
pub const ORACLE: &str = "eft:min:scalar:scalar-scan";

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    KvFig11,
    WideInterval,
    TelemetryRing,
    DisjointSharded,
}

/// How a workload drives the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Sequential engine, `NoopRecorder`, report fold.
    Plain,
    /// Sequential engine, lossless telemetry recorders, then spans and
    /// all four exports rendered into memory.
    Telemetry,
    /// `run_policy_sharded` with a worker budget of `nproc`.
    Sharded,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::KvFig11,
        Workload::WideInterval,
        Workload::TelemetryRing,
        Workload::DisjointSharded,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::KvFig11 => "kv_fig11",
            Workload::WideInterval => "wide_interval",
            Workload::TelemetryRing => "telemetry_ring",
            Workload::DisjointSharded => "disjoint_sharded",
        }
    }

    pub fn mode(self) -> Mode {
        match self {
            Workload::KvFig11 | Workload::WideInterval => Mode::Plain,
            Workload::TelemetryRing => Mode::Telemetry,
            Workload::DisjointSharded => Mode::Sharded,
        }
    }

    /// Machines.
    pub fn m(self) -> usize {
        match self {
            Workload::KvFig11 => 15,
            Workload::WideInterval => 1 << 20,
            Workload::TelemetryRing | Workload::DisjointSharded => 256,
        }
    }

    /// Tasks per repetition.
    pub fn n(self) -> usize {
        match self {
            Workload::KvFig11 => 250_000,
            Workload::WideInterval => 1 << 19,
            Workload::TelemetryRing => 50_000,
            Workload::DisjointSharded => 1_000_000,
        }
    }

    /// Processing-set width.
    pub fn k(self) -> usize {
        match self {
            Workload::KvFig11 | Workload::TelemetryRing => 3,
            Workload::WideInterval => 64,
            Workload::DisjointSharded => 16,
        }
    }

    /// Arrival rate λ.
    fn lambda(self) -> f64 {
        let m = self.m() as f64;
        match self {
            Workload::KvFig11 | Workload::WideInterval | Workload::DisjointSharded => 0.5 * m,
            Workload::TelemetryRing => 0.7 * m,
        }
    }

    /// The arrival structure, as the manifest names it.
    pub fn structure(self) -> String {
        let k = self.k();
        match self {
            Workload::KvFig11 => format!("Overlapping(k={k}), Zipf(s=1) over {KV_KEYS} keys"),
            Workload::WideInterval => format!("IntervalFixed({k})"),
            Workload::TelemetryRing => format!("RingFixed({k})"),
            Workload::DisjointSharded => format!("DisjointBlocks({k})"),
        }
    }
}

/// Keys in the Fig. 11 keyspace.
const KV_KEYS: usize = 100_000;
/// RNG stream the key-value trace draws from (`derive_rng(seed, _)`).
const KV_RNG_STREAM: u64 = 0xF1_611;

/// A workload's inputs at one seed and size: every `stream()` call
/// replays the same arrivals.
#[derive(Debug, Clone, Copy)]
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    pub n: usize,
}

impl Inputs {
    pub fn new(workload: Workload, seed: u64) -> Self {
        Inputs {
            workload,
            seed,
            n: workload.n(),
        }
    }

    /// Calls `f` with the stream factory of this workload. The two
    /// stream types differ, so the caller's body is instantiated once
    /// per type.
    pub fn with_stream<T>(&self, f: impl StreamFn<T>) -> T {
        let w = self.workload;
        match w {
            Workload::KvFig11 => {
                let cfg = TraceConfig {
                    m: w.m(),
                    k: w.k(),
                    strategy: ReplicationStrategy::Overlapping,
                    num_keys: KV_KEYS,
                    key_bias: 1.0,
                    lambda: w.lambda(),
                    service: ServiceDist::unit(),
                };
                f.call(&|| TraceStream::new(&cfg, self.n, derive_rng(self.seed, KV_RNG_STREAM)))
            }
            _ => {
                let structure = match w {
                    Workload::WideInterval => StructureKind::IntervalFixed(w.k()),
                    Workload::TelemetryRing => StructureKind::RingFixed(w.k()),
                    _ => StructureKind::DisjointBlocks(w.k()),
                };
                let cfg = PoissonStreamConfig::unit_tasks(w.m(), self.n, w.lambda(), structure);
                f.call(&|| PoissonStream::new(&cfg, self.seed))
            }
        }
    }
}

/// A body generic over the stream type (closures cannot be).
pub trait StreamFn<T> {
    fn call<S: ArrivalStream>(self, make: &dyn Fn() -> S) -> T;
}

fn policy(spec: &str) -> PolicySpec {
    spec.parse().expect("benchmark policy strings parse")
}

fn secs(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64()
}

/// One untraced repetition.
#[derive(Debug, Clone, Copy)]
pub struct Rep<O = ReportKey> {
    pub setup_s: f64,
    pub run_s: f64,
    pub tasks: usize,
    /// What the repetition's [`Fold`] closed into.
    pub out: O,
    /// Repetition-local checks held (telemetry: lossless ring, one task
    /// span per task).
    pub ok: bool,
}

impl<O> Rep<O> {
    pub fn tasks_per_s(&self) -> f64 {
        self.tasks as f64 / self.run_s
    }
}

/// What the telemetry exports produced.
#[derive(Debug, Clone, Copy, Default)]
pub struct Exports {
    pub task_spans: usize,
    pub spans_s: f64,
    pub chrome_s: f64,
    pub chrome_bytes: usize,
    pub prom_s: f64,
    pub csv_s: f64,
    pub csv_bytes: usize,
    pub snapshot_s: f64,
    /// Resident-memory rise from just before the exports to the
    /// high-water mark just after them, in MiB.
    pub rss_growth_mib: f64,
}

/// The lossless telemetry recorders of the `timeline` bin: a
/// `MemoryRecorder` whose ring holds ~6 events per task, teed with
/// one-time-unit windows.
fn telemetry_recorders(m: usize, n: usize) -> Tee<MemoryRecorder, WindowedMetrics> {
    let cfg = telemetry_config(m, n);
    Tee(
        MemoryRecorder::new(&cfg.obs),
        WindowedMetrics::new(cfg.window),
    )
}

fn telemetry_config(m: usize, n: usize) -> TelemetryConfig {
    let mut cfg = TelemetryConfig::defaults(m, 1.0);
    cfg.obs.trace_capacity = 6 * n + 64;
    cfg
}

/// Derives spans and renders the Chrome trace, Prometheus text, window
/// CSV, and snapshot JSON into memory, timing each.
fn export_all(mem: &MemoryRecorder, windows: &WindowedMetrics, spec: &str) -> Exports {
    let rss_before = crate::measure::proc_status_mib("VmRSS");
    let t0 = Instant::now();
    let tasks = task_spans(mem.trace().iter());
    let machines = machine_spans(mem.trace().iter(), mem.makespan_seen());
    let t1 = Instant::now();
    let chrome = chrome_trace(&tasks, &machines);
    let t2 = Instant::now();
    let opts = PromOptions {
        policy: Some(spec),
        extra_gauges: Vec::new(),
    };
    let prom = prometheus_text_with(mem, &opts);
    let t3 = Instant::now();
    let csv = windows_to_csv(windows);
    let t4 = Instant::now();
    let snapshot = mem.snapshot().to_json();
    let t5 = Instant::now();
    let rss_growth_mib = crate::measure::proc_status_mib("VmHWM") - rss_before;
    assert!(!prom.is_empty() && !snapshot.is_empty());
    Exports {
        task_spans: tasks.len(),
        spans_s: secs(t0, t1),
        chrome_s: secs(t1, t2),
        chrome_bytes: chrome.len(),
        prom_s: secs(t2, t3),
        csv_s: secs(t3, t4),
        csv_bytes: csv.len(),
        snapshot_s: secs(t4, t5),
        rss_growth_mib,
    }
}

/// The telemetry checks: nothing dropped, one span per task.
fn telemetry_ok(mem: &MemoryRecorder, exports: &Exports, n: usize) -> bool {
    mem.trace().dropped() == 0 && exports.task_spans == n
}

/// One untraced repetition of `inputs` under `spec`, driven as `mode`
/// says (the workload's own [`Workload::mode`] for the end-to-end
/// metrics), ending in the fold `K`: `ReportBuilder` for the timed
/// repetitions, `CheckSink` for the hashed ones.
pub fn rep<K: Fold>(inputs: &Inputs, spec: &str, mode: Mode) -> Rep<K::Out> {
    struct Body<'a, K>(Mode, PolicySpec, &'a str, PhantomData<K>);
    impl<K: Fold> StreamFn<Rep<K::Out>> for Body<'_, K> {
        fn call<S: ArrivalStream>(self, make: &dyn Fn() -> S) -> Rep<K::Out> {
            let Body(mode, spec, spec_str, _) = self;
            let t0 = Instant::now();
            let stream = make();
            let tasks = stream.len_hint().unwrap_or(0);
            let mut sink = K::open(&stream);
            // Each arm reads the end clock itself, so dropping the
            // engine state and recorders is not charged to the run.
            let (t1, t2, out, ok) = match mode {
                Mode::Plain => {
                    let mut state = spec.build_for_stream(&stream);
                    let t1 = Instant::now();
                    run_immediate(stream, &mut state, &mut NoopRecorder, &mut sink);
                    let out = sink.close();
                    (t1, Instant::now(), out, true)
                }
                Mode::Telemetry => {
                    let mut state = spec.build_for_stream(&stream);
                    let mut rec = telemetry_recorders(stream.machines(), tasks);
                    let t1 = Instant::now();
                    run_immediate(stream, &mut state, &mut rec, &mut sink);
                    let out = sink.close();
                    let exports = export_all(&rec.0, &rec.1, spec_str);
                    let t2 = Instant::now();
                    (t1, t2, out, telemetry_ok(&rec.0, &exports, tasks))
                }
                Mode::Sharded => {
                    let plan = stream.shard_plan(DEFAULT_MAX_SHARDS);
                    let cfg = ShardedConfig::with_threads(crate::measure::nproc());
                    let t1 = Instant::now();
                    run_policy_sharded(stream, &spec, &plan, &cfg, &mut NoopRecorder, &mut sink);
                    let out = sink.close();
                    (t1, Instant::now(), out, true)
                }
            };
            Rep {
                setup_s: secs(t0, t1),
                run_s: secs(t1, t2),
                tasks,
                out,
                ok,
            }
        }
    }
    inputs.with_stream(Body::<K>(mode, policy(spec), spec, PhantomData))
}

/// One traced sequential repetition: every layer behind its adapter.
pub struct TracedSeq<S, R, K> {
    pub stream: TimedStream<S>,
    pub state: TimedDispatcher<flowsched_algos::PolicyState>,
    pub rec: R,
    pub sink: TimedSink<K>,
    pub stream_s: f64,
    pub build_s: f64,
    pub run_s: f64,
}

/// Builds the layers (timing stream construction and
/// `build_for_stream` apart) and runs the sequential engine over them.
fn traced_seq<S, R, K>(make: &dyn Fn() -> S, spec: &PolicySpec, mut rec: R) -> TracedSeq<S, R, K>
where
    S: ArrivalStream,
    R: Recorder,
    K: Fold,
{
    let t0 = Instant::now();
    let mut stream = TimedStream::new(make());
    let t1 = Instant::now();
    let calls = stream.len_hint().unwrap_or(0);
    let mut state = TimedDispatcher::new(spec.build_for_stream(&stream), calls);
    let t2 = Instant::now();
    let mut sink = TimedSink::new(K::open(&stream));
    let t3 = Instant::now();
    run_immediate(&mut stream, &mut state, &mut rec, &mut sink);
    let t4 = Instant::now();
    TracedSeq {
        stream,
        state,
        rec,
        sink,
        stream_s: secs(t0, t1),
        build_s: secs(t1, t2),
        run_s: secs(t3, t4),
    }
}

/// Everything one traced repetition measured.
#[derive(Debug, Clone, Default)]
pub struct TracedRep<O = ReportKey> {
    pub tasks: usize,
    /// What the repetition's [`Fold`] closed into.
    pub out: O,
    pub ok: bool,
    pub stream_s: f64,
    pub build_s: f64,
    /// First pull to last output, adapters included.
    pub wall_s: f64,
    /// `run_immediate` (or the sharded engine) alone.
    pub engine_s: f64,
    pub finish_s: f64,
    pub stream: Span,
    pub dispatch: Span,
    pub dispatch_latencies_ns: Vec<u32>,
    pub sink: Span,
    pub recorder: Span,
    pub window: Span,
    pub kernel: Option<KernelStats>,
    pub events: usize,
    pub dropped: u64,
    pub exports: Option<Exports>,
    pub pipeline: Option<PipelineMetrics>,
}

/// One traced repetition of `inputs` under `spec`, along the
/// workload's own path, ending in the fold `K`.
pub fn traced_rep<K: Fold>(inputs: &Inputs, spec: &str) -> TracedRep<K::Out> {
    struct Body<K>(Workload, PolicySpec, usize, PhantomData<K>);
    impl<K: Fold> StreamFn<TracedRep<K::Out>> for Body<K> {
        fn call<S: ArrivalStream>(self, make: &dyn Fn() -> S) -> TracedRep<K::Out> {
            let Body(workload, spec, n, _) = self;
            match workload.mode() {
                Mode::Plain => {
                    let rec = TimedRecorder::new(NoopRecorder);
                    let mut t = traced_seq::<S, _, K>(make, &spec, rec);
                    let recorder = t.rec.span;
                    let base = seq_profile(&mut t, recorder);
                    let (out, finish_s) = close(t.sink.inner);
                    TracedRep {
                        out,
                        ok: true,
                        finish_s,
                        wall_s: t.run_s + finish_s,
                        ..base
                    }
                }
                Mode::Telemetry => {
                    let Tee(mem, win) = telemetry_recorders(workload.m(), n);
                    let rec = Tee(TimedRecorder::new(mem), TimedRecorder::new(win));
                    let mut t = traced_seq::<S, _, K>(make, &spec, rec);
                    let recorder = t.rec.0.span;
                    let base = seq_profile(&mut t, recorder);
                    let (out, finish_s) = close(t.sink.inner);
                    let (mem, win) = (&t.rec.0.inner, &t.rec.1.inner);
                    let exports = export_all(mem, win, &spec.to_string());
                    let export_s = exports.spans_s
                        + exports.chrome_s
                        + exports.prom_s
                        + exports.csv_s
                        + exports.snapshot_s;
                    TracedRep {
                        out,
                        ok: telemetry_ok(mem, &exports, n),
                        finish_s,
                        wall_s: t.run_s + finish_s + export_s,
                        window: t.rec.1.span,
                        events: mem.trace().len(),
                        dropped: mem.trace().dropped(),
                        exports: Some(exports),
                        ..base
                    }
                }
                Mode::Sharded => {
                    let s = Instant::now();
                    let mut stream = TimedStream::new(make());
                    let stream_s = s.elapsed().as_secs_f64();
                    let tasks = stream.len_hint().unwrap_or(0);
                    let plan = stream.shard_plan(DEFAULT_MAX_SHARDS);
                    let cfg = ShardedConfig::with_threads(crate::measure::nproc());
                    let mut sink = TimedSink::new(K::open(&stream));
                    let probe = PipelineMetrics::new();
                    let t0 = Instant::now();
                    run_policy_sharded_probed(
                        &mut stream,
                        &spec,
                        &plan,
                        &cfg,
                        &mut NoopRecorder,
                        &mut sink,
                        probe.clone(),
                    );
                    let engine_s = t0.elapsed().as_secs_f64();
                    let (out, finish_s) = close(sink.inner);
                    // The shard states are built inside the workers; build
                    // the same ones here to time the layer.
                    let b = Instant::now();
                    let states: Vec<_> = (0..plan.shards())
                        .map(|s| spec.for_shard(s).build(plan.len_of(s)))
                        .collect();
                    let build_s = b.elapsed().as_secs_f64();
                    drop(states);
                    TracedRep {
                        tasks,
                        out,
                        ok: true,
                        stream_s,
                        build_s,
                        wall_s: engine_s + finish_s,
                        engine_s,
                        finish_s,
                        stream: stream.span,
                        sink: sink.span,
                        pipeline: Some(probe),
                        ..TracedRep::default()
                    }
                }
            }
        }
    }
    let body = Body::<K>(inputs.workload, policy(spec), inputs.n, PhantomData);
    inputs.with_stream(body)
}

/// Closes a fold, timing it.
fn close<K: Fold>(sink: K) -> (K::Out, f64) {
    let t = Instant::now();
    let out = sink.close();
    (out, t.elapsed().as_secs_f64())
}

/// The fields a sequential traced repetition shares across modes.
fn seq_profile<S, R, K, O: Default>(t: &mut TracedSeq<S, R, K>, recorder: Span) -> TracedRep<O> {
    TracedRep {
        tasks: t.state.latencies_ns.len(),
        stream_s: t.stream_s,
        build_s: t.build_s,
        engine_s: t.run_s,
        stream: t.stream.span,
        dispatch: t.state.span,
        dispatch_latencies_ns: std::mem::take(&mut t.state.latencies_ns),
        sink: t.sink.span,
        recorder,
        kernel: t.state.kernel_stats(),
        ..TracedRep::default()
    }
}

/// The telemetry workload's report through the one-call public entry
/// `sim::simulate_stream_telemetry`, with the same lossless recorders.
pub fn public_telemetry_key(inputs: &Inputs) -> ReportKey {
    struct Body(usize);
    impl StreamFn<ReportKey> for Body {
        fn call<S: ArrivalStream>(self, make: &dyn Fn() -> S) -> ReportKey {
            let stream = make();
            let n = stream.len_hint().unwrap_or(0);
            let cfg = telemetry_config(self.0, n);
            let t =
                simulate_stream_telemetry(stream, TieBreak::Min, &ReportConfig::default(), &cfg);
            ReportKey::from(&t.report)
        }
    }
    inputs.with_stream(Body(inputs.workload.m()))
}

/// Drains a fresh stream with no clock inside the loop: the stream
/// layer's cost with nothing downstream. Returns ns per task.
pub fn stream_only_ns(inputs: &Inputs) -> f64 {
    struct Body;
    impl StreamFn<f64> for Body {
        fn call<S: ArrivalStream>(self, make: &dyn Fn() -> S) -> f64 {
            let mut stream = make();
            let t = Instant::now();
            let mut tasks = 0u64;
            let mut acc = 0.0;
            while let Some((task, set)) = stream.next_arrival() {
                acc += task.release + set.len() as f64;
                tasks += 1;
            }
            std::hint::black_box(acc);
            t.elapsed().as_nanos() as f64 / tasks.max(1) as f64
        }
    }
    inputs.with_stream(Body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::CheckSink;
    use flowsched_sim::ReportBuilder;

    fn small(workload: Workload) -> Inputs {
        Inputs {
            workload,
            seed: 7,
            n: 20_000,
        }
    }

    #[test]
    fn traced_runs_hash_like_untraced_runs() {
        for w in Workload::ALL {
            let inputs = small(w);
            let oracle = rep::<CheckSink>(&inputs, ORACLE, Mode::Plain).out;
            let untraced = rep::<CheckSink>(&inputs, SPEC, w.mode());
            let traced = traced_rep::<CheckSink>(&inputs, SPEC);
            assert_eq!(oracle.tasks, inputs.n as u64, "{w:?}");
            assert_eq!(
                untraced.out, oracle,
                "{w:?}: untraced run differs from the oracle"
            );
            assert_eq!(
                traced.out, untraced.out,
                "{w:?}: traced run differs from untraced"
            );
            assert!(untraced.ok && traced.ok, "{w:?}: telemetry check failed");
        }
    }

    #[test]
    fn reps_match_the_oracle_report() {
        for w in Workload::ALL {
            let inputs = small(w);
            let oracle = rep::<CheckSink>(&inputs, ORACLE, Mode::Plain).out;
            let r = rep::<ReportBuilder>(&inputs, SPEC, w.mode());
            assert!(r.ok, "{w:?}");
            assert_eq!(r.out, oracle.key, "{w:?}");
            assert_eq!(r.tasks, inputs.n, "{w:?}");
            let t = traced_rep::<ReportBuilder>(&inputs, SPEC);
            assert!(t.ok, "{w:?}");
            assert_eq!(t.out, oracle.key, "{w:?}");
        }
    }

    #[test]
    fn same_seed_same_inputs() {
        let run = |seed| {
            let inputs = Inputs {
                seed,
                ..small(Workload::KvFig11)
            };
            rep::<CheckSink>(&inputs, SPEC, Mode::Plain).out
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).hash, run(8).hash);
    }
}
