//! flowbench — the end-to-end benchmark of flowsched.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path flowbench/Cargo.toml -- \
//!     --workload <kv_fig11|wide_interval|telemetry_ring|disjoint_sharded> \
//!     --seed <u64> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run is one process and one workload. It rebuilds the
//! workload's inputs from `--seed` and repeats the workload through the
//! public run surface (`PolicySpec::build_for_stream` →
//! `engine::run_immediate` / `engine::run_policy_sharded` →
//! `ReportBuilder` → `obs` exporters) for `--seconds` seconds. Then it
//! checks every repetition's output against the one-pass oracle
//! `eft:min:scalar:scalar-scan` on the same seed.
//!
//! - `--trace 0` reports the end-to-end metrics: `tasks_per_s`,
//!   `setup_s` (each the median of the run's best quarter of
//!   repetitions), `peak_rss_mib`.
//! - `--trace 1` runs the layers behind timing adapters (`traced.rs`)
//!   and reports the per-layer metrics that `METRICS.md` defines.
//!
//! Standard output ends with two lines: a run manifest (policy, seed,
//! sizes, rev, nproc, and the reported value, median, quartiles and
//! sample count per metric),
//! then the result object
//! `{"correct", "attempted", "failed", "metrics"}`. `failed / attempted`
//! is the share of checked outputs that did not match; a run with a
//! failed check still prints both lines, then exits with status 1.

mod check;
mod measure;
mod traced;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use flowsched_obs::Stage;

use flowsched_sim::ReportBuilder;

use crate::check::{CheckSink, Outcome};
use crate::measure::{best_quarter, median, Better, Summary};
use crate::workload::{Inputs, Mode, Rep, TracedRep, Workload, ORACLE, SPEC};

/// Repetitions every run makes, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// Extra repetitions of the traced run's side measurements.
const SIDE_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let bad = |what: &str| format!("{flag} takes {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    bad(&names.join("|"))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("a u64"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a positive number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("a positive number"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric: the value the result line carries, and the
/// summary of its samples the manifest carries.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    summary: Summary,
}

impl Metric {
    /// A per-layer metric: the median of its samples.
    fn of(name: &'static str, unit: &'static str, values: &[f64]) -> Metric {
        let summary = Summary::of(values);
        Metric {
            name,
            unit,
            value: summary.median,
            summary,
        }
    }

    /// An end-to-end timing: the median of its best quarter.
    fn timing(name: &'static str, unit: &'static str, values: &[f64], better: Better) -> Metric {
        Metric {
            value: best_quarter(values, better),
            ..Metric::of(name, unit, values)
        }
    }

    fn one(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric::of(name, unit, &[value])
    }
}

/// The tallies of one run's output checks.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn count(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Counts one untraced repetition against the oracle.
    fn rep(&mut self, r: &Rep, oracle: &Outcome) {
        self.count(r.ok && r.out == oracle.key && r.tasks as u64 == oracle.tasks);
    }

    fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Repeats `f` until `budget` has passed and at least [`MIN_REPS`] ran.
fn repeat<T>(budget: Duration, mut f: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < MIN_REPS || start.elapsed() < budget {
        out.push(f());
    }
    out
}

/// The oracle's outcome plus the checks every run makes once: the
/// workload's own path hashes like the oracle, the sharded engine like
/// the sequential one, and the one-call telemetry entry reports alike.
fn common_checks(inputs: &Inputs, checks: &mut Checks) -> Outcome {
    let mode = inputs.workload.mode();
    let oracle = workload::rep::<CheckSink>(inputs, ORACLE, Mode::Plain).out;
    checks.count(oracle.tasks == inputs.n as u64);
    let own = workload::rep::<CheckSink>(inputs, SPEC, mode);
    checks.count(own.ok && own.out == oracle);
    match mode {
        Mode::Plain => {}
        Mode::Telemetry => checks.count(workload::public_telemetry_key(inputs) == oracle.key),
        Mode::Sharded => {
            let seq = workload::rep::<CheckSink>(inputs, SPEC, Mode::Plain).out;
            checks.count(seq.hash == own.out.hash);
        }
    }
    oracle
}

/// `--trace 0`: the end-to-end metrics.
fn end_to_end(inputs: &Inputs, seconds: f64) -> (Vec<Metric>, Checks, usize) {
    let mode = inputs.workload.mode();
    let reps = repeat(Duration::from_secs_f64(seconds), || {
        workload::rep::<ReportBuilder>(inputs, SPEC, mode)
    });
    // Read before the checks run, so the oracle's memory does not count.
    let peak_rss_mib = measure::proc_status_mib("VmHWM");
    let mut checks = Checks::default();
    let oracle = common_checks(inputs, &mut checks);
    for r in &reps {
        checks.rep(r, &oracle);
    }
    let tput: Vec<f64> = reps.iter().map(Rep::tasks_per_s).collect();
    let setup: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let metrics = vec![
        Metric::timing("tasks_per_s", "tasks/s", &tput, Better::Higher),
        Metric::timing("setup_s", "s", &setup, Better::Lower),
        Metric::one("peak_rss_mib", "MiB", peak_rss_mib),
    ];
    (metrics, checks, reps.len())
}

/// `--trace 1`: the per-layer metrics.
fn per_layer(inputs: &Inputs, seconds: f64) -> (Vec<Metric>, Checks, usize) {
    let w = inputs.workload;
    let mode = w.mode();
    let clock_ns = measure::clock_cost_ns();

    // Traced and untraced repetitions alternate, so their wall times
    // see the same host conditions.
    let rounds = repeat(Duration::from_secs_f64(seconds / 2.0), || {
        let traced = workload::traced_rep::<ReportBuilder>(inputs, SPEC);
        let plain = workload::rep::<ReportBuilder>(inputs, SPEC, mode);
        (traced, plain)
    });
    let (traced, plain): (Vec<TracedRep>, Vec<Rep>) = rounds.into_iter().unzip();
    let stream_only: Vec<f64> = (0..SIDE_REPS)
        .map(|_| workload::stream_only_ns(inputs))
        .collect();
    let side = |spec: &str, mode: Mode| -> Vec<Rep> {
        (0..SIDE_REPS)
            .map(|_| workload::rep::<ReportBuilder>(inputs, spec, mode))
            .collect()
    };
    let (forced_scalar, forced_indexed) = if w == Workload::WideInterval {
        (
            side("eft:min:scalar", Mode::Plain),
            side("eft:min:indexed", Mode::Plain),
        )
    } else {
        (Vec::new(), Vec::new())
    };
    let sequential = if mode == Mode::Sharded {
        side(SPEC, Mode::Plain)
    } else {
        Vec::new()
    };

    let mut checks = Checks::default();
    let oracle = common_checks(inputs, &mut checks);
    let hashed = workload::traced_rep::<CheckSink>(inputs, SPEC);
    checks.count(hashed.ok && hashed.out == oracle);
    for r in plain
        .iter()
        .chain(&forced_scalar)
        .chain(&forced_indexed)
        .chain(&sequential)
    {
        checks.rep(r, &oracle);
    }
    for t in &traced {
        checks.count(t.ok && t.out == oracle.key && t.tasks as u64 == oracle.tasks);
    }

    let per_task = |f: &dyn Fn(&TracedRep) -> f64| -> Vec<f64> {
        traced
            .iter()
            .map(|t| f(t) / t.tasks.max(1) as f64)
            .collect()
    };
    let each = |f: &dyn Fn(&TracedRep) -> f64| -> Vec<f64> { traced.iter().map(f).collect() };
    let ns_per_task = |reps: &[Rep]| -> Vec<f64> {
        reps.iter()
            .map(|r| r.run_s * 1e9 / r.tasks.max(1) as f64)
            .collect()
    };
    let last = traced.last().expect("at least one traced repetition");
    let n = last.tasks.max(1) as f64;
    let kernel = last.kernel.unwrap_or_default();
    let exports = |f: &dyn Fn(&workload::Exports) -> f64| -> Vec<f64> {
        traced
            .iter()
            .map(|t| t.exports.as_ref().map_or(0.0, f))
            .collect()
    };
    let stage = |stage: Stage, f: &dyn Fn(&flowsched_obs::StageStats) -> f64| -> Vec<f64> {
        traced
            .iter()
            .map(|t| t.pipeline.as_ref().map_or(0.0, |p| f(&p.stage(stage))))
            .collect()
    };
    let probe = |f: &dyn Fn(&flowsched_obs::PipelineMetrics) -> u64| -> Vec<f64> {
        traced
            .iter()
            .map(|t| t.pipeline.as_ref().map_or(0.0, |p| f(p) as f64))
            .collect()
    };
    let dispatch_ns = if mode == Mode::Sharded {
        stage(Stage::Dispatch, &|s| s.ns_per_item())
    } else {
        per_task(&|t| t.dispatch.self_ns(clock_ns))
    };
    let seq_tput: Vec<f64> = sequential.iter().map(Rep::tasks_per_s).collect();
    let plain_tput: Vec<f64> = plain.iter().map(Rep::tasks_per_s).collect();
    let speedup = if sequential.is_empty() {
        0.0
    } else {
        median(&plain_tput) / median(&seq_tput)
    };
    let plain_wall: Vec<f64> = plain.iter().map(|r| r.run_s).collect();
    let overhead = median(&each(&|t| t.wall_s)) / median(&plain_wall) - 1.0;
    const MIB: f64 = 1024.0 * 1024.0;

    let metrics = vec![
        Metric::of(
            "workloads.next_arrival_ns",
            "ns",
            &per_task(&|t| t.stream.self_ns(clock_ns)),
        ),
        Metric::of("workloads.stream_only_ns", "ns", &stream_only),
        Metric::of("workloads.setup_s", "s", &each(&|t| t.stream_s)),
        Metric::of("algos.build_s", "s", &each(&|t| t.build_s)),
        Metric::of("algos.dispatch_ns", "ns", &dispatch_ns),
        Metric::of(
            "algos.dispatch_p99_ns",
            "ns",
            &each(&|t| p99_ns(&t.dispatch_latencies_ns, clock_ns)),
        ),
        Metric::one(
            "algos.indexed_share",
            "ratio",
            kernel.indexed_descents as f64 / n,
        ),
        Metric::one(
            "algos.scalar_fallback_share",
            "ratio",
            kernel.scalar_fallback_scans as f64 / n,
        ),
        Metric::one(
            "algos.heap_self_heals",
            "count",
            kernel.heap_self_heals as f64,
        ),
        Metric::of("algos.forced_scalar_ns", "ns", &ns_per_task(&forced_scalar)),
        Metric::of(
            "algos.forced_indexed_ns",
            "ns",
            &ns_per_task(&forced_indexed),
        ),
        Metric::of(
            "engine.residual_ns",
            "ns",
            &per_task(&|t| {
                let layers = [t.stream, t.dispatch, t.sink, t.recorder, t.window];
                let charged: f64 = layers.iter().map(|s| s.charged_ns(clock_ns)).sum();
                (t.engine_s * 1e9 - charged).max(0.0)
            }),
        ),
        Metric::of(
            "sim.accept_ns",
            "ns",
            &per_task(&|t| t.sink.self_ns(clock_ns)),
        ),
        Metric::of("sim.finish_s", "s", &each(&|t| t.finish_s)),
        Metric::of(
            "obs.recorder_ns",
            "ns",
            &per_task(&|t| t.recorder.self_ns(clock_ns)),
        ),
        Metric::of(
            "obs.window_ns",
            "ns",
            &per_task(&|t| t.window.self_ns(clock_ns)),
        ),
        Metric::one("obs.events_per_task", "ratio", last.events as f64 / n),
        Metric::one("obs.trace_dropped", "count", last.dropped as f64),
        Metric::of("obs.spans_s", "s", &exports(&|e| e.spans_s)),
        Metric::of("obs.export.chrome_s", "s", &exports(&|e| e.chrome_s)),
        Metric::of(
            "obs.export.chrome_mib",
            "MiB",
            &exports(&|e| e.chrome_bytes as f64 / MIB),
        ),
        Metric::of("obs.export.csv_s", "s", &exports(&|e| e.csv_s)),
        Metric::of(
            "obs.export.csv_mib",
            "MiB",
            &exports(&|e| e.csv_bytes as f64 / MIB),
        ),
        Metric::of("obs.export.prom_s", "s", &exports(&|e| e.prom_s)),
        Metric::of("obs.export.snapshot_s", "s", &exports(&|e| e.snapshot_s)),
        // Only the first export of the process moves the high-water mark.
        Metric::one(
            "obs.export.rss_growth_mib",
            "MiB",
            traced[0].exports.map_or(0.0, |e| e.rss_growth_mib),
        ),
        Metric::of(
            "parallel.route_ns",
            "ns",
            &stage(Stage::Route, &|s| s.ns_per_item()),
        ),
        Metric::of(
            "parallel.dispatch_ns",
            "ns",
            &stage(Stage::Dispatch, &|s| s.ns_per_item()),
        ),
        Metric::of(
            "parallel.merge_ns",
            "ns",
            &stage(Stage::Merge, &|s| s.ns_per_item()),
        ),
        Metric::of(
            "parallel.enqueue_wait_ms",
            "ms",
            &stage(Stage::EnqueueWait, &|s| s.total_ns as f64 / 1e6),
        ),
        Metric::of(
            "parallel.dequeue_wait_ms",
            "ms",
            &stage(Stage::DequeueWait, &|s| s.total_ns as f64 / 1e6),
        ),
        Metric::of(
            "parallel.depth_hwm",
            "count",
            &probe(&|p| p.depth_high_water()),
        ),
        Metric::of("parallel.stalls", "count", &probe(&|p| p.stalls())),
        Metric::of(
            "parallel.forced_flushes",
            "count",
            &probe(&|p| p.forced_flushes()),
        ),
        Metric::of("parallel.seq_tasks_per_s", "tasks/s", &seq_tput),
        Metric::one("parallel.speedup", "ratio", speedup),
        Metric::one("trace.overhead_frac", "ratio", overhead),
        Metric::one("trace.clock_ns", "ns", clock_ns),
        Metric::one("failed_frac", "ratio", checks.failed_frac()),
    ];
    (metrics, checks, traced.len())
}

/// 99th percentile of per-call latencies, less one clock read.
fn p99_ns(latencies: &[u32], clock_ns: f64) -> f64 {
    if latencies.is_empty() {
        return 0.0;
    }
    let mut v = latencies.to_vec();
    let i = (v.len() * 99 / 100).min(v.len() - 1);
    let (_, p, _) = v.select_nth_unstable(i);
    (*p as f64 - clock_ns).max(0.0)
}

/// A finite number as JSON (the metrics are never NaN by construction;
/// a stray one is reported as 0 rather than as invalid JSON).
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("flowbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let inputs = Inputs::new(w, args.seed);
    let (metrics, checks, samples) = if args.trace {
        per_layer(&inputs, args.seconds)
    } else {
        end_to_end(&inputs, args.seconds)
    };

    let summaries: Vec<String> = metrics
        .iter()
        .map(|m| {
            let s = m.summary;
            format!(
                "\"{}\": {{\"unit\": \"{}\", \"value\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"samples\": {}}}",
                m.name,
                m.unit,
                num(m.value),
                num(s.median),
                num(s.q1),
                num(s.q3),
                s.samples
            )
        })
        .collect();
    println!(
        "{{\"manifest\": {{\"workload\": \"{}\", \"policy\": \"{SPEC}\", \"oracle\": \"{ORACLE}\", \
         \"seed\": {}, \"m\": {}, \"n\": {}, \"k\": {}, \"structure\": \"{}\", \"rev\": \"{}\", \
         \"nproc\": {}, \"seconds\": {}, \"trace\": {}, \"repetitions\": {samples}, \
         \"metrics\": {{{}}}}}}}",
        w.name(),
        args.seed,
        w.m(),
        inputs.n,
        w.k(),
        w.structure(),
        measure::git_rev(),
        measure::nproc(),
        num(args.seconds),
        u8::from(args.trace),
        summaries.join(", ")
    );
    let values: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        values.join(", ")
    );
    // A run whose outputs failed a check is not a valid measurement.
    if checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
