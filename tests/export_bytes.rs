//! Byte-level pins on the Chrome trace and window CSV exporters, and a
//! property test that every number in the Chrome trace is the exact
//! value of the span it came from.
//!
//! The FNV-1a hashes and lengths were recorded from the
//! `serde_json::Value`-tree renderer the exporters used to build; the
//! direct writers in `obs::export` must reproduce those bytes exactly.
//! A change that moves a pin changes what `timeline` writes, and has to
//! say so.

use flowsched::algos::tiebreak::TieBreak;
use flowsched::obs::{
    chrome_trace, chrome_trace_full, machine_spans, task_spans, windows_to_csv, BreachMark,
    MachineSpan, OutageSpan, TaskSpan,
};
use flowsched::sim::report::ReportConfig;
use flowsched::sim::telemetry::{simulate_stream_telemetry, Telemetry, TelemetryConfig};
use flowsched::workloads::random::{PoissonStream, PoissonStreamConfig, StructureKind};
use proptest::prelude::*;
use serde_json::Value;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn assert_pinned(what: &str, text: &str, hash: u64, len: usize) {
    assert_eq!(
        (fnv1a(text.as_bytes()), text.len()),
        (hash, len),
        "{what}: exported bytes moved (got hash {:#018x}, {} bytes)",
        fnv1a(text.as_bytes()),
        text.len()
    );
}

/// The run `tests/telemetry_pipeline.rs` checks structurally.
fn pipeline_run() -> Telemetry {
    const M: usize = 8;
    const N: usize = 400;
    let cfg = PoissonStreamConfig {
        m: M,
        n: N,
        structure: StructureKind::RingFixed(3),
        lambda: 0.6 * M as f64,
        unit: false,
        ptime_steps: 5,
    };
    let mut telemetry_cfg = TelemetryConfig::defaults(M, 2.0);
    telemetry_cfg.obs.trace_capacity = 8 * N;
    simulate_stream_telemetry(
        PoissonStream::new(&cfg, 1234),
        TieBreak::Min,
        &ReportConfig::default(),
        &telemetry_cfg,
    )
}

#[test]
fn pipeline_run_exports_are_pinned() {
    let t = pipeline_run();
    let tasks = task_spans(t.recorder.trace().iter());
    let machines = machine_spans(t.recorder.trace().iter(), t.recorder.makespan_seen());
    assert_pinned(
        "chrome_trace",
        &chrome_trace(&tasks, &machines),
        0xa757_9d58_bd5e_497c,
        85_298,
    );
    assert_pinned(
        "windows_to_csv",
        &windows_to_csv(&t.windows),
        0xf0c6_e087_58e8_714e,
        8_899,
    );
}

/// Every number-format edge the writer has: `-0.0` (prints `0`), a
/// timestamp past 9e15 (prints in full, not through `i64`), a NaN
/// bound (prints `null`), ties between kinds (machines, then outages,
/// then tasks, then breaches), and fractional values.
#[test]
fn edge_case_chrome_trace_is_pinned() {
    let tasks = [
        TaskSpan {
            task: 0,
            machine: 0,
            release: 0.0,
            start: -0.0,
            finish: 1.5,
        },
        TaskSpan {
            task: 7,
            machine: 3,
            release: 0.1,
            start: 0.0,
            finish: 0.3,
        },
        TaskSpan {
            task: u64::MAX,
            machine: 2,
            release: 9.0e9,
            start: 1.0e10,
            finish: 1.0e10 + 0.5,
        },
    ];
    let machines = [
        MachineSpan {
            machine: 0,
            start: -0.0,
            end: 1.5,
        },
        MachineSpan {
            machine: 3,
            start: 0.0,
            end: 0.3,
        },
        MachineSpan {
            machine: 2,
            start: 1.0e10,
            end: 1.0e10 + 0.5,
        },
    ];
    let outages = [OutageSpan {
        machine: 1,
        start: 0.0,
        end: 2.0 / 3.0,
    }];
    let breaches = [BreachMark {
        at: 0.3,
        ratio: 2.5,
        bound: f64::NAN,
    }];
    assert_pinned(
        "chrome_trace_full",
        &chrome_trace_full(&tasks, &machines, &outages, &breaches),
        0xc98c_12e7_9963_fafe,
        1_566,
    );
}

/// One span value: a raw draw reshaped by `pick` into an integer, a
/// value past the 9e15 integer cut-off once scaled to microseconds, a
/// repeating fraction, or the raw draw.
fn shaped(raw: f64, pick: u32) -> f64 {
    match pick % 4 {
        0 => raw.round(),
        1 => raw * 1.0e10,
        2 => raw / 3.0,
        _ => raw,
    }
}

fn num(e: &Value, key: &str) -> f64 {
    e.get(key).and_then(Value::as_f64).expect("numeric field")
}

/// One event as comparable text: `-0.0` and `0.0` print the same in the
/// trace, so they are folded together here; `{:?}` prints every other
/// `f64` exactly.
fn row(label: String, ts: f64, dur: f64, args: &[f64]) -> String {
    let canon = |x: f64| x + 0.0;
    let args: Vec<f64> = args.iter().map(|&a| canon(a)).collect();
    format!("{label} {:?} {:?} {args:?}", canon(ts), canon(dur))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The trace parses, its span events are sorted by `ts`, and each
    /// one's `ts`/`dur`/`args` are exactly the source span's values
    /// (scaled to microseconds where the format says so).
    #[test]
    fn chrome_trace_numbers_are_exact(
        raw_tasks in prop::collection::vec(
            (0u32..6, any::<u64>(), -10.0f64..1.0e4, 0.0f64..100.0, 0.0f64..100.0, any::<u32>()),
            0..24,
        ),
        raw_outages in prop::collection::vec((0u32..6, -10.0f64..1.0e4, 0.0f64..50.0, any::<u32>()), 0..4),
        raw_breaches in prop::collection::vec((-10.0f64..1.0e4, 0.0f64..10.0, any::<u32>()), 0..4),
    ) {
        let tasks: Vec<TaskSpan> = raw_tasks
            .iter()
            .map(|&(machine, task, release, wait, service, pick)| {
                let release = shaped(release, pick);
                let start = release + shaped(wait, pick >> 2);
                TaskSpan { task, machine, release, start, finish: start + shaped(service, pick >> 4) }
            })
            .collect();
        let machines: Vec<MachineSpan> = tasks
            .iter()
            .map(|t| MachineSpan { machine: t.machine, start: t.start, end: t.finish })
            .collect();
        let outages: Vec<OutageSpan> = raw_outages
            .iter()
            .map(|&(machine, start, len, pick)| {
                let start = shaped(start, pick);
                OutageSpan { machine, start, end: start + shaped(len, pick >> 2) }
            })
            .collect();
        let breaches: Vec<BreachMark> = raw_breaches
            .iter()
            .map(|&(at, ratio, pick)| BreachMark { at: shaped(at, pick), ratio: shaped(ratio, pick >> 2), bound: 2.0 })
            .collect();

        let json = chrome_trace_full(&tasks, &machines, &outages, &breaches);
        let root: Value = serde_json::from_str(&json).expect("trace is valid JSON");
        let events = match root.get("traceEvents") {
            Some(Value::Array(items)) => items,
            other => panic!("traceEvents is not an array: {other:?}"),
        };

        let mut want: Vec<String> = Vec::new();
        for m in &machines {
            want.push(row(format!("busy@{}", m.machine), m.start * 1e6, (m.end - m.start) * 1e6, &[]));
        }
        for o in &outages {
            want.push(row(format!("down@{}", o.machine), o.start * 1e6, (o.end - o.start) * 1e6, &[]));
        }
        for t in &tasks {
            want.push(row(
                format!("task {}@{}", t.task, t.machine),
                t.start * 1e6,
                t.service() * 1e6,
                &[t.release, t.wait(), t.flow()],
            ));
        }
        for b in &breaches {
            want.push(row("slo_breach@0".into(), b.at * 1e6, 0.0, &[b.ratio, b.bound]));
        }

        let mut got: Vec<String> = Vec::new();
        let mut last_ts = f64::NEG_INFINITY;
        for e in events.iter() {
            let ph = e.get("ph").and_then(Value::as_str).expect("ph");
            if ph == "M" {
                continue;
            }
            let ts = num(e, "ts");
            prop_assert!(ts >= last_ts, "ts went back from {} to {}", last_ts, ts);
            last_ts = ts;
            let name = e.get("name").and_then(Value::as_str).expect("name");
            let label = format!("{name}@{}", num(e, "tid"));
            let args: Vec<f64> = match e.get("args") {
                Some(Value::Object(fields)) => fields
                    .iter()
                    .map(|(_, v)| v.as_f64().expect("numeric arg"))
                    .collect(),
                _ => vec![],
            };
            let dur = if ph == "X" { num(e, "dur") } else { 0.0 };
            got.push(row(label, ts, dur, &args));
        }
        got.sort();
        want.sort();
        prop_assert_eq!(got, want);
    }
}
