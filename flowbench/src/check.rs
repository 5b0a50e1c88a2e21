//! Output checks: the schedule hash, the report digest, the sink that
//! produces both in one pass, and the [`Fold`] seam that lets one run
//! path end in either sink.

use flowsched_algos::engine::DispatchSink;
use flowsched_core::schedule::Assignment;
use flowsched_core::stream::ArrivalStream;
use flowsched_core::task::Task;
use flowsched_sim::{ReportBuilder, ReportConfig, SimReport};

/// The report fields a run must reproduce bit for bit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReportKey {
    pub n_measured: usize,
    pub fmax: u64,
    pub mean_flow: u64,
    pub p99: u64,
}

impl From<&SimReport> for ReportKey {
    fn from(r: &SimReport) -> Self {
        ReportKey {
            n_measured: r.n_measured,
            fmax: r.fmax.to_bits(),
            mean_flow: r.mean_flow.to_bits(),
            p99: r.p99.to_bits(),
        }
    }
}

/// The sink a repetition ends in: built from the stream during setup,
/// closed into its output at the end of the run.
pub trait Fold: DispatchSink {
    type Out: Default;

    fn open<S: ArrivalStream + ?Sized>(stream: &S) -> Self;

    fn close(self) -> Self::Out;
}

/// The plain report fold: what the end-to-end metrics time.
impl Fold for ReportBuilder {
    type Out = ReportKey;

    fn open<S: ArrivalStream + ?Sized>(stream: &S) -> Self {
        report_builder(stream)
    }

    fn close(self) -> ReportKey {
        ReportKey::from(&self.finish())
    }
}

/// The report fold every workload uses, sized as
/// `sim::simulate_stream_policy` sizes it: default configuration, drift
/// window from the stream's length hint.
fn report_builder<S: ArrivalStream + ?Sized>(stream: &S) -> ReportBuilder {
    let cfg = ReportConfig {
        expected_measured: stream.len_hint(),
        ..ReportConfig::default()
    };
    ReportBuilder::new(stream.machines(), &cfg)
}

/// What a checked run produced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcome {
    pub key: ReportKey,
    pub hash: u64,
    pub tasks: u64,
}

/// A report fold that also hashes the schedule: FNV-1a over
/// `(seq, release, ptime, machine, start)` of every commit, in commit
/// order, folded as the repository's `pipeline_profile` and
/// `sharded_smoke` bins fold it. Equal hashes mean identical schedules
/// committed in identical order.
pub struct CheckSink {
    builder: ReportBuilder,
    hash: u64,
    tasks: u64,
}

impl CheckSink {
    fn fold(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.hash ^= b as u64;
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl Fold for CheckSink {
    type Out = Outcome;

    fn open<S: ArrivalStream + ?Sized>(stream: &S) -> Self {
        CheckSink {
            builder: report_builder(stream),
            hash: 0xcbf2_9ce4_8422_2325,
            tasks: 0,
        }
    }

    fn close(self) -> Outcome {
        Outcome {
            key: ReportKey::from(&self.builder.finish()),
            hash: self.hash,
            tasks: self.tasks,
        }
    }
}

impl DispatchSink for CheckSink {
    fn accept(&mut self, seq: u64, task: Task, a: Assignment) {
        self.fold(seq);
        self.fold(task.release.to_bits());
        self.fold(task.ptime.to_bits());
        self.fold(a.machine.index() as u64);
        self.fold(a.start.to_bits());
        self.tasks += 1;
        self.builder.accept(seq, task, a);
    }
}
