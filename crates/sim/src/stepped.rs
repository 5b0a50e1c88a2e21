//! Time-stepped fast path for synchronous unit-task workloads.
//!
//! The adversary streams of Theorems 8–10 (and the saturated regimes of
//! Figure 11) release batches of unit tasks at integer times. For those,
//! the general float-valued EFT state is overkill: machine completions
//! are always integers, so the dispatch rule can run entirely on a
//! vector of `u64`s. This module keeps that integer kernel
//! ([`SteppedEftState`]) but re-expresses the *loop* as a specialization
//! of the shared streaming engine
//! ([`flowsched_algos::engine::run_immediate`]): batches become an
//! [`ArrivalStream`] holding one round at a time, the outcome is a
//! [`DispatchSink`] fold, and — because the engine owns the trace — the
//! fast path now emits the same busy/idle transition convention as
//! every other immediate-dispatch run (pinned by
//! `tests/obs_invariants.rs`).
//!
//! The integer state mirrors [`EftState`](flowsched_algos::eft::EftState)
//! decision for decision (Equation (2) on `u64`s), so tie sets — and
//! therefore RNG consumption under `TieBreak::Rand` — are identical and
//! the tests pin stepped runs to the event-driven engine exactly. The
//! Criterion bench `simulation_stepped` measures the speedup (DESIGN.md
//! ablation 3).

use flowsched_algos::eft::ImmediateDispatcher;
use flowsched_algos::engine::{run_immediate, DispatchSink};
use flowsched_algos::tiebreak::{Breaker, TieBreak};
use flowsched_core::compact::ProcSetRef;
use flowsched_core::machine::MachineId;
use flowsched_core::procset::ProcSet;
use flowsched_core::schedule::Assignment;
use flowsched_core::stream::ArrivalStream;
use flowsched_core::task::Task;
use flowsched_core::time::Time;
use flowsched_obs::{NoopRecorder, Recorder};

/// Outcome of a stepped run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SteppedOutcome {
    /// Maximum flow time over all tasks (unit tasks → integer flows).
    pub fmax: u64,
    /// Backlog profile after the last step (`w` at time `steps`).
    pub final_profile: Vec<u64>,
    /// Total tasks dispatched.
    pub tasks: usize,
}

/// EFT dispatch state on integer time: absolute per-machine completion
/// times as `u64`s. Implements [`ImmediateDispatcher`] so the shared
/// engine (and the paper's adaptive adversaries) can drive it; tasks
/// must be unit-length with integer releases.
///
/// Equation (2) on integers: `t'min = max(rᵢ, min_{j∈Mᵢ} C_j)`, tie set
/// `{j ∈ Mᵢ : C_j ≤ t'min}` — the same comparisons `EftState` makes on
/// floats, so the two states pick identical machines (and consume
/// identical tie-break randomness) on any integer unit-task stream.
#[derive(Debug)]
pub struct SteppedEftState {
    completions: Vec<u64>,
    /// Float mirror of `completions`, updated once per dispatch, so the
    /// `ImmediateDispatcher::machine_completions` contract (what an
    /// adaptive adversary may observe) is served without conversion.
    completions_f: Vec<Time>,
    breaker: Breaker,
    ties: Vec<usize>,
}

impl SteppedEftState {
    /// Fresh state for `m` idle machines.
    pub fn new(m: usize, policy: TieBreak) -> Self {
        assert!(m > 0, "need at least one machine");
        SteppedEftState {
            completions: vec![0; m],
            completions_f: vec![0.0; m],
            breaker: policy.breaker(),
            ties: Vec::with_capacity(m),
        }
    }

    /// Current integer completion time of each machine.
    pub fn completions(&self) -> &[u64] {
        &self.completions
    }

    /// Remaining backlog `max(0, C_j − t)` per machine at integer time
    /// `t`.
    pub fn backlog_at(&self, t: u64) -> Vec<u64> {
        self.completions
            .iter()
            .map(|&c| c.saturating_sub(t))
            .collect()
    }
}

impl ImmediateDispatcher for SteppedEftState {
    fn machine_count(&self) -> usize {
        self.completions.len()
    }

    fn dispatch_task(&mut self, task: Task, set: ProcSetRef<'_>) -> Assignment {
        assert!(!set.is_empty(), "task has an empty processing set");
        debug_assert_eq!(task.ptime, 1.0, "stepped fast path is unit-task only");
        let r = task.release as u64;
        debug_assert_eq!(r as f64, task.release, "stepped releases must be integers");
        // Fused single-pass tie scan, the integer analog of the scalar
        // EFT scan: run an argmin until some machine is free at or before
        // the release, then collect exactly the released machines. Both
        // modes end with `ties = {j : C_j ≤ max(r, min C)}` in ascending
        // order, matching Equation (2).
        self.ties.clear();
        let mut released = false;
        let mut min_c = u64::MAX;
        for j in set.iter() {
            let c = self.completions[j];
            if released {
                if c <= r {
                    self.ties.push(j);
                }
            } else if c <= r {
                released = true;
                self.ties.clear();
                self.ties.push(j);
            } else if c < min_c {
                min_c = c;
                self.ties.clear();
                self.ties.push(j);
            } else if c == min_c {
                self.ties.push(j);
            }
        }
        let u = self.breaker.pick(&self.ties);
        let start = r.max(self.completions[u]);
        self.completions[u] = start + 1;
        self.completions_f[u] = self.completions[u] as f64;
        Assignment::new(MachineId(u), start as f64)
    }

    fn machine_completions(&self) -> &[Time] {
        &self.completions_f
    }
}

/// Adapts a `batch(t)` closure into an [`ArrivalStream`]: at each
/// integer step `t < steps` it materializes one round of processing
/// sets and lends them out as unit tasks released at `t`. Only the
/// current round is ever held, so an arbitrarily long run needs memory
/// for one batch.
struct BatchStream<F> {
    m: usize,
    steps: usize,
    t: usize,
    batch: F,
    round: Vec<ProcSet>,
    i: usize,
}

impl<F: FnMut(usize) -> Vec<ProcSet>> ArrivalStream for BatchStream<F> {
    fn machines(&self) -> usize {
        self.m
    }

    fn next_arrival(&mut self) -> Option<(Task, ProcSetRef<'_>)> {
        while self.i >= self.round.len() {
            if self.t >= self.steps {
                return None;
            }
            self.round = (self.batch)(self.t);
            self.i = 0;
            self.t += 1;
        }
        let set = self.round[self.i].compact_view();
        self.i += 1;
        Some((Task::unit((self.t - 1) as f64), set))
    }
}

/// The fold producing [`SteppedOutcome`]'s flow statistics: unit flows
/// are `start + 1 − release` on integers.
#[derive(Debug, Default)]
struct SteppedFold {
    fmax: u64,
    tasks: usize,
}

impl DispatchSink for SteppedFold {
    fn accept(&mut self, _seq: u64, task: Task, assignment: Assignment) {
        let flow = (assignment.start - task.release) as u64 + 1;
        self.fmax = self.fmax.max(flow);
        self.tasks += 1;
    }
}

/// Runs EFT over `steps` synchronized batches. `batch(t)` yields the
/// processing sets of the unit tasks released at integer time `t`, in
/// release order.
///
/// # Panics
/// Panics if a batch contains an empty processing set.
pub fn run_stepped<F>(m: usize, steps: usize, policy: TieBreak, batch: F) -> SteppedOutcome
where
    F: FnMut(usize) -> Vec<ProcSet>,
{
    run_stepped_stream(m, steps, policy, batch, &mut NoopRecorder)
}

/// [`run_stepped`] driven through the shared streaming engine with
/// instrumentation — the canonical recorder-generic entry point. `rec`
/// sees each unit task's arrival, dispatch (with its integer start
/// time), *and* the machine busy/idle transitions, under the same
/// convention as every other immediate-dispatch engine run (busy/idle
/// strictly alternate per machine starting with busy; the idle at a
/// previous completion is emitted lazily; the trailing idle never).
/// With [`NoopRecorder`] this is exactly [`run_stepped`].
///
/// # Panics
/// Panics if a batch contains an empty processing set.
pub fn run_stepped_stream<F, R>(
    m: usize,
    steps: usize,
    policy: TieBreak,
    batch: F,
    rec: &mut R,
) -> SteppedOutcome
where
    F: FnMut(usize) -> Vec<ProcSet>,
    R: Recorder,
{
    let mut state = SteppedEftState::new(m, policy);
    let mut fold = SteppedFold::default();
    let stream = BatchStream {
        m,
        steps,
        t: 0,
        batch,
        round: Vec::new(),
        i: 0,
    };
    run_immediate(stream, &mut state, rec, &mut fold);
    SteppedOutcome {
        fmax: fold.fmax,
        final_profile: state.backlog_at(steps as u64),
        tasks: fold.tasks,
    }
}

/// Convenience: runs the Theorem 8 adversary stream on the fast path.
pub fn run_stepped_interval_adversary(
    m: usize,
    k: usize,
    rounds: usize,
    policy: TieBreak,
) -> SteppedOutcome {
    let types = flowsched_workloads::adversary::interval::round_types(m, k);
    let sets: Vec<ProcSet> = types
        .iter()
        .map(|&lambda| ProcSet::interval(lambda - 1, lambda + k - 2))
        .collect();
    run_stepped(m, rounds, policy, |_| sets.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowsched_algos::eft::EftState;
    use flowsched_workloads::adversary::interval::run_interval_adversary;

    #[test]
    fn matches_event_driven_eft_on_the_adversary() {
        for (m, k) in [(6usize, 3usize), (8, 2), (10, 4)] {
            for tb in [TieBreak::Min, TieBreak::Max] {
                let rounds = m * m;
                let stepped = run_stepped_interval_adversary(m, k, rounds, tb);
                let mut algo = EftState::new(m, tb);
                let event = run_interval_adversary(&mut algo, k, rounds);
                assert_eq!(
                    stepped.fmax as f64,
                    event.fmax(),
                    "m={m} k={k} {tb}: stepped vs event-driven"
                );
                assert_eq!(stepped.tasks, event.instance.len());
            }
        }
    }

    #[test]
    fn matches_rand_policy_with_same_seed() {
        // Identical tie sets → identical RNG consumption → identical runs.
        let (m, k, rounds) = (6, 3, 80);
        let tb = TieBreak::Rand { seed: 17 };
        let stepped = run_stepped_interval_adversary(m, k, rounds, tb);
        let mut algo = EftState::new(m, tb);
        let event = run_interval_adversary(&mut algo, k, rounds);
        assert_eq!(stepped.fmax as f64, event.fmax());
    }

    #[test]
    fn final_profile_matches_backlog() {
        let (m, k, rounds) = (6, 3, 40);
        let stepped = run_stepped_interval_adversary(m, k, rounds, TieBreak::Min);
        let mut algo = EftState::new(m, TieBreak::Min);
        let event = run_interval_adversary(&mut algo, k, rounds);
        let event_profile =
            flowsched_core::profile::profile_at(&event.schedule, &event.instance, rounds as f64);
        let stepped_profile: Vec<f64> = stepped.final_profile.iter().map(|&w| w as f64).collect();
        assert_eq!(stepped_profile, event_profile);
    }

    #[test]
    fn empty_batches_are_fine() {
        let out = run_stepped(4, 10, TieBreak::Min, |_| Vec::new());
        assert_eq!(out.fmax, 0);
        assert_eq!(out.tasks, 0);
        assert_eq!(out.final_profile, vec![0; 4]);
    }

    #[test]
    fn overload_accumulates_backlog() {
        // Two tasks per step on one machine: backlog grows by 1 per step.
        let out = run_stepped(1, 10, TieBreak::Min, |_| {
            vec![ProcSet::full(1), ProcSet::full(1)]
        });
        assert_eq!(out.fmax, 11); // 10 steps → backlog reaches 11 at dispatch
        assert_eq!(out.final_profile, vec![10]);
    }

    #[test]
    #[should_panic(expected = "empty processing set")]
    fn empty_set_rejected() {
        let _ = run_stepped(2, 1, TieBreak::Min, |_| vec![ProcSet::empty()]);
    }

    #[test]
    fn stepped_state_matches_eft_state_dispatch_for_dispatch() {
        // Drive both states directly with the same unit-task sequence and
        // compare every assignment, not just aggregates.
        let mut int_state = SteppedEftState::new(5, TieBreak::Min);
        let mut f64_state = EftState::new(5, TieBreak::Min);
        for t in 0..30u64 {
            for s in 0..3 {
                let set = ProcSet::interval(s, s + 2);
                let task = Task::unit(t as f64);
                let a = int_state.dispatch_task(task, set.view());
                let b = f64_state.dispatch(task, &set);
                assert_eq!(a, b, "t={t} s={s}");
            }
        }
        assert_eq!(int_state.machine_completions(), f64_state.completions());
    }

    #[test]
    fn recorded_stepped_matches_plain_and_fills_histogram() {
        use flowsched_obs::{Counter, MemoryRecorder};
        let (m, k, rounds) = (6, 3, 40);
        let types = flowsched_workloads::adversary::interval::round_types(m, k);
        let sets: Vec<ProcSet> = types
            .iter()
            .map(|&lambda| ProcSet::interval(lambda - 1, lambda + k - 2))
            .collect();
        let plain = run_stepped(m, rounds, TieBreak::Min, |_| sets.clone());
        let mut rec = MemoryRecorder::with_defaults(m);
        let recorded = run_stepped_stream(m, rounds, TieBreak::Min, |_| sets.clone(), &mut rec);
        assert_eq!(plain, recorded);
        let n = plain.tasks as u64;
        assert_eq!(rec.counters().get(Counter::TasksArrived), n);
        assert_eq!(rec.counters().get(Counter::TasksDispatched), n);
        assert_eq!(rec.counters().get(Counter::TasksCompleted), n);
        // Every unit flow lands in the histogram; the max observed flow is
        // exactly the stepped fmax.
        assert_eq!(rec.flow_histogram().total(), n);
        // The engine emits transitions for the fast path too (uniform
        // convention): busy count leads idle count by at most m, and at
        // least one machine went busy on a non-empty run.
        let busy = rec.counters().get(Counter::MachineBusyTransitions);
        let idle = rec.counters().get(Counter::MachineIdleTransitions);
        assert!(busy >= 1, "stepped path must emit busy transitions now");
        assert!(
            idle < busy && busy <= idle + m as u64,
            "busy {busy} vs idle {idle}"
        );
    }

    #[test]
    fn stepped_transitions_match_event_driven_transitions() {
        use flowsched_obs::{Event, MemoryRecorder};
        // An under-loaded stream with forced gaps so real idle periods
        // occur: one unit task every other step on two machines.
        let batch = |t: usize| {
            if t.is_multiple_of(2) {
                vec![ProcSet::full(2)]
            } else {
                Vec::new()
            }
        };
        let mut rec_stepped = MemoryRecorder::with_defaults(2);
        run_stepped_stream(2, 12, TieBreak::Min, batch, &mut rec_stepped);
        // Same workload through the float engine.
        let mut b = flowsched_core::instance::InstanceBuilder::new(2);
        for t in (0..12).step_by(2) {
            b.push_unit(t as f64, ProcSet::full(2));
        }
        let inst = b.build().unwrap();
        let mut rec_event = MemoryRecorder::with_defaults(2);
        let _ = flowsched_algos::eft_stream(
            flowsched_core::stream::InstanceStream::new(&inst),
            TieBreak::Min,
            &mut rec_event,
        );
        let transitions = |rec: &MemoryRecorder| -> Vec<Event> {
            rec.trace()
                .iter()
                .filter(|e| matches!(e, Event::MachineBusy { .. } | Event::MachineIdle { .. }))
                .copied()
                .collect()
        };
        assert_eq!(transitions(&rec_stepped), transitions(&rec_event));
    }
}
