//! Indexed EFT dispatch: lane-indexed machine selection over compact
//! processing sets.
//!
//! The scalar [`EftState`](crate::eft::EftState) evaluates Equation (2) by scanning every
//! member of `Mᵢ` — O(|Mᵢ|) per task, which on the paper's structured
//! families (interval, inclusive, disjoint; Th. 3–10) is exactly the
//! cost the structure makes avoidable. [`IndexedEftState`] exploits the
//! compact [`ProcSetRef`] shapes arrival streams now lend:
//!
//! - **Interval / prefix / ring sets** are one or two index ranges,
//!   answered by a *lane index*. The [`CompletionBank`]'s 64-byte,
//!   [`LANE`]-wide lanes are its leaf level: a binary min-tree stores
//!   only the ⌈m/8⌉ lane minima (2·next_pow2(⌈m/8⌉) `f64`, ~2 MiB at
//!   m = 2²⁰, against 16 MiB for a tree over every machine, and three
//!   levels shorter). A range is cut at
//!   lane edges: the partial head and tail lanes are scanned in the
//!   bank with the 8-wide kernels, the whole lanes between them are
//!   answered by the tree, and a descent ends with one scan inside the
//!   chosen lane. A range spanning at most two lanes never touches the
//!   tree. The search runs at the release first: when some member is
//!   already free, `U'ᵢ = {j : C_j ≤ rᵢ}` and the range minimum is never
//!   needed; otherwise the failed search reports that minimum and a
//!   second search runs at it. `Min`/`Max` tie-breaks search for the
//!   leftmost/rightmost qualifying machine; `Rand` (which must enumerate
//!   the whole tie set to reproduce the `Breaker::pick` RNG contract:
//!   one `random_range(0..|U'ᵢ|)` draw) collects the head lane, then the
//!   tree's qualifying lanes, then the tail lane — ascending order.
//! - **Explicit sets** go through a cluster index: the first time a
//!   member slice is seen, its machines are claimed and a per-cluster
//!   binary min-heap of completions is built (the disjoint-family case,
//!   Cor. 1 workloads); later tasks on the same set run in
//!   O(|U'ᵢ| log k). Sets that overlap a claimed cluster fall back to
//!   the fused scalar scan — correctness never depends on detection.
//!   The machine → cluster map is allocated on the first explicit set,
//!   so interval-only runs never pay for it.
//!
//! Every path computes the exact tie set `U'ᵢ` in ascending machine
//! order and feeds it through the same [`Breaker`], so schedules (and,
//! via the engine's recorder convention, event traces) are
//! bitwise-identical to the scalar kernel — pinned by
//! `tests/kernel_equivalence.rs`.
//!
//! Staleness discipline: machine completions only ever *increase*.
//! The lane index is exact and updated on every commit: the committed
//! machine's lane minimum is recomputed from its (hot) cache line and
//! pushed up the tree until a parent's minimum stops changing — a rise
//! on a machine that was not its lane's (or subtree's) unique minimum
//! stops after one level. Cluster heap entries are lazy instead and
//! self-heal on peek: an entry may understate its machine's completion,
//! a stale top is re-keyed and re-sifted, and an accurate top is the
//! true minimum because every other entry understates or equals its
//! own, later, completion.

use std::ops::Range;

use flowsched_core::compact::ProcSetRef;
use flowsched_core::machine::MachineId;
use flowsched_core::schedule::Assignment;
use flowsched_core::structure::StructureReport;
use flowsched_core::task::Task;
use flowsched_core::time::Time;

use crate::eft::{scan_ties, ImmediateDispatcher};
use crate::soa::{collect_le, min_in, scan_ties_simd, CompletionBank, ScanImpl, SoaMinHeap, LANE};
use crate::tiebreak::{Breaker, TieBreak};

/// Decision counters of the indexed kernel — which path served each
/// dispatch and how often the lazy structures had to repair themselves.
///
/// Monotone over a run; the engine flushes them into the recorder's
/// `IndexedDescents` / `ScalarFallbackScans` / `HeapSelfHeals` counters
/// after sequential runs (sharded workers consume their dispatchers on
/// other threads, so their stats stay thread-local). A high
/// `scalar_fallback_scans` share means the workload's explicit sets
/// overlap and defeat the cluster index; a high `heap_self_heals` rate
/// means interval and explicit traffic interleave on the same machines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Dispatches answered by the lane index or a cluster heap.
    pub indexed_descents: u64,
    /// Explicit-set dispatches that fell back to the scalar tie scan.
    pub scalar_fallback_scans: u64,
    /// Stale cluster-heap entries re-keyed and re-sifted on peek.
    pub heap_self_heals: u64,
}

/// Machine count from which [`DispatchKernel::Auto`] picks the indexed
/// kernel. Below it the scalar scan's cache-friendly sweep wins;
/// above it the O(log m) tree pays off even for moderate set widths.
pub const AUTO_INDEXED_MIN_MACHINES: usize = 64;

/// Which EFT dispatch kernel to run. All choices produce
/// bitwise-identical schedules; the choice is purely a performance
/// decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchKernel {
    /// Pick once, when the dispatcher is built: from the stream's
    /// [`structure_hint`](flowsched_core::stream::ArrivalStream::structure_hint)
    /// through [`for_structure`](DispatchKernel::for_structure) when
    /// there is one, else by machine count through
    /// [`resolve`](DispatchKernel::resolve)
    /// ([`resolve_for_stream`](DispatchKernel::resolve_for_stream)
    /// does both). The built dispatcher never changes kernel.
    #[default]
    Auto,
    /// Force the member-scan oracle ([`EftState`](crate::eft::EftState)).
    Scalar,
    /// Force the lane-index / cluster-heap kernel
    /// ([`IndexedEftState`]).
    Indexed,
}

impl DispatchKernel {
    /// Resolves `Auto` for `m` machines.
    pub fn resolve(self, m: usize) -> DispatchKernel {
        match self {
            DispatchKernel::Auto => {
                if m >= AUTO_INDEXED_MIN_MACHINES {
                    DispatchKernel::Indexed
                } else {
                    DispatchKernel::Scalar
                }
            }
            other => other,
        }
    }

    /// Kernel suggested by a family classification
    /// ([`flowsched_core::structure::classify`]): structured families
    /// (interval, ring, inclusive, nested, disjoint) benefit from the
    /// index once `m` crosses the auto threshold **and** the sets are
    /// wide enough for O(log m) descents to beat the scalar sweep.
    ///
    /// The width test is what fixes the BENCH_PR5 small-set regression:
    /// on `disjoint` blocks of width `m/16` the indexed kernel *lost*
    /// below the crossover (m = 64: 614 µs indexed vs 348 µs scalar for
    /// k = 4; m = 256: 761 µs vs 575 µs for k = 16) and won above it
    /// (m = 1024: 1.11 ms vs 1.45 ms for k = 64) — scanning a handful
    /// of members is cheaper than a tree descent, however large `m` is.
    /// [`indexed_min_width`] places the cut between those measured
    /// points; families with no fixed width (mixed or unknown set
    /// sizes, `fixed_size == None`) keep the index, matching the
    /// measured interval/inclusive sweeps where it wins at every `m`.
    pub fn for_structure(report: &StructureReport, m: usize) -> DispatchKernel {
        let structured = report.interval
            || report.ring_interval
            || report.inclusive
            || report.nested
            || report.disjoint;
        if !structured || m < AUTO_INDEXED_MIN_MACHINES {
            return DispatchKernel::Scalar;
        }
        match report.fixed_size {
            Some(k) if k < indexed_min_width(m) => DispatchKernel::Scalar,
            _ => DispatchKernel::Indexed,
        }
    }

    /// Resolves this kernel choice for a concrete stream: `Auto`
    /// consults the stream's
    /// [`structure_hint`](flowsched_core::stream::ArrivalStream::structure_hint)
    /// through [`for_structure`](DispatchKernel::for_structure) when one
    /// is available (the hint covers the whole stream), and falls back
    /// to the machine-count rule ([`resolve`](DispatchKernel::resolve))
    /// when the source promises nothing. Never returns `Auto`; explicit
    /// choices pass through untouched.
    pub fn resolve_for_stream<S>(self, stream: &S) -> DispatchKernel
    where
        S: flowsched_core::stream::ArrivalStream + ?Sized,
    {
        match (self, stream.structure_hint()) {
            (DispatchKernel::Auto, Some(report)) => {
                DispatchKernel::for_structure(&report, stream.machines())
            }
            (kernel, _) => kernel.resolve(stream.machines()),
        }
    }
}

/// Minimum fixed set width for which the indexed kernel is expected to
/// beat the scalar scan on `m` machines: `2·⌈log₂ m⌉`-ish (two tree
/// descents' worth of nodes). A scalar dispatch touches `k` completion
/// slots sequentially; an indexed one touches O(log m) scattered tree
/// nodes for the query plus log m for the commit — so narrow sets on
/// huge machine counts still favor the sweep. The constant is pinned by
/// the BENCH_PR5 medians quoted at
/// [`for_structure`](DispatchKernel::for_structure).
pub fn indexed_min_width(m: usize) -> usize {
    2 * (usize::BITS - m.leading_zeros()) as usize
}

/// Upper bound on min-tree depth (and canonical-decomposition node
/// count per side): `leaves ≤ 2^63` on a 64-bit target, so fixed
/// stack-allocated node buffers of this size never overflow.
const MAX_TREE_DEPTH: usize = 64;

/// A binary min-tree over a fixed row of values supporting point
/// update and bound-pruned leftmost/rightmost/collect descent (a failed
/// leftmost/rightmost search doubles as the range-minimum query). Its
/// leaves are the lane minima of a [`LaneIndex`].
///
/// Leaves are padded to a power of two with `+∞` so every internal node
/// has two children; leaf `i` lives at `leaves + i` in the flattened
/// 1-based array (parent `n`, children `2n`/`2n+1` — the
/// prefetch-friendly Eytzinger layout, no pointers).
///
/// The descents are *branchless*: a query range `[lo, hi]` is first
/// decomposed bottom-up into its O(log n) canonical nodes (pure index
/// arithmetic, no value-dependent branches), and the in-subtree walk to
/// a qualifying leaf is an arithmetic child-select —
/// `node = 2·node + (vals[2·node] > bound)` — with no data-dependent
/// branch for the hardware to mispredict on random completion data.
#[derive(Debug, Clone)]
struct MinTree {
    leaves: usize,
    vals: Vec<Time>,
}

impl MinTree {
    /// Tree over the given leaf values.
    fn from_values(values: impl ExactSizeIterator<Item = Time>) -> Self {
        let leaves = values.len().next_power_of_two();
        let mut vals = vec![f64::INFINITY; 2 * leaves];
        for (slot, v) in vals[leaves..].iter_mut().zip(values) {
            *slot = v;
        }
        for i in (1..leaves).rev() {
            vals[i] = vals[2 * i].min(vals[2 * i + 1]);
        }
        MinTree { leaves, vals }
    }

    /// Canonical-node decomposition of `[lo, hi]` (inclusive): the
    /// disjoint maximal subtrees covering the range, written into
    /// `nodes` in ascending leaf-position order. Pure index arithmetic —
    /// the value-dependent work happens only after, on the O(log n)
    /// canonical roots.
    fn decompose(&self, lo: usize, hi: usize, nodes: &mut [usize; MAX_TREE_DEPTH]) -> usize {
        let (mut l, mut r) = (self.leaves + lo, self.leaves + hi + 1);
        let mut left = [0usize; MAX_TREE_DEPTH];
        let mut right = [0usize; MAX_TREE_DEPTH];
        let (mut ln, mut rn) = (0, 0);
        // Standard bottom-up sweep: left-edge nodes come out in
        // ascending position order, right-edge nodes in descending.
        while l < r {
            if l & 1 == 1 {
                left[ln] = l;
                ln += 1;
                l += 1;
            }
            if r & 1 == 1 {
                r -= 1;
                right[rn] = r;
                rn += 1;
            }
            l /= 2;
            r /= 2;
        }
        nodes[..ln].copy_from_slice(&left[..ln]);
        for i in 0..rn {
            nodes[ln + i] = right[rn - 1 - i];
        }
        ln + rn
    }

    /// Leftmost qualifying leaf inside the subtree rooted at `node`
    /// (whose min is known `≤ bound`): arithmetic child-select, no
    /// data-dependent branches.
    #[inline]
    fn descend_leftmost(&self, mut node: usize, bound: Time) -> usize {
        while node < self.leaves {
            let l = 2 * node;
            node = l + (self.vals[l] > bound) as usize;
        }
        node - self.leaves
    }

    /// Rightmost counterpart of
    /// [`descend_leftmost`](Self::descend_leftmost).
    #[inline]
    fn descend_rightmost(&self, mut node: usize, bound: Time) -> usize {
        while node < self.leaves {
            let r = 2 * node + 1;
            node = r - (self.vals[r] > bound) as usize;
        }
        node - self.leaves
    }

    /// Sets leaf `i` to `v` and refreshes its ancestors, stopping at the
    /// first node whose minimum does not change (nothing above it can).
    fn update(&mut self, i: usize, v: Time) {
        let mut n = self.leaves + i;
        if self.vals[n] == v {
            return;
        }
        self.vals[n] = v;
        while n > 1 {
            n /= 2;
            let min = self.vals[2 * n].min(self.vals[2 * n + 1]);
            if self.vals[n] == min {
                return;
            }
            self.vals[n] = min;
        }
    }

    /// Smallest `i ∈ [lo, hi]` with `leaf_i ≤ bound`: scan the canonical
    /// nodes in ascending order for the first whose min qualifies, then
    /// descend branchlessly inside it. When none qualifies, every
    /// canonical node has been read, and `Err` carries the range minimum.
    fn leftmost_le(&self, lo: usize, hi: usize, bound: Time) -> Result<usize, Time> {
        let mut nodes = [0usize; MAX_TREE_DEPTH];
        let n = self.decompose(lo, hi, &mut nodes);
        let mut min = f64::INFINITY;
        for &node in &nodes[..n] {
            if self.vals[node] <= bound {
                return Ok(self.descend_leftmost(node, bound));
            }
            min = min.min(self.vals[node]);
        }
        Err(min)
    }

    /// Largest `i ∈ [lo, hi]` with `leaf_i ≤ bound`, or `Err(range min)`.
    fn rightmost_le(&self, lo: usize, hi: usize, bound: Time) -> Result<usize, Time> {
        let mut nodes = [0usize; MAX_TREE_DEPTH];
        let n = self.decompose(lo, hi, &mut nodes);
        let mut min = f64::INFINITY;
        for &node in nodes[..n].iter().rev() {
            if self.vals[node] <= bound {
                return Ok(self.descend_rightmost(node, bound));
            }
            min = min.min(self.vals[node]);
        }
        Err(min)
    }

    /// Calls `f` on every `i ∈ [lo, hi]` with `leaf_i ≤ bound`, in
    /// increasing order — O(|result| log n): an iterative bound-pruned
    /// DFS (right child pushed first so leaves pop in ascending order)
    /// over each canonical node, on an explicit stack whose depth is
    /// bounded by the tree height.
    fn for_each_le(&self, lo: usize, hi: usize, bound: Time, mut f: impl FnMut(usize)) {
        let mut nodes = [0usize; MAX_TREE_DEPTH];
        let n = self.decompose(lo, hi, &mut nodes);
        let mut stack = [0usize; MAX_TREE_DEPTH + 1];
        for &root in &nodes[..n] {
            stack[0] = root;
            let mut sp = 1;
            while sp > 0 {
                sp -= 1;
                let node = stack[sp];
                if self.vals[node] > bound {
                    continue;
                }
                if node >= self.leaves {
                    f(node - self.leaves);
                    continue;
                }
                stack[sp] = 2 * node + 1;
                stack[sp + 1] = 2 * node;
                sp += 2;
            }
        }
    }
}

/// A machine range `[lo, hi]` cut at lane edges: the machines read
/// straight from the bank (`head`, `tail`) and the whole lanes between
/// them, which the tree answers. A range spanning at most two lanes is
/// all `head`, with no lanes and an empty `tail`.
struct Split {
    head: Range<usize>,
    lanes: Option<(usize, usize)>,
    tail: Range<usize>,
}

impl Split {
    fn of(lo: usize, hi: usize) -> Split {
        let (first, last) = (lo / LANE, hi / LANE);
        if last - first < 2 {
            return Split {
                head: lo..hi + 1,
                lanes: None,
                tail: hi + 1..hi + 1,
            };
        }
        Split {
            head: lo..(first + 1) * LANE,
            lanes: Some((first + 1, last - 1)),
            tail: last * LANE..hi + 1,
        }
    }
}

/// Machines of lane `lane` in the padded bank.
#[inline]
fn lane_range(lane: usize) -> Range<usize> {
    lane * LANE..(lane + 1) * LANE
}

/// The index behind [`IndexedEftState`]'s range queries: a [`MinTree`]
/// whose leaves are the minima of the [`CompletionBank`]'s lanes. Every
/// query takes the bank's [`padded`](CompletionBank::padded) view; the
/// tree only narrows a search down to one lane, which is then scanned.
///
/// Invariant: leaf `l` equals the minimum of bank lane `l` (`+∞`
/// padding included). Ranges reach the tree only through whole lanes
/// strictly inside the bank's live machines, so the padding — in the
/// last lane or past it — is never returned.
#[derive(Debug, Clone)]
struct LaneIndex {
    tree: MinTree,
}

impl LaneIndex {
    /// Index over a padded bank view (length a multiple of [`LANE`]).
    fn new(padded: &[Time]) -> Self {
        LaneIndex {
            tree: MinTree::from_values(padded.chunks_exact(LANE).map(min_in)),
        }
    }

    /// Restores the invariant after machine `j`'s completion changed.
    #[inline]
    fn refresh(&mut self, padded: &[Time], j: usize) {
        let lane = j / LANE;
        self.tree.update(lane, min_in(&padded[lane_range(lane)]));
    }

    /// Smallest `j ∈ [lo, hi]` with `C_j ≤ bound`, or — when there is
    /// none — `Err(min_{lo ≤ j ≤ hi} C_j)`, which the failed search has
    /// read in full.
    fn leftmost_le(
        &self,
        padded: &[Time],
        lo: usize,
        hi: usize,
        bound: Time,
    ) -> Result<usize, Time> {
        let s = Split::of(lo, hi);
        let mut min = match first_le(padded, s.head, bound) {
            Ok(j) => return Ok(j),
            Err(v) => v,
        };
        if let Some((a, b)) = s.lanes {
            match self.tree.leftmost_le(a, b, bound) {
                Ok(lane) => return first_le(padded, lane_range(lane), bound),
                Err(v) => min = min.min(v),
            }
        }
        first_le(padded, s.tail, bound).map_err(|v| min.min(v))
    }

    /// Largest `j ∈ [lo, hi]` with `C_j ≤ bound`, or `Err(range min)`.
    fn rightmost_le(
        &self,
        padded: &[Time],
        lo: usize,
        hi: usize,
        bound: Time,
    ) -> Result<usize, Time> {
        let s = Split::of(lo, hi);
        let mut min = match last_le(padded, s.tail, bound) {
            Ok(j) => return Ok(j),
            Err(v) => v,
        };
        if let Some((a, b)) = s.lanes {
            match self.tree.rightmost_le(a, b, bound) {
                Ok(lane) => return last_le(padded, lane_range(lane), bound),
                Err(v) => min = min.min(v),
            }
        }
        last_le(padded, s.head, bound).map_err(|v| min.min(v))
    }

    /// Appends every `j ∈ [lo, hi]` with `C_j ≤ bound` to `out`, in
    /// increasing order: the head lane, the tree's qualifying lanes,
    /// then the tail lane.
    fn collect_le(&self, padded: &[Time], lo: usize, hi: usize, bound: Time, out: &mut Vec<usize>) {
        let s = Split::of(lo, hi);
        collect_le(&padded[s.head.clone()], s.head.start, bound, out);
        if let Some((a, b)) = s.lanes {
            self.tree.for_each_le(a, b, bound, |lane| {
                collect_le(&padded[lane_range(lane)], lane * LANE, bound, out)
            });
        }
        collect_le(&padded[s.tail.clone()], s.tail.start, bound, out);
    }
}

/// First machine of `range` with `C_j ≤ bound`, or `Err(min)` over it.
#[inline]
fn first_le(padded: &[Time], range: Range<usize>, bound: Time) -> Result<usize, Time> {
    let vals = &padded[range.clone()];
    match vals.iter().position(|&v| v <= bound) {
        Some(o) => Ok(range.start + o),
        None => Err(min_in(vals)),
    }
}

/// Last machine of `range` with `C_j ≤ bound`, or `Err(min)` over it.
#[inline]
fn last_le(padded: &[Time], range: Range<usize>, bound: Time) -> Result<usize, Time> {
    let vals = &padded[range.clone()];
    match vals.iter().rposition(|&v| v <= bound) {
        Some(o) => Ok(range.start + o),
        None => Err(min_in(vals)),
    }
}

/// One detected explicit-set cluster: the member slice it was registered
/// for and a SoA min-heap ([`SoaMinHeap`]) with exactly one
/// `(completion, machine)` entry per member machine. A stored completion
/// may *understate* the machine's current completion (never overstate) —
/// see the module docs' staleness discipline.
#[derive(Debug)]
struct Cluster {
    members: Vec<usize>,
    heap: SoaMinHeap,
}

const UNOWNED: u32 = u32::MAX;

/// The indexed EFT kernel. Maintains the same per-machine completion
/// bank ([`CompletionBank`]) as [`EftState`](crate::eft::EftState) plus a lane index over
/// its lanes and lazily-built per-cluster heaps for recurring explicit
/// sets.
#[derive(Debug)]
pub struct IndexedEftState {
    completions: CompletionBank,
    index: LaneIndex,
    breaker: Breaker,
    /// Which tie-scan implementation the overlap fallback runs.
    scan: ScanImpl,
    /// Scratch buffer for the tie set, reused across dispatches.
    ties: Vec<usize>,
    /// Machine → cluster id claiming it, or [`UNOWNED`]; empty until
    /// the first explicit set arrives.
    owner: Vec<u32>,
    clusters: Vec<Cluster>,
    stats: KernelStats,
}

/// How the configured tie-break consumes the tie set — decides whether
/// the kernel may shortcut to one descent or must enumerate `U'ᵢ`.
enum Pick {
    Leftmost,
    Rightmost,
    Enumerate,
}

impl IndexedEftState {
    /// Fresh state for `m` idle machines, on the default (SIMD) fallback
    /// scan.
    pub fn new(m: usize, policy: TieBreak) -> Self {
        IndexedEftState::with_scan(m, policy, ScanImpl::default())
    }

    /// Fresh state with the overlap-fallback scan implementation forced.
    pub fn with_scan(m: usize, policy: TieBreak, scan: ScanImpl) -> Self {
        assert!(m > 0, "need at least one machine");
        let completions = CompletionBank::new(m);
        IndexedEftState {
            index: LaneIndex::new(completions.padded()),
            completions,
            breaker: policy.breaker(),
            scan,
            ties: Vec::new(),
            owner: Vec::new(),
            clusters: Vec::new(),
            stats: KernelStats::default(),
        }
    }

    /// Decision counters accumulated so far (see [`KernelStats`]).
    pub fn kernel_stats(&self) -> KernelStats {
        self.stats
    }

    /// Number of machines.
    pub fn machines(&self) -> usize {
        self.completions.len()
    }

    /// Current completion time `C_{j,i−1}` of each machine.
    pub fn completions(&self) -> &[Time] {
        self.completions.values()
    }

    /// Dispatches one task (Equation (2)) over a compact set view —
    /// the indexed counterpart of
    /// [`EftState::dispatch_ref`](crate::eft::EftState::dispatch_ref).
    ///
    /// # Panics
    /// Panics if the processing set is empty or references a machine out
    /// of range.
    pub fn dispatch_ref(&mut self, task: Task, set: ProcSetRef<'_>) -> Assignment {
        assert!(!set.is_empty(), "task has an empty processing set");
        let m = self.completions.len();
        assert!(
            set.max().is_some_and(|j| j < m),
            "processing set references a machine out of range"
        );
        let u = match set {
            ProcSetRef::Interval { lo, hi } => self.pick_in_runs(task.release, &[(lo, hi)]),
            ProcSetRef::Prefix { len } => self.pick_in_runs(task.release, &[(0, len - 1)]),
            ProcSetRef::Ring { start, len, m } => {
                // Wrapping segment: ascending members are the wrapped low
                // run [0, start+len−m−1] then the high run [start, m−1].
                self.pick_in_runs(task.release, &[(0, start + len - m - 1), (start, m - 1)])
            }
            ProcSetRef::Explicit(slice) => self.pick_in_cluster(task.release, slice),
        };
        let start = task.release.max(self.completions.get(u));
        let done = start + task.ptime;
        self.completions.set(u, done);
        self.index.refresh(self.completions.padded(), u);
        Assignment::new(MachineId(u), start)
    }

    /// Tie-break over contiguous runs given in ascending machine order
    /// (one range, or a wrapping ring's low and high runs).
    ///
    /// The tie set `U'ᵢ = {j : C_j ≤ max(rᵢ, min_j C_j)}` is
    /// `{j : C_j ≤ rᵢ}` whenever some member is already free at the
    /// release, so that search runs first; only when it comes back empty
    /// does a second search run at the minimum it reports.
    fn pick_in_runs(&mut self, release: Time, runs: &[(usize, usize)]) -> usize {
        self.stats.indexed_descents += 1;
        match self.pick_le(runs, release) {
            Ok(u) => u,
            Err(min_c) => self
                .pick_le(runs, min_c)
                .expect("the minimum's machines tie"),
        }
    }

    /// The tie-break's pick among the members of `runs` with
    /// `C_j ≤ bound`, or — with no RNG draw — `Err` of the runs' minimum
    /// completion when there are none.
    fn pick_le(&mut self, runs: &[(usize, usize)], bound: Time) -> Result<usize, Time> {
        let (index, padded) = (&self.index, self.completions.padded());
        let mut min = f64::INFINITY;
        match pick_mode(&self.breaker) {
            Pick::Leftmost => {
                for &(lo, hi) in runs {
                    match index.leftmost_le(padded, lo, hi, bound) {
                        Ok(j) => return Ok(j),
                        Err(v) => min = min.min(v),
                    }
                }
            }
            Pick::Rightmost => {
                for &(lo, hi) in runs.iter().rev() {
                    match index.rightmost_le(padded, lo, hi, bound) {
                        Ok(j) => return Ok(j),
                        Err(v) => min = min.min(v),
                    }
                }
            }
            Pick::Enumerate => {
                self.ties.clear();
                for &(lo, hi) in runs {
                    index.collect_le(padded, lo, hi, bound, &mut self.ties);
                }
                if !self.ties.is_empty() {
                    return Ok(self.breaker.pick(&self.ties));
                }
                // Nothing qualifies, so every search fails and reports
                // its run's minimum.
                for &(lo, hi) in runs {
                    let run_min = index.leftmost_le(padded, lo, hi, bound);
                    min = min.min(run_min.expect_err("no member is ≤ bound"));
                }
            }
        }
        Err(min)
    }

    /// Tie-break over an explicit member slice: cluster heap when the
    /// slice matches (or can claim) a cluster, fused scalar scan
    /// otherwise.
    fn pick_in_cluster(&mut self, release: Time, slice: &[usize]) -> usize {
        let cid = match self.cluster_for(slice) {
            Some(cid) => cid,
            None => {
                // Overlaps another cluster's machines — the flat tie
                // scan is the always-correct fallback (both scan
                // implementations are bitwise-equivalent; the counter
                // name predates the SIMD path and counts fallbacks of
                // either flavor).
                self.stats.scalar_fallback_scans += 1;
                match self.scan {
                    ScanImpl::Simd => scan_ties_simd(
                        self.completions.padded(),
                        ProcSetRef::Explicit(slice),
                        release,
                        &mut self.ties,
                    ),
                    ScanImpl::Scalar => scan_ties(
                        self.completions.values(),
                        slice.iter().copied(),
                        release,
                        &mut self.ties,
                    ),
                }
                return self.breaker.pick(&self.ties);
            }
        };
        self.stats.indexed_descents += 1;
        let cluster = &mut self.clusters[cid];
        // Phase 1 — surface the true minimum completion: an accurate top
        // entry is the minimum (all others understate-or-match their own
        // completions, which are ≥ the top's); a stale top is re-keyed
        // in place (one sift-down — behaviorally identical to pop+push
        // under the heap's strict (key, machine) total order).
        let min_c = loop {
            let (key, machine) = cluster.heap.peek().expect("cluster heaps are never empty");
            let actual = self.completions.get(machine);
            if key == actual {
                break actual;
            }
            self.stats.heap_self_heals += 1;
            cluster.heap.rekey_top(actual);
        };
        let t_min = release.max(min_c);
        // Phase 2 — pop the exact tie set {j : C_j ≤ t'min}. Once the
        // (corrected) top exceeds t'min, so does every remaining entry.
        self.ties.clear();
        while let Some((key, machine)) = cluster.heap.peek() {
            let actual = self.completions.get(machine);
            if key < actual {
                self.stats.heap_self_heals += 1;
                cluster.heap.rekey_top(actual);
                continue;
            }
            if key > t_min {
                break;
            }
            cluster.heap.pop();
            self.ties.push(machine);
        }
        // One entry per machine, so the popped machines are distinct;
        // sort restores the ascending order Breaker::pick expects.
        self.ties.sort_unstable();
        let u = self.breaker.pick(&self.ties);
        // Phase 3 — restore the invariant. The picked machine's entry
        // goes back with its pre-commit completion and self-heals as a
        // stale (understating) entry on a later peek.
        for &j in &self.ties {
            cluster.heap.push(self.completions.get(j), j);
        }
        u
    }

    /// The cluster id serving `slice`, registering a new cluster when
    /// its machines are all unclaimed. `None` means the slice conflicts
    /// with an existing cluster (different membership or partial
    /// overlap) and must be served by the scalar scan.
    fn cluster_for(&mut self, slice: &[usize]) -> Option<usize> {
        if self.owner.is_empty() {
            self.owner = vec![UNOWNED; self.completions.len()];
        }
        let cid = self.owner[slice[0]];
        if cid != UNOWNED {
            let cid = cid as usize;
            return (self.clusters[cid].members == slice).then_some(cid);
        }
        if slice.iter().any(|&j| self.owner[j] != UNOWNED) {
            return None;
        }
        let cid = self.clusters.len();
        if cid >= UNOWNED as usize {
            return None;
        }
        let heap = SoaMinHeap::from_entries(slice.iter().map(|&j| (self.completions.get(j), j)));
        for &j in slice {
            self.owner[j] = cid as u32;
        }
        self.clusters.push(Cluster {
            members: slice.to_vec(),
            heap,
        });
        Some(cid)
    }
}

/// See [`Pick`] — `Min`/`Max` consume no randomness and take the
/// extreme tie machine, so a single descent suffices; `Rand` draws
/// `random_range(0..|U'ᵢ|)` and needs the full enumeration.
fn pick_mode(breaker: &Breaker) -> Pick {
    match breaker {
        Breaker::Min => Pick::Leftmost,
        Breaker::Max => Pick::Rightmost,
        Breaker::Rand(_) => Pick::Enumerate,
    }
}

impl ImmediateDispatcher for IndexedEftState {
    fn machine_count(&self) -> usize {
        self.machines()
    }

    fn dispatch_task(&mut self, task: Task, set: ProcSetRef<'_>) -> Assignment {
        self.dispatch_ref(task, set)
    }

    fn machine_completions(&self) -> &[Time] {
        self.completions()
    }

    fn kernel_stats(&self) -> Option<KernelStats> {
        Some(self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eft::EftState;
    use rand::{Rng, SeedableRng};

    /// Tree built the way commits maintain it: all leaves 0, then one
    /// early-exit update per leaf.
    fn tree_of(vals: &[Time]) -> MinTree {
        let mut t = MinTree::from_values(vals.iter().map(|_| 0.0));
        for (j, &v) in vals.iter().enumerate() {
            t.update(j, v);
        }
        t
    }

    #[test]
    fn tree_descents_match_scans_on_random_data() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        for m in [1usize, 3, 7, 16, 33, 90] {
            let vals: Vec<Time> = (0..m).map(|_| rng.random_range(0..8) as f64).collect();
            let t = tree_of(&vals);
            for _ in 0..60 {
                let lo = rng.random_range(0..m);
                let hi = rng.random_range(lo..m);
                let bound = rng.random_range(0..9) as f64 - 0.5;
                let expect: Vec<usize> = (lo..=hi).filter(|&j| vals[j] <= bound).collect();
                let min = vals[lo..=hi].iter().cloned().fold(f64::INFINITY, f64::min);
                assert_eq!(
                    t.leftmost_le(lo, hi, bound),
                    expect.first().copied().ok_or(min),
                    "leftmost m={m} [{lo},{hi}] ≤{bound}"
                );
                assert_eq!(
                    t.rightmost_le(lo, hi, bound),
                    expect.last().copied().ok_or(min),
                    "rightmost m={m} [{lo},{hi}] ≤{bound}"
                );
                let mut got = Vec::new();
                t.for_each_le(lo, hi, bound, |j| got.push(j));
                assert_eq!(got, expect, "collect m={m} [{lo},{hi}] ≤{bound}");
            }
        }
    }

    /// `[lo, hi]` pairs that start or end on lane edges, or cover one,
    /// two, three or all lanes, plus random ones.
    fn lane_ranges(m: usize, rng: &mut rand::rngs::StdRng) -> Vec<(usize, usize)> {
        let mut out = vec![(0, m - 1)];
        let lanes = m.div_ceil(LANE);
        for first in 0..lanes {
            for span in 1..=3 {
                let lo = first * LANE;
                let hi = ((first + span) * LANE).min(m) - 1;
                out.push((lo, hi));
                out.push((lo + (hi - lo) / 2, hi));
                out.push((lo, lo + (hi - lo) / 2));
                if hi > lo + 1 {
                    out.push((lo + 1, hi - 1));
                }
            }
        }
        for _ in 0..60 {
            let lo = rng.random_range(0..m);
            out.push((lo, rng.random_range(lo..m)));
        }
        out
    }

    /// Random completions, then random commits through the bank and
    /// `refresh` — the same way the kernel keeps the index.
    fn bank_and_index(m: usize, rng: &mut rand::rngs::StdRng) -> (CompletionBank, LaneIndex) {
        let vals: Vec<Time> = (0..m).map(|_| rng.random_range(0..6) as f64).collect();
        let mut bank = CompletionBank::from_completions(&vals);
        let mut index = LaneIndex::new(bank.padded());
        for _ in 0..2 * m {
            let j = rng.random_range(0..m);
            let v = bank.get(j) + rng.random_range(0..3) as f64;
            bank.set(j, v);
            index.refresh(bank.padded(), j);
        }
        (bank, index)
    }

    #[test]
    fn lane_index_matches_flat_scan_on_random_data() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x1A4E);
        for m in [1usize, 7, 8, 9, 63, 64, 65, 1000] {
            for _ in 0..4 {
                let (bank, index) = bank_and_index(m, &mut rng);
                let (padded, vals) = (bank.padded(), bank.values());
                for (lo, hi) in lane_ranges(m, &mut rng) {
                    let flat_min = vals[lo..=hi].iter().cloned().fold(f64::INFINITY, f64::min);
                    // Bounds below (a failed search: the range-min
                    // query), at and above the minimum — and +∞, which
                    // every padding slot satisfies.
                    for bound in [flat_min - 0.5, flat_min, flat_min + 2.0, f64::INFINITY] {
                        let expect: Vec<usize> = (lo..=hi).filter(|&j| vals[j] <= bound).collect();
                        let ctx = format!("m={m} [{lo},{hi}] ≤{bound}");
                        // A failed search reports the range minimum.
                        assert_eq!(
                            index.leftmost_le(padded, lo, hi, bound),
                            expect.first().copied().ok_or(flat_min),
                            "leftmost {ctx}"
                        );
                        assert_eq!(
                            index.rightmost_le(padded, lo, hi, bound),
                            expect.last().copied().ok_or(flat_min),
                            "rightmost {ctx}"
                        );
                        let mut got = vec![usize::MAX];
                        index.collect_le(padded, lo, hi, bound, &mut got);
                        assert_eq!(got[0], usize::MAX, "collect appends ({ctx})");
                        assert_eq!(&got[1..], &expect[..], "collect {ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn lane_index_tracks_rebuilt_minima_under_commits() {
        // Early-exit refreshes must leave exactly the tree a fresh build
        // over the same bank produces.
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x1A4F);
        for m in [1usize, 9, 65, 1000] {
            let (bank, index) = bank_and_index(m, &mut rng);
            assert_eq!(
                index.tree.vals,
                LaneIndex::new(bank.padded()).tree.vals,
                "m={m}"
            );
        }
    }

    #[test]
    fn lane_index_is_lane_sized() {
        let m = 1 << 20;
        let index = LaneIndex::new(CompletionBank::new(m).padded());
        assert_eq!(index.tree.vals.len(), 2 * (m / LANE));
        assert!(IndexedEftState::new(m, TieBreak::Min).owner.is_empty());
    }

    /// Random mixed-shape dispatch sequences: the indexed kernel must
    /// agree with the scalar oracle assignment-for-assignment. (The
    /// public streaming suites re-pin this through the engine; this is
    /// the direct state-level check.)
    #[test]
    fn indexed_matches_scalar_on_mixed_shapes() {
        for policy in [TieBreak::Min, TieBreak::Max, TieBreak::Rand { seed: 21 }] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(0xD15);
            let m = 24;
            let mut scalar = EftState::new(m, policy);
            let mut indexed = IndexedEftState::new(m, policy);
            let mut release = 0.0;
            let blocks: Vec<Vec<usize>> = (0..4).map(|b| (6 * b..6 * b + 6).collect()).collect();
            for i in 0..600 {
                release += rng.random_range(0..3) as f64 * 0.25;
                let task = Task::new(release, 0.25 * rng.random_range(1..5) as f64);
                let pick = rng.random_range(0..4);
                let (a, b) = match pick {
                    0 => {
                        let lo = rng.random_range(0..m);
                        let hi = rng.random_range(lo..m);
                        let set = ProcSetRef::interval(lo, hi);
                        (
                            scalar.dispatch_ref(task, set),
                            indexed.dispatch_ref(task, set),
                        )
                    }
                    1 => {
                        let len = rng.random_range(1..=m);
                        let set = ProcSetRef::prefix(len);
                        (
                            scalar.dispatch_ref(task, set),
                            indexed.dispatch_ref(task, set),
                        )
                    }
                    2 => {
                        let start = rng.random_range(0..m);
                        let len = rng.random_range(1..=m);
                        let set = ProcSetRef::ring(start, len, m);
                        (
                            scalar.dispatch_ref(task, set),
                            indexed.dispatch_ref(task, set),
                        )
                    }
                    _ => {
                        let set = ProcSetRef::Explicit(&blocks[rng.random_range(0..4)]);
                        (
                            scalar.dispatch_ref(task, set),
                            indexed.dispatch_ref(task, set),
                        )
                    }
                };
                assert_eq!(a, b, "{policy:?} dispatch {i} diverged");
                assert_eq!(scalar.completions(), indexed.completions(), "after {i}");
            }
        }
    }

    /// Explicit sets that overlap a registered cluster must fall back to
    /// the scalar scan and still agree exactly.
    #[test]
    fn overlapping_explicit_sets_fall_back_correctly() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xFA11);
        let m = 10;
        let mut scalar = EftState::new(m, TieBreak::Min);
        let mut indexed = IndexedEftState::new(m, TieBreak::Min);
        let cluster: Vec<usize> = vec![0, 2, 4, 6];
        let overlapping: Vec<usize> = vec![2, 3, 4];
        let mut release = 0.0;
        for i in 0..200 {
            release += 0.25 * rng.random_range(0..2) as f64;
            let task = Task::new(release, 1.0);
            let set = if rng.random_bool(0.5) {
                ProcSetRef::Explicit(&cluster)
            } else {
                ProcSetRef::Explicit(&overlapping)
            };
            assert_eq!(
                scalar.dispatch_ref(task, set),
                indexed.dispatch_ref(task, set),
                "dispatch {i}"
            );
        }
    }

    #[test]
    fn cluster_heaps_self_heal_after_tree_path_commits() {
        // Interleave interval dispatches (which bump completions behind
        // the cluster heap's back) with cluster dispatches.
        let m = 8;
        let mut scalar = EftState::new(m, TieBreak::Max);
        let mut indexed = IndexedEftState::new(m, TieBreak::Max);
        let members: Vec<usize> = vec![1, 3, 5];
        for i in 0..60 {
            let task = Task::new(i as f64 * 0.125, 0.5);
            let set = if i % 2 == 0 {
                ProcSetRef::interval(0, 5)
            } else {
                ProcSetRef::Explicit(&members)
            };
            assert_eq!(
                scalar.dispatch_ref(task, set),
                indexed.dispatch_ref(task, set),
                "dispatch {i}"
            );
        }
        let ks = indexed.kernel_stats();
        assert!(
            ks.heap_self_heals > 0,
            "interleaved interval/cluster traffic must exercise self-healing"
        );
    }

    #[test]
    fn kernel_stats_track_decision_paths() {
        let mut s = IndexedEftState::new(10, TieBreak::Min);
        let cluster: Vec<usize> = vec![0, 2, 4];
        let overlapping: Vec<usize> = vec![2, 3];
        s.dispatch_ref(Task::unit(0.0), ProcSetRef::interval(0, 9));
        s.dispatch_ref(Task::unit(0.0), ProcSetRef::Explicit(&cluster));
        s.dispatch_ref(Task::unit(0.0), ProcSetRef::Explicit(&overlapping));
        let ks = s.kernel_stats();
        assert_eq!(ks.indexed_descents, 2, "interval + claimed cluster");
        assert_eq!(ks.scalar_fallback_scans, 1, "overlapping explicit set");
    }

    #[test]
    fn for_structure_prefers_the_index_on_structured_families() {
        use flowsched_core::procset::ProcSet;
        use flowsched_core::structure::classify;
        let m = 128;
        let intervals: Vec<ProcSet> = (0..8).map(|i| ProcSet::interval(i, i + 16)).collect();
        let rep = classify(&intervals, m);
        assert_eq!(
            DispatchKernel::for_structure(&rep, m),
            DispatchKernel::Indexed
        );
        assert_eq!(
            DispatchKernel::for_structure(&rep, 8),
            DispatchKernel::Scalar
        );
    }

    /// Pins the width-aware crossover against the recorded BENCH_PR5
    /// medians (`dispatch_disjoint`, blocks of width m/16): the scalar
    /// scan measured faster at (m=64, k=4) [348 µs vs 614 µs] and
    /// (m=256, k=16) [575 µs vs 761 µs], the indexed kernel faster at
    /// (m=1024, k=64) [1.11 ms vs 1.45 ms] and every larger point —
    /// `for_structure` must land on the measured winner at each.
    #[test]
    fn width_threshold_matches_bench_pr5_crossover() {
        use flowsched_core::procset::ProcSet;
        use flowsched_core::structure::classify;
        let disjoint = |m: usize, k: usize| {
            let sets: Vec<ProcSet> = (0..m / k)
                .map(|b| ProcSet::interval(b * k, b * k + k - 1))
                .collect();
            classify(&sets, m)
        };
        for (m, winner) in [
            (64, DispatchKernel::Scalar),
            (256, DispatchKernel::Scalar),
            (1024, DispatchKernel::Indexed),
            (4096, DispatchKernel::Indexed),
        ] {
            let rep = disjoint(m, m / 16);
            assert_eq!(rep.fixed_size, Some(m / 16));
            assert_eq!(
                DispatchKernel::for_structure(&rep, m),
                winner,
                "disjoint m={m} k={}",
                m / 16
            );
        }
        // Interval/inclusive sweeps (widths ~m/2 or mixed) measured the
        // index ahead at every m ≥ 64 — wide or unknown widths keep it.
        let wide = classify(
            &(0..4)
                .map(|i| ProcSet::interval(i, i + 31))
                .collect::<Vec<_>>(),
            64,
        );
        assert_eq!(
            DispatchKernel::for_structure(&wide, 64),
            DispatchKernel::Indexed
        );
        assert!(indexed_min_width(64) <= 32 && indexed_min_width(64) > 4);
    }

    #[test]
    fn resolve_for_stream_uses_the_hint_when_present() {
        use flowsched_core::instance::InstanceBuilder;
        use flowsched_core::procset::ProcSet;
        use flowsched_core::stream::{FnStream, InstanceStream};
        // Narrow disjoint blocks on many machines: the flat m-rule said
        // Indexed, the structure-aware rule must say Scalar.
        let m = 256;
        let mut b = InstanceBuilder::new(m);
        for i in 0..32 {
            let blk = (i * 5) % (m / 4);
            b.push(
                Task::new(i as f64, 1.0),
                ProcSet::interval(blk * 4, blk * 4 + 3),
            );
        }
        let inst = b.build().unwrap();
        assert_eq!(
            DispatchKernel::Auto.resolve_for_stream(&InstanceStream::new(&inst)),
            DispatchKernel::Scalar
        );
        // Hint-less sources fall back to the machine-count rule…
        assert_eq!(
            DispatchKernel::Auto.resolve_for_stream(&FnStream::new(m, || None)),
            DispatchKernel::Indexed
        );
        assert_eq!(
            DispatchKernel::Auto.resolve_for_stream(&FnStream::new(15, || None)),
            DispatchKernel::Scalar
        );
        // …and explicit choices always pass through.
        assert_eq!(
            DispatchKernel::Scalar.resolve_for_stream(&InstanceStream::new(&inst)),
            DispatchKernel::Scalar
        );
    }

    #[test]
    #[should_panic(expected = "empty processing set")]
    fn indexed_rejects_empty_sets() {
        let mut s = IndexedEftState::new(2, TieBreak::Min);
        s.dispatch_ref(Task::unit(0.0), ProcSetRef::Explicit(&[]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn indexed_rejects_out_of_range_sets() {
        let mut s = IndexedEftState::new(2, TieBreak::Min);
        s.dispatch_ref(Task::unit(0.0), ProcSetRef::interval(1, 4));
    }
}
