//! The policy registry's contracts, pinned (ISSUE 8):
//!
//! 1. **One construction path, zero drift**: a registry-built policy
//!    produces the *bitwise-identical* schedule and recorder trace to
//!    the directly-constructed dispatcher it names — across workload
//!    families, tie-breaks, kernels, and sequential vs sharded engines —
//!    and `Auto` resolves once, at build, to the kernel the benchmark
//!    shapes expect.
//! 2. **Names are total**: every [`PolicySpec`] round-trips through its
//!    registry string (`spec.to_string().parse() == spec`), for random
//!    specs and for the curated [`PolicySpec::examples`]; the parser
//!    never panics on arbitrary text, and whatever it accepts
//!    round-trips.
//! 3. **The frontier degenerates cleanly**: `weft@0` and `setup@0`
//!    (both variants) reproduce plain scalar EFT bitwise, including the
//!    tie-break RNG draws.

use proptest::prelude::*;

use flowsched::algos::eft::EftState;
use flowsched::algos::engine::{
    immediate_schedule, policy_schedule, policy_schedule_sharded, ShardedConfig,
};
use flowsched::algos::indexed::{DispatchKernel, IndexedEftState};
use flowsched::algos::policies::{DispatchRule, Dispatcher};
use flowsched::algos::registry::{PolicyId, PolicySpec, PolicyState};
use flowsched::algos::setup::SetupEftState;
use flowsched::algos::soa::ScanImpl;
use flowsched::algos::tiebreak::TieBreak;
use flowsched::algos::weighted::WeightedEftState;
use flowsched::core::schedule::Schedule;
use flowsched::core::shard::DEFAULT_MAX_SHARDS;
use flowsched::core::stream::ArrivalStream;
use flowsched::obs::{MemoryRecorder, NoopRecorder, Recorder};
use flowsched::workloads::random::{PoissonStream, PoissonStreamConfig, StructureKind};

fn kind_for(idx: usize, k: usize) -> StructureKind {
    match idx {
        0 => StructureKind::DisjointBlocks(k),
        1 => StructureKind::IntervalFixed(k),
        2 => StructureKind::RingFixed(k),
        3 => StructureKind::InclusivePrefix,
        4 => StructureKind::Unrestricted,
        _ => StructureKind::General,
    }
}

fn stream_for(kind: StructureKind, m: usize, n: usize, seed: u64) -> PoissonStream {
    let cfg = PoissonStreamConfig::unit_tasks(m, n, m as f64 / 2.0, kind);
    PoissonStream::new(&cfg, seed)
}

fn arb_tie() -> impl Strategy<Value = TieBreak> {
    prop_oneof![
        Just(TieBreak::Min),
        Just(TieBreak::Max),
        any::<u64>().prop_map(|seed| TieBreak::Rand { seed }),
    ]
}

fn arb_kernel() -> impl Strategy<Value = DispatchKernel> {
    prop_oneof![
        Just(DispatchKernel::Auto),
        Just(DispatchKernel::Scalar),
        Just(DispatchKernel::Indexed),
    ]
}

fn arb_id() -> impl Strategy<Value = PolicyId> {
    prop_oneof![
        arb_tie().prop_map(|tie| PolicyId::Eft { tie }),
        any::<u64>().prop_map(|seed| PolicyId::Random { seed }),
        (1usize..5, any::<u64>()).prop_map(|(d, seed)| PolicyId::Choices { d, seed }),
        Just(PolicyId::RoundRobin),
        (arb_tie(), 0u32..40).prop_map(|(tie, s)| PolicyId::WeightedEft {
            tie,
            slack: s as f64 * 0.25,
        }),
        (arb_tie(), 0u32..40, any::<bool>()).prop_map(|(tie, c, aware)| PolicyId::SetupEft {
            tie,
            cost: c as f64 * 0.25,
            aware,
        }),
    ]
}

fn arb_scan() -> impl Strategy<Value = ScanImpl> {
    prop_oneof![Just(ScanImpl::Simd), Just(ScanImpl::Scalar)]
}

fn arb_spec() -> impl Strategy<Value = PolicySpec> {
    (arb_id(), arb_kernel(), arb_scan()).prop_map(|(id, kernel, scan)| PolicySpec {
        id,
        kernel,
        scan,
    })
}

/// The construction the spec names, done by hand: the concrete
/// dispatcher state, run on the shared engine. The registry must never
/// drift from this. An `Auto` spec may resolve to either kernel; both
/// must match the scalar oracle built here.
fn direct_schedule<S: ArrivalStream, R: Recorder>(
    stream: S,
    spec: &PolicySpec,
    rec: &mut R,
) -> Schedule {
    let m = stream.machines();
    match spec.id {
        PolicyId::Eft { tie } if spec.kernel == DispatchKernel::Indexed => {
            let mut state = IndexedEftState::with_scan(m, tie, spec.scan);
            immediate_schedule(stream, &mut state, rec)
        }
        PolicyId::Eft { tie } => {
            let mut state = EftState::with_scan(m, tie, spec.scan);
            immediate_schedule(stream, &mut state, rec)
        }
        PolicyId::Random { seed } => {
            let mut state = Dispatcher::new(m, DispatchRule::RandomMachine { seed });
            immediate_schedule(stream, &mut state, rec)
        }
        PolicyId::Choices { d, seed } => {
            let mut state = Dispatcher::new(m, DispatchRule::TwoChoices { d, seed });
            immediate_schedule(stream, &mut state, rec)
        }
        PolicyId::RoundRobin => {
            let mut state = Dispatcher::new(m, DispatchRule::RoundRobin);
            immediate_schedule(stream, &mut state, rec)
        }
        PolicyId::WeightedEft { tie, slack } => {
            let mut state = WeightedEftState::new(m, tie, slack);
            immediate_schedule(stream, &mut state, rec)
        }
        PolicyId::SetupEft { tie, cost, aware } => {
            let mut state = SetupEftState::new(m, tie, cost, aware);
            immediate_schedule(stream, &mut state, rec)
        }
    }
}

/// Grammar words and `@` arguments the spec fuzzer strings together.
const WORDS: &str = "eft rr random choices weft setup setup-obl min max rand auto scalar \
    indexed simd scalar-scan";
const ARGS: &str = "0 7 2.5 -1 -0 +4 1e3 1e400 1e-400 nan inf 18446744073709551616 0x10 \
    2,9 0,5 2, ,3";

/// One fuzz string: each `(pick, raw)` piece is one segment — a grammar
/// word, a word with an `@` argument, or one arbitrary character (ASCII
/// for even `raw`, any code point for odd) — and segments are joined by
/// `:` except when `raw` is a multiple of 8.
fn fuzz_string(pieces: &[(usize, u32)]) -> String {
    let words: Vec<&str> = WORDS.split_whitespace().collect();
    let args: Vec<&str> = ARGS.split_whitespace().collect();
    let mut out = String::new();
    for (i, &(pick, raw)) in pieces.iter().enumerate() {
        if i > 0 && raw % 8 != 0 {
            out.push(':');
        }
        match pick {
            p if p < words.len() => out.push_str(words[p]),
            p if p < 2 * words.len() => {
                out.push_str(words[p - words.len()]);
                out.push('@');
                out.push_str(args[raw as usize % args.len()]);
            }
            _ if raw % 2 == 0 => out.push(char::from((raw >> 1) as u8 & 0x7f)),
            _ => out.push(char::from_u32(raw % 0x11_0000).unwrap_or('\u{fffd}')),
        }
    }
    out
}

proptest! {
    // Parsing costs microseconds; most strings fail, so many cases are
    // needed for a few hundred accepted ones.
    #![proptest_config(ProptestConfig::with_cases(16384))]

    /// Contract 2 on arbitrary text: parsing never panics, and every
    /// accepted string names a spec that round-trips through its own
    /// `to_string()`. Strings mix grammar tokens (so many parse) with
    /// arbitrary characters (so most of the error paths run).
    #[test]
    fn spec_parser_never_panics_and_accepted_specs_round_trip(
        pieces in prop::collection::vec((0usize..36, any::<u32>()), 0..6),
    ) {
        let s = fuzz_string(&pieces);
        if let Ok(spec) = s.parse::<PolicySpec>() {
            let printed = spec.to_string();
            let back: PolicySpec = printed.parse()
                .unwrap_or_else(|e| panic!("`{s}` parsed, but its form `{printed}` did not: {e}"));
            prop_assert_eq!(back, spec, "`{}` → `{}` was lossy", s, printed);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Contract 2: registry strings are lossless names.
    #[test]
    fn spec_round_trips_through_its_string(spec in arb_spec()) {
        let s = spec.to_string();
        let parsed: PolicySpec = s.parse()
            .unwrap_or_else(|e| panic!("`{s}` failed to re-parse: {e}"));
        prop_assert_eq!(parsed, spec, "string form `{}` was lossy", s);
    }

    /// Contract 1, sequential: schedule + trace bitwise equality with
    /// the direct construction across families × kernels × policies.
    #[test]
    fn registry_matches_direct_construction(
        spec in arb_spec(),
        family in 0usize..6,
        m in 2usize..24,
        n in 1usize..150,
        k_raw in 1usize..8,
        seed in any::<u64>(),
    ) {
        let k = 1 + k_raw % m;
        let kind = kind_for(family, k);

        let mut direct_rec = MemoryRecorder::with_defaults(m);
        let direct = direct_schedule(stream_for(kind, m, n, seed), &spec, &mut direct_rec);

        let mut reg_rec = MemoryRecorder::with_defaults(m);
        let registry = policy_schedule(stream_for(kind, m, n, seed), &spec, &mut reg_rec);

        prop_assert_eq!(&direct, &registry, "{} on {:?}: schedules differ", spec, kind);
        prop_assert_eq!(
            direct_rec.trace().to_vec(),
            reg_rec.trace().to_vec(),
            "{} on {:?}: recorder traces differ", spec, kind
        );
    }

    /// Contract 1, sharded: for deterministic tie-breaks the registry's
    /// sharded run (shard-local builds via `for_shard`) reproduces its
    /// own sequential run bitwise — for the new families too.
    #[test]
    fn registry_sharded_matches_sequential(
        policy in 0usize..4,
        tb_max in any::<bool>(),
        m_raw in 2usize..24,
        n in 1usize..150,
        k_raw in 1usize..8,
        threads in 1usize..5,
        seed in any::<u64>(),
    ) {
        let k = 1 + k_raw % m_raw;
        let m = (m_raw / k).max(1) * k;
        let tie = if tb_max { TieBreak::Max } else { TieBreak::Min };
        let id = match policy {
            0 => PolicyId::Eft { tie },
            1 => PolicyId::WeightedEft { tie, slack: 2.0 },
            2 => PolicyId::SetupEft { tie, cost: 0.5, aware: true },
            _ => PolicyId::SetupEft { tie, cost: 0.5, aware: false },
        };
        let spec = PolicySpec::new(id);
        let kind = StructureKind::DisjointBlocks(k);

        let sequential =
            policy_schedule(stream_for(kind, m, n, seed), &spec, &mut NoopRecorder);

        let stream = stream_for(kind, m, n, seed);
        let plan = stream.shard_plan(DEFAULT_MAX_SHARDS);
        let sharded = policy_schedule_sharded(
            stream,
            &spec,
            &plan,
            &ShardedConfig::with_threads(threads),
            &mut NoopRecorder,
        );
        prop_assert_eq!(
            &sequential, &sharded,
            "{} threads={} shards={}: sharded diverged", spec, threads, plan.shards()
        );
    }

    /// Contract 3: the frontier's zero-parameter degenerations are
    /// plain scalar EFT, bitwise, RNG draws included.
    #[test]
    fn zero_parameter_policies_reduce_to_eft(
        variant in 0usize..3,
        tie_idx in 0usize..3,
        m in 2usize..16,
        n in 1usize..120,
        seed in any::<u64>(),
    ) {
        let tie = ["min", "max", "rand@77"][tie_idx];
        let policy = match variant {
            0 => format!("weft@0:{tie}"),
            1 => format!("setup@0:{tie}"),
            _ => format!("setup-obl@0:{tie}"),
        };
        let spec: PolicySpec = policy.parse().expect("valid policy string");
        let eft: PolicySpec = format!("eft:{tie}:scalar").parse().expect("valid eft string");
        let kind = StructureKind::General;

        let frontier =
            policy_schedule(stream_for(kind, m, n, seed), &spec, &mut NoopRecorder);
        let baseline =
            policy_schedule(stream_for(kind, m, n, seed), &eft, &mut NoopRecorder);
        prop_assert_eq!(frontier, baseline, "{} is not scalar EFT", policy);
    }
}

/// The curated examples cover every family and survive both the
/// round-trip and a real build.
#[test]
fn examples_round_trip_and_build() {
    let examples = PolicySpec::examples();
    assert!(
        examples.len() >= 10,
        "examples() shrank: {}",
        examples.len()
    );
    for spec in examples {
        let reparsed: PolicySpec = spec.to_string().parse().expect("example must re-parse");
        assert_eq!(reparsed, spec);
        let state = spec.build(8);
        use flowsched::algos::eft::ImmediateDispatcher;
        assert_eq!(state.machine_count(), 8, "{spec}: wrong machine count");
    }
}

/// `eft:min` resolves its kernel once, at build, to the kernel each
/// benchmark shape is meant to run. Builds the state only.
#[test]
fn auto_resolves_once_at_build_for_the_benchmark_shapes() {
    use flowsched::kvstore::replication::ReplicationStrategy;
    use flowsched::stats::rng::derive_rng;
    use flowsched::stats::service::ServiceDist;
    use flowsched::workloads::trace::{TraceConfig, TraceStream};

    let spec: PolicySpec = "eft:min".parse().expect("valid policy string");
    let kernel = |state: PolicyState| match state {
        PolicyState::Scalar(_) => DispatchKernel::Scalar,
        PolicyState::Indexed(_) => DispatchKernel::Indexed,
        other => panic!("eft built {other:?}"),
    };

    // The Fig. 11 key-value trace: no structure hint, m = 15.
    let kv = TraceStream::new(
        &TraceConfig {
            m: 15,
            k: 3,
            strategy: ReplicationStrategy::Overlapping,
            num_keys: 1000,
            key_bias: 1.0,
            lambda: 7.5,
            service: ServiceDist::unit(),
        },
        100,
        derive_rng(1, 2),
    );
    assert!(kv.structure_hint().is_none());
    assert_eq!(kernel(spec.build_for_stream(&kv)), DispatchKernel::Scalar);

    // Ring k = 3 on 256 machines: narrower than indexed_min_width(256).
    let ring = PoissonStream::new(
        &PoissonStreamConfig::unit_tasks(256, 100, 179.2, StructureKind::RingFixed(3)),
        1,
    );
    assert_eq!(kernel(spec.build_for_stream(&ring)), DispatchKernel::Scalar);

    // 64-wide intervals on 2^20 machines.
    let m = 1 << 20;
    let wide = PoissonStream::new(
        &PoissonStreamConfig::unit_tasks(m, 100, m as f64 / 2.0, StructureKind::IntervalFixed(64)),
        1,
    );
    assert_eq!(
        kernel(spec.build_for_stream(&wide)),
        DispatchKernel::Indexed
    );

    // A 16-machine shard of the disjoint workload builds on its width.
    for s in [0, 1, 15] {
        assert_eq!(kernel(spec.for_shard(s).build(16)), DispatchKernel::Scalar);
    }
}
