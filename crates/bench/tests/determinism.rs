//! Determinism regression tests for the parallel sweep runner and the
//! simulator hot path.
//!
//! Two invariants are pinned here:
//!
//! 1. A sweep's serialized results are **byte-identical** for any worker
//!    count (the whole point of the index-ordered merge + per-worker
//!    controller instantiation design in `libra_bench::sweep`).
//! 2. Fixed-seed runs produce exact, pinned digests — one per workload
//!    kind, inline and served — so hot-path "optimizations" that change
//!    behaviour (capacity cursor, fault fast path, preallocation) and
//!    run-path refactors that change what a spec means fail loudly
//!    instead of silently skewing every figure.

use libra_bench::{
    run, run_spec, run_sweep_supervised_with, spec_digest, trace_to_jsonl, Cca, ModelStore,
    PolicyChaosSpec, RunSpec, RunSummary, SweepPolicy, POLICY_QUANTUM,
};
use libra_core::{LibraParams, LibraVariant};
use libra_netsim::{
    lte_link, step_link, wan_link, FaultKind, FaultPlan, GilbertElliott, LinkConfig, LteScenario,
    SimConfig, WanScenario,
};
use libra_types::{DetRng, Duration, Instant, Preference, Rate};

fn wired(mbps: f64) -> LinkConfig {
    LinkConfig::constant(Rate::from_mbps(mbps), Duration::from_millis(40), 1.0)
}

/// A small but representative sweep: single / pair / staggered
/// workloads, classic and model-backed CCAs, distinct seeds.
fn mixed_specs() -> Vec<RunSpec> {
    vec![
        RunSpec::single(Cca::Cubic, wired(24.0), 5, 11),
        RunSpec::single(Cca::Bbr, wired(24.0), 5, 12),
        RunSpec::single(Cca::Aurora, wired(12.0), 5, 13),
        RunSpec::single(Cca::CLibra(Preference::Default), wired(24.0), 5, 14),
        RunSpec::pair(Cca::Bbr, Cca::Cubic, wired(48.0), 5, 15),
        RunSpec::staggered(Cca::Cubic, wired(48.0), 3, Duration::from_secs(1), 6, 16),
    ]
}

fn sweep_json(store: &ModelStore, specs: Vec<RunSpec>, workers: usize) -> String {
    let results: Vec<RunSummary> =
        run_sweep_supervised_with(store, specs, workers, &SweepPolicy::default(), None, None)
            .slots
            .into_iter()
            .map(|slot| slot.expect("clean run"))
            .collect();
    serde_json::to_string(&results).expect("serialize sweep results")
}

/// 64-bit FNV-1a over a string — a stable, dependency-free digest.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Invariant 1: the serialized sweep output is byte-identical for any
/// worker count, including model-backed CCAs restored on the workers.
#[test]
fn sweep_is_byte_identical_across_worker_counts() {
    let store = ModelStore::ephemeral(7);
    let sequential = sweep_json(&store, mixed_specs(), 1);
    for workers in [2, 3, 8] {
        let parallel = sweep_json(&store, mixed_specs(), workers);
        assert_eq!(
            sequential, parallel,
            "sweep output diverged at workers={workers}"
        );
    }
}

/// A freshly trained store (new cache, same seed/config) must reproduce
/// the same results: weights are a pure function of the training
/// config, and agent restoration draws from a fresh derived RNG stream.
#[test]
fn fresh_store_reproduces_model_backed_runs() {
    let specs = || {
        vec![
            RunSpec::single(Cca::Aurora, wired(12.0), 5, 21),
            RunSpec::pair(Cca::Aurora, Cca::Cubic, wired(24.0), 5, 22),
        ]
    };
    let a = sweep_json(&ModelStore::ephemeral(3), specs(), 2);
    let b = sweep_json(&ModelStore::ephemeral(3), specs(), 4);
    assert_eq!(a, b, "retraining from scratch changed the results");
}

/// Invariant 2: the pinned outcome of one fixed-seed run — its
/// integer-exact counts here, its full digest as row one of the golden
/// table below. If either fails and you did not *intend* to change
/// simulator behaviour, the change is a bug; if the behaviour change is
/// deliberate, update the pinned values and say so in the commit message.
#[test]
fn single_run_event_counts_are_pinned() {
    let store = ModelStore::ephemeral(1);
    let (_, spec, ..) = golden_runs().swap_remove(0);
    let summary = run_spec(&store, &spec);
    let flow = &summary.flows[0];
    // Integer-exact event-loop outcomes.
    assert_eq!(flow.sent_bytes, 30_133_500, "sent_bytes drifted");
    assert_eq!(flow.delivered_bytes, 29_592_000, "delivered_bytes drifted");
    assert_eq!(flow.acked_packets, 19_728, "acked_packets drifted");
    assert_eq!(flow.lost_packets, 213, "lost_packets drifted");
    assert_eq!(summary.tail_drops, 213, "tail_drops drifted");
}

/// One run per [`Workload`](libra_bench::Workload) kind inline (classic
/// and model-backed), plus the three shapes of a served run: a batched
/// same-CCA fleet, a batched heterogeneous fleet whose classic members
/// never register with the server, and a faulted run. Each carries the
/// FNV-1a digest of its serialized [`RunSummary`] (floats included),
/// then its [`spec_digest`].
fn golden_runs() -> Vec<(&'static str, RunSpec, u64, u64)> {
    let libra = Cca::CLibra(Preference::Default);
    let ms = Duration::from_millis;
    vec![
        (
            "single",
            RunSpec::single(Cca::Cubic, wired(24.0), 10, 42).with_label("digest"),
            0xe6f8_f8a9_380c_af46,
            0x50d1_0603_09b5_8f76,
        ),
        (
            "pair",
            RunSpec::pair(Cca::Aurora, Cca::Cubic, wired(48.0), 6, 43),
            0x3035_307f_adc9_eddb,
            0x7d86_ff76_60bb_fdf0,
        ),
        (
            "staggered",
            RunSpec::staggered(Cca::Orca, wired(48.0), 3, ms(1000), 6, 44),
            0x1d97_03c0_125e_53da,
            0x122a_de54_3b23_de1f,
        ),
        (
            "fleet",
            RunSpec::fleet(Cca::Cubic, vec![Cca::Bbr, Cca::NewReno], wired(24.0), 6, 45),
            0xda95_d3f4_10b3_374d,
            0x2cc7_13c9_18f0_e73c,
        ),
        (
            // Mice at 2, 4 and 6 s; the last is clamped to the 7 s run and
            // a fourth (8 s) is never added.
            "churn",
            RunSpec::churn(Cca::Cubic, Cca::Bbr, 4, 2, ms(2000), wired(24.0), 7, 46),
            0xa467_ea82_6283_aca5,
            0xf5ed_fa3b_a0f7_c06c,
        ),
        (
            "batched staggered",
            RunSpec::staggered(libra, wired(48.0), 4, ms(50), 5, 47).with_batched(),
            0x0d33_9666_e126_015b,
            0xdc09_398b_1b49_f3e6,
        ),
        (
            "batched mixed fleet",
            RunSpec::fleet(
                libra,
                vec![Cca::Cubic, Cca::Aurora, Cca::Bbr, Cca::Aurora],
                wired(48.0),
                5,
                48,
            )
            .with_batched(),
            0xb6c0_95c4_da81_0c2e,
            0x507a_d6bd_76b8_7269,
        ),
        (
            "faulted",
            RunSpec::staggered(libra, wired(48.0), 4, ms(50), 5, 49)
                .with_policy_faults(PolicyChaosSpec::standard(77, 5)),
            0x95aa_fa99_8913_945a,
            0xb9eb_54cf_caa2_7810,
        ),
    ]
}

/// Runs whose ACKs do not arrive in completion order: jittered trace
/// links, a wired link carrying every [`FaultKind`] in overlapping
/// windows, and a served fleet whose ACKs a compression window clumps
/// onto the policy grid. The table above runs on clean wired links
/// only, so these rows pin the jittered and faulted ACK paths. Recorded
/// at the commit that still merged same-instant ACKs into batches.
fn jittered_and_faulted_runs() -> Vec<(&'static str, RunSpec, u64, u64)> {
    let libra = Cca::CLibra(Preference::Default);
    let ms = Duration::from_millis;
    let at = Instant::from_millis;
    let eight_s = Duration::from_secs(8);
    let lte = lte_link(LteScenario::Walking, eight_s, &mut DetRng::new(60));
    let wan = wan_link(WanScenario::InterContinental, eight_s, &mut DetRng::new(62));
    let every_fault = FaultPlan::none()
        .with(at(1000), at(1300), FaultKind::LinkFlap)
        .with(
            at(500),
            at(3000),
            FaultKind::Reorder {
                probability: 0.2,
                extra_delay: ms(15),
            },
        )
        .with(
            at(1500),
            at(4000),
            FaultKind::Duplicate { probability: 0.2 },
        )
        .with(
            at(2000),
            at(4500),
            FaultKind::AckCompression { flush_every: ms(5) },
        )
        .with(at(2500), at(3500), FaultKind::DelaySpike { extra: ms(30) })
        .with(
            at(3000),
            at(5000),
            FaultKind::BurstLoss(GilbertElliott::new(0.05, 0.4, 0.0, 0.3)),
        );
    let compression = FaultPlan::none().with(
        at(500),
        at(4500),
        FaultKind::AckCompression {
            flush_every: ms(10),
        },
    );
    vec![
        (
            "lte walking",
            RunSpec::single(Cca::Cubic, lte, 8, 61),
            0xa898_cb7b_c70c_f362,
            0x7605_de71_45bb_8724,
        ),
        (
            "wan fleet",
            RunSpec::fleet(Cca::Cubic, vec![Cca::Bbr, Cca::NewReno], wan, 8, 63),
            0xc520_d261_bf79_aec8,
            0x8b6b_e382_46ee_8c99,
        ),
        (
            "every fault kind",
            RunSpec::staggered(
                Cca::Cubic,
                wired(48.0).with_faults(every_fault),
                4,
                ms(250),
                6,
                64,
            ),
            0xf6be_36aa_bcc3_4ad7,
            0x8343_89e0_d4ac_d8a8,
        ),
        (
            "batched ack compression",
            RunSpec::fleet(
                libra,
                vec![libra, libra, Cca::Cubic],
                wired(48.0).with_faults(compression),
                5,
                65,
            )
            .with_batched(),
            0xaf5a_9860_d81a_fe28,
            0xd68a_9494_a8c4_dc69,
        ),
    ]
}

/// Paced single-flow runs in the report sweep's shapes: learned arms and
/// Libra's evaluate and exploit stages send at a paced rate, so most of
/// these runs' events are pacer wakes and RTO checks on the trace links
/// the sweep draws from. Recorded at the commit that still scheduled
/// every pacer wake and RTO check through the wheel's slots.
fn paced_single_flow_runs() -> Vec<(&'static str, RunSpec, u64, u64)> {
    let eight_s = Duration::from_secs(8);
    let lte = |seed| lte_link(LteScenario::Walking, eight_s, &mut DetRng::new(seed));
    let wan = wan_link(WanScenario::InterContinental, eight_s, &mut DetRng::new(72));
    vec![
        (
            "orca lte walking",
            RunSpec::single(Cca::Orca, lte(70), 8, 71),
            0xf325_e3fb_3595_80e8,
            0xdefb_835e_e7ea_f212,
        ),
        (
            "c-libra wan",
            RunSpec::single(Cca::CLibra(Preference::Default), wan, 8, 73),
            0xbc33_2dc5_c1ae_9508,
            0xf945_1510_7381_1cb0,
        ),
        (
            "c-libra latency2 step",
            RunSpec::single(Cca::CLibra(Preference::Latency2), step_link(eight_s), 8, 74),
            0x627c_ae35_5a63_c413,
            0xb5ca_0771_deb0_e3e2,
        ),
        (
            "bbr wired",
            RunSpec::single(Cca::Bbr, wired(24.0), 8, 75),
            0x7a1b_590c_cc5d_adf1,
            0xa42f_949f_0531_025f,
        ),
        (
            "aurora lte walking",
            RunSpec::single(Cca::Aurora, lte(76), 8, 77),
            0x05c8_e73d_622a_b82f,
            0xe9a5_372b_f66b_17de,
        ),
    ]
}

/// Every golden table, in order.
fn golden_tables() -> impl Iterator<Item = (&'static str, RunSpec, u64, u64)> {
    golden_runs()
        .into_iter()
        .chain(jittered_and_faulted_runs())
        .chain(paced_single_flow_runs())
}

/// The golden tables: every digest of the first was recorded by running
/// the thirteen hand-written `run_*` builders its one builder replaced,
/// so a mismatch means the run path changed what a spec *means*; the
/// second pins the ACK paths the first never takes; the third pins the
/// paced single-flow runs that make up the report sweep.
#[test]
fn golden_run_digests_are_pinned() {
    let store = ModelStore::ephemeral(1);
    for (name, spec, want, _) in golden_tables() {
        let json = serde_json::to_string(&run_spec(&store, &spec)).expect("serialize");
        let got = fnv1a(&json);
        assert_eq!(got, want, "{name}: run digest drifted (got {got:#018x})");
    }
}

/// The tuned-Libra `Cca`, spelled with a shorthand's defaults, is that
/// shorthand — both lower to the one Libra build arm. Every golden
/// C-Libra row keeps its pinned run digest with the tuned spelling
/// (`LibraVariant::Cubic`, `LibraParams::for_cubic()` with the row's
/// preference, no classic override) swapped in, and B-Libra's spelling
/// (`for_bbr()`) runs byte-identically to `Cca::BLibra`, inline and
/// served.
#[test]
fn tuned_libra_spelled_with_defaults_is_the_shorthand() {
    let store = ModelStore::ephemeral(1);
    let digest =
        |spec: &RunSpec| fnv1a(&serde_json::to_string(&run_spec(&store, spec)).expect("serialize"));
    let tuned = |variant, params| Cca::Libra {
        variant,
        classic: None,
        params,
    };
    let default = LibraParams::for_cubic().with_preference(Preference::Default);
    assert_eq!(default, LibraParams::for_cubic());
    let mut checked = 0;
    for (name, mut spec, want, _) in golden_tables() {
        let Cca::CLibra(pref) = spec.cca else {
            continue;
        };
        let params = LibraParams::for_cubic().with_preference(pref);
        spec.cca = tuned(LibraVariant::Cubic, params);
        let got = digest(&spec);
        assert_eq!(
            got, want,
            "{name}: tuned spelling drifted (got {got:#018x})"
        );
        checked += 1;
    }
    assert!(checked >= 5, "only {checked} golden C-Libra rows");
    let b_libra = Cca::BLibra(Preference::Default);
    for spec in [
        RunSpec::single(b_libra, wired(24.0), 6, 80),
        RunSpec::staggered(b_libra, wired(48.0), 3, Duration::from_millis(50), 5, 81)
            .with_batched(),
    ] {
        let spelled = RunSpec {
            cca: tuned(LibraVariant::Bbr, LibraParams::for_bbr()),
            ..spec.clone()
        };
        assert_eq!(digest(&spelled), digest(&spec), "{}", spec.label);
    }
}

/// *Unserved* runs whose MI ticks coincide: inline specs on the policy
/// grid, so several flows' ticks pop at one instant with no
/// `PolicyService` attached — the one dispatch order the single MI-tick
/// path changed (controllers tick in pop order first, then the ticks
/// finish and pump in pop order). Each row carries the digest of the
/// untraced summary, then of the traced summary followed by its merged
/// trace stream. Recorded at the commit that still had the inline arm.
fn unserved_grid_runs() -> Vec<(&'static str, RunSpec, u64, u64)> {
    let libra = Cca::CLibra(Preference::Default);
    vec![
        (
            "staggered C-Libra x6",
            RunSpec::staggered(libra, wired(48.0), 6, Duration::from_millis(50), 5, 50),
            0xaf74_8e7d_36c4_1793,
            0x13c3_cdea_f448_f3c4,
        ),
        (
            "heterogeneous fleet",
            RunSpec::fleet(
                Cca::Aurora,
                vec![Cca::Orca, libra, Cca::Bbr],
                wired(48.0),
                5,
                51,
            ),
            0x9aab_a66b_0799_9d60,
            0x28cd_899a_26c6_da58,
        ),
    ]
}

#[test]
fn unserved_coinciding_ticks_are_pinned() {
    let store = ModelStore::ephemeral(1);
    for (name, spec, want, want_traced) in unserved_grid_runs() {
        let digest = |cfg: SimConfig| {
            let summary = RunSummary::from_report(&spec.label, &run(&store, &spec, cfg));
            let json = serde_json::to_string(&summary).expect("serialize");
            fnv1a(&(json + &trace_to_jsonl(&summary.trace)))
        };
        let got = digest(SimConfig::default().with_mi_quantum(POLICY_QUANTUM));
        assert_eq!(got, want, "{name}: run digest drifted (got {got:#018x})");
        let got = digest(SimConfig::traced().with_mi_quantum(POLICY_QUANTUM));
        assert_eq!(
            got, want_traced,
            "{name}: traced digest drifted (got {got:#018x})"
        );
    }
}

/// `spec_digest` keys every `--resume` journal on disk: a `RunSpec` or
/// `Workload` field or `Debug` change silently orphans all of them, so
/// the digest of one spec per workload kind is pinned.
#[test]
fn spec_digests_are_pinned() {
    for (name, spec, _, want) in golden_tables() {
        let got = spec_digest(&spec);
        assert_eq!(got, want, "{name}: spec digest drifted (got {got:#018x})");
    }
}
