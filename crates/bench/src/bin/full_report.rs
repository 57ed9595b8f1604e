//! A Pantheon-style report card: every CCA × every scenario family, one
//! grand table (utilization | mean delay). Not a paper figure — the
//! summary view a Pantheon run would give you.
//!
//! The full `cca × family × repeat` grid (hundreds of independent runs)
//! fans out over the sweep workers; per-cell Welford accumulators are
//! folded in job (seed) order, so the table is byte-identical to the
//! sequential path for any `LIBRA_JOBS`.

use libra_bench::{parallel_map, run_spec, BenchArgs, Cca, ModelStore, RunSpec, Table};
use libra_netsim::{
    fiveg_link, lte_link, satellite_link, step_link, wan_link, wired_link, LinkConfig, LteScenario,
    WanScenario,
};
use libra_types::{DetRng, Duration, Preference, Welford};

fn main() {
    let args = BenchArgs::parse();
    let secs = args.scaled(30, 8);
    let repeats = args.scaled(3, 1);
    let store = ModelStore::new(args.seed);
    type LinkFactory = Box<dyn Fn(u64) -> LinkConfig>;
    let families: Vec<(&str, LinkFactory)> = vec![
        ("wired-24", Box::new(|_| wired_link(24.0))),
        ("wired-96", Box::new(|_| wired_link(96.0))),
        (
            "lte-walk",
            Box::new(move |seed| {
                let mut rng = DetRng::new(seed ^ 0xF00);
                lte_link(LteScenario::Walking, Duration::from_secs(secs), &mut rng)
            }),
        ),
        (
            "lte-drive",
            Box::new(move |seed| {
                let mut rng = DetRng::new(seed ^ 0xF01);
                lte_link(LteScenario::Driving, Duration::from_secs(secs), &mut rng)
            }),
        ),
        (
            "step",
            Box::new(move |_| step_link(Duration::from_secs(secs))),
        ),
        (
            "wan-inter",
            Box::new(move |seed| {
                let mut rng = DetRng::new(seed ^ 0xF02);
                wan_link(
                    WanScenario::InterContinental,
                    Duration::from_secs(secs),
                    &mut rng,
                )
            }),
        ),
        (
            "satellite",
            Box::new(move |seed| {
                let mut rng = DetRng::new(seed ^ 0xF03);
                satellite_link(Duration::from_secs(secs), &mut rng)
            }),
        ),
        (
            "5G",
            Box::new(move |seed| {
                let mut rng = DetRng::new(seed ^ 0xF04);
                fiveg_link(Duration::from_secs(secs), &mut rng)
            }),
        ),
    ];
    let ccas = [
        Cca::NewReno,
        Cca::Cubic,
        Cca::Bbr,
        Cca::Vegas,
        Cca::Westwood,
        Cca::Illinois,
        Cca::Copa,
        Cca::Sprout,
        Cca::Remy,
        Cca::Indigo,
        Cca::Vivace,
        Cca::Proteus,
        Cca::Aurora,
        Cca::Orca,
        Cca::ModRl,
        Cca::CleanSlateLibra,
        Cca::CLibra(Preference::Default),
        Cca::BLibra(Preference::Default),
    ];
    let mut header = vec!["cca".to_string()];
    header.extend(families.iter().map(|(n, _)| n.to_string()));
    let hdr: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(
        "Report card: utilization | mean delay (ms) per CCA × scenario",
        &hdr,
    );
    // Train/load every model once before fanning out.
    for cca in ccas {
        if cca.needs_model() {
            drop(cca.build(&store));
        }
    }
    // One job per (cca, family, repeat); links built eagerly on the
    // coordinator because scenario closures are not Sync.
    let mut jobs: Vec<(usize, usize, u64, LinkConfig)> = Vec::new();
    for (ci, _) in ccas.iter().enumerate() {
        for (fi, (_, link_of)) in families.iter().enumerate() {
            for k in 0..repeats {
                let seed = args.seed * 7 + k;
                jobs.push((ci, fi, seed, link_of(seed)));
            }
        }
    }
    let results = parallel_map(jobs, |(ci, fi, seed, link)| {
        let spec = RunSpec::single(ccas[ci], link, secs, seed);
        (ci, fi, run_spec(&store, &spec).headline())
    });
    // Fold per-cell accumulators in job order (= seed order per cell).
    let mut util = vec![vec![Welford::new(); families.len()]; ccas.len()];
    let mut rtt = vec![vec![Welford::new(); families.len()]; ccas.len()];
    for (ci, fi, m) in results {
        util[ci][fi].update(m.utilization);
        rtt[ci][fi].update(m.avg_rtt_ms);
    }
    for (ci, cca) in ccas.iter().enumerate() {
        let mut row = vec![cca.label()];
        for fi in 0..families.len() {
            row.push(format!(
                "{:.2}|{:.0}",
                util[ci][fi].mean(),
                rtt[ci][fi].mean()
            ));
        }
        table.row(row);
    }
    table.emit("full_report");

    // Decision-trace appendix: one traced C-Libra pair run, summarized
    // as cycle-stage occupancy (see the `trace_summary` binary for the
    // full timeline/JSONL view).
    let trace_secs = args.scaled(30, 5);
    let spec = RunSpec::pair(
        Cca::CLibra(Preference::Default),
        Cca::CLibra(Preference::Default),
        wired_link(24.0),
        trace_secs,
        args.seed,
    )
    .with_trace();
    let summary = run_spec(&store, &spec);
    if let Err(e) = libra_bench::validate_finite(&summary.trace) {
        eprintln!("full_report: non-finite value in trace: {e}");
        std::process::exit(1);
    }
    libra_bench::stage_occupancy_table(&summary.trace, &[0, 1], trace_secs * 1_000_000_000)
        .emit("full_report_trace_occupancy");

    // Policy-resilience appendix: a batched C-Libra fleet served through
    // the policy server with the standard fault mix armed at the
    // boundary, next to the identical faults-off fleet. The counters
    // show the ladder absorbing the faults: injections land, fallback
    // ticks bridge the gaps, and the run still serializes finite.
    let chaos_secs = args.scaled(20, 5);
    let fleet = |chaos: Option<libra_bench::PolicyChaosSpec>| {
        let mut spec = RunSpec::staggered(
            Cca::CLibra(Preference::Default),
            wired_link(48.0),
            8,
            Duration::from_millis(100),
            chaos_secs,
            args.seed,
        )
        .with_trace()
        .with_batched();
        if let Some(chaos) = chaos {
            spec = spec.with_policy_faults(chaos);
        }
        spec.label = if spec.policy_faults.is_some() {
            "C-Libra (standard fault mix)".into()
        } else {
            "C-Libra (faults off)".into()
        };
        run_spec(&store, &spec)
    };
    let healthy = fleet(None);
    let faulted = fleet(Some(libra_bench::PolicyChaosSpec::standard(
        args.seed, chaos_secs,
    )));
    if let Err(e) = libra_bench::validate_finite(&faulted.trace) {
        eprintln!("full_report: non-finite value in faulted trace: {e}");
        std::process::exit(1);
    }
    let mut resilience = Table::new(
        "Policy resilience (batched fleet, policy-boundary faults)",
        &[
            "run",
            "goodput Mbps",
            "jain",
            "faults",
            "quarantines",
            "fallback ticks",
            "reprobes",
            "trips",
        ],
    );
    for s in [&healthy, &faulted] {
        let goodput: f64 = s.flows.iter().map(|f| f.goodput_mbps).sum();
        resilience.row(vec![
            s.label.clone(),
            format!("{goodput:.2}"),
            format!("{:.3}", s.jain),
            s.policy_faults_injected.to_string(),
            s.quarantines.to_string(),
            s.fallback_ticks.to_string(),
            s.rl_reprobes.to_string(),
            s.guardrail_trips.to_string(),
        ]);
    }
    resilience.emit("full_report_policy_resilience");
}
