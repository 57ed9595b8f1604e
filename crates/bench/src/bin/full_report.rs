//! A Pantheon-style report card: every CCA × every scenario family, one
//! grand table (utilization | mean delay). Not a paper figure — the
//! summary view a Pantheon run would give you.
//!
//! The full `cca × family × repeat` grid (hundreds of independent runs)
//! is one supervised sweep; per-cell Welford means are folded in seed
//! order. The two appendices are traced runs, which a journal cannot
//! restore, so they run directly.

use libra_bench::{run_figure, run_spec, BenchArgs, Cca, ModelStore, RunMetrics, RunSpec, Table};
use libra_netsim::{
    fiveg_link, lte_link, satellite_link, step_link, wan_link, wired_link, LinkConfig, LteScenario,
    WanScenario,
};
use libra_types::{DetRng, Duration, Preference};

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
    let mut header = vec!["cca".to_string()];
    header.extend(families.iter().map(|(n, _)| n.to_string()));
    let hdr: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(
        "Report card: utilization | mean delay (ms) per CCA × scenario",
        &hdr,
    );
    let specs = Cca::ALL
        .iter()
        .flat_map(|&cca| {
            families.iter().flat_map(move |(_, link_of)| {
                (0..repeats).map(move |k| {
                    let seed = args.seed * 7 + k;
                    RunSpec::single(cca, link_of(seed), secs, seed)
                })
            })
        })
        .collect();
    let slots = run_figure("full_report", &args, &store, specs);
    let mut cells = slots.chunks(repeats as usize).map(RunMetrics::mean_of);
    for cca in Cca::ALL {
        let mut row = vec![cca.label()];
        for _ in &families {
            let cell = cells.next().expect("one cell per cca × family");
            row.push(cell.map_or("—".into(), |m| {
                format!("{:.2}|{:.0}", m.utilization, m.avg_rtt_ms)
            }));
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
