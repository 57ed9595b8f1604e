//! Tab. 6 — Safety assurance: mean / range / standard deviation of link
//! utilization over 20 trials for Orca, C-Libra and B-Libra across four
//! networks (two wired, two LTE). Libra's spread should be a fraction
//! of Orca's.

use libra_bench::{run_figure, BenchArgs, Cca, ModelStore, RunSpec, Table};
use libra_netsim::{lte_link, wired_link, LteScenario};
use libra_types::{DetRng, Duration, Preference, Welford};

fn main() {
    let args = BenchArgs::parse();
    let secs = args.scaled(30, 8);
    let trials = args.scaled(20, 4);
    let store = ModelStore::new(args.seed);
    let ccas = [
        ("#O", Cca::Orca),
        ("#C", Cca::CLibra(Preference::Default)),
        ("#B", Cca::BLibra(Preference::Default)),
    ];
    type LinkFactory = Box<dyn Fn(u64) -> libra_netsim::LinkConfig>;
    let networks: Vec<(&str, LinkFactory)> = vec![
        ("Wired#1 (24Mbps)", Box::new(|_| wired_link(24.0))),
        ("Wired#2 (48Mbps)", Box::new(|_| wired_link(48.0))),
        (
            "LTE#1 (stationary)",
            Box::new(move |seed| {
                let mut rng = DetRng::new(seed ^ 0x5AFE1);
                lte_link(LteScenario::Stationary, Duration::from_secs(secs), &mut rng)
            }),
        ),
        (
            "LTE#2 (moving)",
            Box::new(move |seed| {
                let mut rng = DetRng::new(seed ^ 0x5AFE2);
                lte_link(LteScenario::Walking, Duration::from_secs(secs), &mut rng)
            }),
        ),
    ];
    let mut table = Table::new(
        "Tab. 6: utilization statistics over repeated trials",
        &["stat", "Wired#1", "Wired#2", "LTE#1", "LTE#2"],
    );
    let specs = ccas
        .iter()
        .flat_map(|&(_, cca)| {
            networks.iter().flat_map(move |(_, link_of)| {
                (args.seed..args.seed + trials)
                    .map(move |seed| RunSpec::single(cca, link_of(seed), secs, seed))
            })
        })
        .collect();
    let slots = run_figure("tab06_safety", &args, &store, specs);
    // Per (cca, network): the trials' utilization, folded in seed order;
    // `None` when any trial failed.
    let mut cells = slots.chunks(trials as usize).map(|runs| {
        let mut w = Welford::new();
        for run in runs {
            w.update(run.as_ref().ok()?.utilization);
        }
        Some(w)
    });
    let all: Vec<(&str, Vec<Option<Welford>>)> = ccas
        .iter()
        .map(|&(tag, _)| (tag, cells.by_ref().take(networks.len()).collect()))
        .collect();
    for (stat, f) in [
        ("Mean", (|w: &Welford| w.mean()) as fn(&Welford) -> f64),
        ("Range", |w| w.range()),
        ("Std dev.", |w| w.std_dev()),
    ] {
        for (tag, per_net) in &all {
            let mut row = vec![format!("{stat}{tag}")];
            for w in per_net {
                row.push(w.as_ref().map_or("—".into(), |w| format!("{:.3}", f(w))));
            }
            table.row(row);
        }
    }
    table.emit("tab06_safety");
}
