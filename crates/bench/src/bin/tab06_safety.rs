//! Tab. 6 — Safety assurance: mean / range / standard deviation of link
//! utilization over 20 trials for Orca, C-Libra and B-Libra across four
//! networks (two wired, two LTE). Libra's spread should be a fraction
//! of Orca's.

use libra_bench::{run_spec, BenchArgs, Cca, ModelStore, RunSpec, Table};
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
    let mut all: Vec<(&str, Vec<Welford>)> = Vec::new();
    for (tag, cca) in ccas {
        let mut per_net = Vec::new();
        for (_, link_of) in &networks {
            let mut w = Welford::new();
            for k in 0..trials {
                let spec = RunSpec::single(cca, link_of(args.seed + k), secs, args.seed + k);
                w.update(run_spec(&store, &spec).utilization);
            }
            per_net.push(w);
        }
        all.push((tag, per_net));
    }
    for (stat, f) in [
        ("Mean", (|w: &Welford| w.mean()) as fn(&Welford) -> f64),
        ("Range", |w| w.range()),
        ("Std dev.", |w| w.std_dev()),
    ] {
        for (tag, per_net) in &all {
            let mut row = vec![format!("{stat}{tag}")];
            for w in per_net {
                row.push(format!("{:.3}", f(w)));
            }
            table.row(row);
        }
    }
    table.emit("tab06_safety");
}
