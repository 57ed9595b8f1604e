//! Sec. 7 extension — "What if we apply Libra to other networks?"
//!
//! The paper argues Libra's adaptability should carry over to satellite
//! (long RTT, bursty loss), 5G (abrupt capacity swings) and datacenter
//! (ECN, microsecond RTTs) networks, the latter by swapping in a
//! network-specific classic CCA (here DCTCP). This binary runs those
//! three scenarios.

use libra_bench::{
    datacenter_spec, fiveg_spec, run_figure, satellite_spec, BenchArgs, Cca, ModelStore, Table,
};
use libra_core::{LibraParams, LibraVariant};
use libra_types::Preference;

fn main() {
    let args = BenchArgs::parse();
    let secs = args.scaled(30, 8);
    let store = ModelStore::new(args.seed);

    // Satellite & 5G: the standard comparison set.
    let networks = [satellite_spec(secs), fiveg_spec(secs)];
    let ccas = [
        Cca::Cubic,
        Cca::Bbr,
        Cca::Westwood,
        Cca::CLibra(Preference::Default),
        Cca::BLibra(Preference::Default),
    ];
    // Datacenter: DCTCP standalone vs DCTCP inside Libra.
    let dc = datacenter_spec(args.scaled(10, 3));
    let d_libra = Cca::Libra {
        variant: LibraVariant::Cubic,
        classic: Some(&Cca::Dctcp),
        params: LibraParams::for_cubic(),
    };
    let dc_ccas = [
        ("CUBIC", Cca::Cubic),
        ("DCTCP", Cca::Dctcp),
        ("D-Libra (DCTCP inside)", d_libra),
    ];
    let specs = networks
        .iter()
        .flat_map(|spec| ccas.map(|cca| spec.to_run_spec(cca, args.seed)))
        .chain(dc_ccas.map(|(_, cca)| dc.to_run_spec(cca, args.seed)))
        .collect();
    let slots = run_figure("extension_other_networks", &args, &store, specs);
    let (network_slots, dc_slots) = slots.split_at(networks.len() * ccas.len());

    for (spec, runs) in networks.iter().zip(network_slots.chunks(ccas.len())) {
        let name = &spec.name;
        let mut table = Table::new(
            &format!("Sec. 7 extension ({name})"),
            &["cca", "utilization", "avg delay (ms)", "loss"],
        );
        for (cca, run) in ccas.iter().zip(runs) {
            let mut row = vec![cca.label()];
            row.extend(match run {
                Ok(summary) => {
                    let m = summary.headline();
                    [
                        format!("{:.3}", m.utilization),
                        format!("{:.1}", m.avg_rtt_ms),
                        format!("{:.3}", m.loss),
                    ]
                }
                Err(_) => ["—".into(), "—".into(), "—".into()],
            });
            table.row(row);
        }
        table.emit(&format!("extension_{name}"));
    }

    let mut table = Table::new(
        "Sec. 7 extension (datacenter, ECN step marking)",
        &["cca", "utilization", "avg delay (µs)", "ecn echoes", "loss"],
    );
    for ((label, _), run) in dc_ccas.iter().zip(dc_slots) {
        let mut row = vec![label.to_string()];
        row.extend(match run {
            Ok(summary) => {
                let m = summary.headline();
                [
                    format!("{:.3}", m.utilization),
                    format!("{:.0}", m.avg_rtt_ms * 1000.0),
                    format!("{}", summary.flows[0].ecn_echoes),
                    format!("{:.4}", m.loss),
                ]
            }
            Err(_) => ["—".into(), "—".into(), "—".into(), "—".into()],
        });
        table.row(row);
    }
    table.emit("extension_datacenter");
}
