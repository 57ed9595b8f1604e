//! Fig. 9 — Buffer-size sweep (10 KB – 1 MB on 60 Mbps / 100 ms):
//! utilization vs. average delay. CUBIC's delay explodes with buffer
//! depth; Libra stays insensitive.

use libra_bench::{buffer_sweep_link, run_figure, BenchArgs, Cca, ModelStore, RunSpec, Table};
use libra_types::{Bytes, Preference};

fn main() {
    let args = BenchArgs::parse();
    let secs = args.scaled(30, 8);
    let store = ModelStore::new(args.seed);
    let ccas = [
        Cca::Proteus,
        Cca::Bbr,
        Cca::Copa,
        Cca::Cubic,
        Cca::Orca,
        Cca::CLibra(Preference::Default),
        Cca::BLibra(Preference::Default),
    ];
    let buffers_kb: &[u64] = if args.quick {
        &[30, 150, 1000]
    } else {
        &[10, 30, 75, 150, 300, 600, 1000]
    };
    let mut table = Table::new(
        "Fig. 9: buffer sweep (utilization | avg delay ms)",
        &[
            "buffer", "Proteus", "BBR", "Copa", "CUBIC", "Orca", "C-Libra", "B-Libra",
        ],
    );
    let specs: Vec<RunSpec> = buffers_kb
        .iter()
        .flat_map(|&kb| {
            ccas.iter().map(move |&cca| {
                RunSpec::single(
                    cca,
                    buffer_sweep_link(Bytes::from_kb(kb)),
                    secs,
                    args.seed + kb,
                )
            })
        })
        .collect();
    let slots = run_figure("fig09_buffer_sweep", &args, &store, specs);
    for (&kb, cells) in buffers_kb.iter().zip(slots.chunks(ccas.len())) {
        let mut row = vec![format!("{kb}KB")];
        row.extend(cells.iter().map(|cell| match cell {
            Ok(summary) => {
                let m = summary.headline();
                format!("{:.2}|{:.0}", m.utilization, m.avg_rtt_ms)
            }
            Err(_) => "—".into(),
        }));
        table.row(row);
    }
    table.emit("fig09_buffer_sweep");
}
