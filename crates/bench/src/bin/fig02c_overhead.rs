//! Fig. 2c — Normalized CPU and memory overhead per CCA on an LTE link.
//!
//! CPU proxy: wall-clock time spent inside controller callbacks per
//! simulated second. Memory proxy: learnable-parameter count plus fixed
//! per-controller state (see DESIGN.md "Substitutions").

use libra_bench::{lte_tmobile_spec, run_spec, BenchArgs, Cca, ModelStore, RunSpec, Table};
use libra_core::{Libra, LibraVariant};
use libra_learned::{Orca, RlCcaConfig};
use libra_types::Preference;

/// Rough resident-memory proxy per controller in "units" (PPO parameters
/// for learned schemes, small constants for classic state machines).
fn memory_units(cca: Cca) -> f64 {
    let ppo = |cfg: libra_rl::PpoConfig| {
        // actor + critic parameter counts from the layer sizes.
        let count =
            |sizes: &[usize]| -> usize { sizes.windows(2).map(|w| w[0] * w[1] + w[1]).sum() };
        (count(&cfg.actor_sizes()) + count(&cfg.critic_sizes())) as f64
    };
    match cca {
        Cca::Cubic
        | Cca::Bbr
        | Cca::NewReno
        | Cca::Vegas
        | Cca::Westwood
        | Cca::Illinois
        | Cca::Dctcp => 64.0,
        Cca::Copa | Cca::Sprout | Cca::Remy | Cca::Indigo => 256.0,
        Cca::Vivace | Cca::Proteus => 128.0,
        Cca::Aurora => ppo(RlCcaConfig::aurora().ppo_config()),
        Cca::ModRl => ppo(RlCcaConfig::mod_rl().ppo_config()),
        Cca::Orca => ppo(Orca::ppo_config()) + 64.0,
        Cca::CleanSlateLibra
        | Cca::Libra {
            variant: LibraVariant::CleanSlate,
            classic: None,
            ..
        } => ppo(Libra::ppo_config()),
        Cca::CLibra(_) | Cca::BLibra(_) | Cca::Libra { .. } => ppo(Libra::ppo_config()) + 64.0,
    }
}

fn main() {
    let args = BenchArgs::parse();
    let secs = args.scaled(60, 10);
    let store = ModelStore::new(args.seed);
    let scenario = lte_tmobile_spec(secs);
    let ccas = [
        Cca::Cubic,
        Cca::Bbr,
        Cca::CLibra(Preference::Default),
        Cca::BLibra(Preference::Default),
        Cca::Orca,
        Cca::CleanSlateLibra,
        Cca::ModRl,
        Cca::Indigo,
        Cca::Copa,
        Cca::Proteus,
        Cca::Aurora,
    ];
    let mut rows = Vec::new();
    let mut max_cpu = 0.0f64;
    let mut max_mem = 0.0f64;
    for cca in ccas {
        let spec = RunSpec::single(cca, scenario.link(args.seed), secs, args.seed);
        let cpu = run_spec(&store, &spec).headline().compute_us_per_s;
        let mem = memory_units(cca);
        max_cpu = max_cpu.max(cpu);
        max_mem = max_mem.max(mem);
        rows.push((cca.label(), cpu, mem));
    }
    let mut table = Table::new(
        "Fig. 2c: normalized overheads (CPU = controller µs per simulated second)",
        &["cca", "cpu (µs/s)", "norm. cpu", "norm. memory"],
    );
    for (label, cpu, mem) in &rows {
        table.row(vec![
            label.clone(),
            format!("{cpu:.1}"),
            format!("{:.3}", cpu / max_cpu),
            format!("{:.3}", mem / max_mem),
        ]);
    }
    table.emit("fig02c_overhead");
    // Headline claim check: Libra vs the most expensive pure-RL scheme.
    let libra_cpu = rows
        .iter()
        .find(|(l, _, _)| l == "C-Libra")
        .map(|(_, c, _)| *c)
        .unwrap_or(0.0);
    println!(
        "C-Libra CPU reduction vs max pure-learned: {:.1}%",
        100.0 * (1.0 - libra_cpu / max_cpu)
    );
}
