//! Fig. 18 — Libra vs. the *ideal offline combination* (C-Ideal /
//! B-Ideal): run the classic CCA and Clean-Slate Libra individually on
//! the same cellular network, and for each time step take the behaviour
//! with the higher utility. Libra's online combination should approach
//! (and occasionally beat, thanks to the interaction between the two
//! inner CCAs) this offline oracle.

use libra_bench::{
    lte_tmobile_spec, run_figure, series_csv, BenchArgs, Cca, FlowSummary, ModelStore, RunSpec,
    Table,
};
use libra_types::{Preference, UtilityParams};

/// Per-second utility series estimated from a flow's binned goodput and
/// RTT samples (loss applied as the flow's average rate — the report
/// does not carry per-bin loss).
fn utility_series(flow: &FlowSummary, params: &UtilityParams) -> Vec<(f64, f64)> {
    // Bin RTT samples to 1 s.
    let mut rtt_bins: Vec<(f64, u32)> = Vec::new();
    for &(t, ms) in &flow.rtt_series {
        let idx = t as usize;
        if idx >= rtt_bins.len() {
            rtt_bins.resize(idx + 1, (0.0, 0));
        }
        rtt_bins[idx].0 += ms;
        rtt_bins[idx].1 += 1;
    }
    let rtt_at = |i: usize| -> Option<f64> {
        rtt_bins
            .get(i)
            .and_then(|&(s, n)| if n > 0 { Some(s / n as f64) } else { None })
    };
    // Aggregate goodput to 1 s bins.
    let mut tput: Vec<(f64, f64, u32)> = Vec::new();
    for &(t, mbps) in &flow.goodput_series {
        let idx = t as usize;
        if idx >= tput.len() {
            tput.resize(idx + 1, (0.0, 0.0, 0));
        }
        tput[idx].1 += mbps;
        tput[idx].2 += 1;
    }
    let mut out = Vec::new();
    let mut prev_rtt: Option<f64> = None;
    for (i, &(_, sum, n)) in tput.iter().enumerate() {
        if n == 0 {
            continue;
        }
        let x = sum / n as f64;
        let rtt = rtt_at(i).or(prev_rtt);
        let grad = match (prev_rtt, rtt) {
            (Some(p), Some(c)) => ((c - p) / 1e3).max(0.0), // s of RTT per s
            _ => 0.0,
        };
        prev_rtt = rtt.or(prev_rtt);
        out.push((i as f64, params.evaluate(x, grad, flow.loss_fraction)));
    }
    out
}

fn main() {
    let args = BenchArgs::parse();
    let secs = args.scaled(50, 15);
    let store = ModelStore::new(args.seed);
    let params = UtilityParams::default();
    let scenario = lte_tmobile_spec(secs);
    // The one Clean-Slate run both ideals share, then each pair's Libra
    // and classic run.
    let specs = [
        Cca::CleanSlateLibra,
        Cca::CLibra(Preference::Default),
        Cca::Cubic,
        Cca::BLibra(Preference::Default),
        Cca::Bbr,
    ]
    .map(|cca| RunSpec::single(cca, scenario.link(args.seed), secs, args.seed))
    .into();
    let slots = run_figure("fig18_ideal_comparison", &args, &store, specs);
    let mut table = Table::new(
        "Fig. 18: mean normalized utility, Libra vs ideal offline combination",
        &["pair", "libra", "ideal", "libra/ideal"],
    );
    let mut all_series = Vec::new();
    let (cl_slot, pair_slots) = slots.split_first().expect("the Clean-Slate run");
    for (tag, runs) in ["C", "B"].into_iter().zip(pair_slots.chunks(2)) {
        let (Ok(libra_rep), Ok(classic_rep), Ok(cl_rep)) = (&runs[0], &runs[1], cl_slot) else {
            table.failed_row(format!("{tag}-Libra vs {tag}-Ideal"));
            continue;
        };
        let u_libra = utility_series(&libra_rep.flows[0], &params);
        let u_classic = utility_series(&classic_rep.flows[0], &params);
        let u_cl = utility_series(&cl_rep.flows[0], &params);
        // Ideal: pointwise max of the two individual runs.
        let n = u_classic.len().min(u_cl.len());
        let u_ideal: Vec<(f64, f64)> = (0..n)
            .map(|i| (u_classic[i].0, u_classic[i].1.max(u_cl[i].1)))
            .collect();
        // Normalize both over their union range.
        let lo = u_libra
            .iter()
            .chain(&u_ideal)
            .map(|p| p.1)
            .fold(f64::INFINITY, f64::min);
        let hi = u_libra
            .iter()
            .chain(&u_ideal)
            .map(|p| p.1)
            .fold(f64::NEG_INFINITY, f64::max);
        let span = (hi - lo).max(1e-9);
        let norm = |s: &[(f64, f64)]| -> Vec<(f64, f64)> {
            s.iter().map(|&(t, u)| (t, (u - lo) / span)).collect()
        };
        let nl = norm(&u_libra);
        let ni = norm(&u_ideal);
        let mean = |s: &[(f64, f64)]| s.iter().map(|p| p.1).sum::<f64>() / s.len().max(1) as f64;
        let (ml, mi) = (mean(&nl), mean(&ni));
        table.row(vec![
            format!("{tag}-Libra vs {tag}-Ideal"),
            format!("{ml:.3}"),
            format!("{mi:.3}"),
            format!("{:.3}", ml / mi.max(1e-9)),
        ]);
        all_series.push((format!("{tag}-Libra"), nl));
        all_series.push((format!("{tag}-Ideal"), ni));
    }
    table.emit("fig18_ideal");
    libra_bench::write_artifact("fig18_series.csv", &series_csv(&all_series));
}
