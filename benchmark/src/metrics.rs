//! The metric tables `BENCHMARK.json` mirrors, and the board a run fills.

use crate::estimate::Summary;
use std::fmt::Write as _;

/// A metric's name and unit, as `BENCHMARK.json` lists them.
pub type Def = (&'static str, &'static str);

/// What a user of the simulator sees; measured with tracing off.
pub const END_TO_END: &[Def] = &[
    ("sim_s_per_s", "sim_s/s"),
    ("ns_per_pkt", "ns"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// Single-layer numbers: the traced pass, then the layer drivers.
pub const PER_LAYER: &[Def] = &[
    // Traced pass: controller callbacks by owning crate.
    ("classic.ack_calls", "count"),
    ("classic.loss_calls", "count"),
    ("classic.mi_calls", "count"),
    ("classic.ack_ns", "ns"),
    ("classic.mi_ns", "ns"),
    ("classic.busy_share", "share"),
    ("learned.ack_calls", "count"),
    ("learned.loss_calls", "count"),
    ("learned.mi_calls", "count"),
    ("learned.ack_ns", "ns"),
    ("learned.mi_ns", "ns"),
    ("learned.busy_share", "share"),
    ("core.ack_calls", "count"),
    ("core.loss_calls", "count"),
    ("core.mi_calls", "count"),
    ("core.ack_ns", "ns"),
    ("core.mi_ns", "ns"),
    ("core.busy_share", "share"),
    // Traced pass: Libra's own cycle accounting.
    ("core.cycles", "count"),
    ("core.rl_decisions", "count"),
    ("core.frac_prev", "share"),
    ("core.frac_classic", "share"),
    ("core.frac_rl", "share"),
    ("core.guardrail_trips", "count"),
    // Traced pass: the shared policy server.
    ("rl.policy.batches", "count"),
    ("rl.policy.rows", "count"),
    ("rl.policy.mean_batch", "rows"),
    ("rl.policy.max_batch", "rows"),
    ("rl.policy.quarantines", "count"),
    ("rl.policy.us_per_row", "us"),
    ("rl.policy.tick_us_p50", "us"),
    ("rl.policy.tick_us_p99", "us"),
    ("rl.policy.busy_share", "share"),
    // Traced pass: the event core, by subtraction.
    ("netsim.pkts_acked", "count"),
    ("netsim.pkts_lost", "count"),
    ("netsim.tail_drops", "count"),
    ("netsim.mi_per_pkt", "ratio"),
    ("netsim.self_share", "share"),
    ("netsim.self_ns_per_pkt", "ns"),
    ("netsim.run.allocs_per_kpkt", "1/kpkt"),
    ("netsim.run.alloc_bytes_per_pkt", "B/pkt"),
    // Traced pass: the sweep engine.
    ("bench.sweep.jobs", "count"),
    ("bench.sweep.failed", "count"),
    ("bench.sweep.attempts", "count"),
    ("bench.sweep.job_ms_p50", "ms"),
    ("bench.sweep.job_ms_max", "ms"),
    ("bench.sweep.speedup_2w", "ratio"),
    ("bench.sweep.worker_util", "share"),
    ("bench.sweep.overhead_us_per_job", "us"),
    // Validity of the rows above.
    ("trace.overhead_ratio", "ratio"),
    ("recon.classic", "ratio"),
    ("recon.policy", "ratio"),
    ("recon.compute", "ratio"),
    // Layer drivers.
    ("netsim.wheel.sparse.ns_per_op", "ns"),
    ("netsim.wheel.burst.ns_per_op", "ns"),
    ("netsim.queue.droptail.ns_per_pkt", "ns"),
    ("netsim.queue.codel.ns_per_pkt", "ns"),
    ("netsim.queue.pie.ns_per_pkt", "ns"),
    ("netsim.pool.ns_per_cycle", "ns"),
    ("netsim.sender.ns_per_ack", "ns"),
    ("netsim.sender.lossy.ns_per_ack", "ns"),
    ("netsim.capacity.ns_per_service", "ns"),
    ("netsim.sim.fixed_us", "us"),
    ("netsim.sim.add_flow_us", "us"),
    ("classic.cubic.ack_ns", "ns"),
    ("classic.cubic.loss_ns", "ns"),
    ("classic.bbr.ack_ns", "ns"),
    ("types.utility.eval_ns", "ns"),
    ("types.mitracker.ack_ns", "ns"),
    ("nn.roof.gflops", "GFLOP/s"),
    ("nn.matvec.512.gflops", "GFLOP/s"),
    ("nn.matmat.512x32.gflops", "GFLOP/s"),
    ("nn.matmat.512x256.gflops", "GFLOP/s"),
    ("nn.mlp.2x64.b1.us", "us"),
    ("nn.mlp.2x512.b1.us", "us"),
    ("nn.mlp.2x512.b32.us_per_row", "us"),
    ("nn.mlp.2x512.b256.us_per_row", "us"),
    ("nn.mlp.2x512.flop_per_row", "flop"),
    ("nn.mlp.2x512.weight_bytes", "B"),
    ("rl.agent.act_eval.2x64.us", "us"),
    ("rl.agent.act_eval_batch.2x512.b32.us_per_row", "us"),
    ("rl.policy.evaluate.b1.us", "us"),
    ("rl.policy.evaluate.b32.us_per_row", "us"),
    ("rl.policy.gather_scatter_ns_per_row", "ns"),
    ("learned.rlcca.submit_ns", "ns"),
    ("learned.rlcca.resolve_ns", "ns"),
    ("core.libra.mi_ns", "ns"),
    ("core.libra.ack_ns", "ns"),
    ("bench.journal.us_per_record", "us"),
    ("bench.summary.us_per_report", "us"),
    ("bench.spec.digest_us", "us"),
];

/// The values of one run, one slot per entry of a metric table. Slots
/// start at zero: a layer a workload never enters reports zero work.
pub struct Board {
    defs: &'static [Def],
    values: Vec<f64>,
    notes: Vec<Option<Summary>>,
}

impl Board {
    /// An all-zero board over `defs`.
    pub fn new(defs: &'static [Def]) -> Self {
        Board {
            defs,
            values: vec![0.0; defs.len()],
            notes: vec![None; defs.len()],
        }
    }

    fn slot(&self, name: &str) -> usize {
        self.defs
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the table"))
    }

    /// Record `value` under `name`. Non-finite values record as zero so
    /// the output stays valid JSON (and `-0`, the sum of no samples, as
    /// plain zero).
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self.slot(name);
        self.values[i] = if value.is_finite() && value != 0.0 {
            value
        } else {
            0.0
        };
    }

    /// Record a best-of-N metric with the sample summary printed beside
    /// it. `of` maps an iteration's wall seconds to the metric's unit.
    pub fn set_timed(&mut self, name: &str, wall: &Summary, of: impl Fn(f64) -> f64) {
        let i = self.slot(name);
        self.set(name, of(wall.fastest));
        self.notes[i] = Some(Summary {
            fastest: of(wall.fastest),
            median: of(wall.median),
            p66: of(wall.p66),
            ..*wall
        });
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> f64 {
        self.values[self.slot(name)]
    }

    /// One line per metric: `name unit value [median p66 n]`.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (i, (name, unit)) in self.defs.iter().enumerate() {
            let _ = write!(out, "{name} {unit} {}", self.values[i]);
            if let Some(s) = &self.notes[i] {
                let _ = write!(out, " [median {} p66 {} n {}]", s.median, s.p66, s.n);
            }
            out.push('\n');
        }
        out
    }

    /// The `metrics` object of the result line.
    pub fn json(&self) -> String {
        let fields: Vec<String> = self
            .defs
            .iter()
            .zip(&self.values)
            .map(|((name, unit), v)| {
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// The result line the driver reads: the last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, board: &Board) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        board.json()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn manifest() -> Value {
        serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    fn listed(manifest: &Value, key: &str) -> Vec<(String, String)> {
        let Some(Value::Array(items)) = manifest.get(key) else {
            panic!("BENCHMARK.json has no {key} list");
        };
        items
            .iter()
            .map(|m| match (m.get("name"), m.get("unit")) {
                (Some(Value::Str(n)), Some(Value::Str(u))) => (n.clone(), u.clone()),
                _ => panic!("{key} entry without name/unit"),
            })
            .collect()
    }

    fn owned(defs: &[Def]) -> Vec<(String, String)> {
        defs.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json_exactly() {
        let m = manifest();
        assert_eq!(listed(&m, "end_to_end"), owned(END_TO_END));
        assert_eq!(listed(&m, "per_layer"), owned(PER_LAYER));
        assert!(PER_LAYER.len() < 128);
    }

    #[test]
    fn result_line_parses_and_carries_every_name() {
        for defs in [END_TO_END, PER_LAYER] {
            let mut board = Board::new(defs);
            board.set(defs[0].0, 1.5);
            board.set(defs[1].0, f64::NAN);
            let line = result_line(true, 7, 0, &board);
            assert!(!line.contains('\n'));
            let v: Value = serde_json::from_str(&line).expect("result line parses");
            assert!(matches!(v.get("correct"), Some(Value::Bool(true))));
            let Some(Value::Object(metrics)) = v.get("metrics") else {
                panic!("no metrics object");
            };
            let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let want: Vec<&str> = defs.iter().map(|(n, _)| *n).collect();
            assert_eq!(names, want);
            assert_eq!(board.get(defs[1].0), 0.0, "NaN records as zero");
        }
    }

    #[test]
    #[should_panic(expected = "not in the table")]
    fn unknown_metric_names_are_rejected() {
        Board::new(END_TO_END).set("latency_ms", 1.0);
    }
}
