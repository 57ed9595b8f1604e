//! Sharded many-bottleneck topologies: one logical scenario split
//! across `K` *independent* bottleneck links, farmed out over the
//! supervised worker pool.
//!
//! The simulator's topology is a dumbbell — every flow in one
//! [`libra_netsim::Simulation`] shares a single bottleneck queue. Large
//! fan-in shapes (incast into a storage rack, many-to-one reduce
//! traffic, fairness-at-scale studies) are better modeled as a *bank*
//! of such dumbbells: each top-of-rack uplink is its own bottleneck
//! with its own flow population, and the experiment's verdict
//! aggregates across the bank. Because shards share no state, they are
//! embarrassingly parallel — exactly the job shape the supervised claim
//! engine in [`crate::sweep`] was built for.
//!
//! Determinism contract (the same one the flat sweep keeps):
//!
//! * **Seed-stable shards.** Shard `i`'s run seed derives from the plan
//!   seed through the same labeled-fork scheme the simulator uses
//!   internally (`DetRng::fork("shard-{i}")`), so inserting or removing
//!   a shard never perturbs its neighbours' streams.
//! * **Index-ordered merge.** Shards are evaluated through the
//!   supervised pool and re-assembled by shard index; the aggregate and
//!   its serialized form are byte-identical for any worker count.
//!
//! `tests/shard_determinism.rs` pins the 1-vs-N-worker byte identity.

use crate::models::ModelStore;
use crate::registry::Cca;
use crate::run::RunSpec;
use crate::spec::ScenarioSpec;
use crate::summary::RunSummary;
use crate::supervisor::{run_sweep_supervised_with, SweepPolicy};
use libra_types::DetRng;
use serde::{Serialize, Value};

/// A bank of independent bottleneck shards making up one logical
/// experiment.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// Display label for the merged result.
    pub label: String,
    /// One spec per shard, in shard-index order.
    pub shards: Vec<RunSpec>,
}

/// Derive shard `i`'s run seed from the plan seed. Labeled forks keep
/// shard streams independent: no shard's seed is an arithmetic
/// neighbour of another's.
pub fn shard_seed(plan_seed: u64, shard: usize) -> u64 {
    DetRng::new(plan_seed)
        .fork(&format!("shard-{shard}"))
        .next_u64()
}

impl ShardPlan {
    /// Shard one declarative scenario `shards` ways: every shard runs
    /// the same link recipe and workload with its own derived seed —
    /// the "bank of identical racks" shape. The scenario's own
    /// per-shard trial seed also feeds its link builder, so trace-drawn
    /// links (LTE, LEO) differ per shard exactly as independent racks
    /// would.
    pub fn replicate(spec: &ScenarioSpec, cca: Cca, shards: usize, plan_seed: u64) -> ShardPlan {
        let shards = shards.max(1);
        let specs = (0..shards)
            .map(|i| {
                let seed = shard_seed(plan_seed, i);
                spec.to_run_spec(cca, seed)
                    .with_label(format!("{}/shard-{i}", spec.name))
            })
            .collect();
        ShardPlan {
            label: format!("{}×{shards}", spec.name),
            shards: specs,
        }
    }

    /// Split a `senders`-wide fan-in across `shards` bottlenecks as
    /// evenly as possible (the first `senders % shards` shards take one
    /// extra flow). All flows on a shard start together — the incast
    /// shape — and each shard gets its own derived seed.
    pub fn fan_in(
        name: &str,
        cca: Cca,
        spec: &ScenarioSpec,
        senders: usize,
        shards: usize,
        plan_seed: u64,
    ) -> ShardPlan {
        let shards = shards.max(1).min(senders.max(1));
        let base = senders / shards;
        let extra = senders % shards;
        let specs = (0..shards)
            .map(|i| {
                let flows = base + usize::from(i < extra);
                let seed = shard_seed(plan_seed, i);
                RunSpec::staggered(
                    cca,
                    spec.link(seed),
                    flows.max(1),
                    libra_types::Duration::ZERO,
                    spec.secs,
                    seed,
                )
                .with_label(format!("{name}/shard-{i}"))
            })
            .collect();
        ShardPlan {
            label: name.to_string(),
            shards: specs,
        }
    }
}

/// The merged verdict of one sharded experiment.
#[derive(Debug, Clone)]
pub struct ShardedReport {
    /// The plan's label.
    pub label: String,
    /// Per-shard summaries in shard-index order.
    pub shards: Vec<RunSummary>,
    /// Jain's fairness index over *every* flow across every shard (the
    /// fairness-at-scale headline: per-shard fairness can be perfect
    /// while the bank is skewed).
    pub jain_all_flows: f64,
    /// Sum of flow goodputs across the bank (Mbps).
    pub total_goodput_mbps: f64,
    /// Unweighted mean of shard link utilizations.
    pub mean_utilization: f64,
    /// Worst per-flow p95 RTT across the bank (ms).
    pub worst_p95_rtt_ms: f64,
    /// Total tail drops across shards.
    pub tail_drops: u64,
}

impl ShardedReport {
    fn merge(label: String, shards: Vec<RunSummary>) -> ShardedReport {
        let (mut sum, mut sumsq, mut n) = (0.0_f64, 0.0_f64, 0usize);
        let mut worst_p95 = 0.0_f64;
        let mut total = 0.0_f64;
        for s in &shards {
            for f in &s.flows {
                sum += f.goodput_mbps;
                sumsq += f.goodput_mbps * f.goodput_mbps;
                n += 1;
                total += f.goodput_mbps;
                worst_p95 = worst_p95.max(f.p95_rtt_ms);
            }
        }
        let jain = if n == 0 || sumsq <= 0.0 {
            1.0
        } else {
            sum * sum / (n as f64 * sumsq)
        };
        let util = if shards.is_empty() {
            0.0
        } else {
            shards.iter().map(|s| s.utilization).sum::<f64>() / shards.len() as f64
        };
        ShardedReport {
            label,
            jain_all_flows: jain,
            total_goodput_mbps: total,
            mean_utilization: util,
            worst_p95_rtt_ms: worst_p95,
            tail_drops: shards.iter().map(|s| s.tail_drops).sum(),
            shards,
        }
    }
}

impl Serialize for ShardedReport {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("label".into(), self.label.to_value()),
            ("jain_all_flows".into(), self.jain_all_flows.to_value()),
            (
                "total_goodput_mbps".into(),
                self.total_goodput_mbps.to_value(),
            ),
            ("mean_utilization".into(), self.mean_utilization.to_value()),
            ("worst_p95_rtt_ms".into(), self.worst_p95_rtt_ms.to_value()),
            ("tail_drops".into(), self.tail_drops.to_value()),
            ("shards".into(), self.shards.to_value()),
        ])
    }
}

/// Run every shard of `plan` over the supervised pool and merge in
/// shard-index order. A shard that exhausts its retry budget panics the
/// experiment — sharded topologies are all-or-nothing (a missing rack
/// would silently skew every aggregate).
pub fn run_sharded_with(
    store: &ModelStore,
    plan: &ShardPlan,
    workers: usize,
    policy: &SweepPolicy,
) -> ShardedReport {
    let report = run_sweep_supervised_with(store, plan.shards.clone(), workers, policy, None, None);
    let shards: Vec<RunSummary> = report
        .slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| match slot {
            Ok(summary) => summary,
            // Audited: a lost shard invalidates the whole experiment.
            // lint: allow(panic)
            Err(fail) => panic!("{}: shard {i} failed: {fail}", plan.label),
        })
        .collect();
    ShardedReport::merge(plan.label.clone(), shards)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::LinkSpec;

    fn small_spec() -> ScenarioSpec {
        ScenarioSpec::new(
            "shard-test",
            LinkSpec::Constant {
                mbps: 24.0,
                rtt_ms: 20,
                bdp_mult: 1.0,
                loss: 0.0,
            },
            2,
        )
    }

    #[test]
    fn shard_seeds_are_stable_and_distinct() {
        let a: Vec<u64> = (0..8).map(|i| shard_seed(7, i)).collect();
        let b: Vec<u64> = (0..8).map(|i| shard_seed(7, i)).collect();
        assert_eq!(a, b, "shard seeds must be pure in (plan seed, index)");
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), a.len(), "shard seeds must be distinct");
        assert_ne!(shard_seed(7, 0), shard_seed(8, 0), "plan seed must matter");
    }

    #[test]
    fn fan_in_splits_senders_evenly() {
        let plan = ShardPlan::fan_in("fanin", Cca::Cubic, &small_spec(), 10, 4, 1);
        assert_eq!(plan.shards.len(), 4);
        let flows: Vec<usize> = plan
            .shards
            .iter()
            .map(|s| match s.workload {
                crate::run::Workload::Staggered { flows, .. } => flows,
                _ => 0,
            })
            .collect();
        assert_eq!(flows, vec![3, 3, 2, 2]);
        assert_eq!(flows.iter().sum::<usize>(), 10);
    }

    #[test]
    fn fan_in_never_exceeds_sender_count() {
        let plan = ShardPlan::fan_in("tiny", Cca::Cubic, &small_spec(), 2, 8, 1);
        assert_eq!(plan.shards.len(), 2, "no empty shards");
    }

    #[test]
    fn merged_report_aggregates_across_shards() {
        let store = ModelStore::ephemeral(1);
        let plan = ShardPlan::replicate(&small_spec(), Cca::Cubic, 3, 5);
        let merged = run_sharded_with(&store, &plan, 2, &SweepPolicy::default());
        assert_eq!(merged.shards.len(), 3);
        assert!(merged.total_goodput_mbps > 0.0);
        assert!(merged.jain_all_flows > 0.0 && merged.jain_all_flows <= 1.0);
        assert!(merged.mean_utilization > 0.0);
    }
}
