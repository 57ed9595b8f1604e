//! What a finished run reports: the Send-safe, serializable
//! [`RunSummary`] (the fingerprint every determinism suite compares), its
//! single-flow [`RunMetrics`] headline, and Tab. 5's convergence
//! statistics over a goodput series.

use libra_netsim::SimReport;
use libra_types::TraceEvent;
use serde::{get_field, DeError, Deserialize, Serialize, Value};

/// The headline metrics of one single-flow run.
#[derive(Debug, Clone, Copy)]
pub struct RunMetrics {
    /// Link utilization (delivered / capacity).
    pub utilization: f64,
    /// Mean per-packet RTT in milliseconds.
    pub avg_rtt_ms: f64,
    /// True 95th-percentile RTT in milliseconds (streaming P² estimate).
    pub p95_rtt_ms: f64,
    /// Maximum observed RTT (ms).
    pub max_rtt_ms: f64,
    /// Average goodput in Mbps.
    pub goodput_mbps: f64,
    /// Loss fraction.
    pub loss: f64,
    /// Controller compute per simulated second (µs/s) — the CPU proxy.
    pub compute_us_per_s: f64,
}

/// Send-safe per-flow results (everything [`libra_netsim::FlowReport`]
/// carries except the controller box).
#[derive(Debug, Clone)]
pub struct FlowSummary {
    /// Controller name.
    pub name: String,
    /// Bytes handed to the network.
    pub sent_bytes: u64,
    /// Bytes acknowledged.
    pub delivered_bytes: u64,
    /// Packets acknowledged.
    pub acked_packets: u64,
    /// Packets declared lost.
    pub lost_packets: u64,
    /// Average goodput over the flow's lifetime (Mbps).
    pub goodput_mbps: f64,
    /// Mean per-packet RTT (ms).
    pub rtt_mean_ms: f64,
    /// Number of RTT samples behind the mean.
    pub rtt_samples: u64,
    /// Streaming P² 95th-percentile RTT (ms).
    pub p95_rtt_ms: f64,
    /// Maximum observed RTT (ms).
    pub max_rtt_ms: f64,
    /// Fraction of resolved packets that were lost.
    pub loss_fraction: f64,
    /// ECN congestion echoes received.
    pub ecn_echoes: u64,
    /// `(seconds, Mbps)` goodput series.
    pub goodput_series: Vec<(f64, f64)>,
    /// Sparse `(seconds, ms)` RTT series.
    pub rtt_series: Vec<(f64, f64)>,
    /// Wall-clock nanoseconds inside the controller. Excluded from
    /// serialization: it measures host time, not simulated behaviour,
    /// and would break byte-identity between repeated runs.
    pub compute_ns: u64,
}

fn series_value(series: &[(f64, f64)]) -> Value {
    Value::Array(
        series
            .iter()
            .map(|&(a, b)| Value::Array(vec![Value::Float(a), Value::Float(b)]))
            .collect(),
    )
}

// Manual impl (not derived): skips `compute_ns`, which is host
// wall-clock and would break byte-identity between identical runs.
impl Serialize for FlowSummary {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("name".into(), self.name.to_value()),
            ("sent_bytes".into(), self.sent_bytes.to_value()),
            ("delivered_bytes".into(), self.delivered_bytes.to_value()),
            ("acked_packets".into(), self.acked_packets.to_value()),
            ("lost_packets".into(), self.lost_packets.to_value()),
            ("goodput_mbps".into(), self.goodput_mbps.to_value()),
            ("rtt_mean_ms".into(), self.rtt_mean_ms.to_value()),
            ("rtt_samples".into(), self.rtt_samples.to_value()),
            ("p95_rtt_ms".into(), self.p95_rtt_ms.to_value()),
            ("max_rtt_ms".into(), self.max_rtt_ms.to_value()),
            ("loss_fraction".into(), self.loss_fraction.to_value()),
            ("ecn_echoes".into(), self.ecn_echoes.to_value()),
            ("goodput_series".into(), series_value(&self.goodput_series)),
            ("rtt_series".into(), series_value(&self.rtt_series)),
        ])
    }
}

fn series_from_value(v: &Value) -> Result<Vec<(f64, f64)>, DeError> {
    let Value::Array(items) = v else {
        return Err(DeError::new("expected a series array"));
    };
    items
        .iter()
        .map(|item| {
            let Value::Array(pair) = item else {
                return Err(DeError::new("expected a [t, v] pair"));
            };
            if pair.len() != 2 {
                return Err(DeError::new("expected a [t, v] pair"));
            }
            Ok((f64::from_value(&pair[0])?, f64::from_value(&pair[1])?))
        })
        .collect()
}

// Mirror of the manual Serialize impl, used to restore journaled slots.
// `compute_ns` was never serialized (host wall-clock) and restores as 0.
impl Deserialize for FlowSummary {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(FlowSummary {
            name: Deserialize::from_value(get_field(v, "name")?)?,
            sent_bytes: Deserialize::from_value(get_field(v, "sent_bytes")?)?,
            delivered_bytes: Deserialize::from_value(get_field(v, "delivered_bytes")?)?,
            acked_packets: Deserialize::from_value(get_field(v, "acked_packets")?)?,
            lost_packets: Deserialize::from_value(get_field(v, "lost_packets")?)?,
            goodput_mbps: Deserialize::from_value(get_field(v, "goodput_mbps")?)?,
            rtt_mean_ms: Deserialize::from_value(get_field(v, "rtt_mean_ms")?)?,
            rtt_samples: Deserialize::from_value(get_field(v, "rtt_samples")?)?,
            p95_rtt_ms: Deserialize::from_value(get_field(v, "p95_rtt_ms")?)?,
            max_rtt_ms: Deserialize::from_value(get_field(v, "max_rtt_ms")?)?,
            loss_fraction: Deserialize::from_value(get_field(v, "loss_fraction")?)?,
            ecn_echoes: Deserialize::from_value(get_field(v, "ecn_echoes")?)?,
            goodput_series: series_from_value(get_field(v, "goodput_series")?)?,
            rtt_series: series_from_value(get_field(v, "rtt_series")?)?,
            compute_ns: 0,
        })
    }
}

/// Send-safe summary of one finished run, serialized for the
/// determinism tests and merged in job order by [`crate::run_sweep`].
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// The spec's display label.
    pub label: String,
    /// Simulated duration (seconds).
    pub duration_s: f64,
    /// Link utilization (delivered / capacity).
    pub utilization: f64,
    /// Time-averaged queue occupancy (bytes).
    pub mean_queue_bytes: f64,
    /// Packets dropped at the tail.
    pub tail_drops: u64,
    /// Packets dropped by the stochastic loss process.
    pub stochastic_drops: u64,
    /// Jain's fairness index over flow goodputs.
    pub jain: f64,
    /// Sample-weighted mean RTT across flows (ms).
    pub mean_rtt_ms: f64,
    /// Guardrail trips observed across flows. Counted from the trace
    /// stream, so it is only non-zero for traced runs; unlike the stream
    /// itself it IS serialized (it is a scalar verdict, not host-sized
    /// event data), letting journal restores keep search objectives
    /// byte-identical. Omitted from the JSON when zero, so untraced
    /// runs — including the pinned droptail digest — serialize exactly
    /// as they did before the field existed; a run's trip count is
    /// deterministic, so the field's presence is too.
    pub guardrail_trips: u64,
    /// Policy-boundary faults served to flows (summed over
    /// [`libra_netsim::FlowReport::policy_faults`]). Only non-zero when
    /// a fault plan was attached, and omitted from the JSON when zero,
    /// so faults-off runs serialize exactly as before the field existed.
    pub policy_faults_injected: u64,
    /// Flows quarantined out of batched forward passes for non-finite
    /// or wrong-dimension state vectors (summed over
    /// [`libra_netsim::FlowReport::policy_quarantines`]). Omitted from
    /// the JSON when zero.
    pub quarantines: u64,
    /// Degradation-ladder tier-2 resolves: MI ticks bridged by a cached
    /// last-good action. Counted from the trace stream (traced runs
    /// only, like `guardrail_trips`); omitted from the JSON when zero.
    pub fallback_ticks: u64,
    /// Guardrail re-probe attempts out of the classic-CCA pin (the
    /// ladder's recovery arm). Counted from the trace stream; omitted
    /// from the JSON when zero.
    pub rl_reprobes: u64,
    /// Per-flow summaries in `add_flow` order.
    pub flows: Vec<FlowSummary>,
    /// Merged, time-ordered trace stream (empty unless the spec set
    /// [`crate::RunSpec::with_trace`]). Excluded from serialization so traced
    /// and untraced runs of the same spec digest identically.
    pub trace: Vec<TraceEvent>,
    /// Events evicted from the per-flow ring buffers before harvest.
    pub trace_dropped: u64,
}

impl Serialize for RunSummary {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("label".into(), self.label.to_value()),
            ("duration_s".into(), self.duration_s.to_value()),
            ("utilization".into(), self.utilization.to_value()),
            ("mean_queue_bytes".into(), self.mean_queue_bytes.to_value()),
            ("tail_drops".into(), self.tail_drops.to_value()),
            ("stochastic_drops".into(), self.stochastic_drops.to_value()),
            ("jain".into(), self.jain.to_value()),
            ("mean_rtt_ms".into(), self.mean_rtt_ms.to_value()),
        ];
        if self.guardrail_trips != 0 {
            fields.push(("guardrail_trips".into(), self.guardrail_trips.to_value()));
        }
        if self.policy_faults_injected != 0 {
            fields.push((
                "policy_faults_injected".into(),
                self.policy_faults_injected.to_value(),
            ));
        }
        if self.quarantines != 0 {
            fields.push(("quarantines".into(), self.quarantines.to_value()));
        }
        if self.fallback_ticks != 0 {
            fields.push(("fallback_ticks".into(), self.fallback_ticks.to_value()));
        }
        if self.rl_reprobes != 0 {
            fields.push(("rl_reprobes".into(), self.rl_reprobes.to_value()));
        }
        fields.push(("flows".into(), self.flows.to_value()));
        Value::Object(fields)
    }
}

// Mirror of the manual Serialize impl. The trace stream is not
// serialized, so a journal-restored summary carries an empty one; the
// serialized forms still match byte-for-byte.
impl Deserialize for RunSummary {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(RunSummary {
            label: Deserialize::from_value(get_field(v, "label")?)?,
            duration_s: Deserialize::from_value(get_field(v, "duration_s")?)?,
            utilization: Deserialize::from_value(get_field(v, "utilization")?)?,
            mean_queue_bytes: Deserialize::from_value(get_field(v, "mean_queue_bytes")?)?,
            tail_drops: Deserialize::from_value(get_field(v, "tail_drops")?)?,
            stochastic_drops: Deserialize::from_value(get_field(v, "stochastic_drops")?)?,
            jain: Deserialize::from_value(get_field(v, "jain")?)?,
            mean_rtt_ms: Deserialize::from_value(get_field(v, "mean_rtt_ms")?)?,
            guardrail_trips: match get_field(v, "guardrail_trips") {
                Ok(val) => Deserialize::from_value(val)?,
                Err(_) => 0,
            },
            policy_faults_injected: match get_field(v, "policy_faults_injected") {
                Ok(val) => Deserialize::from_value(val)?,
                Err(_) => 0,
            },
            quarantines: match get_field(v, "quarantines") {
                Ok(val) => Deserialize::from_value(val)?,
                Err(_) => 0,
            },
            fallback_ticks: match get_field(v, "fallback_ticks") {
                Ok(val) => Deserialize::from_value(val)?,
                Err(_) => 0,
            },
            rl_reprobes: match get_field(v, "rl_reprobes") {
                Ok(val) => Deserialize::from_value(val)?,
                Err(_) => 0,
            },
            flows: Deserialize::from_value(get_field(v, "flows")?)?,
            trace: Vec::new(),
            trace_dropped: 0,
        })
    }
}

impl RunSummary {
    /// Extract the Send-safe summary from a finished report.
    pub fn from_report(label: &str, report: &SimReport) -> Self {
        let trace = crate::tracing::merged_trace(report);
        let fallback_ticks = trace
            .iter()
            .map(|e| match e {
                TraceEvent::Fallback { ticks, .. } => *ticks,
                _ => 0,
            })
            .sum();
        let rl_reprobes = trace
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    TraceEvent::Guardrail {
                        step: libra_types::GuardrailStep::Reprobe,
                        ..
                    }
                )
            })
            .count() as u64;
        RunSummary {
            label: label.to_string(),
            duration_s: report.duration.as_secs_f64(),
            utilization: report.link.utilization,
            mean_queue_bytes: report.link.mean_queue_bytes,
            tail_drops: report.link.tail_drops,
            stochastic_drops: report.link.stochastic_drops,
            jain: report.jain_index(),
            mean_rtt_ms: report.mean_rtt_ms(),
            guardrail_trips: trace
                .iter()
                .filter(|e| {
                    matches!(
                        e,
                        libra_types::TraceEvent::Guardrail {
                            step: libra_types::GuardrailStep::Trip,
                            ..
                        }
                    )
                })
                .count() as u64,
            policy_faults_injected: report.flows.iter().map(|f| f.policy_faults).sum(),
            quarantines: report.flows.iter().map(|f| f.policy_quarantines).sum(),
            fallback_ticks,
            rl_reprobes,
            flows: report
                .flows
                .iter()
                .map(|f| FlowSummary {
                    name: f.name.to_string(),
                    sent_bytes: f.sent_bytes,
                    delivered_bytes: f.delivered_bytes,
                    acked_packets: f.acked_packets,
                    lost_packets: f.lost_packets,
                    goodput_mbps: f.avg_goodput.mbps(),
                    rtt_mean_ms: f.rtt_ms.mean(),
                    rtt_samples: f.rtt_ms.count(),
                    p95_rtt_ms: f.rtt_p95_ms,
                    max_rtt_ms: f.rtt_ms.max(),
                    loss_fraction: f.loss_fraction,
                    ecn_echoes: f.ecn_echoes,
                    goodput_series: f.goodput_series.clone(),
                    rtt_series: f.rtt_series.clone(),
                    compute_ns: f.compute_ns,
                })
                .collect(),
            trace,
            trace_dropped: report.flows.iter().map(|f| f.trace_dropped).sum(),
        }
    }

    /// The first flow's headline metrics (the single-flow figures).
    pub fn headline(&self) -> RunMetrics {
        let f = &self.flows[0];
        RunMetrics {
            utilization: self.utilization,
            avg_rtt_ms: f.rtt_mean_ms,
            p95_rtt_ms: f.p95_rtt_ms,
            max_rtt_ms: f.max_rtt_ms,
            goodput_mbps: f.goodput_mbps,
            loss: f.loss_fraction,
            compute_us_per_s: if self.duration_s > 0.0 {
                f.compute_ns as f64 / 1e3 / self.duration_s
            } else {
                0.0
            },
        }
    }
}

/// Convergence statistics of the last staggered flow (Tab. 5): time from
/// entry until its rate stays within ±25 % of its final mean for
/// `stable_window` seconds; plus the post-convergence mean and deviation.
#[derive(Debug, Clone, Copy)]
pub struct ConvergenceStats {
    /// Convergence time in seconds (`None` if it never stabilized).
    pub time_s: Option<f64>,
    /// Std-dev of throughput after convergence (Mbps).
    pub deviation_mbps: f64,
    /// Mean throughput after convergence (Mbps).
    pub avg_mbps: f64,
}

/// Compute Tab. 5's statistics from a flow's goodput series.
pub fn convergence_stats(
    series: &[(f64, f64)],
    flow_start_s: f64,
    stable_window_s: f64,
) -> ConvergenceStats {
    // Smooth to ~1 s before applying the ±25 % band: every real CCA
    // oscillates at sub-RTT scale (CUBIC's sawtooth, Libra's EI dithers)
    // and the paper's convergence test is about the *rate trajectory*, not
    // per-100 ms bins.
    let raw: Vec<(f64, f64)> = series
        .iter()
        .copied()
        .filter(|&(t, _)| t >= flow_start_s)
        .collect();
    let window = {
        let bin = if raw.len() >= 2 {
            (raw[1].0 - raw[0].0).max(1e-3)
        } else {
            0.1
        };
        ((1.0 / bin).round() as usize).max(1)
    };
    let pts: Vec<(f64, f64)> = raw
        .windows(window)
        .map(|w| {
            let t = w[w.len() / 2].0;
            let v = w.iter().map(|p| p.1).sum::<f64>() / w.len() as f64;
            (t, v)
        })
        .collect();
    if pts.len() < 3 {
        return ConvergenceStats {
            time_s: None,
            deviation_mbps: 0.0,
            avg_mbps: 0.0,
        };
    }
    let bin = if pts.len() >= 2 {
        pts[1].0 - pts[0].0
    } else {
        0.1
    };
    let need = (stable_window_s / bin).round().max(1.0) as usize;
    // Find the earliest index from which the next `need` points stay
    // within ±25 % of their own mean.
    for i in 0..pts.len().saturating_sub(need) {
        let w = &pts[i..i + need];
        let mean = w.iter().map(|p| p.1).sum::<f64>() / need as f64;
        if mean <= 0.0 {
            continue;
        }
        if w.iter().all(|p| (p.1 - mean).abs() <= 0.25 * mean) {
            let tail = &pts[i..];
            let tmean = tail.iter().map(|p| p.1).sum::<f64>() / tail.len() as f64;
            let var = tail.iter().map(|p| (p.1 - tmean).powi(2)).sum::<f64>() / tail.len() as f64;
            return ConvergenceStats {
                time_s: Some(pts[i].0 - flow_start_s),
                deviation_mbps: var.sqrt(),
                avg_mbps: tmean,
            };
        }
    }
    ConvergenceStats {
        time_s: None,
        deviation_mbps: 0.0,
        avg_mbps: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn convergence_stats_on_synthetic_series() {
        // Ramp then stable at 10 Mbps.
        let series: Vec<(f64, f64)> = (0..100)
            .map(|i| {
                let t = i as f64 * 0.1;
                let v = if t < 2.0 { 5.0 * t } else { 10.0 };
                (t, v)
            })
            .collect();
        let s = convergence_stats(&series, 0.0, 2.0);
        let t = s.time_s.expect("converges");
        assert!(t <= 2.1, "time {t}");
        assert!((s.avg_mbps - 10.0).abs() < 1.0);
        assert!(s.deviation_mbps < 1.5);
    }

    #[test]
    fn convergence_stats_none_for_slow_oscillation() {
        // Oscillation slower than the 1 s smoothing window must still be
        // detected as non-convergent: 3 s per level, 1 ↔ 20 Mbps.
        let series: Vec<(f64, f64)> = (0..200)
            .map(|i| {
                let t = i as f64 * 0.1;
                (
                    t,
                    if ((t / 3.0) as u64).is_multiple_of(2) {
                        1.0
                    } else {
                        20.0
                    },
                )
            })
            .collect();
        let s = convergence_stats(&series, 0.0, 5.0);
        assert!(s.time_s.is_none(), "converged at {:?}", s.time_s);
    }

    #[test]
    fn convergence_stats_smooths_fast_dither() {
        // Sub-second dither around a stable mean counts as converged —
        // the smoothing exists exactly for CUBIC-sawtooth-style signals.
        let series: Vec<(f64, f64)> = (0..200)
            .map(|i| (i as f64 * 0.1, if i % 2 == 0 { 9.0 } else { 11.0 }))
            .collect();
        let s = convergence_stats(&series, 0.0, 3.0);
        assert!(s.time_s.is_some());
        assert!((s.avg_mbps - 10.0).abs() < 0.5);
    }
}
