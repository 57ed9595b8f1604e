//! Declarative scenario specifications — the serde-round-trippable
//! corpus format behind the scenario zoo, the registry binary and the
//! adversarial search.
//!
//! A [`ScenarioSpec`] is plain data: a named link recipe, a queue
//! discipline, a flow layout and a duration. Everything the ad-hoc
//! closures the figure binaries used to capture is spelled out as a
//! field, so a spec can be serialized to JSON, mutated by the search,
//! written next to a pinned regression and rebuilt bit-identically later.
//! `ScenarioSpec::link(seed)` is a pure function: the same spec and seed
//! always produce the same [`LinkConfig`], with trace randomness drawn
//! from `DetRng::new(seed ^ salt)` exactly as the historical scenario
//! closures did (the salts are preserved verbatim so figure outputs are
//! unchanged).

use crate::registry::Cca;
use crate::run::{RunSpec, Workload};
use libra_netsim::{
    datacenter_link, fiveg_link, leo_link, lte_link, satellite_link, step_link, wan_link,
    wired_link, LinkConfig, LteScenario, QueueConfig, WanScenario,
};
use libra_types::{Bytes, DetRng, Duration, Rate};
use serde::{Deserialize, Serialize};

/// Serializable mirror of [`LteScenario`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LteKind {
    /// Handset on a desk.
    Stationary,
    /// Pedestrian mobility.
    Walking,
    /// Vehicular mobility.
    Driving,
}

impl LteKind {
    fn to_netsim(self) -> LteScenario {
        match self {
            LteKind::Stationary => LteScenario::Stationary,
            LteKind::Walking => LteScenario::Walking,
            LteKind::Driving => LteScenario::Driving,
        }
    }

    /// The serializable mirror of an [`LteScenario`].
    pub fn from_netsim(s: LteScenario) -> Self {
        match s {
            LteScenario::Stationary => LteKind::Stationary,
            LteScenario::Walking => LteKind::Walking,
            LteScenario::Driving => LteKind::Driving,
        }
    }
}

/// The bottleneck-link recipe. Trace-driven variants carry the XOR salt
/// historically applied to the trial seed, so routing a legacy scenario
/// through a spec reproduces its traces exactly.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LinkSpec {
    /// `wired_link(mbps)`: constant rate, 30 ms RTT, 150 KB buffer.
    Wired {
        /// Capacity in Mbps.
        mbps: f64,
    },
    /// `LinkConfig::constant`: explicit RTT, buffer in BDP multiples.
    Constant {
        /// Capacity in Mbps.
        mbps: f64,
        /// Round-trip time in milliseconds.
        rtt_ms: u64,
        /// Buffer as a multiple of the BDP.
        bdp_mult: f64,
        /// Stochastic loss fraction.
        loss: f64,
    },
    /// `LinkConfig::constant_with_buffer`: explicit buffer in KB.
    ConstantBuf {
        /// Capacity in Mbps.
        mbps: f64,
        /// Round-trip time in milliseconds.
        rtt_ms: u64,
        /// Buffer in KB.
        buffer_kb: u64,
    },
    /// An OU-process LTE trace.
    Lte {
        /// Mobility scenario.
        scenario: LteKind,
        /// XOR salt applied to the trial seed.
        salt: u64,
    },
    /// The Fig. 2a square-wave step link.
    Step,
    /// An emulated WAN path (Fig. 16).
    Wan {
        /// Inter-continental (long, lossy) vs intra-continental.
        inter: bool,
        /// XOR salt applied to the trial seed.
        salt: u64,
    },
    /// GEO satellite: 600 ms RTT, bursty Gilbert–Elliott loss.
    Satellite {
        /// XOR salt applied to the trial seed.
        salt: u64,
    },
    /// 5G mmWave: LoS/blocked capacity regime switches.
    FiveG {
        /// XOR salt applied to the trial seed.
        salt: u64,
    },
    /// LEO satellite: periodic handover capacity cliffs.
    Leo {
        /// Mean beam capacity in Mbps.
        mbps: f64,
        /// Serving-satellite dwell (handover period) in seconds.
        period_s: u64,
        /// Handover outage length in milliseconds.
        outage_ms: u64,
        /// XOR salt applied to the trial seed.
        salt: u64,
    },
    /// Datacenter: 200 Mbps, 400 µs RTT, ECN step marking.
    Datacenter,
}

impl LinkSpec {
    /// Build the link for trial `seed` (pure in `(self, seed)`).
    pub fn build(&self, seed: u64, secs: u64) -> LinkConfig {
        let total = Duration::from_secs(secs);
        match *self {
            LinkSpec::Wired { mbps } => wired_link(mbps),
            LinkSpec::Constant {
                mbps,
                rtt_ms,
                bdp_mult,
                loss,
            } => {
                let mut link = LinkConfig::constant(
                    Rate::from_mbps(mbps),
                    Duration::from_millis(rtt_ms),
                    bdp_mult,
                );
                link.stochastic_loss = loss;
                link
            }
            LinkSpec::ConstantBuf {
                mbps,
                rtt_ms,
                buffer_kb,
            } => LinkConfig::constant_with_buffer(
                Rate::from_mbps(mbps),
                Duration::from_millis(rtt_ms),
                Bytes::from_kb(buffer_kb),
            ),
            LinkSpec::Lte { scenario, salt } => {
                let mut rng = DetRng::new(seed ^ salt);
                lte_link(scenario.to_netsim(), total, &mut rng)
            }
            LinkSpec::Step => step_link(total),
            LinkSpec::Wan { inter, salt } => {
                let mut rng = DetRng::new(seed ^ salt);
                let scenario = if inter {
                    WanScenario::InterContinental
                } else {
                    WanScenario::IntraContinental
                };
                wan_link(scenario, total, &mut rng)
            }
            LinkSpec::Satellite { salt } => {
                let mut rng = DetRng::new(seed ^ salt);
                satellite_link(total, &mut rng)
            }
            LinkSpec::FiveG { salt } => {
                let mut rng = DetRng::new(seed ^ salt);
                fiveg_link(total, &mut rng)
            }
            LinkSpec::Leo {
                mbps,
                period_s,
                outage_ms,
                salt,
            } => {
                let mut rng = DetRng::new(seed ^ salt);
                leo_link(
                    mbps,
                    Duration::from_secs(period_s),
                    Duration::from_millis(outage_ms),
                    total,
                    &mut rng,
                )
            }
            LinkSpec::Datacenter => datacenter_link(),
        }
    }

    /// Mean/nominal capacity in Mbps, used by the search to sanity-bound
    /// mutations and by validation.
    pub fn nominal_mbps(&self) -> f64 {
        match *self {
            LinkSpec::Wired { mbps }
            | LinkSpec::Constant { mbps, .. }
            | LinkSpec::ConstantBuf { mbps, .. }
            | LinkSpec::Leo { mbps, .. } => mbps,
            LinkSpec::Lte { scenario, .. } => match scenario {
                LteKind::Stationary => 24.0,
                LteKind::Walking => 18.0,
                LteKind::Driving => 14.0,
            },
            LinkSpec::Step => 60.0,
            LinkSpec::Wan { .. } => 50.0,
            LinkSpec::Satellite { .. } => 10.0,
            LinkSpec::FiveG { .. } => 200.0,
            LinkSpec::Datacenter => 200.0,
        }
    }
}

/// Serializable queue-discipline recipe (mirror of
/// [`libra_netsim::QueueConfig`] with plain-number fields).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum QueueSpec {
    /// Byte-capacity FIFO with tail drop.
    Droptail,
    /// CoDel (RFC 8289).
    Codel {
        /// Target sojourn time in milliseconds.
        target_ms: u64,
        /// Interval in milliseconds.
        interval_ms: u64,
    },
    /// PIE (RFC 8033).
    Pie {
        /// Target queueing delay in milliseconds.
        target_ms: u64,
        /// Drop-probability update period in milliseconds.
        update_ms: u64,
    },
    /// Ingress token-bucket policer.
    TokenBucket {
        /// Conforming rate in Mbps.
        mbps: f64,
        /// Bucket depth in KB.
        burst_kb: u64,
    },
}

impl QueueSpec {
    /// CoDel at the RFC defaults.
    pub fn codel_default() -> Self {
        QueueSpec::Codel {
            target_ms: 5,
            interval_ms: 100,
        }
    }

    /// PIE at the RFC defaults.
    pub fn pie_default() -> Self {
        QueueSpec::Pie {
            target_ms: 15,
            update_ms: 15,
        }
    }

    /// Convert to the netsim config.
    pub fn to_netsim(self) -> QueueConfig {
        match self {
            QueueSpec::Droptail => QueueConfig::Droptail,
            QueueSpec::Codel {
                target_ms,
                interval_ms,
            } => QueueConfig::Codel {
                target: Duration::from_millis(target_ms),
                interval: Duration::from_millis(interval_ms),
            },
            QueueSpec::Pie {
                target_ms,
                update_ms,
            } => QueueConfig::Pie {
                target: Duration::from_millis(target_ms),
                update_period: Duration::from_millis(update_ms),
            },
            QueueSpec::TokenBucket { mbps, burst_kb } => QueueConfig::TokenBucket {
                rate: Rate::from_mbps(mbps),
                burst: Bytes::from_kb(burst_kb),
            },
        }
    }

    /// Short display label ("droptail", "codel", ...).
    pub fn label(&self) -> &'static str {
        match self {
            QueueSpec::Droptail => "droptail",
            QueueSpec::Codel { .. } => "codel",
            QueueSpec::Pie { .. } => "pie",
            QueueSpec::TokenBucket { .. } => "token-bucket",
        }
    }
}

/// One zoo entry: a named, fully declarative scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Unique corpus name (also the report label prefix).
    pub name: String,
    /// Bottleneck-link recipe.
    pub link: LinkSpec,
    /// Queue discipline at the bottleneck buffer.
    pub queue: QueueSpec,
    /// Flow layout (controllers appear by label in JSON).
    pub workload: Workload,
    /// Simulated duration in seconds.
    pub secs: u64,
}

impl ScenarioSpec {
    /// A single-flow droptail spec — the shape most legacy scenarios use.
    pub fn new(name: impl Into<String>, link: LinkSpec, secs: u64) -> Self {
        ScenarioSpec {
            name: name.into(),
            link,
            queue: QueueSpec::Droptail,
            workload: Workload::Single,
            secs,
        }
    }

    /// Replace the queue discipline (builder style).
    pub fn with_queue(mut self, queue: QueueSpec) -> Self {
        self.queue = queue;
        self
    }

    /// Replace the workload (builder style).
    pub fn with_workload(mut self, workload: Workload) -> Self {
        self.workload = workload;
        self
    }

    /// The standard evaluation wired link (24/48/96-style figures):
    /// constant `mbps`, 40 ms RTT, 1 BDP buffer, no stochastic loss.
    pub fn eval_wired(mbps: f64) -> Self {
        ScenarioSpec::new(
            format!("eval-wired-{mbps:.0}"),
            LinkSpec::Constant {
                mbps,
                rtt_ms: 40,
                bdp_mult: 1.0,
                loss: 0.0,
            },
            30,
        )
    }

    /// The shared fairness/convergence link (Sec. 5.3 shape): constant
    /// `mbps`, 100 ms RTT, 1 BDP buffer.
    pub fn shared_constant(mbps: f64) -> Self {
        ScenarioSpec::new(
            format!("shared-{mbps:.0}"),
            LinkSpec::Constant {
                mbps,
                rtt_ms: 100,
                bdp_mult: 1.0,
                loss: 0.0,
            },
            30,
        )
    }

    /// Build the link for trial `seed`, queue discipline applied.
    pub fn link(&self, seed: u64) -> LinkConfig {
        self.link
            .build(seed, self.secs)
            .with_queue(self.queue.to_netsim())
    }

    /// Structural sanity: non-empty unique-able name, positive duration,
    /// time fields that fit the `u64` nanosecond clock, positive rates,
    /// non-degenerate layouts. Returns the first problem found. (Unknown
    /// controller labels and stagger/period counts past the clock never
    /// get this far: reading the JSON rejects them.)
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("empty scenario name".into());
        }
        if self.secs == 0 {
            return Err(format!("{}: zero duration", self.name));
        }
        let fits = |field: &str, secs: u64| -> Result<(), String> {
            secs.checked_mul(1_000_000_000)
                .map(|_| ())
                .ok_or_else(|| format!("{}: {field} = {secs} s overflows the ns clock", self.name))
        };
        fits("secs", self.secs)?;
        let mbps = self.link.nominal_mbps();
        if !mbps.is_finite() || mbps <= 0.0 {
            return Err(format!("{}: non-positive link rate", self.name));
        }
        if let LinkSpec::Constant { bdp_mult, loss, .. } = self.link {
            if !bdp_mult.is_finite() || bdp_mult <= 0.0 {
                return Err(format!("{}: non-positive buffer", self.name));
            }
            if !(0.0..=1.0).contains(&loss) {
                return Err(format!("{}: loss outside [0,1]", self.name));
            }
        }
        match self.queue {
            QueueSpec::Codel {
                target_ms,
                interval_ms,
            } if target_ms == 0 || interval_ms == 0 => {
                return Err(format!("{}: zero CoDel timing", self.name));
            }
            QueueSpec::Pie {
                target_ms,
                update_ms,
            } if target_ms == 0 || update_ms == 0 => {
                return Err(format!("{}: zero PIE timing", self.name));
            }
            QueueSpec::TokenBucket { mbps, .. } if !mbps.is_finite() || mbps <= 0.0 => {
                return Err(format!("{}: non-positive policer rate", self.name));
            }
            _ => {}
        }
        match &self.workload {
            Workload::Single | Workload::Pair { .. } => {}
            Workload::Staggered { flows, stagger } => {
                if *flows == 0 {
                    return Err(format!("{}: zero flows", self.name));
                }
                if stagger.nanos().checked_mul(*flows as u64).is_none() {
                    return Err(format!(
                        "{}: flows × stagger_secs overflows the ns clock",
                        self.name
                    ));
                }
            }
            Workload::Fleet { members } => {
                if members.is_empty() {
                    return Err(format!("{}: empty fleet", self.name));
                }
            }
            Workload::Churn {
                mice,
                mouse_secs,
                period,
                ..
            } => {
                if *mice == 0 || *mouse_secs == 0 || period.is_zero() {
                    return Err(format!("{}: degenerate churn", self.name));
                }
                fits("mouse_secs", *mouse_secs)?;
            }
        }
        Ok(())
    }

    /// Materialize a [`RunSpec`] putting `cca` under test on this
    /// scenario. The label is `"{name}/{cca}"` so sweep reports group by
    /// corpus entry.
    pub fn to_run_spec(&self, cca: Cca, seed: u64) -> RunSpec {
        let label = format!("{}/{}", self.name, cca.label());
        let workload = self.workload.clone();
        RunSpec::new(label, cca, workload, self.link(seed), self.secs, seed)
    }
}

/// Fig. 9's buffer sweep base link: 60 Mbps, 100 ms RTT, explicit buffer.
pub fn buffer_sweep_link(buffer: Bytes) -> LinkConfig {
    let mut link =
        LinkConfig::constant_with_buffer(Rate::from_mbps(60.0), Duration::from_millis(100), buffer);
    link.stochastic_loss = 0.0;
    link
}

/// Fig. 10's stochastic-loss link: 48 Mbps, 100 ms RTT, 1 BDP buffer.
pub fn loss_sweep_link(loss: f64) -> LinkConfig {
    let mut link = ScenarioSpec::shared_constant(48.0).link(0);
    link.stochastic_loss = loss;
    link
}

/// Fairness/convergence link (Sec. 5.3): 48 Mbps, 100 ms, 1 BDP.
pub fn fairness_link() -> LinkConfig {
    ScenarioSpec::shared_constant(48.0).link(0)
}

// --- Legacy scenario recipes, now defined exactly once. -----------------
//
// The salts below are the historical `seed ^ salt` constants the figure
// binaries' closures used; keeping them here verbatim
// keeps every figure's trace randomness byte-identical.

/// Fig. 1 LTE salt base (`0x17E + index`).
pub const FIG1_LTE_SALT: u64 = 0x17E;
/// Fig. 7 cellular salt.
pub const FIG7_LTE_SALT: u64 = 0xCE11;
/// Fig. 7 re-sampled driving salt.
pub const FIG7_LTE2_SALT: u64 = 0xCE12;
/// Fig. 2b T-Mobile walking salt.
pub const TMOBILE_SALT: u64 = 0x7110;
/// Fig. 16 inter-continental salt.
pub const WAN_INTER_SALT: u64 = 0x3A11;
/// Fig. 16 intra-continental salt.
pub const WAN_INTRA_SALT: u64 = 0x3A12;
/// Sec. 7 satellite salt.
pub const SATELLITE_SALT: u64 = 0x5A7;
/// Sec. 7 5G salt.
pub const FIVEG_SALT: u64 = 0x5E5;
/// Scenario-zoo LEO salt.
pub const LEO_SALT: u64 = 0x1E0;

/// The Fig. 1 set as specs: three wired (24/48/96) + three LTE.
pub fn fig1_specs(secs: u64) -> Vec<ScenarioSpec> {
    let mut v = Vec::new();
    for mbps in [24.0, 48.0, 96.0] {
        v.push(ScenarioSpec::new(
            format!("Wired-{mbps:.0}"),
            LinkSpec::Wired { mbps },
            secs,
        ));
    }
    for (i, s) in LteScenario::ALL.iter().enumerate() {
        v.push(ScenarioSpec::new(
            s.label(),
            LinkSpec::Lte {
                scenario: LteKind::from_netsim(*s),
                salt: FIG1_LTE_SALT + i as u64,
            },
            secs,
        ));
    }
    v
}

/// Fig. 7's wired half as specs (12/24/48/96 Mbps).
pub fn fig7_wired_specs(secs: u64) -> Vec<ScenarioSpec> {
    [12.0, 24.0, 48.0, 96.0]
        .into_iter()
        .map(|mbps| ScenarioSpec::new(format!("Wired-{mbps:.0}"), LinkSpec::Wired { mbps }, secs))
        .collect()
}

/// Fig. 7's cellular half as specs (three LTE + re-sampled driving).
pub fn fig7_cellular_specs(secs: u64) -> Vec<ScenarioSpec> {
    let mut v: Vec<ScenarioSpec> = LteScenario::ALL
        .iter()
        .map(|&s| {
            ScenarioSpec::new(
                s.label(),
                LinkSpec::Lte {
                    scenario: LteKind::from_netsim(s),
                    salt: FIG7_LTE_SALT,
                },
                secs,
            )
        })
        .collect();
    v.push(ScenarioSpec::new(
        "LTE-driving-2",
        LinkSpec::Lte {
            scenario: LteKind::Driving,
            salt: FIG7_LTE2_SALT,
        },
        secs,
    ));
    v
}

/// Fig. 2a's step spec.
pub fn step_spec(secs: u64) -> ScenarioSpec {
    ScenarioSpec::new("Step", LinkSpec::Step, secs)
}

/// Fig. 2b's single-LTE spec.
pub fn lte_tmobile_spec(secs: u64) -> ScenarioSpec {
    ScenarioSpec::new(
        "LTE-TMobile",
        LinkSpec::Lte {
            scenario: LteKind::Walking,
            salt: TMOBILE_SALT,
        },
        secs,
    )
}

/// Fig. 16's WAN specs (inter- then intra-continental).
pub fn wan_specs(secs: u64) -> Vec<ScenarioSpec> {
    vec![
        ScenarioSpec::new(
            "inter-continental",
            LinkSpec::Wan {
                inter: true,
                salt: WAN_INTER_SALT,
            },
            secs,
        ),
        ScenarioSpec::new(
            "intra-continental",
            LinkSpec::Wan {
                inter: false,
                salt: WAN_INTRA_SALT,
            },
            secs,
        ),
    ]
}

/// Sec. 7's satellite spec.
pub fn satellite_spec(secs: u64) -> ScenarioSpec {
    ScenarioSpec::new(
        "satellite",
        LinkSpec::Satellite {
            salt: SATELLITE_SALT,
        },
        secs,
    )
}

/// Sec. 7's 5G mmWave spec.
pub fn fiveg_spec(secs: u64) -> ScenarioSpec {
    ScenarioSpec::new("5G", LinkSpec::FiveG { salt: FIVEG_SALT }, secs)
}

/// Sec. 7's datacenter spec.
pub fn datacenter_spec(secs: u64) -> ScenarioSpec {
    ScenarioSpec::new("datacenter", LinkSpec::Datacenter, secs)
}

/// The scenario zoo: the corpus the registry validates, CI sweeps and
/// the adversarial search seeds its population from. Spans every link
/// family × queue discipline × workload family the simulator supports.
pub fn zoo_corpus(secs: u64) -> Vec<ScenarioSpec> {
    // Wired baselines, one per queue discipline.
    let mut v = vec![
        ScenarioSpec::new(
            "zoo-wired-48-droptail",
            LinkSpec::Wired { mbps: 48.0 },
            secs,
        ),
        ScenarioSpec::new("zoo-wired-48-codel", LinkSpec::Wired { mbps: 48.0 }, secs)
            .with_queue(QueueSpec::codel_default()),
        ScenarioSpec::new("zoo-wired-48-pie", LinkSpec::Wired { mbps: 48.0 }, secs)
            .with_queue(QueueSpec::pie_default()),
        ScenarioSpec::new("zoo-wired-60-policed", LinkSpec::Wired { mbps: 60.0 }, secs).with_queue(
            QueueSpec::TokenBucket {
                mbps: 40.0,
                burst_kb: 75,
            },
        ),
    ];

    // Deep-buffer bufferbloat probe: droptail vs CoDel.
    let bloat = LinkSpec::Constant {
        mbps: 24.0,
        rtt_ms: 40,
        bdp_mult: 8.0,
        loss: 0.0,
    };
    v.push(ScenarioSpec::new("zoo-bloat-droptail", bloat, secs));
    v.push(
        ScenarioSpec::new("zoo-bloat-codel", bloat, secs).with_queue(QueueSpec::codel_default()),
    );

    // Cellular (the zoo re-uses the figure salts so traces are shared).
    for s in LteScenario::ALL {
        v.push(ScenarioSpec::new(
            format!("zoo-{}", s.label()),
            LinkSpec::Lte {
                scenario: LteKind::from_netsim(s),
                salt: FIG7_LTE_SALT,
            },
            secs,
        ));
    }
    v.push(
        ScenarioSpec::new(
            "zoo-LTE-walking-pie",
            LinkSpec::Lte {
                scenario: LteKind::Walking,
                salt: FIG7_LTE_SALT,
            },
            secs,
        )
        .with_queue(QueueSpec::pie_default()),
    );

    // Step / WAN / GEO / 5G / datacenter.
    v.push(step_spec(secs).with_queue(QueueSpec::Droptail));
    let mut wan = wan_specs(secs);
    for w in &mut wan {
        w.name = format!("zoo-{}", w.name);
    }
    v.extend(wan);
    {
        let mut s = satellite_spec(secs);
        s.name = "zoo-satellite".into();
        v.push(s);
    }
    {
        let mut s = fiveg_spec(secs);
        s.name = "zoo-5G".into();
        v.push(s);
    }
    {
        let mut s = datacenter_spec(secs.min(10));
        s.name = "zoo-datacenter".into();
        v.push(s);
    }

    // LEO handover cliffs, alone and with an AQM.
    let leo = LinkSpec::Leo {
        mbps: 40.0,
        period_s: 15,
        outage_ms: 400,
        salt: LEO_SALT,
    };
    v.push(ScenarioSpec::new("zoo-leo-droptail", leo, secs));
    v.push(ScenarioSpec::new("zoo-leo-codel", leo, secs).with_queue(QueueSpec::codel_default()));

    // Heterogeneous fleets and churn.
    v.push(
        ScenarioSpec::new("zoo-fleet-mixed", LinkSpec::Wired { mbps: 96.0 }, secs).with_workload(
            Workload::Fleet {
                members: vec![Cca::Bbr, Cca::Cubic, Cca::Copa],
            },
        ),
    );
    v.push(
        ScenarioSpec::new("zoo-fleet-bbr-heavy", LinkSpec::Wired { mbps: 96.0 }, secs)
            .with_workload(Workload::Fleet {
                members: vec![Cca::Bbr, Cca::Bbr, Cca::Cubic],
            }),
    );
    v.push(
        ScenarioSpec::new("zoo-churn-mice", LinkSpec::Wired { mbps: 48.0 }, secs).with_workload(
            Workload::Churn {
                mouse: Cca::Cubic,
                mice: 4,
                mouse_secs: 3,
                period: Duration::from_secs(5),
            },
        ),
    );
    v.push(
        ScenarioSpec::new("zoo-churn-under-pie", LinkSpec::Wired { mbps: 48.0 }, secs)
            .with_queue(QueueSpec::pie_default())
            .with_workload(Workload::Churn {
                mouse: Cca::Cubic,
                mice: 4,
                mouse_secs: 3,
                period: Duration::from_secs(5),
            }),
    );

    // Fairness pair on the shared link.
    v.push(
        ScenarioSpec::shared_constant(48.0).with_workload(Workload::Pair {
            competitor: Cca::Cubic,
        }),
    );

    // Thousand-flow-engine scale shapes. Synchronized fan-in into a
    // fast short-RTT link (the classic incast microburst), a
    // shallow-buffer many-to-one storage rack (buffer « aggregate
    // inject rate, so collapse pressure is structural), and a
    // fairness-at-N ladder up to 1000 flows on one shared link.
    v.push(
        ScenarioSpec::new(
            "zoo-incast-fanin-256",
            LinkSpec::Constant {
                mbps: 1000.0,
                rtt_ms: 2,
                bdp_mult: 4.0,
                loss: 0.0,
            },
            secs,
        )
        .with_workload(Workload::Staggered {
            flows: 256,
            stagger: Duration::ZERO,
        }),
    );
    v.push(
        ScenarioSpec::new(
            "zoo-manytoone-storage-64",
            LinkSpec::Constant {
                mbps: 400.0,
                rtt_ms: 2,
                bdp_mult: 0.5,
                loss: 0.0,
            },
            secs,
        )
        .with_workload(Workload::Staggered {
            flows: 64,
            stagger: Duration::ZERO,
        }),
    );
    for n in [64usize, 256, 1000] {
        v.push(
            ScenarioSpec::new(
                format!("zoo-fairness-n{n}"),
                LinkSpec::Constant {
                    mbps: 96.0,
                    rtt_ms: 40,
                    bdp_mult: 1.0,
                    loss: 0.0,
                },
                secs,
            )
            .with_workload(Workload::Staggered {
                flows: n,
                stagger: Duration::ZERO,
            }),
        );
    }

    for s in &mut v {
        s.secs = s.secs.min(secs.max(1));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use libra_types::Instant;

    #[test]
    fn corpus_validates_and_names_unique() {
        let corpus = zoo_corpus(20);
        assert!(corpus.len() >= 18, "zoo too small: {}", corpus.len());
        let mut names: Vec<&str> = corpus.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate corpus names");
        for s in &corpus {
            s.validate().expect("corpus entry must validate");
        }
    }

    #[test]
    fn specs_round_trip_through_json() {
        for s in zoo_corpus(20) {
            let json = serde_json::to_string(&s).expect("serialize");
            let back: ScenarioSpec = serde_json::from_str(&json).expect("deserialize");
            assert_eq!(s, back, "round trip changed {}", s.name);
        }
    }

    #[test]
    fn spec_links_are_deterministic() {
        for s in zoo_corpus(12) {
            let a = s.link(7);
            let b = s.link(7);
            for k in 0..60 {
                let t = Instant::from_millis(k * 200);
                assert_eq!(a.capacity.rate_at(t), b.capacity.rate_at(t), "{}", s.name);
            }
            assert_eq!(a.buffer, b.buffer);
        }
    }

    #[test]
    fn legacy_salts_reproduce_legacy_links() {
        // Fig. 1 LTE #2 historically used DetRng::new(seed ^ (0x17E + 1)).
        let spec = &fig1_specs(20)[4];
        let mut rng = DetRng::new(9 ^ (0x17E + 1));
        let legacy = lte_link(LteScenario::Walking, Duration::from_secs(20), &mut rng);
        let routed = spec.link(9);
        for k in 0..100 {
            let t = Instant::from_millis(k * 100);
            assert_eq!(legacy.capacity.rate_at(t), routed.capacity.rate_at(t));
        }
    }

    #[test]
    fn fig1_specs_are_three_wired_then_three_lte() {
        let set = fig1_specs(30);
        assert_eq!(set.len(), 6);
        assert_eq!(set[0].name, "Wired-24");
        assert_eq!(set[3].name, "LTE-stationary");
        // Wired links are constant; LTE links vary with the seed.
        let wired = set[0].link(1);
        assert_eq!(
            wired.capacity.rate_at(Instant::ZERO),
            wired.capacity.rate_at(Instant::from_secs(20))
        );
        let (a, b) = (set[5].link(1), set[5].link(2));
        let differs = (0..300).any(|k| {
            let t = Instant::from_millis(k * 100);
            a.capacity.rate_at(t) != b.capacity.rate_at(t)
        });
        assert!(differs);
    }

    #[test]
    fn figure_sets_and_sweep_links() {
        assert_eq!(fig7_wired_specs(30).len(), 4);
        assert_eq!(fig7_cellular_specs(30).len(), 4);
        assert_eq!(wan_specs(30).len(), 2);
        assert_eq!(
            buffer_sweep_link(Bytes::from_kb(30)).buffer,
            Bytes::from_kb(30)
        );
        assert_eq!(loss_sweep_link(0.07).stochastic_loss, 0.07);
    }

    /// Read a single-flow wired spec with `workload` spliced in as raw
    /// JSON, then validate it: the corpus loader's two steps.
    fn load(secs: u64, workload: &str) -> Result<ScenarioSpec, String> {
        let json = format!(
            r#"{{"name":"t","link":{{"Wired":{{"mbps":24.0}}}},"queue":"Droptail","workload":{workload},"secs":{secs}}}"#
        );
        let spec: ScenarioSpec = serde_json::from_str(&json).map_err(|e| e.to_string())?;
        spec.validate().map(|()| spec)
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let err = load(10, r#"{"Pair":{"competitor":"NoSuchCca"}}"#).expect_err("unknown label");
        assert!(err.contains("unknown CCA label"), "{err}");
        load(10, r#"{"Pair":{"competitor":"Vegas"}}"#).expect("known label");
        let z = ScenarioSpec::new("y", LinkSpec::Wired { mbps: 0.0 }, 10);
        assert!(z.validate().is_err());
        let mut q = ScenarioSpec::new("z", LinkSpec::Wired { mbps: 24.0 }, 10);
        q.queue = QueueSpec::Pie {
            target_ms: 0,
            update_ms: 15,
        };
        assert!(q.validate().is_err());
    }

    #[test]
    fn time_fields_past_the_ns_clock_are_rejected() {
        let last_s = u64::MAX / 1_000_000_000;
        let staggered = |flows, stagger_secs| {
            format!(r#"{{"Staggered":{{"flows":{flows},"stagger_secs":{stagger_secs}}}}}"#)
        };
        let churn = |mouse_secs, period_secs| {
            format!(
                r#"{{"Churn":{{"mouse":"CUBIC","mice":2,"mouse_secs":{mouse_secs},"period_secs":{period_secs}}}}}"#
            )
        };
        for (secs, ok) in [
            (last_s, r#""Single""#.to_string()),
            (10, staggered(1, last_s)),
            (10, churn(last_s, last_s)),
        ] {
            load(secs, &ok).expect("fits the clock");
        }
        for (field, secs, bad) in [
            ("secs", u64::MAX, r#""Single""#.to_string()),
            ("stagger_secs", 10, staggered(2, u64::MAX)),
            ("flows × stagger_secs", 10, staggered(2, last_s)),
            ("mouse_secs", 10, churn(last_s + 1, 4)),
            ("period_secs", 10, churn(3, u64::MAX)),
        ] {
            let err = load(secs, &bad).expect_err(field);
            assert!(err.contains("overflows"), "{field}: {err}");
        }
    }

    #[test]
    fn run_spec_labels_group_by_scenario() {
        let s = &zoo_corpus(10)[0];
        let rs = s.to_run_spec(Cca::Cubic, 3);
        assert!(rs.label.starts_with(&s.name));
        assert_eq!(rs.secs, s.secs);
    }

    #[test]
    fn cca_names_round_trip() {
        for c in Cca::ALL {
            let name = c.label();
            assert_eq!(crate::registry::cca_from_name(&name), Some(c), "{name}");
        }
    }
}
