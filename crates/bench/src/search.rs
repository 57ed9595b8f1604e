//! Adversarial scenario search: mutate [`ScenarioSpec`]s toward runs
//! where Libra does badly, and pin what the search finds as regression
//! specs.
//!
//! The search is a small deterministic evolutionary loop. Round `r`
//! mutates parents drawn from a pool (initially the scenario zoo) with
//! operators seeded from `DetRng::new(seed).fork("round-r").fork(
//! "cand-i")`, evaluates every candidate through the supervised sweep
//! engine (so panics and livelocks are isolated like any other job, and
//! a `--resume` restores finished evaluations byte-identically from the
//! per-round journal), scores three objectives, and carries the highest
//! scorers into the next round's pool. Everything downstream of the
//! journal is a pure function of the config, so a search resumed after a
//! kill produces the same outcome bytes as an uninterrupted one.
//!
//! Objectives (per candidate, Libra under test vs. its parent CCAs):
//! * **low utility** — Eq. 1 utility of the Libra flow materially below
//!   the best parent's on the identical scenario;
//! * **unfairness** — Jain index of the multi-flow Libra run;
//! * **guardrail trips** — reproducible `GuardrailStep::Trip` events.

use crate::models::ModelStore;
use crate::policychaos::PolicyChaosSpec;
use crate::registry::Cca;
use crate::run::{RunSpec, Workload};
use crate::spec::{zoo_corpus, LinkSpec, QueueSpec, ScenarioSpec};
use crate::summary::RunSummary;
use crate::supervisor::{run_sweep_supervised_with, SweepPolicy};
use libra_types::{DetRng, Duration, Preference, UtilityParams};
use serde::{get_field, DeError, Deserialize, Serialize, Value};
use std::path::Path;

/// Pin when Libra's goodput falls below this fraction of the best
/// parent's on the same scenario.
pub const PIN_GOODPUT_RATIO: f64 = 0.85;
/// Pin when the Libra run's Jain index falls below this.
pub const PIN_JAIN: f64 = 0.75;
/// Pin when at least this many guardrail trips are observed.
pub const PIN_TRIPS: u64 = 1;
/// Pin when the policy degradation ladder bridged at least this many MI
/// resolves with a cached last-good action (chaos-mode searches only:
/// without an injected fault plan the ladder never engages).
pub const PIN_FALLBACK_TICKS: u64 = 1;

/// Search configuration. All fields feed the deterministic RNG tree or
/// the sweep engine; two searches with equal configs produce identical
/// outcomes at any worker count.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Master seed for mutation randomness and run seeds.
    pub seed: u64,
    /// Mutation/selection rounds.
    pub rounds: usize,
    /// Candidates per round.
    pub population: usize,
    /// Simulated seconds per evaluation run.
    pub secs: u64,
    /// Sweep worker threads.
    pub workers: usize,
    /// Journal file tag (one journal per round,
    /// `<tag>_r<round>.jsonl`); `None` disables journaling.
    pub journal_tag: Option<String>,
    /// Restore finished evaluations from existing journals.
    pub resume: bool,
    /// The controller under attack.
    pub under_test: Cca,
    /// Reference controllers the same scenario is scored against.
    pub parents: Vec<Cca>,
    /// Policy-boundary fault plan injected into the under-test run of
    /// every candidate (chaos mode). `None` keeps the classic search:
    /// inline inference, no server, byte-identical to before the field
    /// existed. Parents always run fault-free — the comparison is
    /// "Libra under faults vs. healthy classics".
    pub policy_chaos: Option<PolicyChaosSpec>,
}

impl SearchConfig {
    /// A small deterministic config for smokes and CI: `rounds × pop`
    /// candidates, short runs, no journal.
    pub fn smoke(seed: u64, rounds: usize, population: usize, secs: u64, workers: usize) -> Self {
        SearchConfig {
            seed,
            rounds,
            population,
            secs,
            workers,
            journal_tag: None,
            resume: false,
            under_test: Cca::CLibra(Preference::Default),
            parents: vec![Cca::Cubic, Cca::Bbr],
            policy_chaos: None,
        }
    }
}

/// One mutated scenario awaiting (or holding) evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Candidate {
    /// The mutated spec.
    pub spec: ScenarioSpec,
    /// Corpus/pool entry it was mutated from.
    pub parent: String,
    /// Round it was generated in.
    pub round: usize,
    /// Index within the round.
    pub index: usize,
    /// Run seed its evaluations used.
    pub run_seed: u64,
    /// Goodput of the flow under test (Mbps).
    pub libra_goodput: f64,
    /// Eq. 1 utility of the flow under test.
    pub libra_utility: f64,
    /// Best parent goodput on the identical scenario (Mbps).
    pub parent_goodput: f64,
    /// Best parent utility on the identical scenario.
    pub parent_utility: f64,
    /// Jain index of the under-test run.
    pub jain: f64,
    /// Guardrail trips in the under-test run.
    pub guardrail_trips: u64,
    /// Policy-boundary faults injected into the under-test run (chaos
    /// mode only; 0 otherwise).
    pub policy_faults: u64,
    /// Flows quarantined at the policy boundary in the under-test run.
    pub quarantines: u64,
    /// MI resolves bridged by the degradation ladder's cached action.
    pub fallback_ticks: u64,
    /// Composite badness score (higher = worse for Libra).
    pub score: f64,
}

/// Which pin threshold a candidate crossed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Objective {
    /// Goodput/utility materially below the best parent.
    LowUtility,
    /// Multi-flow Jain index below [`PIN_JAIN`].
    Unfair,
    /// Reproducible guardrail trips.
    GuardrailTrip,
    /// The policy degradation ladder engaged under injected faults
    /// (cached-action fallback ticks or boundary quarantines).
    PolicyFault,
}

impl Objective {
    /// Stable label used in pin filenames and report rows.
    pub fn label(self) -> &'static str {
        match self {
            Objective::LowUtility => "low-utility",
            Objective::Unfair => "unfair",
            Objective::GuardrailTrip => "guardrail-trip",
            Objective::PolicyFault => "policy-fault",
        }
    }
}

/// The search's verdict: every evaluated candidate (deterministic
/// order: by descending score, ties by name) plus the pool it ended on.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// All candidates across all rounds, sorted worst-for-Libra first.
    pub evaluated: Vec<Candidate>,
}

impl SearchOutcome {
    /// Names of the `k` highest-scoring candidates (the CI smoke
    /// compares this list across worker counts).
    pub fn top_k(&self, k: usize) -> Vec<String> {
        self.evaluated
            .iter()
            .take(k)
            .map(|c| c.spec.name.clone())
            .collect()
    }

    /// Candidates crossing any pin threshold, worst first.
    pub fn failures(&self) -> Vec<(&Candidate, Objective)> {
        self.evaluated
            .iter()
            .filter_map(|c| objective_of(c).map(|o| (c, o)))
            .collect()
    }
}

/// The pin threshold `c` crosses, if any (most severe first: a
/// policy-fault ladder engagement outranks a guardrail trip, which
/// outranks a utility gap).
pub fn objective_of(c: &Candidate) -> Option<Objective> {
    if c.fallback_ticks >= PIN_FALLBACK_TICKS || c.quarantines > 0 {
        return Some(Objective::PolicyFault);
    }
    if c.guardrail_trips >= PIN_TRIPS {
        return Some(Objective::GuardrailTrip);
    }
    if multi_flow(&c.spec) && c.jain < PIN_JAIN {
        return Some(Objective::Unfair);
    }
    if c.parent_goodput > 1.0 && c.libra_goodput < PIN_GOODPUT_RATIO * c.parent_goodput {
        return Some(Objective::LowUtility);
    }
    None
}

fn multi_flow(spec: &ScenarioSpec) -> bool {
    match &spec.workload {
        Workload::Single => false,
        Workload::Pair { .. } | Workload::Fleet { .. } | Workload::Churn { .. } => true,
        Workload::Staggered { flows, .. } => *flows > 1,
    }
}

// --- Mutation operators -------------------------------------------------

fn mutate_link(link: LinkSpec, rng: &mut DetRng) -> LinkSpec {
    let scale = |v: f64, rng: &mut DetRng| (v * rng.uniform_range(0.4, 1.6)).max(1.0);
    match link {
        LinkSpec::Wired { mbps } => LinkSpec::Wired {
            mbps: scale(mbps, rng),
        },
        LinkSpec::Constant {
            mbps,
            rtt_ms,
            bdp_mult,
            loss,
        } => LinkSpec::Constant {
            mbps: scale(mbps, rng),
            rtt_ms: rng.uniform_u64(10, 301).max(rtt_ms / 4),
            bdp_mult: (bdp_mult * rng.uniform_range(0.25, 4.0)).clamp(0.1, 16.0),
            loss: if rng.chance(0.3) {
                rng.uniform_range(0.0, 0.08)
            } else {
                loss
            },
        },
        LinkSpec::ConstantBuf {
            mbps,
            rtt_ms,
            buffer_kb,
        } => LinkSpec::ConstantBuf {
            mbps: scale(mbps, rng),
            rtt_ms,
            buffer_kb: ((buffer_kb as f64 * rng.uniform_range(0.25, 4.0)) as u64).max(15),
        },
        LinkSpec::Lte { scenario, salt } => LinkSpec::Lte {
            scenario,
            salt: salt ^ rng.uniform_u64(1, 1 << 16),
        },
        LinkSpec::Step => LinkSpec::Step,
        LinkSpec::Wan { inter, salt } => LinkSpec::Wan {
            inter: if rng.chance(0.25) { !inter } else { inter },
            salt: salt ^ rng.uniform_u64(1, 1 << 16),
        },
        LinkSpec::Satellite { salt } => LinkSpec::Satellite {
            salt: salt ^ rng.uniform_u64(1, 1 << 16),
        },
        LinkSpec::FiveG { salt } => LinkSpec::FiveG {
            salt: salt ^ rng.uniform_u64(1, 1 << 16),
        },
        LinkSpec::Leo {
            mbps,
            period_s: _,
            outage_ms: _,
            salt,
        } => LinkSpec::Leo {
            mbps: scale(mbps, rng),
            period_s: rng.uniform_u64(5, 31).max(1),
            outage_ms: rng.uniform_u64(100, 1501),
            salt: salt ^ rng.uniform_u64(1, 1 << 16),
        },
        LinkSpec::Datacenter => LinkSpec::Datacenter,
    }
}

fn mutate_queue(queue: QueueSpec, nominal_mbps: f64, rng: &mut DetRng) -> QueueSpec {
    match rng.uniform_u64(0, 5) {
        0 => QueueSpec::Droptail,
        1 => QueueSpec::Codel {
            target_ms: rng.uniform_u64(2, 21),
            interval_ms: rng.uniform_u64(40, 201),
        },
        2 => QueueSpec::Pie {
            target_ms: rng.uniform_u64(5, 31),
            update_ms: rng.uniform_u64(10, 31),
        },
        3 => QueueSpec::TokenBucket {
            // A policer biting below the line rate is the interesting case.
            mbps: (nominal_mbps * rng.uniform_range(0.4, 0.95)).max(1.0),
            burst_kb: rng.uniform_u64(15, 301),
        },
        _ => queue,
    }
}

fn mutate_workload(workload: Workload, rng: &mut DetRng) -> Workload {
    let pool = [Cca::Cubic, Cca::Bbr, Cca::Copa, Cca::Vegas, Cca::NewReno];
    let pick = |rng: &mut DetRng| pool[rng.uniform_u64(0, pool.len() as u64) as usize];
    match rng.uniform_u64(0, 6) {
        0 => Workload::Pair {
            competitor: pick(rng),
        },
        1 => {
            let n = rng.uniform_u64(2, 5) as usize;
            Workload::Fleet {
                members: (0..n).map(|_| pick(rng)).collect(),
            }
        }
        2 => Workload::Churn {
            mouse: pick(rng),
            mice: rng.uniform_u64(2, 7) as usize,
            mouse_secs: rng.uniform_u64(2, 5),
            period: Duration::from_secs(rng.uniform_u64(3, 7)),
        },
        _ => workload,
    }
}

/// Mutate `parent` into round-`round` candidate `index`. Pure in
/// `(parent, rng state)`; the result always validates.
pub fn mutate(parent: &ScenarioSpec, rng: &mut DetRng, round: usize, index: usize) -> ScenarioSpec {
    let mut spec = parent.clone();
    spec.link = mutate_link(spec.link, rng);
    spec.queue = mutate_queue(spec.queue, spec.link.nominal_mbps(), rng);
    spec.workload = mutate_workload(spec.workload.clone(), rng);
    spec.name = format!("search-r{round}-c{index}");
    if spec.validate().is_err() {
        // A mutation walked out of bounds; fall back to a renamed parent
        // so the round keeps its deterministic shape.
        spec = parent.clone();
        spec.name = format!("search-r{round}-c{index}");
    }
    spec
}

// --- Evaluation ---------------------------------------------------------

/// The sweep jobs evaluating one candidate: the controller under test
/// (traced, for guardrail counting) followed by each parent CCA on the
/// byte-identical scenario.
pub fn evaluate_candidate(spec: &ScenarioSpec, cfg: &SearchConfig, run_seed: u64) -> Vec<RunSpec> {
    let mut under_test = spec.to_run_spec(cfg.under_test, run_seed).with_trace();
    if let Some(chaos) = &cfg.policy_chaos {
        under_test = under_test.with_policy_faults(chaos.clone());
    }
    let mut jobs = vec![under_test];
    for &p in &cfg.parents {
        jobs.push(spec.to_run_spec(p, run_seed));
    }
    jobs
}

fn eq1_utility(summary: &RunSummary) -> f64 {
    let f = &summary.flows[0];
    UtilityParams::default().evaluate(f.goodput_mbps, 0.0, f.loss_fraction)
}

fn score_candidate(c: &mut Candidate) {
    // Each objective normalized to ~[0, 1]; the composite is the max so
    // a candidate that is terrible in one dimension outranks one that is
    // mildly bad in all three.
    let util_gap = if c.parent_goodput > 1.0 {
        ((c.parent_goodput - c.libra_goodput) / c.parent_goodput).clamp(0.0, 1.0)
    } else {
        0.0
    };
    let unfair = if multi_flow(&c.spec) {
        (1.0 - c.jain).clamp(0.0, 1.0)
    } else {
        0.0
    };
    let trips = (c.guardrail_trips as f64 / 4.0).min(1.0);
    // Ladder engagements and quarantines only occur under injected
    // faults; a handful saturates the term — the interesting signal is
    // "the ladder engaged at all on this scenario shape".
    let policy = ((c.fallback_ticks + c.quarantines) as f64 / 8.0).min(1.0);
    c.score = util_gap.max(unfair).max(trips).max(policy);
}

/// Run the adversarial search. Deterministic in `cfg` (any worker
/// count, with or without a journal resume in between rounds).
pub fn search(store: &ModelStore, cfg: &SearchConfig) -> SearchOutcome {
    let policy = SweepPolicy::default();
    let mut root = DetRng::new(cfg.seed ^ 0xAD5E);
    let mut pool = zoo_corpus(cfg.secs);
    let mut evaluated: Vec<Candidate> = Vec::new();

    for round in 0..cfg.rounds {
        let mut round_rng = root.fork(&format!("round-{round}"));
        let mut candidates: Vec<Candidate> = (0..cfg.population)
            .map(|index| {
                let mut crng = round_rng.fork(&format!("cand-{index}"));
                let parent = &pool[(round * cfg.population + index) % pool.len()];
                let spec = mutate(parent, &mut crng, round, index);
                Candidate {
                    spec,
                    parent: parent.name.clone(),
                    round,
                    index,
                    run_seed: cfg.seed ^ (round as u64) << 8 ^ index as u64,
                    libra_goodput: 0.0,
                    libra_utility: 0.0,
                    parent_goodput: 0.0,
                    parent_utility: 0.0,
                    jain: 1.0,
                    guardrail_trips: 0,
                    policy_faults: 0,
                    quarantines: 0,
                    fallback_ticks: 0,
                    score: 0.0,
                }
            })
            .collect();

        let jobs: Vec<RunSpec> = candidates
            .iter()
            .flat_map(|c| evaluate_candidate(&c.spec, cfg, c.run_seed))
            .collect();
        let mut journal = cfg.journal_tag.as_ref().and_then(|tag| {
            crate::journal::Journal::for_bin(&format!("{tag}_r{round}"), cfg.resume).ok()
        });
        let report =
            run_sweep_supervised_with(store, jobs, cfg.workers, &policy, None, journal.as_mut());

        let per = 1 + cfg.parents.len();
        for (i, c) in candidates.iter_mut().enumerate() {
            let slots = &report.slots[i * per..(i + 1) * per];
            let Ok(libra) = &slots[0] else {
                // The candidate crashed/livelocked Libra's run: maximally
                // interesting, but with nothing to score; flag via score.
                c.score = 1.0;
                continue;
            };
            c.libra_goodput = libra.flows[0].goodput_mbps;
            c.libra_utility = eq1_utility(libra);
            c.jain = libra.jain;
            c.guardrail_trips = libra.guardrail_trips;
            c.policy_faults = libra.policy_faults_injected;
            c.quarantines = libra.quarantines;
            c.fallback_ticks = libra.fallback_ticks;
            for parent in slots[1..].iter().flatten() {
                let g = parent.flows[0].goodput_mbps;
                if g > c.parent_goodput {
                    c.parent_goodput = g;
                    c.parent_utility = eq1_utility(parent);
                }
            }
            score_candidate(c);
        }

        // Elitism: the worst-for-Libra half of this round seeds the next
        // round's pool alongside the original zoo.
        let mut ranked = candidates.clone();
        ranked.sort_by(|a, b| {
            b.score
                .total_cmp(&a.score)
                .then_with(|| a.spec.name.cmp(&b.spec.name))
        });
        pool = zoo_corpus(cfg.secs);
        for c in ranked.iter().take((cfg.population / 2).max(1)) {
            pool.push(c.spec.clone());
        }
        evaluated.extend(candidates);
    }

    evaluated.sort_by(|a, b| {
        b.score
            .total_cmp(&a.score)
            .then_with(|| a.spec.name.cmp(&b.spec.name))
    });
    SearchOutcome { evaluated }
}

// --- Pinning ------------------------------------------------------------

/// A discovered failure, frozen as data: everything a regression test
/// needs to rebuild the identical run and re-check the identical verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct PinnedRegression {
    /// Pin name (also the filename stem).
    pub name: String,
    /// Which threshold the scenario crossed.
    pub objective: Objective,
    /// The frozen scenario.
    pub spec: ScenarioSpec,
    /// Run seed of the discovering evaluation.
    pub run_seed: u64,
    /// Model-store seed (replays use `ModelStore::ephemeral(this)`).
    pub store_seed: u64,
    /// Goodput the Libra flow achieved at discovery (Mbps).
    pub libra_goodput: f64,
    /// Best parent goodput at discovery (Mbps).
    pub parent_goodput: f64,
    /// Jain index at discovery.
    pub jain: f64,
    /// Guardrail trips at discovery.
    pub guardrail_trips: u64,
    /// The fault plan active at discovery (chaos mode); replays restore
    /// it so the pinned behaviour reproduces byte-identically.
    pub policy_chaos: Option<PolicyChaosSpec>,
    /// Degradation-ladder fallback ticks at discovery.
    pub fallback_ticks: u64,
    /// Boundary quarantines at discovery.
    pub quarantines: u64,
}

// Manual serde: the vendored derive has no missing-field defaults, and
// the pinned corpus under `tests/pinned/` predates the chaos fields.
// New fields are serialized only when set and default when absent, so
// old pin files keep loading and old readers keep parsing faults-off
// pins byte-identically.
impl Serialize for PinnedRegression {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("name".into(), self.name.to_value()),
            ("objective".into(), self.objective.to_value()),
            ("spec".into(), self.spec.to_value()),
            ("run_seed".into(), self.run_seed.to_value()),
            ("store_seed".into(), self.store_seed.to_value()),
            ("libra_goodput".into(), self.libra_goodput.to_value()),
            ("parent_goodput".into(), self.parent_goodput.to_value()),
            ("jain".into(), self.jain.to_value()),
            ("guardrail_trips".into(), self.guardrail_trips.to_value()),
        ];
        if let Some(chaos) = &self.policy_chaos {
            fields.push(("policy_chaos".into(), chaos.to_value()));
        }
        if self.fallback_ticks != 0 {
            fields.push(("fallback_ticks".into(), self.fallback_ticks.to_value()));
        }
        if self.quarantines != 0 {
            fields.push(("quarantines".into(), self.quarantines.to_value()));
        }
        Value::Object(fields)
    }
}

impl Deserialize for PinnedRegression {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(PinnedRegression {
            name: Deserialize::from_value(get_field(v, "name")?)?,
            objective: Deserialize::from_value(get_field(v, "objective")?)?,
            spec: Deserialize::from_value(get_field(v, "spec")?)?,
            run_seed: Deserialize::from_value(get_field(v, "run_seed")?)?,
            store_seed: Deserialize::from_value(get_field(v, "store_seed")?)?,
            libra_goodput: Deserialize::from_value(get_field(v, "libra_goodput")?)?,
            parent_goodput: Deserialize::from_value(get_field(v, "parent_goodput")?)?,
            jain: Deserialize::from_value(get_field(v, "jain")?)?,
            guardrail_trips: Deserialize::from_value(get_field(v, "guardrail_trips")?)?,
            policy_chaos: match get_field(v, "policy_chaos") {
                Ok(val) => Some(Deserialize::from_value(val)?),
                Err(_) => None,
            },
            fallback_ticks: match get_field(v, "fallback_ticks") {
                Ok(val) => Deserialize::from_value(val)?,
                Err(_) => 0,
            },
            quarantines: match get_field(v, "quarantines") {
                Ok(val) => Deserialize::from_value(val)?,
                Err(_) => 0,
            },
        })
    }
}

impl PinnedRegression {
    /// Replay the pinned scenario and re-check its objective. `Ok` means
    /// the failure still reproduces (the regression stays pinned);
    /// `Err` describes what no longer matches.
    pub fn replay(&self, cfg: &SearchConfig) -> Result<(), String> {
        let store = ModelStore::ephemeral(self.store_seed);
        // The pin's own fault plan (or its absence) overrides whatever
        // chaos mode the replaying config happens to be in: a faults-off
        // pin must replay faults-off bytes.
        let mut cfg = cfg.clone();
        cfg.policy_chaos = self.policy_chaos.clone();
        let cfg = &cfg;
        let jobs = evaluate_candidate(&self.spec, cfg, self.run_seed);
        let results: Vec<RunSummary> = jobs
            .iter()
            .map(|j| crate::run::run_spec(&store, j))
            .collect();
        let libra = &results[0];
        match self.objective {
            Objective::PolicyFault => {
                if libra.fallback_ticks < PIN_FALLBACK_TICKS && libra.quarantines == 0 {
                    return Err(format!(
                        "{}: ladder no longer engages (fallback ticks {} < {}, \
                         quarantines {}; was {} / {})",
                        self.name,
                        libra.fallback_ticks,
                        PIN_FALLBACK_TICKS,
                        libra.quarantines,
                        self.fallback_ticks,
                        self.quarantines
                    ));
                }
            }
            Objective::GuardrailTrip => {
                if libra.guardrail_trips < PIN_TRIPS {
                    return Err(format!(
                        "{}: guardrail trips {} < pinned {} (was {})",
                        self.name, libra.guardrail_trips, PIN_TRIPS, self.guardrail_trips
                    ));
                }
            }
            Objective::Unfair => {
                if libra.jain >= PIN_JAIN {
                    return Err(format!(
                        "{}: jain {:.3} no longer below {PIN_JAIN} (was {:.3})",
                        self.name, libra.jain, self.jain
                    ));
                }
            }
            Objective::LowUtility => {
                let best = results[1..]
                    .iter()
                    .map(|r| r.flows[0].goodput_mbps)
                    .fold(0.0_f64, f64::max);
                let libra_g = libra.flows[0].goodput_mbps;
                if best <= 1.0 || libra_g >= PIN_GOODPUT_RATIO * best {
                    return Err(format!(
                        "{}: goodput {libra_g:.2} vs best parent {best:.2} no longer \
                         below the {PIN_GOODPUT_RATIO} ratio (was {:.2} vs {:.2})",
                        self.name, self.libra_goodput, self.parent_goodput
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Freeze the outcome's threshold-crossing candidates as pin files under
/// `dir` (`<name>.json`, serde round-trippable). At most one pin per
/// `(objective, parent scenario)`, and objectives are interleaved
/// (worst guardrail find, then worst unfair find, then worst utility
/// find, then seconds…) so the pinned set stays diverse even when one
/// objective dominates the ranking. Returns the pins written.
pub fn pin_failures(
    outcome: &SearchOutcome,
    dir: &Path,
    max_pins: usize,
) -> std::io::Result<Vec<PinnedRegression>> {
    std::fs::create_dir_all(dir)?;
    let failures = outcome.failures();
    let mut queues: Vec<(Objective, Vec<&Candidate>)> = [
        Objective::PolicyFault,
        Objective::GuardrailTrip,
        Objective::Unfair,
        Objective::LowUtility,
    ]
    .into_iter()
    .map(|o| {
        let q: Vec<&Candidate> = failures
            .iter()
            .filter(|(_, fo)| *fo == o)
            .map(|(c, _)| *c)
            .collect();
        (o, q)
    })
    .collect();
    let mut picked: Vec<(&Candidate, Objective)> = Vec::new();
    let mut seen: Vec<(Objective, String)> = Vec::new();
    let mut progressed = true;
    while picked.len() < max_pins && progressed {
        progressed = false;
        for (objective, queue) in &mut queues {
            if picked.len() >= max_pins {
                break;
            }
            while let Some(c) = queue.first().copied() {
                queue.remove(0);
                let key = (*objective, c.parent.clone());
                if seen.contains(&key) {
                    continue;
                }
                seen.push(key);
                picked.push((c, *objective));
                progressed = true;
                break;
            }
        }
    }
    let mut pins = Vec::new();
    for (c, objective) in picked {
        let pin = PinnedRegression {
            name: format!("{}-{}", objective.label(), c.spec.name),
            objective,
            spec: c.spec.clone(),
            run_seed: c.run_seed,
            store_seed: 0, // filled by the caller when it knows the store
            libra_goodput: c.libra_goodput,
            parent_goodput: c.parent_goodput,
            jain: c.jain,
            guardrail_trips: c.guardrail_trips,
            policy_chaos: None, // filled by the caller alongside store_seed
            fallback_ticks: c.fallback_ticks,
            quarantines: c.quarantines,
        };
        pins.push(pin);
    }
    Ok(pins)
}

/// Serialize a pin to its JSON file under `dir`.
pub fn write_pin(pin: &PinnedRegression, dir: &Path) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.json", pin.name));
    let json = serde_json::to_string(pin)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write(&path, json)?;
    Ok(path)
}

/// Load every `*.json` pin under `dir`, sorted by filename for
/// deterministic test order. A pin whose scenario or fault plan fails
/// validation is `InvalidData` naming the file, like one that does not
/// parse.
pub fn load_pins(dir: &Path) -> std::io::Result<Vec<PinnedRegression>> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    let mut pins = Vec::new();
    for p in paths {
        let text = std::fs::read_to_string(&p)?;
        let pin = serde_json::from_str::<PinnedRegression>(&text)
            .map_err(|e| e.to_string())
            .and_then(|pin| {
                pin.spec.validate()?;
                pin.policy_chaos.as_ref().map_or(Ok(()), |c| c.validate())?;
                Ok(pin)
            })
            .map_err(|e| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("{}: {e}", p.display()),
                )
            })?;
        pins.push(pin);
    }
    Ok(pins)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutation_is_deterministic_and_valid() {
        let corpus = zoo_corpus(10);
        let mut a = DetRng::new(9);
        let mut b = DetRng::new(9);
        for (i, parent) in corpus.iter().enumerate() {
            let x = mutate(parent, &mut a, 0, i);
            let y = mutate(parent, &mut b, 0, i);
            assert_eq!(x, y);
            x.validate().expect("mutants must validate");
        }
    }

    #[test]
    fn objective_thresholds() {
        let mut c = Candidate {
            spec: zoo_corpus(10)[0].clone(),
            parent: "p".into(),
            round: 0,
            index: 0,
            run_seed: 1,
            libra_goodput: 5.0,
            libra_utility: 0.0,
            parent_goodput: 10.0,
            parent_utility: 0.0,
            jain: 1.0,
            guardrail_trips: 0,
            policy_faults: 0,
            quarantines: 0,
            fallback_ticks: 0,
            score: 0.0,
        };
        assert_eq!(objective_of(&c), Some(Objective::LowUtility));
        c.guardrail_trips = 2;
        assert_eq!(objective_of(&c), Some(Objective::GuardrailTrip));
        // A ladder engagement outranks everything else.
        c.fallback_ticks = 1;
        assert_eq!(objective_of(&c), Some(Objective::PolicyFault));
        c.fallback_ticks = 0;
        c.quarantines = 1;
        assert_eq!(objective_of(&c), Some(Objective::PolicyFault));
        c.quarantines = 0;
        c.guardrail_trips = 0;
        c.libra_goodput = 9.9;
        assert_eq!(objective_of(&c), None);
        score_candidate(&mut c);
        assert!(c.score < 0.05);
    }

    #[test]
    fn pins_round_trip_through_json() {
        let pin = PinnedRegression {
            name: "low-utility-search-r0-c1".into(),
            objective: Objective::LowUtility,
            spec: zoo_corpus(10)[3].clone(),
            run_seed: 42,
            store_seed: 7,
            libra_goodput: 3.2,
            parent_goodput: 9.5,
            jain: 0.99,
            guardrail_trips: 0,
            policy_chaos: None,
            fallback_ticks: 0,
            quarantines: 0,
        };
        let json = serde_json::to_string(&pin).expect("pin serializes");
        // A faults-off pin must not leak the chaos fields into its JSON:
        // the on-disk corpus shape predates them.
        assert!(!json.contains("policy_chaos"));
        assert!(!json.contains("fallback_ticks"));
        let back: PinnedRegression = serde_json::from_str(&json).expect("pin parses");
        assert_eq!(pin, back);
    }

    #[test]
    fn chaos_pins_round_trip_with_fault_plan() {
        let pin = PinnedRegression {
            name: "policy-fault-search-r0-c0".into(),
            objective: Objective::PolicyFault,
            spec: zoo_corpus(10)[0].clone(),
            run_seed: 9,
            store_seed: 9,
            libra_goodput: 4.0,
            parent_goodput: 8.0,
            jain: 0.9,
            guardrail_trips: 1,
            policy_chaos: Some(PolicyChaosSpec::standard(9, 10)),
            fallback_ticks: 12,
            quarantines: 2,
        };
        let json = serde_json::to_string(&pin).expect("pin serializes");
        let back: PinnedRegression = serde_json::from_str(&json).expect("pin parses");
        assert_eq!(pin, back);
    }

    #[test]
    fn legacy_pin_json_without_chaos_fields_still_loads() {
        // Byte shape of the pre-chaos pinned corpus (flat derived-serde
        // form, no policy fields): loading must default them.
        let pin = PinnedRegression {
            name: "legacy".into(),
            objective: Objective::GuardrailTrip,
            spec: zoo_corpus(10)[1].clone(),
            run_seed: 3,
            store_seed: 3,
            libra_goodput: 1.0,
            parent_goodput: 2.0,
            jain: 1.0,
            guardrail_trips: 4,
            policy_chaos: None,
            fallback_ticks: 0,
            quarantines: 0,
        };
        let json = serde_json::to_string(&pin).expect("serializes");
        let back: PinnedRegression = serde_json::from_str(&json).expect("parses");
        assert_eq!(back.policy_chaos, None);
        assert_eq!(back.fallback_ticks, 0);
        assert_eq!(back.quarantines, 0);
    }

    #[test]
    fn pins_failing_validation_do_not_load() {
        let dir = crate::output::experiment_dir().join(format!("test_pins_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut pin = PinnedRegression {
            name: "checked".into(),
            objective: Objective::PolicyFault,
            spec: zoo_corpus(10)[0].clone(),
            run_seed: 1,
            store_seed: 1,
            libra_goodput: 1.0,
            parent_goodput: 2.0,
            jain: 1.0,
            guardrail_trips: 0,
            policy_chaos: Some(PolicyChaosSpec::standard(1, 10)),
            fallback_ticks: 0,
            quarantines: 0,
        };
        write_pin(&pin, &dir).expect("pin dir is writable");
        assert_eq!(load_pins(&dir).expect("valid pin loads"), vec![pin.clone()]);
        let rejected = |dir: &Path| {
            let err = load_pins(dir).expect_err("invalid pin must not load");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("checked.json"), "{err}");
        };
        // A `Workload` cannot hold an unknown label, so that pin is
        // written as raw JSON.
        let mut bad_spec = pin.clone();
        bad_spec.spec.workload = Workload::Pair {
            competitor: Cca::Cubic,
        };
        let unknown_cca = serde_json::to_string(&bad_spec)
            .expect("serializes")
            .replace(r#""competitor":"CUBIC""#, r#""competitor":"NoSuchCca""#);
        std::fs::write(dir.join("checked.json"), unknown_cca).expect("pin dir is writable");
        rejected(&dir);
        pin.policy_chaos = Some(PolicyChaosSpec::new(1).with("nan-action", 0, u64::MAX, 0.5));
        write_pin(&pin, &dir).expect("pin dir is writable");
        rejected(&dir);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tiny_search_is_deterministic_across_workers() {
        let store = ModelStore::ephemeral(3);
        let mut cfg = SearchConfig::smoke(11, 1, 2, 2, 1);
        cfg.under_test = Cca::Cubic; // keep the smoke model-free
        cfg.parents = vec![Cca::Bbr];
        let a = search(&store, &cfg);
        cfg.workers = 3;
        let b = search(&store, &cfg);
        assert_eq!(a.top_k(2), b.top_k(2));
        assert_eq!(a.evaluated.len(), 2);
        for (x, y) in a.evaluated.iter().zip(&b.evaluated) {
            assert_eq!(x.spec, y.spec);
            assert_eq!(x.libra_goodput, y.libra_goodput);
            assert_eq!(x.score, y.score);
        }
    }
}
