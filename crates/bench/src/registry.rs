//! The CCA registry: every controller the evaluation compares, behind a
//! uniform factory so experiment binaries can iterate over them.

use crate::models::ModelStore;
use libra_classic::{Bbr, Copa, Cubic, Dctcp, Illinois, NewReno, Vegas, Westwood};
use libra_core::{Libra, LibraParams, LibraVariant};
use libra_learned::{Indigo, Orca, Pcc, Remy, RlCca, RlCcaConfig, Sprout};
use libra_rl::PpoAgent;
use libra_types::{CongestionControl, Preference};
use serde::{DeError, Deserialize, Serialize, Value};
use std::cell::RefCell;
use std::rc::Rc;

/// Every congestion controller in the evaluation.
///
/// A value names one controller and its parameters; no `Eq`/`Ord`,
/// because a tuned Libra carries `f64` parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cca {
    /// TCP NewReno.
    NewReno,
    /// CUBIC.
    Cubic,
    /// BBR v1.
    Bbr,
    /// TCP Vegas.
    Vegas,
    /// TCP Westwood+.
    Westwood,
    /// TCP Illinois.
    Illinois,
    /// Copa.
    Copa,
    /// Sprout-lite.
    Sprout,
    /// Remy-lite.
    Remy,
    /// Indigo-lite.
    Indigo,
    /// PCC Vivace.
    Vivace,
    /// PCC Proteus.
    Proteus,
    /// Aurora (PPO, trained).
    Aurora,
    /// Orca (CUBIC × DRL hybrid, trained).
    Orca,
    /// Modified RL (Eq. 1 utility as reward, trained).
    ModRl,
    /// Clean-Slate Libra (framework without classic CCA, trained).
    CleanSlateLibra,
    /// C-Libra with a preference profile.
    CLibra(Preference),
    /// B-Libra with a preference profile.
    BLibra(Preference),
    /// DCTCP (Sec. 7's datacenter extension; not in [`Cca::ALL`]).
    Dctcp,
    /// A tuned Libra (not in [`Cca::ALL`]): the RL arm serves
    /// `variant`'s trained weights, the classic arm is `variant`'s own
    /// unless `classic` names another controller, and the cycle runs on
    /// `params`. [`Cca::CLibra`], [`Cca::BLibra`] and
    /// [`Cca::CleanSlateLibra`] are shorthands for its default spellings.
    Libra {
        /// The variant whose trained weights the RL arm serves.
        variant: LibraVariant,
        /// A classic arm in place of the variant's own (Sec. 7 runs
        /// DCTCP inside Libra on the datacenter link).
        classic: Option<&'static Cca>,
        /// The cycle parameters (Fig. 19 / Tab. 7 sensitivity, the
        /// evaluation-order ablation).
        params: LibraParams,
    },
}

impl Cca {
    /// Every controller at its default preference, in declaration order:
    /// the report card's rows, and the list [`cca_from_name`] inverts
    /// [`Cca::label`] over.
    pub const ALL: [Cca; 18] = [
        Cca::NewReno,
        Cca::Cubic,
        Cca::Bbr,
        Cca::Vegas,
        Cca::Westwood,
        Cca::Illinois,
        Cca::Copa,
        Cca::Sprout,
        Cca::Remy,
        Cca::Indigo,
        Cca::Vivace,
        Cca::Proteus,
        Cca::Aurora,
        Cca::Orca,
        Cca::ModRl,
        Cca::CleanSlateLibra,
        Cca::CLibra(Preference::Default),
        Cca::BLibra(Preference::Default),
    ];

    /// The headline comparison set of Fig. 7.
    pub fn headline_set() -> Vec<Cca> {
        vec![
            Cca::Cubic,
            Cca::Bbr,
            Cca::Copa,
            Cca::Sprout,
            Cca::Remy,
            Cca::Indigo,
            Cca::Vivace,
            Cca::Proteus,
            Cca::Aurora,
            Cca::Orca,
            Cca::ModRl,
            Cca::CleanSlateLibra,
            Cca::CLibra(Preference::Default),
            Cca::BLibra(Preference::Default),
        ]
    }

    /// Display label matching the paper's figures.
    pub fn label(self) -> String {
        match self {
            Cca::NewReno => "NewReno".into(),
            Cca::Cubic => "CUBIC".into(),
            Cca::Bbr => "BBR".into(),
            Cca::Vegas => "Vegas".into(),
            Cca::Westwood => "Westwood".into(),
            Cca::Illinois => "Illinois".into(),
            Cca::Copa => "Copa".into(),
            Cca::Sprout => "Sprout".into(),
            Cca::Remy => "Remy".into(),
            Cca::Indigo => "Indigo".into(),
            Cca::Vivace => "Vivace".into(),
            Cca::Proteus => "Proteus".into(),
            Cca::Aurora => "Aurora".into(),
            Cca::Orca => "Orca".into(),
            Cca::ModRl => "Mod. RL".into(),
            Cca::CleanSlateLibra => "CL-Libra".into(),
            Cca::CLibra(Preference::Default) => "C-Libra".into(),
            Cca::BLibra(Preference::Default) => "B-Libra".into(),
            Cca::CLibra(p) => format!("C-Libra-{}", p.label()),
            Cca::BLibra(p) => format!("B-Libra-{}", p.label()),
            Cca::Dctcp => "DCTCP".into(),
            Cca::Libra {
                classic: Some(c), ..
            } => format!("Libra over {}", c.label()),
            Cca::Libra { variant, .. } => variant.label().into(),
        }
    }

    /// A Libra controller spelled as [`Cca::Libra`]'s fields: the
    /// variant whose weights it serves, its classic-arm override and its
    /// cycle parameters. `None` for every other controller.
    fn as_libra(self) -> Option<(LibraVariant, Option<&'static Cca>, LibraParams)> {
        let (variant, pref) = match self {
            Cca::Libra {
                variant,
                classic,
                params,
            } => return Some((variant, classic, params)),
            Cca::CleanSlateLibra => (LibraVariant::CleanSlate, Preference::Default),
            Cca::CLibra(pref) => (LibraVariant::Cubic, pref),
            Cca::BLibra(pref) => (LibraVariant::Bbr, pref),
            _ => return None,
        };
        Some((variant, None, variant.params().with_preference(pref)))
    }

    /// Whether this controller needs a trained PPO agent.
    pub fn needs_model(self) -> bool {
        matches!(self, Cca::Aurora | Cca::Orca | Cca::ModRl) || self.as_libra().is_some()
    }

    /// A shared eval-mode agent holding this controller's trained
    /// weights — the policy server's batch group. Flows built with
    /// [`Cca::build_shared`] against one such agent share a single
    /// weight set; eval inference never draws RNG or mutates the agent,
    /// so shared and per-flow agents produce bit-identical actions.
    /// `None` for classic controllers.
    pub fn shared_eval_agent(self, store: &ModelStore) -> Option<Rc<RefCell<PpoAgent>>> {
        let w = match self {
            Cca::Aurora => store.aurora(),
            Cca::ModRl => store.mod_rl(),
            Cca::Orca => store.orca(),
            _ => store.libra(self.as_libra()?.0),
        };
        let mut agent = PpoAgent::from_weights(w, &mut store.agent_rng());
        agent.set_eval(true);
        Some(Rc::new(RefCell::new(agent)))
    }

    /// Instantiate the controller around a shared eval-mode agent (from
    /// [`Cca::shared_eval_agent`]) instead of a per-flow copy. Classic
    /// controllers ignore the agent and build normally. Every Libra,
    /// shorthand or tuned, is built by the one arm below.
    pub fn build_shared(
        self,
        store: &ModelStore,
        agent: &Rc<RefCell<PpoAgent>>,
    ) -> Box<dyn CongestionControl> {
        let agent = Rc::clone(agent);
        match (self, self.as_libra()) {
            (Cca::Aurora, _) => Box::new(RlCca::new(RlCcaConfig::aurora(), agent)),
            (Cca::ModRl, _) => Box::new(RlCca::new(RlCcaConfig::mod_rl(), agent)),
            (Cca::Orca, _) => Box::new(Orca::new(agent)),
            (_, Some((variant, None, params))) => {
                Box::new(variant.build_with_params(params, agent))
            }
            (_, Some((_, Some(classic), params))) => Box::new(Libra::with_classic(
                "Libra",
                classic.build(store),
                params,
                agent,
            )),
            (_, None) => self.build(store),
        }
    }

    /// Instantiate the controller. Trained controllers pull weights from
    /// the model store (training on a cache miss) and run in eval mode.
    ///
    /// Takes `&ModelStore` so independent sweep workers can build their
    /// own controller instances from one shared store concurrently. Note
    /// the built controller itself is not `Send` (RL CCAs hold an
    /// `Rc<RefCell<PpoAgent>>`) — build on the thread that will run it.
    pub fn build(self, store: &ModelStore) -> Box<dyn CongestionControl> {
        match self {
            Cca::NewReno => Box::new(NewReno::new(1500)),
            Cca::Cubic => Box::new(Cubic::new(1500)),
            Cca::Bbr => Box::new(Bbr::new(1500)),
            Cca::Vegas => Box::new(Vegas::new(1500)),
            Cca::Westwood => Box::new(Westwood::new(1500)),
            Cca::Illinois => Box::new(Illinois::new(1500)),
            Cca::Copa => Box::new(Copa::new(1500)),
            Cca::Sprout => Box::new(Sprout::new(1500)),
            Cca::Remy => Box::new(Remy::new(1500)),
            Cca::Indigo => Box::new(Indigo::new(1500)),
            Cca::Vivace => Box::new(Pcc::vivace()),
            Cca::Proteus => Box::new(Pcc::proteus()),
            Cca::Dctcp => Box::new(Dctcp::new(1500)),
            Cca::Aurora
            | Cca::Orca
            | Cca::ModRl
            | Cca::CleanSlateLibra
            | Cca::CLibra(_)
            | Cca::BLibra(_)
            | Cca::Libra { .. } => {
                let agent = self
                    .shared_eval_agent(store)
                    .expect("model-backed CCAs have trained weights");
                self.build_shared(store, &agent)
            }
        }
    }
}

/// Parse a CCA display label back into the registry enum: the inverse
/// of [`Cca::label`] over [`Cca::ALL`]. Preference-suffixed, DCTCP and
/// tuned-Libra labels are not accepted — the corpus speaks the
/// default-preference dialect.
pub fn cca_from_name(name: &str) -> Option<Cca> {
    Cca::ALL.into_iter().find(|c| c.label() == name)
}

/// A controller serialises as its display label. Only [`Cca::ALL`]'s
/// labels read back; any other is a typed error.
impl Serialize for Cca {
    fn to_value(&self) -> Value {
        Value::Str(self.label())
    }
}

impl Deserialize for Cca {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let Value::Str(label) = v else {
            return Err(DeError::new("expected a CCA label"));
        };
        cca_from_name(label).ok_or_else(|| DeError::new(format!("unknown CCA label {label:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper() {
        assert_eq!(Cca::CLibra(Preference::Default).label(), "C-Libra");
        assert_eq!(Cca::CLibra(Preference::Latency1).label(), "C-Libra-La-1");
        assert_eq!(Cca::ModRl.label(), "Mod. RL");
    }

    #[test]
    fn classic_builds_without_models() {
        let store = ModelStore::ephemeral(1);
        for c in [Cca::Cubic, Cca::Bbr, Cca::Copa, Cca::Vivace, Cca::Remy] {
            assert!(!c.needs_model());
            let b = c.build(&store);
            assert!(!b.name().is_empty());
        }
    }

    #[test]
    fn every_label_round_trips_through_serde() {
        for c in Cca::ALL {
            let json = serde_json::to_string(&c).expect("serialize");
            assert_eq!(json, format!("{:?}", c.label()));
            let back: Cca = serde_json::from_str(&json).expect("deserialize");
            assert_eq!(back, c, "{json}");
        }
        for unknown in ["\"NoSuchCca\"", "\"DCTCP\"", "\"C-Libra-La-1\"", "3"] {
            assert!(serde_json::from_str::<Cca>(unknown).is_err(), "{unknown}");
        }
    }

    #[test]
    fn headline_set_has_both_libras() {
        let set = Cca::headline_set();
        assert!(set.contains(&Cca::CLibra(Preference::Default)));
        assert!(set.contains(&Cca::BLibra(Preference::Default)));
        assert!(set.len() >= 12);
    }
}
