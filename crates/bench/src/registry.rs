//! The CCA registry: every controller the evaluation compares, behind a
//! uniform factory so experiment binaries can iterate over them.

use crate::models::ModelStore;
use libra_classic::{Bbr, Copa, Cubic, Illinois, NewReno, Vegas, Westwood};
use libra_core::{Libra, LibraVariant};
use libra_learned::{Indigo, Orca, Pcc, Remy, RlCca, RlCcaConfig, Sprout};
use libra_rl::PpoAgent;
use libra_types::{CongestionControl, Preference};
use std::cell::RefCell;
use std::rc::Rc;

/// Every congestion controller in the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
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
}

impl Cca {
    /// Every controller at its default preference, in declaration order:
    /// the report card's rows, and the list [`crate::cca_from_name`]
    /// inverts [`Cca::label`] over.
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
        }
    }

    /// Whether this controller needs a trained PPO agent.
    pub fn needs_model(self) -> bool {
        matches!(
            self,
            Cca::Aurora
                | Cca::Orca
                | Cca::ModRl
                | Cca::CleanSlateLibra
                | Cca::CLibra(_)
                | Cca::BLibra(_)
        )
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
            Cca::CleanSlateLibra => store.libra(LibraVariant::CleanSlate),
            Cca::CLibra(_) => store.libra(LibraVariant::Cubic),
            Cca::BLibra(_) => store.libra(LibraVariant::Bbr),
            _ => return None,
        };
        let mut agent = PpoAgent::from_weights(w, &mut store.agent_rng());
        agent.set_eval(true);
        Some(Rc::new(RefCell::new(agent)))
    }

    /// Instantiate the controller around a shared eval-mode agent (from
    /// [`Cca::shared_eval_agent`]) instead of a per-flow copy. Classic
    /// controllers ignore the agent and build normally.
    pub fn build_shared(
        self,
        store: &ModelStore,
        agent: &Rc<RefCell<PpoAgent>>,
    ) -> Box<dyn CongestionControl> {
        match self {
            Cca::Aurora => Box::new(RlCca::new(RlCcaConfig::aurora(), Rc::clone(agent))),
            Cca::ModRl => Box::new(RlCca::new(RlCcaConfig::mod_rl(), Rc::clone(agent))),
            Cca::Orca => Box::new(Orca::new(Rc::clone(agent))),
            Cca::CleanSlateLibra => Box::new(Libra::clean_slate(Rc::clone(agent))),
            Cca::CLibra(pref) => Box::new(Libra::c_libra(Rc::clone(agent)).with_preference(pref)),
            Cca::BLibra(pref) => Box::new(Libra::b_libra(Rc::clone(agent)).with_preference(pref)),
            _ => self.build(store),
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
            Cca::Aurora
            | Cca::Orca
            | Cca::ModRl
            | Cca::CleanSlateLibra
            | Cca::CLibra(_)
            | Cca::BLibra(_) => {
                let agent = self
                    .shared_eval_agent(store)
                    .expect("model-backed CCAs have trained weights");
                self.build_shared(store, &agent)
            }
        }
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
    fn headline_set_has_both_libras() {
        let set = Cca::headline_set();
        assert!(set.contains(&Cca::CLibra(Preference::Default)));
        assert!(set.contains(&Cca::BLibra(Preference::Default)));
        assert!(set.len() >= 12);
    }
}
