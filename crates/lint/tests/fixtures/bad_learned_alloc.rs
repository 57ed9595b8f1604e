//! lint-fixture: crates/learned/src/demo.rs
//! Expect: `no-per-packet-alloc` — heap allocation on a learned arm's
//! per-decision path: the history step rebuilt as a fresh `Vec` every
//! MI, and the action copied out of the policy's response.

use std::collections::VecDeque;

pub struct Demo {
    history: VecDeque<Vec<f64>>,
    last_good: Option<Vec<f64>>,
}

impl Demo {
    fn push_step(&mut self, rate: f64, rtt: f64) {
        self.history.push_back(vec![rate, rtt]);
        if self.history.len() > 8 {
            self.history.pop_front();
        }
    }

    pub fn resolve(&mut self, action: &[f64]) -> bool {
        let valid = action.iter().all(|a| a.is_finite());
        if valid {
            self.last_good = Some(action.to_vec());
        }
        valid
    }
}
