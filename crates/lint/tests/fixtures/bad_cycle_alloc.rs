//! lint-fixture: crates/core/src/demo.rs
//! Expect: `no-per-packet-alloc` — heap allocation on Libra's per-MI
//! cycle path: the candidate list rebuilt as fresh `Vec`s every time
//! evaluation begins, and a state buffer made per decision.

pub struct Demo {
    ordered: Vec<(u8, u64)>,
    measured: Vec<Option<u64>>,
}

impl Demo {
    fn enter_eval(&mut self, x_rl: u64, x_cl: u64) {
        let mut cands = vec![(1, x_rl)];
        cands.push((2, x_cl));
        self.measured = vec![None; cands.len()];
        self.ordered = cands;
    }

    pub fn mi_submit(&mut self, policy_state: &mut Vec<f64>) -> bool {
        *policy_state = Vec::new();
        !self.ordered.is_empty()
    }
}
