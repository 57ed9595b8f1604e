//! lint-fixture: crates/core/src/demo.rs
//! Clean: the cycle's candidates live in a fixed array of slots, the
//! decision path refills the caller's buffer, and allocating is fine
//! off the per-MI path (set-up, reports).

#[derive(Clone, Copy)]
pub struct Slot {
    kind: u8,
    rate: u64,
}

pub struct Demo {
    slots: [Slot; 2],
    len: usize,
}

impl Demo {
    pub fn new() -> Demo {
        Demo {
            slots: [Slot { kind: 0, rate: 0 }; 2],
            len: 0,
        }
    }

    fn enter_eval(&mut self, x_rl: u64, x_cl: u64) {
        let learned = Slot { kind: 1, rate: x_rl };
        let classic = Slot { kind: 2, rate: x_cl };
        self.slots = if x_cl < x_rl {
            [classic, learned]
        } else {
            [learned, classic]
        };
        self.len = 2;
    }

    pub fn mi_submit(&mut self, policy_state: &mut Vec<f64>) -> bool {
        policy_state.clear();
        policy_state.extend(self.slots[..self.len].iter().map(|s| s.rate as f64));
        self.slots[0].kind != 0
    }

    pub fn report(&self) -> Vec<Slot> {
        self.slots[..self.len].to_vec()
    }
}
