//! lint-fixture: crates/learned/src/demo.rs
//! Clean: the step evicted from a full history is refilled in place,
//! the ladder caches the one action value it needs, and allocating is
//! fine off the per-decision path (construction).

use std::collections::VecDeque;

pub struct Demo {
    history: VecDeque<Vec<f64>>,
    last_good: Option<f64>,
}

impl Demo {
    pub fn new() -> Demo {
        Demo {
            history: VecDeque::with_capacity(8),
            last_good: None,
        }
    }

    fn push_step(&mut self, rate: f64, rtt: f64) {
        let mut step = if self.history.len() >= 8 {
            self.history.pop_front()
        } else {
            None
        }
        .unwrap_or_default();
        step.clear();
        step.extend([rate, rtt]);
        self.history.push_back(step);
    }

    pub fn resolve(&mut self, action: &[f64]) -> bool {
        match action {
            &[a] if a.is_finite() => {
                self.last_good = Some(a);
                true
            }
            _ => false,
        }
    }
}
