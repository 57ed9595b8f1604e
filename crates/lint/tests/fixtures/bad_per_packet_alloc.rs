//! lint-fixture: crates/netsim/src/demo.rs
//! Expect: `no-per-packet-alloc` — heap allocation inside a per-packet
//! hot function (the event loop enters `on_ack_packet` once per ACK) and
//! inside a per-decision one (`mi_tick_submit`, once per MI tick).

pub struct Demo;

impl Demo {
    pub fn on_ack_packet(&mut self) -> Vec<u64> {
        let mut losses = Vec::new();
        losses.push(1);
        losses
    }

    pub fn mi_tick_submit(&mut self, policy_state: &mut Vec<f64>) {
        *policy_state = vec![0.0; 8];
    }
}
