//! lint-fixture: crates/netsim/src/demo.rs
//! Clean: hot functions use caller-owned scratch buffers; setup paths
//! may allocate freely; an audited cold branch inside a hot function
//! carries the waiver, as does a trace-only string on the decision path.

pub struct Demo {
    scratch: Vec<u64>,
}

impl Demo {
    pub fn new() -> Demo {
        // Setup path: allocation is fine outside the hot set.
        Demo {
            scratch: Vec::with_capacity(64),
        }
    }

    pub fn try_emit(&mut self, out: &mut Vec<u64>) {
        // Hot path: writes into the caller-owned buffer, no allocation.
        out.extend_from_slice(&self.scratch);
        self.scratch.clear();
    }

    pub fn dequeue(&mut self, poisoned: bool) -> Option<u64> {
        if poisoned {
            // Audited cold branch: runs once per fault window, not per
            // packet.
            // lint: allow(no-per-packet-alloc)
            let drained: Vec<u64> = Vec::new();
            drop(drained);
        }
        self.scratch.pop()
    }

    pub fn mi_tick_submit(&mut self, state: &mut Vec<f64>, tracing: bool) -> Option<String> {
        // Per-decision path: refills the caller's buffer.
        state.clear();
        state.extend(self.scratch.iter().map(|&x| x as f64));
        // Audited trace-only line: built only while tracing is on.
        // lint: allow(no-per-packet-alloc)
        tracing.then(|| "decision".to_string())
    }
}
