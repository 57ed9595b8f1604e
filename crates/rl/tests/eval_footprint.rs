//! An eval agent's footprint, measured rather than read off the type:
//! building a 2×512 `PpoAgent`, switching it to eval and serving one
//! 64-row batch may allocate the actor and the batch's activation
//! buffers, and nothing of the learner — no critic, no optimiser moments,
//! no gradient buffers, not even as temporaries.
//!
//! One test only: the counter is process-global.

use libra_nn::{BatchScratch, Matrix};
use libra_rl::{PpoAgent, PpoConfig};
use libra_types::DetRng;

#[global_allocator]
static GLOBAL: libra_testalloc::CountingAlloc = libra_testalloc::CountingAlloc;

const OBS: usize = 24;
const ROWS: usize = 64;

#[test]
fn eval_agent_allocates_only_its_actor_and_batch_buffers() {
    let config = PpoConfig::paper_sized(OBS, 1);
    let sizes = config.actor_sizes();
    let obs = Matrix::from_fn(ROWS, OBS, |r, c| ((r * OBS + c) % 17) as f64 / 17.0 - 0.5);
    let mut out = Matrix::zeros(0, 0);
    let mut scratch = BatchScratch::new();

    libra_testalloc::arm(true);
    let mut agent = PpoAgent::new(config, &mut DetRng::new(5));
    agent.set_eval(true);
    agent.act_eval_batch(&obs, &mut out, &mut scratch);
    libra_testalloc::arm(false);
    let bytes = libra_testalloc::requested();

    let f64s = std::mem::size_of::<f64>();
    let actor: usize = sizes.windows(2).map(|io| io[0] * io[1] + io[1]).sum();
    // Feature-major input, the two widest activations ping-ponging, and
    // the row-major output: `ROWS` lanes each.
    let widest = sizes[1..sizes.len() - 1].iter().max().copied().unwrap_or(0);
    let batch = ROWS * (OBS + 2 * widest + sizes[sizes.len() - 1]);
    let budget = (actor + batch) * f64s * 105 / 100;
    assert!(
        bytes as usize <= budget,
        "{bytes} bytes allocated, budget {budget} (actor {} + batch {} bytes, 5 % slack)",
        actor * f64s,
        batch * f64s
    );
    assert_eq!((out.rows(), out.cols()), (ROWS, 1));
}
