#!/usr/bin/env bash
# Regenerate every table and figure of the paper's evaluation.
#
# Usage:
#   scripts/run_all_experiments.sh           # full (tens of minutes cold;
#                                            # trained models are cached)
#   scripts/run_all_experiments.sh --quick   # reduced sweep (~2 min)
#   scripts/run_all_experiments.sh --resume  # restore completed runs from
#                                            # the sweep journals under
#                                            # target/experiments/journal/
#                                            # (every binary that runs its
#                                            # specs through run_figure
#                                            # picks up where it stopped;
#                                            # the rest re-run)
#
# Stdout tables are also written to target/experiments/*.csv.
set -euo pipefail
cd "$(dirname "$0")/.."

ARGS=("$@")
BINS=(
  fig01_adaptability
  fig02a_step_scenario
  fig02b_safety_cdf
  fig02c_overhead
  fig05_state_space
  fig06_action_space
  tab02_state_ablation
  tab03_loss_term
  tab04_delta_reward
  fig07_pareto
  fig08_lte_tracking
  fig09_buffer_sweep
  fig10_loss_sweep
  fig11_flexibility
  fig12_overhead_vs_rate
  fig13_inter_fairness
  fig14_intra_fairness
  fig15_tab05_convergence
  tab06_safety
  fig16_live_internet
  fig17_decision_fractions
  fig18_ideal_comparison
  fig19_tab07_sensitivity
  ablation_eval_order
  extension_other_networks
  appendix_equilibrium
  full_report
)

cargo build -p libra-bench --release --bins

mkdir -p target/experiments
for bin in "${BINS[@]}"; do
  echo
  echo "########## $bin ##########"
  cargo run -p libra-bench --release --bin "$bin" -- "${ARGS[@]}" \
    | tee "target/experiments/$bin.txt"
done

echo
echo "All experiments done. Artifacts under target/experiments/."

# Append the measured tables to EXPERIMENTS.md (drop any previous measured
# section first so reruns stay idempotent).
python3 - <<'PYEOF'
import glob, os, re
path = 'EXPERIMENTS.md'
text = open(path).read()
marker = '\n---\n\n## Measured results'
if marker in text:
    text = text[:text.index(marker)]
out = [text.rstrip(), '\n---\n\n## Measured results\n',
       'Produced by `scripts/run_all_experiments.sh`; see the per-file',
       'CSVs under `target/experiments/` for plottable series.\n']
for f in sorted(glob.glob('target/experiments/*.txt')):
    name = os.path.basename(f)[:-4]
    body = open(f).read().strip()
    # Strip cargo noise lines.
    body = '\n'.join(l for l in body.split('\n')
                     if not re.match(r'\s*(Finished|Running|Compiling|\[models\]|\[artifact\])', l))
    out.append(f'### `{name}`\n\n```\n{body.strip()}\n```\n')
open(path, 'w').write('\n'.join(out) + '\n')
print('EXPERIMENTS.md updated')
PYEOF
