#!/bin/bash
# Regenerate every figure, table, and extension experiment of the paper.
# Artifacts land in results/. Full paper scale (1000 trials for Figure 3;
# recovery figures at 200 which already gives <1% confidence intervals);
# pass a number to scale every trial count, e.g. `scripts/reproduce.sh 4`.
#
# Every experiment runs through the one `splice exp` engine; the explicit
# per-experiment lines (rather than `splice exp run-all`) carry the
# paper-scale trial counts and the geant/directed variants.
set -u
cd "$(dirname "$0")/.."
SCALE=${1:-1}
t() { echo $(( $2 * SCALE )); }
cargo build --release -p splice-cli || exit 1
LAB="target/release/splice exp"   # unquoted below: two words
# A failed experiment does not stop the rest; each is listed at the end,
# and any failure makes the script exit 1.
failed=()
run() { echo "=== $* ==="; "$@" || { echo "FAILED: $*"; failed+=("$*"); }; }

# The paper's own artifacts.
run $LAB run fig3_reliability --trials "$(t fig3 1000)"
run $LAB run fig3_reliability --trials "$(t fig3 1000)" --topology geant
run $LAB run fig3_reliability --trials "$(t fig3 500)" --semantics directed
run $LAB run fig4_end_system_recovery --trials "$(t fig4 200)"
run $LAB run fig4_end_system_recovery --trials "$(t fig4 150)" --semantics directed
run $LAB run fig5_network_recovery --trials "$(t fig5 200)"
run $LAB run table1 --trials "$(t table1 150)"
run $LAB run stretch_stats --trials "$(t stretch 100)"
run $LAB run loop_stats --trials "$(t loops 300)"
run $LAB run scaling_lognslices --trials "$(t scaling 60)"
run $LAB run theorem_b1
run $LAB run state_vs_diversity

# Everything §5-§6 sketch, built and measured.
run $LAB run te_load_balance
run $LAB run capacity_multipath
run $LAB run bgp_splicing --trials "$(t bgp 200)"
run $LAB run overlay_splicing --trials "$(t overlay 250)"
run $LAB run slicing_vs_mrc --trials "$(t mrc 250)"
run $LAB run coverage_ablation --trials "$(t coverage 100)"
run $LAB run loopfree_ablation --trials "$(t loopfree 60)"
run $LAB run perturbation_ablation --trials "$(t perturb 120)"
run $LAB run header_encoding_ablation --trials "$(t header 100)"
run $LAB run node_failures --trials "$(t nodes 200)"
run $LAB run srlg_failures --trials "$(t srlg 200)"
run $LAB run convergence_window
run $LAB run routing_dynamics
run $LAB run ecmp_baseline --trials "$(t ecmp 200)"
run $LAB run explicit_paths_baseline
if [ ${#failed[@]} -gt 0 ]; then
    echo "${#failed[@]} experiment(s) failed:"
    printf '  %s\n' "${failed[@]}"
    exit 1
fi
echo "all experiments done; see results/"
