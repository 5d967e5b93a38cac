#!/bin/sh
# Regenerate the pinned golden checksums for the fig3 and fig5 CI smoke
# runs.
#
# The smoke run (abilene, 3 trials, seed 11) is bit-deterministic, so its
# reliability-curve CSV can be pinned — once per slice strategy: the
# default perturbed-spf gate plus the `tree` and `arc` strategy gates —
# and so can fig5's network-recovery CSV, the guard on the walk kernel's
# deflection rule. CI verifies each build against
# ci/golden/fig{3,5}_abilene_s11*.sha256 whenever the file is non-empty. Run this script after any *intentional*
# change to the curves (new semantics, new RNG stream, changed sweep,
# changed slice construction) and commit the result; an unintentional
# change will then fail the `build and test` job.
set -eu
cd "$(dirname "$0")/.."

out=ci-golden-tmp
rm -rf "$out"
cargo run --release -p splice-bench --bin splice-lab -- \
    run fig3_reliability --topology abilene --trials 3 --seed 11 --out "$out"
(cd "$out" && sha256sum fig3_reliability_abilene_union.csv) \
    > ci/golden/fig3_abilene_s11.sha256
rm -rf "$out"

for s in tree arc; do
    rm -rf "$out"
    cargo run --release -p splice-bench --bin splice-lab -- \
        run fig3_reliability --topology abilene --trials 3 --seed 11 \
        --strategy "$s" --out "$out"
    (cd "$out" && sha256sum fig3_reliability_abilene_union.csv) \
        > "ci/golden/fig3_abilene_s11_$s.sha256"
    rm -rf "$out"
done

cargo run --release -p splice-bench --bin splice-lab -- \
    run fig5_network_recovery --topology abilene --trials 3 --seed 11 --out "$out"
(cd "$out" && sha256sum fig5_network_recovery_abilene_union.csv) \
    > ci/golden/fig5_abilene_s11.sha256
rm -rf "$out"

echo "pinned:"
cat ci/golden/fig3_abilene_s11.sha256 \
    ci/golden/fig3_abilene_s11_tree.sha256 \
    ci/golden/fig3_abilene_s11_arc.sha256 \
    ci/golden/fig5_abilene_s11.sha256
