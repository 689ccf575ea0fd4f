#!/bin/sh
# Write the outputs of a fixed-seed set of pqharmonic commands to a directory.
#
#     scripts/snapshot_outputs.sh SRC_DIR OUT_DIR
#
# SRC_DIR holds the pqharmonic package (a checkout's src/). Snapshots of two
# checkouts compare with `diff -r`; a change that must not move any output
# leaves that diff empty.
set -eu
src=$(cd "$1" && pwd)
mkdir -p "$2"
out=$(cd "$2" && pwd)
run() {
    name=$1
    shift
    PYTHONPATH="$src" python3 -m pqharmonic.cli "$@" > "$out/$name.json" 2> "$out/$name.err" \
        || echo "exit $?" >> "$out/$name.err"
}
lin='linear:A=0.3,-0.2,0.1,0.5|0.0,0.4,-0.6,0.2|0.7,0.1,0.0,-0.3|-0.1,0.2,0.5,0.1;b=0.2,-0.1,0.3,0.05'
i=0
for section in hopf conformal:a=0.9,-0.3,0.4,0.2 "$lin" "scaled:$lin:k=0.7" \
    scaled:hopf:axis=0.5,1,0,-0.25 zero; do
    i=$((i + 1))
    common="--manifold sphere:3 --section $section --p 1.7 --q -0.6 --samples 3000 --seed 11"
    # shellcheck disable=SC2086
    run "energy$i" energy $common
    # shellcheck disable=SC2086
    run "residual$i" residual $common --per-point "$out/residual$i.csv"
done
run energy_torus energy --manifold torus:2 --section constant:c=0.4,-0.7 --p 2 --q 1 \
    --samples 400 --scheme torus-grid
run residual_torus residual --manifold torus:2 --section constant:c=0.4,-0.7 --p 2 --q 1 \
    --samples 400 --scheme torus-grid --per-point "$out/residual_torus.csv"
run sweep_scale sweep --kind scale --section hopf --manifold sphere:5 --p 3 --q 0.5 \
    --range 0.2:2.5 --steps 60 --samples 2000 --seed 5 --output "$out/sweep_scale.csv"
run sweep_conformal sweep --kind conformal --manifold sphere:5 --p 6 --q -3 \
    --range 0.1:2 --steps 50 --samples 2000 --seed 5 --output "$out/sweep_conformal.csv"
run regions regions --mu 0.5 --nu 1 --p-range -5:5 --q-range -8:4 --res 60 \
    --output "$out/regions.csv" --svg "$out/regions.svg"
# cells on p = -4, -1, 0, 1, 2, on mu*q = 2p, mu*q = 1-p = q/(2*nu) and on the cut-off
run regions_boundary regions --mu 0.5 --nu 1 --p-range -4:4 --q-range -8:8 --res 9 \
    --output "$out/regions_boundary.csv" --svg "$out/regions_boundary.svg"
run regions_256 regions --mu 0.93 --nu 1.17 --p-range -4.2:3.8 --q-range -6.1:2.9 --res 256 \
    --output "$out/regions_256.csv" --svg "$out/regions_256.svg"
# the CSV on stdout
run regions_stdout regions --mu 1.5 --nu 0.75 --p-range -6:6 --q-range -10:5 --res 40
run verify verify --fast --seed 42 --output "$out/verify_report.json"
# timings vary from run to run; keep only the pass/fail column of the table
sed 's/ *[0-9.]*s$//; s/ ([0-9.]*s total)$//' "$out/verify.err" > "$out/verify.err.tmp"
mv "$out/verify.err.tmp" "$out/verify.err"
