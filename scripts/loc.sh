#!/bin/sh
# Code lines per crate, per dependency shim, for the collective engine's four
# files, for mpisim's legacy collective plane (which the engine port drives to
# zero), for the five files of mpisim's transport (wait loop, mailbox,
# quiescence, runtime, lanes), for perfmodel's model pricer and scheme
# interpreter (which the one pricing kernel merges with collective.rs), its
# expression lowering (eval.rs) and compiled model (model.rs), for hmpi's
# selection search, compiled objective and runtime, for the
# bench runner (one loop over the benches), and for the apps' three drivers
# and the one HMPI program they share:
# lines that are neither blank nor `//` comments, up to each file's
# `#[cfg(test)]`.
# ROADMAP aim 2 ("net line count goes down") as a number in every CI log.
# Usage: scripts/loc.sh [checkout]   (default: this repository)
cd "${1:-$(dirname "$0")/..}" || exit 1
count() {
    find "$1" -name '*.rs' -exec awk '
        FNR == 1 { tests = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { tests = 1 }
        !tests && !/^[[:space:]]*($|\/\/)/ { n++ }
        END { print n + 0 }' {} + | awk '{ n += $1 } END { print n + 0 }'
}
for path in crates/*/src crates/compat/*/src crates/mpisim/src/engine.rs crates/mpisim/src/plan.rs \
            crates/perfmodel/src/collective.rs crates/perfmodel/src/hier.rs \
            crates/mpisim/src/collective.rs crates/mpisim/src/comm.rs crates/mpisim/src/p2p.rs \
            crates/mpisim/src/quiesce.rs crates/mpisim/src/runtime.rs \
            crates/mpisim/src/lane.rs \
            crates/perfmodel/src/compile.rs crates/perfmodel/src/scheme.rs \
            crates/perfmodel/src/eval.rs crates/perfmodel/src/model.rs \
            crates/hmpi/src/mapping.rs crates/hmpi/src/engine.rs \
            crates/hmpi/src/runtime.rs crates/bench/src/bin/figures.rs \
            crates/apps/src/em3d/driver.rs crates/apps/src/matmul/driver.rs \
            crates/apps/src/nbody/driver.rs crates/apps/src/program.rs; do
    printf '%-36s %6d\n' "$path" "$(count "$path")"
done
