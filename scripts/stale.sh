#!/bin/sh
# Fails if a retired identifier is still named in README.md, DESIGN.md or
# the program's sources and tests (src/, examples/, tests/, crates/*/src,
# crates/*/tests). A PR that deletes a public item appends its name here.
# Matches are whole words, so a test named after a retired call
# (`timeof_collective_selects_and_prices`) does not count.
# Not searched: crates/ledger (the benchmark, changed only by
# benchmark PRs) and EXPERIMENTS.md, CHANGES.md and ROADMAP.md, which
# record history.
# Usage: scripts/stale.sh [checkout]   (default: this repository)
cd "${1:-$(dirname "$0")/..}" || exit 1
retired='
RecoveryPolicy with_max_rebuilds with_backoff with_backoff_factor
max_rebuilds backoff_before choose_best timeof_collective
Externs ExternFn with_builtins coords_of linear_of volumes_fn
em3d_compiled matmul_compiled nbody_compiled serial_bench_units
is_static random_mixed asymmetric inter_switch symmetric_overrides
select_mapping_naive TimelineSink LegacyMailbox ComparisonPoint
DEADLOCK_TIMEOUT recv_match render_table render_csv ReconRunner
BENCH_throughput BENCH_deadlock gather_flat bcast_one
impl_typed_reductions MPISIM_STACK_SIZE ModelBuilder BuiltModel write_to
StructVal ExternResult eval_value collect_index_chain extern_fn bind_coords
Em3dTracedRun MatmulTracedRun Undefined TypeError unknown_extern
num_segments DeltaBaseline price_baseline price_delta MappingAlgorithm::Greedy
'
paths='README.md DESIGN.md src examples tests'
for dir in crates/*/src crates/*/tests; do
    case "$dir" in
        crates/ledger/*) ;;
        *) paths="$paths $dir" ;;
    esac
done
# shellcheck disable=SC2086 # word splitting of both lists is intended
if printf '%s\n' $retired | grep -rnwF -f - $paths; then
    echo "stale.sh: the lines above name retired identifiers" >&2
    exit 1
fi
echo "stale.sh: no retired identifier named"
