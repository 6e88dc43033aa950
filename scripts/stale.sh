#!/bin/sh
# Fails if a retired identifier is still named in README.md, DESIGN.md or
# the program's sources, tests and examples (crates/*/src, crates/*/tests,
# crates/*/examples). A PR that deletes a public item appends its name here.
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
with_slots with_topology paper_lan_with CostView hmpi_repro dup_local
Holdings recv_sched into_pieces Operand::Wire TAG_COLL TAG_POISON no_fold
collective_abort bcast_bytes TAG_BCAST TAG_GATHER TAG_SCATTER RENDEZVOUS_BLOCK
MAX_VIEW_CELLS consecutive_runs
'
paths='README.md DESIGN.md'
for dir in crates/*/src crates/*/tests crates/*/examples; do
    case "$dir" in
        crates/ledger/*) ;;
        *) paths="$paths $dir" ;;
    esac
done
# shellcheck disable=SC2086 # word splitting of both lists is intended
printf '%s\n' $retired | grep -rnwF -f - $paths
case $? in
0)
    echo "stale.sh: the lines above name retired identifiers" >&2
    exit 1
    ;;
1) echo "stale.sh: no retired identifier named" ;;
*)
    # A missing path is an error, not a pass.
    echo "stale.sh: grep failed" >&2
    exit 2
    ;;
esac
