#!/bin/sh
# Re-measures every table and figure EXPERIMENTS.md quotes, in the order
# of DESIGN.md's experiment index. Each printer repeats every point
# three times and prints GitHub-markdown tables of "median (min-max)",
# so the output pastes into EXPERIMENTS.md as is. About 12 minutes at
# the default LIBSEAL_BENCH_SECS=2; the cost model burns real CPU, so
# run nothing beside it. Arguments name the printers to re-run instead
# of all of them (`scripts/experiments.sh table2 fig7a`).
set -eu
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet -p libseal-bench
[ $# -gt 0 ] || set -- table1 table2 table3 table4 fig5a fig5b fig5c fig6 fig7a fig7b fig7c \
    micro_transitions micro_ecall_cost log_size ablation epc_pressure
for bin; do
    printf '\n## %s\n' "$bin"
    cargo run --release --offline --quiet -p libseal-bench --bin "$bin"
done
