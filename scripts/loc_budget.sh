#!/bin/sh
# LoC per crate is a tracked number (ROADMAP north star): prints the
# non-blank, non-comment lines under each crate's src/ and fails when
# crates/core outgrows CORE_BUDGET, when a file of the session split
# outgrows 900 lines, or when an enclave entry is named by a string
# anywhere in crates/core/src but the Ecall table in enclave.rs.
# CORE_BUDGET is a ratchet, not a target for denser code: a PR that needs
# room raises it and says in CHANGES.md what the lines bought.
set -eu
cd "$(dirname "$0")/.."
CORE_BUDGET=5200
fail=0
for dir in crates/*/; do
    n=$(find "$dir/src" -name '*.rs' -exec cat {} + | grep -v '^\s*$' | grep -v '^\s*//' | wc -l)
    echo "$(basename "$dir") $n"
    if [ "$dir" = crates/core/ ] && [ "$n" -gt "$CORE_BUDGET" ]; then
        echo "crates/core: $n code lines, budget $CORE_BUDGET" >&2
        fail=1
    fi
done
for f in config enclave session plane fleet checkpoint; do
    n=$(wc -l <"crates/core/src/$f.rs")
    [ "$n" -le 900 ] || { echo "crates/core/src/$f.rs: $n lines, max 900" >&2; fail=1; }
done
names=$(sed -n 's/^ *[A-Za-z]* => \("[a-z_]*"\),$/\1/p' crates/core/src/enclave.rs | paste -sd'|')
if grep -rnE "$names|ecall(_batch)?\(\s*\"" crates/core/src | grep -v '^crates/core/src/enclave.rs:'; then
    echo "an enclave entry is named only through Ecall (enclave.rs)" >&2
    fail=1
fi
exit $fail
