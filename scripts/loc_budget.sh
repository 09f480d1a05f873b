#!/bin/sh
# Code size and panic surface are tracked numbers (ROADMAP north star).
# `table1` is the one counter: this script prints its per-crate table
# (non-blank, non-comment lines under each crate's src/, `unsafe` sites,
# `unwrap`/`expect` sites) and fails when
#   - crates/core, crates/bench, crates/sealdb, crates/tlsx,
#     crates/services, crates/plat or the in-enclave total (the TCB:
#     every line of it is attack surface) outgrows its line budget,
#   - the workspace's `unsafe` or `unwrap`/`expect` total grows,
#   - a file of the session split outgrows 900 lines,
#   - an enclave entry is named by a string anywhere in crates/core/src
#     but the Ecall table in enclave.rs,
#   - sealdb's SQL renderer or `SyncPolicy` is back (PR 18: the journal
#     and the snapshot hold the source text that ran, and the journal
#     syncs only when told to),
#   - sealdb grows back a construct LibSEAL never issues (the grammar
#     is the closed set of its own statements, DESIGN.md "The SQL
#     LibSEAL speaks"): `like_match`, LIKE/BETWEEN/CASE expressions,
#     `||`, LEFT JOIN, `t.*` or a DROP statement under crates/sealdb/src,
#   - a second TLS termination surface is back (PR 19: native STLS and
#     LibSEAL are one `AuditPlane`, the session step is `Ssl::pump`):
#     the stream driver nothing served with, the per-driver native
#     forks or the messaging SSM reappear under crates/, or a services
#     driver names the TLS library it runs over,
#   - the log grows a second commit step or a second way into it
#     (PR 21: a trim is staged and sealed like an append): in
#     core/src/log.rs the head is signed by `seal_bound` and recovery
#     only and the counter bound by `seal` and `seal_staged` only, and
#     the knobs that forked the request path around the sealer and the
#     verifier are not back,
#   - the log grows a second commit mode or a seal without its write
#     back: `Immediate` or a commit-mode check in core/src/log.rs, a
#     `.seal()` anywhere in crates/core/src but log.rs (the enclave and
#     the fleet commit with `AuditLog::commit` or `seal_staged`), or an
#     `enclave::with_log` that does not enter through the bind gate,
#   - the verifier binds again or the rename rewrite becomes a commit
#     path (PR 33: a trim rides the next commit as a snapshot frame):
#     `verify_batch` in enclave.rs takes the bind gate, or
#     `Journal::rewrite` is reached from anything but `reclaim`,
#   - the audited data path copies a message more than once per hop
#     (messages are framed where they lie): crates/core/src calls an
#     owning HTTP parser anywhere but the one response rebuilt to carry
#     `Libseal-Check-Result`, or enclave.rs moves a message out of a
#     buffer by `drain(..).collect()`,
#   - the untrusted serving path re-serialises or regrows a message
#     (one buffer per hop, sized once): a `to_bytes()` in the drivers or
#     the client (crates/services/src/{conn,event,blocking,client}.rs
#     write a head and its body as they lie), or the reactor's read
#     growing its batch item (crates/services/src/event.rs reads with
#     `read_to_end` only into a `Vec::with_capacity(want)` through
#     `take(want)`, `want` being what the socket holds),
#   - the trusted half copies a record twice (records are opened where
#     they arrived): `Ssl::pump`'s four-record feed, its `WIRE` block,
#     its header-walking `whole_payload` or a `reserve_exact` is back in
#     crates/tlsx/src/ssl.rs,
#   - crates/rote/src names a channel or anything of std::thread but
#     `sleep` (PR 22: a ROTE round is a loop, the simulated nodes answer
#     inline and the requester sleeps once for the modelled wire),
#   - a shim repeats std or a second worker mechanism is back: a
#     `plat::channel` (hand-offs use std::sync::mpsc), blocking.rs
#     spawning a thread besides its accept thread (connections run on
#     the one JobPool both drivers use), or sgxsim's untrusted
#     `MemoryPool` (the §4.2 printer charges the ocalls it saves),
#   - crates/crypto holds an `unsafe` that is not the call into a
#     kernel whose CPU feature was just detected, or a raw pointer (the
#     two AES-GCM kernels and their key expansion, the SHA-256 kernel
#     and the curve lanes are safe `core::arch` code behind
#     `#[target_feature]` entries; loads and stores go through slices),
#   - a second AEAD is back on a product path (records, sealed data and
#     the journal are AES-256-GCM on the CPU's AES units):
#     `ChaCha20Poly1305` is named under crates/ outside crates/crypto,
#     or crates/crypto/src/{chacha20,poly1305}.rs hold a
#     `target_feature` (a vector kernel for the one-block RFC 8439 code
#     that only the DRBG and the pinned `aead` surface keep),
#   - an in-enclave mechanism grows a second mode back: the §4.3 call
#     slots a second wait (`WaitMode`, `poller_loop` or a `slot-poller`
#     thread under crates/lthread: callers yield, then park until the
#     slot's filler unparks them), ROTE a second quorum policy
#     (`DegradeAndAlarm`, `fn rebind` or an unbound counter under
#     crates/rote/src: fail-stop only), or the configuration an
#     unprotected log (`GuardConfig::None` under crates/core/src),
#   - a paper printer builds a server, client or load generator itself
#     instead of stating a Scenario, or bench_results/ is back,
#   - the chain check goes back to one SQL probe per entry
#     (`check_data_row` under crates/core/src): chain entries are
#     checked against one hash of the audited tables' rows,
#   - a chain entry carries a key again (`render_key`, `key_matches`
#     or a `pk` column in core/src/log.rs): an entry is (seq, payload,
#     hash) and names its data row by the payload alone, the one column
#     its hash covers,
#   - the sharded plane's membership changes at runtime again
#     (`add_shard`, `retire_shard`, `ShardRing`, `VNODES_PER_SHARD` or
#     a `routable` flag under crates/core/src: the fleet is fixed when
#     it is provisioned and a new session routes by `mix64(affinity) %
#     n`), or `SystemRng` is back under crates/ (a one-use generator
#     for 64 bytes is one `plat::entropy::fill`),
#   - a materialized view becomes a catalog table again
#     (`backing_column_name` or an `mvix_` partition index under
#     crates/sealdb/src: a view holds its own rows, and nothing of it is
#     journaled), or the checker reaches the views through `db_mut` in
#     crates/core/src/check.rs instead of AuditLog's view calls,
#   - the reactor's deadlines leave the one ordered set (`TimerWheel`
#     or `MAX_PARK` under crates/: a deadline fires as soon as it has
#     passed, and the loop parks until the earliest one, with no cap),
#   - a connection whose handler runs has a phase again (`Phase::Busy`
#     under crates/: a deadline is armed only while the peer owes the
#     connection bytes), or a second proxy is back
#     (`ReverseProxyRouter` under crates/: a reverse proxy is a
#     `SquidProxy` with its backend as the one origin).
# Every budget is a ratchet, not a target for denser code: a PR that
# needs room raises the number in its own diff and says in CHANGES.md
# what the lines (or the panic sites) bought. Builds `table1` in release
# mode on first use; the gates after it in ci.sh need that build anyway.
set -eu
cd "$(dirname "$0")/.."
CORE_BUDGET=4659
BENCH_BUDGET=3230
SEALDB_BUDGET=4054
TLSX_BUDGET=2168
SERVICES_BUDGET=2766
PLAT_BUDGET=1690
ENCLAVE_BUDGET=16232
UNSAFE_BUDGET=31
PANIC_BUDGET=526
table=$(cargo run --release --offline --quiet -p libseal-bench --bin table1)
printf '%s\n' "$table" | sed -n '/^### Per crate/,/^| total/p'
# cell ROW COLUMN: a cell of the per-crate table (column 1 is the name).
cell() {
    printf '%s\n' "$table" | awk -F' *[|] *' -v row="$1" -v col="$2" '$2 == row { print $(col + 1) }'
}
fail=0
over() { # over WHAT NUMBER BUDGET
    [ "$2" -le "$3" ] || { echo "$1: $2, budget $3" >&2; fail=1; }
}
over "crates/core code lines" "$(cell core 2)" "$CORE_BUDGET"
over "crates/bench code lines" "$(cell bench 2)" "$BENCH_BUDGET"
over "crates/sealdb code lines" "$(cell sealdb 2)" "$SEALDB_BUDGET"
over "crates/tlsx code lines" "$(cell tlsx 2)" "$TLSX_BUDGET"
over "crates/services code lines" "$(cell services 2)" "$SERVICES_BUDGET"
over "crates/plat code lines" "$(cell plat 2)" "$PLAT_BUDGET"
over "in-enclave code lines" "$(cell total 3)" "$ENCLAVE_BUDGET"
over "unsafe sites" "$(cell total 4)" "$UNSAFE_BUDGET"
over "unwrap/expect sites" "$(cell total 5)" "$PANIC_BUDGET"
for f in config enclave session plane fleet checkpoint; do
    over "crates/core/src/$f.rs lines" "$(wc -l <"crates/core/src/$f.rs")" 900
done
names=$(sed -n 's/^ *[A-Za-z]* => \("[a-z_]*"\),$/\1/p' crates/core/src/enclave.rs | paste -sd'|')
if grep -rnE "$names|ecall(_batch)?\(\s*\"" crates/core/src | grep -v '^crates/core/src/enclave.rs:'; then
    echo "an enclave entry is named only through Ecall (enclave.rs)" >&2
    fail=1
fi
if grep -rnE 'render_(stmt|select|expr|table_ref)|SyncPolicy' crates; then
    echo "sealdb journals the text it was given and syncs when told to: no renderer, no SyncPolicy" >&2
    fail=1
fi
if grep -rnE 'like_match|Expr::(Like|Between|Case)|BinOp::Concat|JoinKind::Left|QualifiedStar|Drop(Table|View|Index)' \
    crates/sealdb/src || grep -nE '^ *(Like|Between|Case|Concat|Left)\b' crates/sealdb/src/ast.rs; then
    echo "sealdb speaks only the SQL LibSEAL issues: an SSM that needs a construct adds it with its first use" >&2
    fail=1
fi
if grep -rnE 'NbSslStream|NbStatus|NbRead|pump_native|ConnTls|TlsSession|MessagingModule' crates; then
    echo "one TLS termination surface (AuditPlane) and one session step (Ssl::pump): no second copy" >&2
    fail=1
fi
if grep -nE 'TlsMode|Native' crates/services/src/event.rs crates/services/src/blocking.rs; then
    echo "a driver holds an AuditPlane and never branches on the TLS library" >&2
    fail=1
fi
# callers PATTERN [FILE]: the functions of FILE (core/src/log.rs by
# default) whose bodies contain PATTERN.
callers() {
    awk -v pat="$1" '/^ *\/\// { next }
        /^ *(pub(\([a-z]*\))? )?fn [a-z_]+/ { fn = $0; sub(/.*fn /, "", fn); sub(/[(<].*/, "", fn) }
        index($0, pat) { printf "%s ", fn }' "${2:-crates/core/src/log.rs}"
}
if [ "$(callers 'self.sign_head(')" != "recover_state seal_bound " ] ||
    [ "$(callers 'guard.increment()')" != "seal seal_staged " ]; then
    echo "one commit step: seal_bound signs (and recovery), seal and seal_staged bind; got:" \
        "sign_head in $(callers 'self.sign_head(')/ increment in $(callers 'guard.increment()')" >&2
    fail=1
fi
gated=$(callers 'with_audit_bound(' crates/core/src/enclave.rs)$(callers 'bind_gate(' crates/core/src/enclave.rs)
if printf '%s\n' $gated | grep -qx verify_batch; then
    echo "the verifier binds nothing: verify_batch takes the audit lock alone, not the bind gate" >&2
    fail=1
fi
if ! printf '%s\n' $gated | grep -qx with_log; then
    echo "with_log enters through the bind gate: a commit in it waits for the sealer's" >&2
    fail=1
fi
if grep -nE 'Immediate|\bmode *[!=]=|[!=]= *CommitMode|self\.mode\b' crates/core/src/log.rs; then
    echo "one commit mode: every log stages, and only a commit makes changes durable" >&2
    fail=1
fi
if grep -rn '\.seal()' crates/core/src | grep -v '^crates/core/src/log.rs:'; then
    echo "a seal is written back by its commit: outside log.rs, AuditLog::commit or seal_staged" >&2
    fail=1
fi
if [ "$(callers 'self.rewrite(' crates/sealdb/src/journal.rs)" != "reclaim " ] ||
    grep -rn 'rewrite(' crates --include='*.rs' | grep -v '^crates/sealdb/src/journal.rs:'; then
    echo "the rename rewrite is reclamation only: Journal::rewrite is reached from reclaim alone" >&2
    fail=1
fi
if grep -rnE 'no_group_commit|no_async_verify' crates examples README.md DESIGN.md; then
    echo "one way into the commit step: group_commit(1) is the per-pair flush, a refused due check runs inline" >&2
    fail=1
fi
owning=$(grep -rnE '\bparse_(request|response)(_limited)?\(' crates/core/src | grep -vE '^[^:]+:[0-9]+: *//' || true)
if [ "$(printf '%s\n' "$owning" | grep -c .)" != 1 ] ||
    ! printf '%s\n' "$owning" | grep -q '^crates/core/src/enclave.rs:.*parse_response_limited(raw_rsp'; then
    printf '%s\n' "$owning" >&2
    echo "crates/core frames messages where they lie: an owning parser only for the Libseal-Check-Result rebuild" >&2
    fail=1
fi
if tr -d ' \n' <crates/core/src/enclave.rs | grep -qE 'drain\([^)]*\)\.collect'; then
    echo "enclave.rs takes a whole-buffer message by mem::take and slices the rest: no drain(..).collect()" >&2
    fail=1
fi
if grep -nE '\bto_bytes\(\)' crates/services/src/conn.rs crates/services/src/event.rs \
    crates/services/src/blocking.rs crates/services/src/client.rs ||
    grep -n 'read_to_end' crates/services/src/event.rs | grep -vF 'take(want as u64).read_to_end(&mut input)' ||
    [ "$(grep -cF 'let mut input = Vec::with_capacity(want);' crates/services/src/event.rs)" != 1 ]; then
    echo "one buffer per hop on the serving path: drivers write head and body as they lie," \
        "and the reactor reads a socket into one Vec sized to what it holds" >&2
    fail=1
fi
if grep -nE '\b(FEED|WIRE)\b|whole_payload|reserve_exact' crates/tlsx/src/ssl.rs; then
    echo "records open where they arrived: no pump feed or sized-once reserve in ssl.rs" >&2
    fail=1
fi
if grep -rnE 'thread::|channel::' crates/rote/src | grep -v 'std::thread::sleep('; then
    echo "a ROTE round is a loop: simulated nodes answer inline" >&2
    fail=1
fi
if grep -rnE 'plat::channel|mod channel' crates; then
    echo "threads hand work over std::sync::mpsc: no channel shim" >&2
    fail=1
fi
if [ "$(grep -cE 'thread::(Builder|spawn|scope)' crates/services/src/blocking.rs)" != 1 ]; then
    grep -nE 'thread::(Builder|spawn|scope)' crates/services/src/blocking.rs >&2
    echo "the blocking driver spawns its accept thread only: connections are JobPool jobs" >&2
    fail=1
fi
if grep -rn 'MemoryPool' crates/sgxsim; then
    echo "no untrusted memory pool in sgxsim: micro_transitions charges the ocalls opt 1 saves" >&2
    fail=1
fi
if grep -rnE '\*(const|mut) ' crates/crypto/src ||
    [ "$(grep -rh -B1 'unsafe {' crates/crypto/src | grep -c '// SAFETY: .* detected')" != \
        "$(grep -rh 'unsafe {' crates/crypto/src | wc -l)" ]; then
    echo "crates/crypto: unsafe only to enter a kernel whose feature was detected, no raw pointers" >&2
    fail=1
fi
if grep -rn 'ChaCha20Poly1305' crates | grep -v '^crates/crypto/' ||
    grep -n 'target_feature' crates/crypto/src/chacha20.rs crates/crypto/src/poly1305.rs; then
    echo "one AEAD on product paths: AES-256-GCM (crypto::gcm); ChaCha20-Poly1305 stays one block at a time in crates/crypto" >&2
    fail=1
fi
if grep -rnE 'WaitMode|poller_loop|slot-poller' crates/lthread; then
    echo "one slot wait: a caller yields, then parks until the slot's filler unparks it; no polling thread" >&2
    fail=1
fi
if grep -rnE 'DegradeAndAlarm|fn rebind|unbound' crates/rote/src; then
    echo "ROTE is fail-stop: no increment is granted without a quorum" >&2
    fail=1
fi
if grep -rn 'GuardConfig::None' crates/core/src; then
    echo "an instance's log is always ROTE-bound: log::NoGuard is for direct AuditLog users" >&2
    fail=1
fi
if grep -rn 'check_data_row' crates/core/src; then
    echo "the chain check hashes the audited rows once: no per-entry SQL probe" >&2
    fail=1
fi
if grep -nE 'render_key|key_matches|\bpk\b' crates/core/src/log.rs; then
    echo "a chain entry is (seq, payload, hash): no key copy beside the payload its hash covers" >&2
    fail=1
fi
if grep -rnE 'add_shard|retire_shard|ShardRing|VNODES_PER_SHARD|routable' crates/core/src ||
    grep -rn 'SystemRng' crates; then
    echo "a fleet is fixed at provisioning and routes by mix64(affinity) % n; a one-use seed is plat::entropy::fill" >&2
    fail=1
fi
if grep -rnE 'backing_column_name|mvix_' crates/sealdb/src || grep -n 'db_mut' crates/core/src/check.rs; then
    echo "a view is its rows, not a catalog table; the checker registers, refreshes and reads views through AuditLog" >&2
    fail=1
fi
if grep -rnE 'TimerWheel|MAX_PARK' crates; then
    echo "the reactor keeps its deadlines in one ordered set (plat::timer::Deadlines) and parks until the earliest" >&2
    fail=1
fi
if grep -rn 'Phase::Busy' crates; then
    echo "a running handler is in no phase: a connection has a deadline only while its peer owes it bytes" >&2
    fail=1
fi
if grep -rn 'ReverseProxyRouter' crates; then
    echo "one proxy: a reverse proxy is a SquidProxy whose one origin is the backend" >&2
    fail=1
fi
if [ -e bench_results ]; then
    echo "bench_results/ is back: EXPERIMENTS.md is regenerated by scripts/experiments.sh" >&2
    fail=1
fi
cd crates/bench/src/bin
if grep -nF -e 'ApacheServer::start(' -e 'SquidProxy::start(' -e 'HttpsClient::new(' -e 'LoadGenerator {' \
    table[234].rs fig5[abc].rs fig7[abc].rs; then
    echo "a paper printer states a Scenario; libseal_bench::Scenario::run builds the fleet" >&2
    fail=1
fi
exit $fail
