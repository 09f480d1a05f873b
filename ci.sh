#!/bin/sh
# Hermetic CI gate: everything must build, test, and lint cleanly
# without touching the network or a crates.io registry. The workspace
# has no external dependencies (see tests/hermetic.rs), so an offline
# build failing means a regression.
set -eu

export CARGO_NET_OFFLINE=true

cargo build --release
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings
# Every crate of the workspace, its examples and tests are fmt-clean.
cargo fmt --all -- --check

# Every paired-run record (`BENCH_*.json`, written by scripts/pairs.sh)
# has one shape: each set names its workload, pair count, run length,
# seeds, both revisions, runs, summary, tracing and label, and the git
# trees of crates/ and benchmark/ each side ran; each run its side,
# seed, order, metrics, attempted and failed operations and verdict.
# The one exception: BENCH_PR26.json's eight "earlier code" sets, whose
# labels say no tree hashes were recorded, carry no `trees`.
for f in BENCH_*.json; do
    jq -e --arg file "$f" '
        def fields($ks): . as $o | all($ks[]; . as $k | $o | has($k));
        .sets | length > 0 and all(.[];
            fields(["workload", "n", "seconds", "first_seed", "parent", "change", "runs",
                    "summary", "trace", "label"])
            and (has("trees") or ($file == "BENCH_PR26.json"
                and (.label | test("earlier code.*no tree hashes recorded"))))
            and (.runs | length > 0 and all(.[];
                fields(["side", "seed", "order", "metrics", "attempted", "failed", "correct"]))))
    ' "$f" >/dev/null || { echo "$f: a set or run lacks a field scripts/pairs.sh writes" >&2; exit 1; }
done

# Code size and panic surface are tracked numbers: prints `table1`'s
# per-crate table (the one counter) and fails when crates/core,
# crates/bench, crates/sealdb or the in-enclave total outgrows its
# budget (crates/tlsx, crates/services and crates/plat have one too), the `unsafe`
# or `unwrap`/`expect` totals grow, a file of the session split outgrows
# 900 lines, an enclave interface name is spelled outside the Ecall
# table, sealdb's SQL renderer or `SyncPolicy` is back, sealdb grows a
# SQL construct LibSEAL never issues (LIKE, CASE, LEFT JOIN, DROP…), a second TLS
# termination surface is back (or a services driver names the TLS
# library), the log's one commit step has company (a second signer or
# binder in log.rs, the two knobs that forked the request path, a
# commit mode, a `.seal()` outside log.rs, a `with_log` that skips the
# bind gate),
# crates/rote names a thread or a channel again (a round is a loop),
# a second worker mechanism grows back (a channel shim in plat, a
# blocking-driver thread besides the accept thread, sgxsim's untrusted
# memory pool: one job pool, std's channel),
# the audited data path copies a message out of its buffer again (an
# owning HTTP parser in crates/core beyond the check-result rebuild, a
# drain-collect in enclave.rs), the untrusted serving path re-serialises
# or regrows a message (a `to_bytes()` in the drivers or the client, a
# reactor read into anything but a Vec sized to what the socket holds),
# a paper printer builds its own fleet,
# the sharded plane changes its membership at runtime again (shard
# join/retire, a hash ring, a routability flag), `SystemRng` is
# back, a chain entry carries a key copy beside its payload again,
# a materialized view becomes a catalog table again (a backing table or
# partition index in sealdb, `db_mut` in the checker), the reactor's
# deadlines leave their one ordered set (a timer wheel or a park cap is
# back), a running handler's connection gets a phase (and a deadline)
# again, a second proxy (`ReverseProxyRouter`) is back, or a second
# AEAD is back on a product path (`ChaCha20Poly1305` named under
# crates/ outside crates/crypto, or a `target_feature` kernel in
# chacha20.rs or poly1305.rs: records, sealed data and the journal are
# AES-256-GCM), or a second build target's path comes back (Linux on
# x86-64 is the one target, stated once in crates/plat/src/lib.rs).
# Builds the bench binaries in release mode, which the gates below
# need anyway.
scripts/loc_budget.sh

# benchmark/ is its own workspace, so nothing above compiles it: a
# change to the `services` surface it drives would otherwise fail only
# at benchmark time. Builds, lints, self-tests and smoke-runs it.
benchmark/check.sh

# Invariant checking must stay near-linear in log size (2k vs 20k
# entries, one soundness invariant per service); exits non-zero if a
# 10x log costs more than 20x the time.
cargo run --release -p libseal-bench --bin scaling_gate

# Crash matrix: simulate a crash / transient error / torn write at
# every failpoint on the audited write path (a trim's included, armed
# both at first hit and as the trim begins), restart, and check the
# recovery contract (durable prefix, verifying chain, reconciled
# counter). Bounded: one fixed workload per (site, fault) pair.
cargo run --release -p libseal-bench --bin crash_matrix

# Telemetry must stay near-free on the hottest audited path: compare
# audited-append throughput with the registry enabled vs disabled
# (no-op handles; neighbouring 40 ms slices, median of the paired
# ratios) and fail on a >5% regression.
cargo run --release -p libseal-bench --bin telemetry_overhead

# Group commit must amortise counter binds and fsyncs across
# concurrent requests: 8 audited clients must push >= 3x the
# single-client throughput, with telemetry confirming batches formed
# (>= 2 appends per counter bind and per fsync).
cargo run --release -p libseal-bench --bin group_commit_gate

# The event-driven service core must hold >= 5000 concurrent idle
# STLS sessions on one reactor thread (all still serviceable under
# active load) and cross the enclave boundary measurably less often
# per request than the threaded baseline (sgxsim transition counters,
# event/threaded ratio <= 0.9).
ulimit -n 16384 2>/dev/null || true
cargo run --release -p libseal-bench --bin event_loop_gate

# Incremental invariant checking must cost O(rows touched since the
# last check): the per-append check cost on a 1M-entry Git log may be
# at most 2x the 1k-entry log's, the incremental verdicts must match
# the full-scan reference exactly (including injected violations),
# and the background verifier pool must drain with its lag gauge and
# alarm counter live in /metrics.
cargo run --release -p libseal-bench --bin check_scaling_gate

# Hostile-network hardening: a deterministic chaos matrix (resets,
# truncation, short reads, delays at every phase, both serving modes)
# must leave the server serving and the audit chain verifiable; at 2x
# the connection cap the excess must be refused fast while established
# connections keep p99 within budget; and a graceful drain under load
# must answer the in-flight request within its deadline.
cargo run --release -p libseal-bench --bin overload_chaos_gate

# The sharded audit plane must actually scale the audit pipeline:
# with the ROTE counter round slowed to 4 ms and commit batches
# capped at 4, four shards (four independent sealer pipelines) must
# push >= 2.8x the 1-shard audited throughput, the 1-shard baseline
# must seal at most 4 appends per counter bind, the whole fleet
# (epoch-checkpoint chain included) must verify clean after drain,
# and a 2-shard disk-backed fleet must survive a mid-load shard
# restart with the restarted shard recovering its journal.
cargo run --release -p libseal-bench --bin shard_scaling_gate

# Attestation must be load-bearing: an attested apache+squid fleet
# (quotes pinned on both legs) must serve a load run with zero errors
# and verify clean, a wrong-MRENCLAVE server must be rejected by every
# client during the handshake (zero requests served), and the attested
# handshake may cost at most 15% extra median latency over a plain
# CA-verified one.
cargo run --release -p libseal-bench --bin attestation_gate
