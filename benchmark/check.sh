#!/bin/sh
# Gate for the benchmark package itself: hermetic manifest, offline
# build, clippy, the harness self-tests, and a 1/20-size smoke run of
# every workload (traced and untraced) checked against BENCHMARK.json.
# Run from anywhere; not wired into ci.sh yet (see README.md).
set -eu
cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true
manifest=benchmark/Cargo.toml

# Hermeticity: every dependency is a bare path into ../crates, and the
# lock file names no registry or git source.
awk '
    /^\[/ { deps = ($0 == "[dependencies]" || $0 == "[dev-dependencies]" || $0 == "[build-dependencies]"); next }
    deps && NF && $0 !~ /^#/ && $0 !~ /^[a-z0-9-]+ = \{ path = "\.\.\/crates\/[a-z]+" \}$/ {
        print "not a path dependency: " $0; bad = 1
    }
    END { exit bad }
' "$manifest"
if grep -q '^source = ' benchmark/Cargo.lock; then
    echo "benchmark/Cargo.lock names an external source" >&2
    exit 1
fi

cargo build --release --offline --manifest-path "$manifest"
cargo clippy --release --offline --manifest-path "$manifest" --all-targets -- -D warnings
cargo test --release --offline --manifest-path "$manifest" -q

# Smoke: every metric BENCHMARK.json names comes out exactly once per
# workload with a finite value and a well-formed name, nothing else
# comes out, and no op fails.
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/libseal-benchmark"
# squid_dropbox_keepalive and audit_readback are not in BENCHMARK.json
# (README.md) but are smoked all the same, so that they keep working.
for workload in $(python3 -c '
import json
print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))') \
    squid_dropbox_keepalive audit_readback; do
    for trace in 0 1; do
        "$bin" --workload "$workload" --seed 7 --smoke --trace "$trace" | tail -n 1 |
            python3 -c '
import json, math, re, sys
workload, trace = sys.argv[1], sys.argv[2]
spec = json.load(open("BENCHMARK.json"))
want = {m["name"]: m["unit"] for m in spec["per_layer" if trace == "1" else "end_to_end"]}
pairs = json.loads(sys.stdin.read(), object_pairs_hook=list)
result = dict(pairs)
assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
names = [name for name, _ in result["metrics"]]
assert len(names) == len(set(names)), "a metric is emitted twice"
assert set(names) == set(want), set(names) ^ set(want)
for name, metric in result["metrics"]:
    metric = dict(metric)
    assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
    assert metric["unit"] == want[name], (name, metric["unit"])
    assert math.isfinite(metric["value"]), (name, metric["value"])
assert result["correct"] is True and result["failed"] == 0, "fail_share is not 0"
ops = result["attempted"]
assert ops >= 1
print(f"smoke ok: {workload} --trace {trace}: {len(names)} metrics, {ops} ops")
' "$workload" "$trace"
    done
done
echo "benchmark/check.sh: all checks passed"
