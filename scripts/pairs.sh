#!/bin/sh
# Alternating parent/change pairs of the gated benchmark, written down as
# machine-readable JSON.
#
#   scripts/pairs.sh <parent-rev> <workload> <n> [first-seed]
#   scripts/pairs.sh --render <file> [metric...]
#   scripts/pairs.sh --trajectory <workload> <metric>
#
# The first form exports <parent-rev> with `git archive` into
# target/pairs/<rev>/ (no worktree), builds the benchmark there and in
# this checkout, then runs BENCHMARK.json's command for its run_seconds
# once per side for each seed first-seed .. first-seed + n - 1 (default
# 1), each run a fresh process: odd seeds run the parent first, even
# seeds the change first, both sides with the same seed. It adds one set
# to $OUT (default target/pairs/pairs.json; created if missing): the git
# tree hashes of `crates` and `benchmark` on each side (the code the runs
# built: compare with `git rev-parse <commit>:crates`), every run's
# result line with its seed, side and order, then per metric the medians
# and quartiles of each side, the median of the per-seed change/parent
# ratios and how many seeds read higher and lower.
# Environment:
#   OUT    the JSON file the set is added to
#   TRACE  1 runs with --trace 1, for per-layer metrics
#   LABEL  a note kept with the set (what the two sides are)
#
# The second form prints, for every set of <file> that has one of the
# named metrics (by default BENCHMARK.json's end-to-end ones and
# fail_share), its label and a markdown table `| metric | parent runs |
# change runs | medians P → C | parent quartiles | paired |`.
#
# The third form prints, per committed BENCH_PR<n>.json in PR order, one
# untraced set of <workload> with a paired ratio of <metric>: its label,
# pairs, paired-ratio median and the product of the medians so far, the
# chain from the first PR's parent to that PR. The set is the last one
# whose change side built the PR's own code (`trees.change.crates` equals
# `git rev-parse <commit>:crates` of the commit whose subject starts
# "PR <n>:"), so a sizing set, whose sides are variants, is not taken.
# When no set matches (no such commit, or no set built it), the PR's
# last untraced set is taken and its row is marked "*": read its label.
#
# Needs git, cargo and jq. The benchmark burns CPU on purpose: run
# nothing beside it.
set -eu
cd "$(dirname "$0")/.."

render() {
    file=$1
    shift
    if [ $# -eq 0 ]; then
        set -- $(jq -r '.end_to_end[].name' BENCHMARK.json) fail_share
    fi
    wanted=$(printf '%s\n' "$@" | jq -R . | jq -sc .)
    jq -r --argjson wanted "$wanted" '
        def sig: if . == 0 then "0"
            else (fabs | log10 | floor) as $e
            | if $e >= 3 then round | tostring
              else pow(10; 3 - $e) as $m | (. * $m | round) / $m | tostring end end;
        def pct: (. * 1000 | round) / 10 | if . > 0 then "+\(.)" else tostring end;
        .sets[] | . as $set
        | [$wanted[] | select($set.summary[.] != null)] as $names
        | select([$names[] | select(. != "fail_share")] | length > 0)
        | "\n\(if $set.label == "" then "" else $set.label + ", " end)`\($set.workload)`, seeds "
          + "\($set.first_seed)–\($set.first_seed + $set.n - 1), \($set.seconds) s per run"
          + (if $set.trace then ", traced" else "" end) + ":\n",
          "| metric | parent runs | change runs | medians P → C | parent quartiles | paired |",
          "|---|---|---|---|---|---|",
          ($names[] as $name | $set.summary[$name] as $s
          | [ "`\($name)`",
              ([$set.runs[] | select(.side == "parent") | .metrics[$name] | sig] | join(" ")),
              ([$set.runs[] | select(.side == "change") | .metrics[$name] | sig] | join(" ")),
              "\($s.parent.median | sig) → \($s.change.median | sig)"
                + (if $s.parent.median == 0 then ""
                   else " (\($s.change.median / $s.parent.median - 1 | pct) %)" end),
              "\($s.parent.q1 | sig)–\($s.parent.q3 | sig)",
              "higher in \($s.higher)/\($set.n), lower in \($s.lower)/\($set.n)"
                + (if $s.paired_ratio_median == null then ""
                   else "; ratio \($s.paired_ratio_median | sig)" end)
            ] | "| " + join(" | ") + " |")' "$file"
}

trajectory() {
    [ $# -eq 2 ] || { sed -n '7s/^# *//p' "$0" >&2; exit 2; }
    files=$(ls BENCH_PR*.json | sort -V)
    # {"<n>": <crates tree of the "PR <n>:" commit>} for the PRs that have one.
    trees=$(for f in $files; do
        n=${f#BENCH_PR}
        n=${n%.json}
        commit=$(git log -n 1 --format=%H --grep="^PR $n:" HEAD)
        [ -z "$commit" ] || printf '%s %s\n' "$n" "$(git rev-parse "$commit:crates")"
    done | jq -Rn '[inputs | split(" ") | {(.[0]): .[1]}] | add // {}')
    printf '| PR | set | pairs | paired ratio | chained |\n|---|---|---|---|---|\n'
    # shellcheck disable=SC2086 # one file name per word
    jq -rn --arg w "$1" --arg m "$2" --argjson trees "$trees" '
        def sig: (. * 1000 | round) / 1000 | tostring;
        foreach (inputs | (input_filename | ltrimstr("BENCH_PR") | rtrimstr(".json")) as $pr
                 | [.sets[] | select(.workload == $w and (.trace | not)
                    and .summary[$m].paired_ratio_median != null)] as $sets
                 | ([$sets[] | select($trees[$pr] != null
                     and .trees.change.crates == $trees[$pr])] | last) as $own
                 | {pr: $pr, set: ($own // ($sets | last)), mark: (if $own then "" else " *" end)}
                 | select(.set != null)) as $row
            (1; . * $row.set.summary[$m].paired_ratio_median;
             "| \($row.pr)\($row.mark) | \($row.set.label | .[:70]) | \($row.set.n) "
             + "| \($row.set.summary[$m].paired_ratio_median | sig) | \(. | sig) |")
    ' $files
    printf '\n\\* no set built the code of a "PR <n>:" commit: the last untraced set\n'
}

if [ "${1:-}" = "--trajectory" ]; then
    shift
    trajectory "$@"
    exit 0
fi

if [ "${1:-}" = "--render" ]; then
    shift
    render "$@"
    exit 0
fi

[ $# -ge 3 ] || { sed -n '5,6s/^# *//p' "$0" >&2; exit 2; }
parent_rev=$(git rev-parse --verify "$1^{commit}")
workload=$2
n=$3
first=${4:-1}
out=${OUT:-target/pairs/pairs.json}
seconds=$(jq -r .run_seconds BENCHMARK.json)
trace=${TRACE:-0}

tree=target/pairs/$(git rev-parse --short "$parent_rev")
if [ ! -d "$tree" ]; then
    mkdir -p "$tree"
    git archive "$parent_rev" | tar -x -C "$tree"
fi
for dir in "$tree" .; do
    (cd "$dir" && cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
done

# trees REV|.: the tree hashes of the code the benchmark builds, of a
# commit or (.) of this checkout's files as they are now, through a
# throw-away index so the real one is left alone.
trees() {
    if [ "$1" = . ]; then
        index=target/pairs/index
        rm -f "$index"
        GIT_INDEX_FILE=$index git add -A -- crates benchmark
        crates=$(GIT_INDEX_FILE=$index git write-tree --prefix=crates/)
        bench=$(GIT_INDEX_FILE=$index git write-tree --prefix=benchmark/)
        rm -f "$index"
    else
        crates=$(git rev-parse "$1:crates")
        bench=$(git rev-parse "$1:benchmark")
    fi
    jq -nc --arg c "$crates" --arg b "$bench" '{crates: $c, benchmark: $b}'
}
parent_trees=$(trees "$parent_rev")
change_trees=$(trees .)

# run DIR SEED: the result line of one benchmark run in DIR.
run() {
    dir=$1
    seed=$2
    set -- $(jq -r '.command[]' BENCHMARK.json)
    (cd "$dir" && "$@" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace") |
        grep '^{"correct"' | tail -n 1
}

runs=target/pairs/runs.jsonl
: >"$runs"
seed=$first
while [ "$seed" -lt $((first + n)) ]; do
    if [ $((seed % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    k=0
    for side in $order; do
        k=$((k + 1))
        if [ "$side" = parent ]; then dir=$tree; else dir=.; fi
        line=$(run "$dir" "$seed")
        [ -n "$line" ] || { echo "seed $seed, $side: no result line" >&2; exit 1; }
        printf '%s\n' "$line" | jq -c --arg side "$side" --argjson seed "$seed" --argjson k "$k" \
            '{seed: $seed, side: $side, order: $k, correct, attempted, failed,
              metrics: ((.metrics | map_values(.value)) + {fail_share: (.failed / .attempted)})}' >>"$runs"
        echo "seed $seed $side: $(printf '%s\n' "$line" | jq .metrics.ops_per_s.value) ops/s" >&2
    done
    seed=$((seed + 1))
done

[ -f "$out" ] || echo '{"sets": []}' >"$out"
jq -s --arg workload "$workload" --arg parent "$parent_rev" \
    --arg change "$(git rev-parse HEAD)$(git diff --quiet HEAD || echo +dirty)" \
    --argjson parent_trees "$parent_trees" --argjson change_trees "$change_trees" \
    --argjson seconds "$seconds" --argjson trace "$([ "$trace" = 1 ] && echo true || echo false)" \
    --argjson first "$first" --argjson n "$n" --arg note "${LABEL:-}" --slurpfile doc "$out" '
    def quantile($p): sort | ((length - 1) * $p) as $x | ($x | floor) as $i
        | if $i + 1 < length then .[$i] + (.[$i + 1] - .[$i]) * ($x - $i) else .[$i] end;
    def stats: {median: quantile(0.5), q1: quantile(0.25), q3: quantile(0.75)};
    . as $runs
    | {workload: $workload, parent: $parent, change: $change, "label": $note,
       trees: {parent: $parent_trees, change: $change_trees},
       seconds: $seconds, trace: $trace, first_seed: $first, n: $n, runs: $runs,
       summary: ([$runs[].metrics | keys[]] | unique | map(. as $m
         | ([$runs[] | select(.side == "parent") | {key: (.seed | tostring), value: .metrics[$m]}]
            | from_entries) as $p
         | ([$runs[] | select(.side == "change") | {key: (.seed | tostring), value: .metrics[$m]}]
            | from_entries) as $c
         | [$p | keys[] | select($p[.] != null and $c[.] != null)] as $seeds
         | {key: $m, value: {
             parent: ([$p[$seeds[]]] | stats),
             change: ([$c[$seeds[]]] | stats),
             paired_ratio_median: ([$seeds[] | select($p[.] != 0) | $c[.] / $p[.]]
               | if length > 0 then quantile(0.5) else null end),
             higher: ([$seeds[] | select($c[.] > $p[.])] | length),
             lower: ([$seeds[] | select($c[.] < $p[.])] | length)}})
         | from_entries)} as $set
    | $doc[0] | .sets += [$set]' "$runs" >"$out.tmp"
mv "$out.tmp" "$out"
