#!/bin/sh
# Paired A/B comparison of hpmpbench's end-to-end metrics between a parent
# revision and the working tree.
#
# Usage: ci/ab.sh <parent-rev> [pairs] [workload...]
#   pairs      alternating pairs per workload (default 10)
#   workload   native-walk | native-tlb-hit | guest-3d | smp-churn
#              (default: all four)
#
# Every run lasts BENCHMARK.json's run_seconds, with hpmpbench's default
# seed. The parent is exported with `git archive` to
# target/ab/parent/<sha> (a plain tree, so nothing is registered in .git)
# and the working tree's files are copied afresh to
# target/ab/change/<sha>, so both sides build from directories of one
# path length: the build directory alone moves hpmpbench's timings
# (EXPERIMENTS X26). Both sides' hpmpbench are built with BENCHMARK.json's
# build. Pair i runs one workload on both sides back to back, the parent
# first in odd pairs and the change first in even ones, so the two runs of
# a pair are seconds apart. Raw readings go to target/ab/runs.tsv.
#
# For every workload and metric it prints each side's median [Q1, Q3], the
# change of the median, the median and [min, max] of the per-pair
# change/parent ratios, the pairs the change won, and a verdict under one
# rule: `better` (`worse`) only when the change wins (loses) at least nine
# tenths of the pairs, ties counting for neither, and the medians differ by
# more than the parent's interquartile range; `out of bound` when it is
# `worse` and the median paired ratio is also beyond the metric's `bound`
# in BENCHMARK.json's end_to_end list; `same` when every pair ties;
# `unresolved` otherwise. `failed_share` is the share of operations that
# failed; it has no bound, and a pair whose parent reads 0 has no ratio.
#
# A measuring tool for change descriptions, not a CI gate.
set -eu

if [ $# -lt 1 ]; then
    sed -n '5,9p' "$0" >&2
    exit 2
fi
root=$(git rev-parse --show-toplevel)
sha=$(git -C "$root" rev-parse --verify "$1^{commit}")
pairs=${2:-10}
shift $(($# < 2 ? $# : 2))
workloads=${*:-native-walk native-tlb-hit guest-3d smp-churn}
seconds=$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' "$root/BENCHMARK.json")
# `name better bound` for every end-to-end metric.
bounds=$(sed -n 's/.*"name": *"\([a-z_]*\)".*"better": *"\([a-z]*\)".*"bound": *\([0-9.]*\).*/\1 \2 \3/p' \
    "$root/BENCHMARK.json")

out=$root/target/ab
parent=$out/parent/$sha
if [ ! -d "$parent" ]; then
    mkdir -p "$parent"
    git -C "$root" archive "$sha" | tar -x -C "$parent"
fi
change=$out/change/$sha
rm -rf "$change"
mkdir -p "$change"
(cd "$root" && git ls-files -co --exclude-standard | while IFS= read -r f; do
    [ -e "$f" ] && printf '%s\n' "$f"
done | tar -cf - -T -) | tar -x -C "$change"
for tree in "$parent" "$change"; do
    echo "ab: building $tree" >&2
    cargo build --release --quiet --manifest-path "$tree/examples/hpmpbench/Cargo.toml"
done
bin=examples/hpmpbench/target/release/hpmpbench

runs=$out/runs.tsv
: >"$runs"
# One run of workload $2 on side $1; appends `pair workload side metric value`.
run() {
    case $1 in parent) tree=$parent ;; *) tree=$change ;; esac
    "$tree/$bin" --workload "$2" --seconds "$seconds" >"$out/last.txt" ||
        { echo "ab: $2 failed on the $1 side" >&2; exit 1; }
    awk -v pair="$pair" -v wl="$2" -v side="$1" '
        $2 ~ /^(accesses_per_s|setup_s|peak_rss_mib|sim_cycles)$/ {
            printf "%s\t%s\t%s\t%s\t%s\n", pair, $1, side, $2, $3
        }
        /^\{/ {
            a = $0; sub(/.*"attempted":/, "", a); sub(/[,}].*/, "", a)
            f = $0; sub(/.*"failed":/, "", f); sub(/[,}].*/, "", f)
            printf "%s\t%s\t%s\tfailed_share\t%s\n", pair, wl, side, (a > 0 ? f / a : 0)
        }' "$out/last.txt" >>"$runs"
}

pair=1
while [ "$pair" -le "$pairs" ]; do
    for w in $workloads; do
        echo "ab: pair $pair/$pairs $w" >&2
        if [ $((pair % 2)) -eq 1 ]; then
            run parent "$w"
            run change "$w"
        else
            run change "$w"
            run parent "$w"
        fi
    done
    pair=$((pair + 1))
done

echo "parent $sha vs the working tree: $pairs alternating pairs, --seconds $seconds"
echo
echo "| Workload | Metric | Parent median [Q1, Q3] | Change median [Q1, Q3] | Change | Paired ratio [min, max] | Won | Verdict |"
echo "|---|---|---|---|---|---|---|---|"
awk -F '\t' -v bounds="$bounds" '
    function sort(a, n,    i, j, t) {
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
    }
    # Nearest-rank quantile of the sorted a[1..n], as hpmpbench computes it.
    function q(a, n, p,    r) { r = int(p * n); if (r < p * n) r++; if (r < 1) r = 1; return a[r] }
    function med(a, n) { return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2 }
    function num(x) { return sprintf(x >= 1e6 && x == int(x) ? "%d" : "%.6g", x) }
    BEGIN {
        nb = split(bounds, b, "\n")
        for (i = 1; i <= nb; i++) { split(b[i], f, " "); better[f[1]] = f[2]; bound[f[1]] = f[3] }
    }
    {
        key = $2 SUBSEP $4
        if (!(key in seen)) { seen[key] = 1; order[++keys] = key }
        v[key, $3, $1] = $5 + 0
        if ($1 > npairs) npairs = $1
    }
    END {
        for (k = 1; k <= keys; k++) {
            key = order[k]; split(key, part, SUBSEP)
            higher = better[part[2]] == "higher"
            n = won = lost = nr = 0
            for (i = 1; i <= npairs; i++) {
                if (!((key, "parent", i) in v) || !((key, "change", i) in v)) continue
                p = v[key, "parent", i]; c = v[key, "change", i]
                n++; ps[n] = p; cs[n] = c
                if (p != 0) rs[++nr] = c / p
                if (c != p) { if ((c > p) == higher) won++; else lost++ }
            }
            sort(ps, n); sort(cs, n); sort(rs, nr)
            rm = nr ? med(rs, nr) : 0
            pm = med(ps, n); cm = med(cs, n); iqr = q(ps, n, 0.75) - q(ps, n, 0.25)
            gap = cm - pm; if (gap < 0) gap = -gap
            need = 0.9 * n
            if (won + lost == 0) verdict = "same"
            else if (won >= need && gap > iqr) verdict = "better"
            else if (lost >= need && gap > iqr) verdict = "worse"
            else verdict = "unresolved"
            if (verdict == "worse" && nr && part[2] in bound &&
                (higher ? rm < 1 - bound[part[2]] : rm > 1 + bound[part[2]]))
                verdict = "out of bound"
            printf "| %s | %s | %s [%s, %s] | %s [%s, %s] | %s | %s | %d/%d | %s |\n",
                part[1], part[2], num(pm), num(q(ps, n, 0.25)), num(q(ps, n, 0.75)),
                num(cm), num(q(cs, n, 0.25)), num(q(cs, n, 0.75)),
                pm == 0 ? "n/a" : sprintf("%+.1f%%", 100 * (cm - pm) / pm),
                nr ? sprintf("%.4f [%.4f, %.4f]", rm, rs[1], rs[nr]) : "n/a",
                won, n, verdict
        }
    }' "$runs"
