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
# seed. The parent is exported with `git archive` and the working tree's
# files are copied, each to its own source directory under target/ab/src.
# The build directory's path alone moves hpmpbench's timings (EXPERIMENTS
# X26), so both sides are built in turn at one path: each source tree is
# copied to target/ab/build/<layout>, built there from clean with
# BENCHMARK.json's build, and its binary is copied out to target/ab/bin.
# Both sha256 sums are printed; when the two source trees are identical
# (an A/A run) the sums must be equal too, or the script stops before it
# times anything.
#
# One path is one code layout. To see how far layout alone moves the
# parent, each side is built at three paths of different lengths, and pair
# i runs the binaries of layout i mod 3. Pair i runs one workload on both
# sides back to back, the parent first in odd pairs and the change first
# in even ones, so the two runs of a pair are seconds apart. Raw readings
# go to target/ab/runs.tsv.
#
# For every workload and metric it prints each side's median [Q1, Q3], the
# change of the median, the median and [min, max] of the per-pair
# change/parent ratios, the parent's layout band, the pairs the change won,
# and a verdict under one rule: `better` (`worse`) only when the change
# wins (loses) at least nine tenths of the pairs, ties counting for
# neither, the medians differ by more than the parent's interquartile
# range, and the median paired ratio lies outside the layout band (the
# [min, max] of the parent's per-layout medians over its overall median);
# `out of bound` when it is `worse` and the median paired ratio is also
# beyond the metric's `bound` in BENCHMARK.json's end_to_end list; `same`
# when every pair ties; `unresolved` otherwise. `failed_share` is the share
# of operations that failed; it has no bound, and a pair whose parent
# reads 0 has no ratio.
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
layouts="1 2 3"

out=$root/target/ab
src=$out/src
rm -rf "$src" "$out/bin"
mkdir -p "$src/parent" "$src/change" "$out/bin"
git -C "$root" archive "$sha" | tar -x -C "$src/parent"
(cd "$root" && git ls-files -co --exclude-standard | while IFS= read -r f; do
    [ -e "$f" ] && printf '%s\n' "$f"
done | tar -cf - -T -) | tar -x -C "$src/change"
same_source=0
diff -r "$src/parent" "$src/change" >/dev/null 2>&1 && same_source=1

# The build path of layout $1: one fixed directory per layout, of a length
# of its own.
build_dir() {
    case $1 in
    1) echo "$out/build/l" ;;
    2) echo "$out/build/layout" ;;
    *) echo "$out/build/layout-three" ;;
    esac
}
bin=examples/hpmpbench/target/release/hpmpbench
for l in $layouts; do
    dir=$(build_dir "$l")
    for side in parent change; do
        echo "ab: building the $side at $dir" >&2
        rm -rf "$dir"
        mkdir -p "$dir"
        (cd "$src/$side" && tar -cf - .) | tar -x -C "$dir"
        cargo build --release --quiet --manifest-path "$dir/examples/hpmpbench/Cargo.toml"
        cp "$dir/$bin" "$out/bin/$side-$l"
    done
    rm -rf "$dir"
    psum=$(sha256sum "$out/bin/parent-$l" | cut -d' ' -f1)
    csum=$(sha256sum "$out/bin/change-$l" | cut -d' ' -f1)
    echo "ab: layout $l sha256 parent $psum change $csum" >&2
    if [ "$same_source" -eq 1 ] && [ "$psum" != "$csum" ]; then
        echo "ab: identical sources built different binaries at one path; nothing timed" >&2
        exit 1
    fi
done

runs=$out/runs.tsv
: >"$runs"
# One run of workload $2 on side $1; appends
# `pair workload side metric value layout`.
run() {
    "$out/bin/$1-$layout" --workload "$2" --seconds "$seconds" >"$out/last.txt" ||
        { echo "ab: $2 failed on the $1 side" >&2; exit 1; }
    awk -v pair="$pair" -v wl="$2" -v side="$1" -v layout="$layout" '
        $2 ~ /^(accesses_per_s|setup_s|peak_rss_mib|sim_cycles)$/ {
            printf "%s\t%s\t%s\t%s\t%s\t%s\n", pair, $1, side, $2, $3, layout
        }
        /^\{/ {
            a = $0; sub(/.*"attempted":/, "", a); sub(/[,}].*/, "", a)
            f = $0; sub(/.*"failed":/, "", f); sub(/[,}].*/, "", f)
            printf "%s\t%s\t%s\tfailed_share\t%s\t%s\n", pair, wl, side, (a > 0 ? f / a : 0), layout
        }' "$out/last.txt" >>"$runs"
}

pair=1
while [ "$pair" -le "$pairs" ]; do
    layout=$(((pair - 1) % 3 + 1))
    for w in $workloads; do
        echo "ab: pair $pair/$pairs $w (layout $layout)" >&2
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

echo "parent $sha vs the working tree: $pairs alternating pairs over 3 build paths, --seconds $seconds"
echo
echo "| Workload | Metric | Parent median [Q1, Q3] | Change median [Q1, Q3] | Change | Paired ratio [min, max] | Layout band | Won | Verdict |"
echo "|---|---|---|---|---|---|---|---|---|"
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
        lay[$1] = $6
        if ($1 > npairs) npairs = $1
    }
    END {
        for (k = 1; k <= keys; k++) {
            key = order[k]; split(key, part, SUBSEP)
            higher = better[part[2]] == "higher"
            n = won = lost = nr = 0
            for (l = 1; l <= 3; l++) nl[l] = 0
            for (i = 1; i <= npairs; i++) {
                if (!((key, "parent", i) in v) || !((key, "change", i) in v)) continue
                p = v[key, "parent", i]; c = v[key, "change", i]
                n++; ps[n] = p; cs[n] = c
                l = lay[i]; lp[l, ++nl[l]] = p
                if (p != 0) rs[++nr] = c / p
                if (c != p) { if ((c > p) == higher) won++; else lost++ }
            }
            sort(ps, n); sort(cs, n); sort(rs, nr)
            rm = nr ? med(rs, nr) : 0
            pm = med(ps, n); cm = med(cs, n); iqr = q(ps, n, 0.75) - q(ps, n, 0.25)
            # The layout band: the parent median of each layout over the overall one.
            lo = hi = 1
            for (l = 1; l <= 3; l++) {
                if (!nl[l] || pm == 0) continue
                for (j = 1; j <= nl[l]; j++) one[j] = lp[l, j]
                sort(one, nl[l]); r = med(one, nl[l]) / pm
                if (r < lo) lo = r
                if (r > hi) hi = r
            }
            outside = nr && (rm < lo || rm > hi)
            gap = cm - pm; if (gap < 0) gap = -gap
            need = 0.9 * n
            if (won + lost == 0) verdict = "same"
            else if (won >= need && gap > iqr && outside) verdict = "better"
            else if (lost >= need && gap > iqr && outside) verdict = "worse"
            else verdict = "unresolved"
            if (verdict == "worse" && part[2] in bound &&
                (higher ? rm < 1 - bound[part[2]] : rm > 1 + bound[part[2]]))
                verdict = "out of bound"
            printf "| %s | %s | %s [%s, %s] | %s [%s, %s] | %s | %s | [%.4f, %.4f] | %d/%d | %s |\n",
                part[1], part[2], num(pm), num(q(ps, n, 0.25)), num(q(ps, n, 0.75)),
                num(cm), num(q(cs, n, 0.25)), num(q(cs, n, 0.75)),
                pm == 0 ? "n/a" : sprintf("%+.1f%%", 100 * (cm - pm) / pm),
                nr ? sprintf("%.4f [%.4f, %.4f]", rm, rs[1], rs[nr]) : "n/a",
                lo, hi, won, n, verdict
        }
    }' "$runs"
