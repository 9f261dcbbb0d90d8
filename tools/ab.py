#!/usr/bin/env python3
"""A/B one perfbench workload between two revisions, in alternating pairs.

    python3 tools/ab.py --base REV [--change REV] --workload W --pairs N
                        [--seconds S] [--first-seed N] [--record]

Each revision runs its own perfbench/run.py from its own tree, so each side
builds and measures exactly the code of that revision.  A revision given as
a git rev is checked out once per distinct commit in a detached git worktree
under .bench_build/ab/<sha>/ (kept, so its perfbench build is reused by the
next invocation; drop one with `git worktree remove --force <dir>`).
Without --change the change side is the working tree itself, uncommitted
edits included.

Pair i (1-based) runs both sides at seed first_seed + i - 1; the base runs
first on odd pairs, the change first on even pairs, so drift in a shared
host's load falls on both sides alike.

stdout is Markdown ready for EXPERIMENTS.md: for every end-to-end metric of
the change tree's BENCHMARK.json, the median [quartiles] of each side, the
pairs the change wins, the bound check (the change's median no worse than
the base's by more than the metric's bound) and a verdict.  A worse median
reads "loss" when the medians differ by more than the base's interquartile
range, so a regression is never hidden.  A better median reads "gain" only
when three things hold: the medians differ by more than the base's IQR, the
change wins at least 90% of the pairs (a tie counts for neither side), and,
with two or more pairs, the change's median is better in the first half of
the pairs and in the second half too, so host drift that favours one side
for part of the run cannot make a gain on its own.  Anything else reads
"noise".  A metric whose 2N
values all lie within 0.5% of their common median reads "pinned", with "–"
for wins: it is set by the harness (an open-loop send rate, say), and
counting wins on it would count jitter.  A table of every pair's values
follows.

--record appends one stamped entry per side to BENCH_<workload>.json at the
repository root, next to BENCHMARK.json (created when missing): the time, the
side and its revision, the git sha, build type, compiler and nproc that
run.py reported, whether the tree had uncommitted edits, the pairs, run
length and seeds, and the median and quartiles of every end-to-end metric.
The file is the workload's A/B trajectory, newest entries last.

Exit status: 0 when every run reports correct true and failed 0, 1 when
one does not, 2 on a usage or git error.  A bound that fails is reported in
its row and on stderr but does not change the status: one short pair of
identical code can differ by more than a bound on a busy host.
"""

import argparse
import datetime
import json
import math
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
AB_DIR = os.path.join(ROOT, ".bench_build", "ab")
WORKLOADS = ("warm_hits", "cold_plans", "conformance")
# A metric whose every value lies this close to the common median is pinned.
PINNED_SPREAD = 0.005
# Share of pairs the change must win for a gain.
GAIN_WIN_SHARE = 0.9


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def git(*args):
    proc = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"git {' '.join(args)}: {proc.stderr.strip()}")
    return proc.stdout.strip()


def tree_for(rev):
    """(label, source tree) for a rev; None stands for the working tree."""
    if rev is None:
        return "working tree", ROOT
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    tree = os.path.join(AB_DIR, sha)
    if not os.path.exists(os.path.join(tree, "perfbench", "run.py")):
        os.makedirs(AB_DIR, exist_ok=True)
        git("worktree", "add", "--detach", tree, sha)
    return f"{rev} ({sha[:10]})", tree


def run_side(tree, workload, seed, seconds):
    """One perfbench run; returns (metric values, provenance, problem or None).

    The provenance is run.py's second-to-last stdout line (git sha, build
    type, compiler, nproc, seed), or {} when it is missing."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {}, {}, f"run.py exited {proc.returncode} without a result line"
    try:
        provenance = json.loads(lines[-2])
    except (IndexError, ValueError):
        provenance = {}
    values = {name: m["value"] for name, m in result.get("metrics", {}).items()}
    if result.get("correct") is not True or result.get("failed", 1) != 0:
        return values, provenance, (f"correct={result.get('correct')} "
                                    f"failed={result.get('failed')} (exit {proc.returncode})")
    return values, provenance, None


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def fmt(x):
    if x == 0:
        return "0"
    magnitude = abs(x)
    if magnitude >= 1000:
        return f"{x:,.0f}"
    if magnitude >= 10:
        return f"{x:.2f}"
    if magnitude >= 0.1:
        return f"{x:.3f}"
    return f"{x:.3g}"


def summarize(metric, base, change):
    """One table row and whether the metric's bound holds."""
    lower = metric["better"] == "lower"

    def better(c, b):
        return c < b if lower else c > b

    b_med, c_med = statistics.median(base), statistics.median(change)
    b_q1, b_q3 = quartiles(base)
    c_q1, c_q3 = quartiles(change)
    wins = sum(better(c, b) for b, c in zip(base, change))
    ties = sum(c == b for b, c in zip(base, change))
    bound = metric["bound"]
    worse_by = (c_med - b_med) if lower else (b_med - c_med)
    bound_ok = worse_by <= bound * abs(b_med)
    delta = (c_med - b_med) / b_med * 100 if b_med else 0.0
    all_med = statistics.median(base + change)
    wins_cell = f"{wins}/{len(base)}" + (f" ({ties} ties)" if ties else "")
    if all(abs(x - all_med) <= PINNED_SPREAD * abs(all_med) for x in base + change):
        verdict, wins_cell = "pinned", "–"
    elif abs(c_med - b_med) <= b_q3 - b_q1 or c_med == b_med:
        verdict = "noise"
    elif worse_by > 0:
        verdict = "loss"
    else:
        half = len(base) // 2
        halves = [(base[:half], change[:half]), (base[half:], change[half:])] if half else []
        both_halves = all(better(statistics.median(c), statistics.median(b)) for b, c in halves)
        verdict = "gain" if wins >= GAIN_WIN_SHARE * len(base) and both_halves else "noise"
    row = (f"| {metric['name']} | {fmt(b_med)} [{fmt(b_q1)}, {fmt(b_q3)}] "
           f"| {fmt(c_med)} [{fmt(c_q1)}, {fmt(c_q3)}] | {delta:+.1f}% "
           f"| {wins_cell} | {'ok' if bound_ok else 'FAIL'} "
           f"(±{bound:.0%}) | {verdict} |")
    return row, bound_ok


def side_entry(side, label, provenance, dirty, metrics, values, seconds, seeds, now):
    """One BENCH_<workload>.json entry: a side's environment and, for every
    end-to-end metric, the median and quartiles of its runs."""
    figures = {}
    for m in metrics:
        xs = values[m["name"]]
        if not xs or any(math.isnan(x) for x in xs):
            continue
        q1, q3 = quartiles(xs)
        figures[m["name"]] = {"unit": m["unit"], "median": statistics.median(xs),
                              "q1": q1, "q3": q3}
    return {"recorded_at": now.strftime("%Y-%m-%dT%H:%M:%SZ"), "side": side, "rev": label,
            "git_sha": provenance.get("git_sha", "unknown"), "dirty": dirty,
            "build_type": provenance.get("build_type", ""),
            "compiler": provenance.get("compiler", ""), "nproc": provenance.get("nproc"),
            "pairs": len(seeds), "seconds": seconds, "seeds": [seeds[0], seeds[-1]],
            "metrics": figures}


def record(path, workload, entries):
    """Append \p entries to the trajectory file at \p path."""
    doc = {"workload": workload, "entries": []}
    if os.path.exists(path):
        with open(path) as f:
            doc = json.load(f)
        if doc.get("workload") != workload:
            raise RuntimeError(f"{path} records {doc.get('workload')!r}, not {workload!r}")
    doc["entries"].extend(entries)
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def dirty(tree):
    """True when \p tree has uncommitted edits to tracked files."""
    proc = subprocess.run(["git", "-C", tree, "status", "--porcelain", "--untracked-files=no"],
                          capture_output=True, text=True)
    return proc.returncode != 0 or bool(proc.stdout.strip())


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git rev of the base side")
    parser.add_argument("--change", help="git rev of the change side (default: working tree)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seconds", type=float, help="per run (default: BENCHMARK.json)")
    parser.add_argument("--first-seed", type=int, default=11)
    parser.add_argument("--record", action="store_true",
                        help="append one entry per side to BENCH_<workload>.json")
    args = parser.parse_args()
    if args.pairs < 1 or (args.seconds is not None and args.seconds <= 0) or args.first_seed < 0:
        parser.error("--pairs must be >= 1, --seconds > 0 and --first-seed >= 0")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    try:
        base_label, base_tree = tree_for(args.base)
        change_label, change_tree = tree_for(args.change)
    except RuntimeError as e:
        log("ab:", e)
        return 2

    metrics = spec["end_to_end"]
    values = {"base": {m["name"]: [] for m in metrics},
              "change": {m["name"]: [] for m in metrics}}
    trees = {"base": base_tree, "change": change_tree}
    provenance = {"base": {}, "change": {}}
    problems = []
    seeds = []
    for i in range(1, args.pairs + 1):
        seed = args.first_seed + i - 1
        seeds.append(seed)
        for side in (("base", "change") if i % 2 else ("change", "base")):
            log(f"ab: pair {i}/{args.pairs} seed {seed} {side}")
            got, stamp, problem = run_side(trees[side], args.workload, seed, seconds)
            provenance[side] = provenance[side] or stamp
            if problem:
                problems.append(f"pair {i} seed {seed} {side}: {problem}")
            for m in metrics:
                values[side][m["name"]].append(got.get(m["name"], float("nan")))

    print(f"**{args.workload}**: base = {base_label}; change = {change_label}. "
          f"{args.pairs} pairs of {seconds:g}-s runs, seeds {seeds[0]}–{seeds[-1]}, "
          "base first on odd pairs.  Median [quartiles]; \"wins\" = pairs where the "
          "change reads better; a gain or loss needs the medians to differ by more "
          "than the base's IQR, and a gain also needs 90% of the pairs won and a "
          "better median in each half of the pairs.")
    print()
    print("| metric | base | change | Δ | wins | bound | verdict |")
    print("|---|---:|---:|---:|---:|---|---|")
    bounds_ok = True
    for m in metrics:
        base, change = values["base"][m["name"]], values["change"][m["name"]]
        if any(math.isnan(x) for x in base + change):  # a run gave no result line
            print(f"| {m['name']} | – | – | – | – | – | missing runs |")
            continue
        row, ok = summarize(m, base, change)
        bounds_ok = bounds_ok and ok
        print(row)
    print()
    print("| pair | seed | " + " | ".join(f"{m['name']} base/change" for m in metrics) + " |")
    print("|---:|---:|" + "---|" * len(metrics))
    for i, seed in enumerate(seeds):
        cells = [f"{fmt(values['base'][m['name']][i])}/{fmt(values['change'][m['name']][i])}"
                 for m in metrics]
        print(f"| {i + 1} | {seed} | " + " | ".join(cells) + " |")
    if args.record:
        now = datetime.datetime.now(datetime.timezone.utc)
        labels = {"base": base_label, "change": change_label}
        entries = [side_entry(side, labels[side], provenance[side], dirty(trees[side]), metrics,
                              values[side], seconds, seeds, now)
                   for side in ("base", "change")]
        path = os.path.join(ROOT, f"BENCH_{args.workload}.json")
        try:
            record(path, args.workload, entries)
        except (OSError, ValueError, RuntimeError) as e:
            log("ab: cannot record:", e)
            return 2
        log(f"ab: recorded {len(entries)} entries in {path}")
    for problem in problems:
        log("ab: FAIL:", problem)
    if not bounds_ok:
        log("ab: a change median is worse than its bound allows (see the bound column)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
