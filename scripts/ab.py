"""Compare two checkouts on one benchmark workload in alternating pairs of runs.

    python scripts/ab.py PARENT_TREE CHANGE_TREE --workload W --pairs N [--seed S --seconds T --smoke]

Each tree is a copy of the repository's files (a checkout, or ``git archive``
output). Before the first pair the script compiles each tree's ``src`` and
``benchmarks`` (``python -m compileall -q``), so no run compiles a module
while its peak RSS is measured. A pair runs ``benchmarks/run.py --trace 0``
once in each tree, as a subprocess with the tree as its working directory;
the side that goes first alternates from pair to pair, so a drift in the
host's speed falls on both.
For every end-to-end metric of the change tree's BENCHMARK.json the script
prints each side's median and quartiles, how many pairs the change won (a
tie counts for neither side), the parent's interquartile range, and whether
the claim rule holds: the change wins at least nine pairs in ten, and its
median beats the parent's by more than the parent's IQR. A last line says
whether every pair's unit digests were equal. It exits 1 as soon as a tree
fails to compile or a run fails its checks or prints no result, and 0
otherwise, whatever the figures.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

CLAIM_WINS = 0.9  # share of pairs the change must win


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path, help="the parent's tree")
    p.add_argument("change", type=Path, help="the change's tree")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="seconds per run (default: the change's BENCHMARK.json run_seconds)")
    p.add_argument("--smoke", action="store_true", help="pass --smoke to every run")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    for tree in (args.parent, args.change):
        if not (tree / "benchmarks" / "run.py").is_file() or not (tree / "BENCHMARK.json").is_file():
            p.error(f"{tree} holds no benchmarks/run.py and BENCHMARK.json")
    return args


def compile_tree(tree):
    """Byte-compile ``tree``'s ``src`` and ``benchmarks``; False, with the
    reason printed, when that fails."""
    proc = subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "benchmarks"],
                          cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"ab: compiling {tree} failed (exit {proc.returncode})", file=sys.stderr)
        print((proc.stdout + proc.stderr)[-2000:], file=sys.stderr, end="")
    return proc.returncode == 0


def run_once(tree, args):
    """One untraced run in ``tree``: its (detail, result) objects, or None
    with the reason printed when it fails."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd + (["--smoke"] if args.smoke else []), cwd=tree,
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        detail, result = json.loads(lines[-2])["detail"], json.loads(lines[-1])
    except (IndexError, KeyError, ValueError):
        detail = result = None
    if proc.returncode != 0 or result is None or not result.get("correct"):
        print(f"ab: run in {tree} failed (exit {proc.returncode})", file=sys.stderr)
        for note in (detail or {}).get("failures", []):
            print(f"  {note}", file=sys.stderr)
        print(proc.stderr[-2000:], file=sys.stderr, end="")
        return None
    return detail, result


def quartiles(values):
    """(first quartile, median, third quartile), interpolated between the
    sorted values; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarize(name, better, parent, change):
    """One table row: medians and quartiles, wins, the parent's IQR, and
    whether the claim rule holds for the change."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
    gain = sign * (cm - pm)
    holds = wins >= CLAIM_WINS * len(parent) and gain > p3 - p1
    return (f"{name:<14} {better:<6} {f'{pm:.4g} [{p1:.4g}, {p3:.4g}]':>30}"
            f" {f'{cm:.4g} [{c1:.4g}, {c3:.4g}]':>30} {f'{wins}/{len(parent)}':>7}"
            f" {p3 - p1:>10.3g} {cm - pm:>+10.3g}  {'yes' if holds else 'no'}")


def main(argv=None):
    args = parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text("utf-8"))
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if not all(compile_tree(tree) for tree in (args.parent, args.change)):
        return 1
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            out = run_once(getattr(args, side), args)
            if out is None:
                return 1
            runs[side].append(out)
        print(f"ab: pair {i + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr)

    print(f"{args.workload}: {args.pairs} pairs, seed {args.seed}, {args.seconds:g} s per run"
          + (", smoke" if args.smoke else ""))
    print(f"{'metric':<14} {'better':<6} {'parent median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'wins':>7} {'parent IQR':>10} {'gap':>10}  claim")
    for m in spec["end_to_end"]:
        parent = [r["metrics"][m["name"]]["value"] for _, r in runs["parent"]]
        change = [r["metrics"][m["name"]]["value"] for _, r in runs["change"]]
        print(summarize(m["name"], m["better"], parent, change))
    same = all(p["digests"] == c["digests"] for (p, _), (c, _) in zip(runs["parent"], runs["change"]))
    print(f"unit digests: {'equal on every pair' if same else 'differ'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
