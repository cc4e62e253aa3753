"""Check that a change keeps the fixed recipe's quality within the parent's
seed-to-seed spread.

    python scripts/quality.py PARENT_TREE CHANGE_TREE --seeds K

Each tree is a copy of the repository's files (a checkout, or ``git archive``
output). For each seed 0 .. K-1 the script runs, in each tree, the d=16
chain of ``scripts/cli_chain.py`` cut to make-corpus -> pretrain1 ->
pretrain2 ``--init`` -> finetune ``--init --val-corpus`` -> eval, with that
seed in the config's ``seed`` field (the corpus stays the same). A run is one
subprocess that imports the tree's own ``src/``, as ``scripts/ab.py`` runs
each tree's benchmark.

The figures are each stage's last logged losses (``s1/``, ``s2/``, ``ft/``)
and every metric of ``eval.json`` (``eval/<dataset>/``); a figure that is
zero in every run is left out. For each one the script prints the parent's
mean over seeds, the mean paired difference (change minus parent, seed by
seed), and the half-width of a 95% percentile-bootstrap interval of the
parent's mean over seeds, drawn from a fixed seed. A figure passes when the
mean difference lies inside that interval: within the half-width of zero.
The last line counts the figures that differ in any run and those that
fail; two identical trees (``. .``) print zero differences and "0 of N
figures differ". The script exits 1 when a run fails or any figure fails,
and 0 otherwise. See Bouthillier et al. 2021, "Accounting for Variance in
Machine Learning Benchmarks".
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from cli_chain import CHAIN, D16, chain_config  # noqa: E402

STAGES = ("make-corpus", "pretrain1", "pretrain2", "finetune", "eval")
RECIPE = [argv for argv in CHAIN if argv[0] in STAGES and "--resume" not in argv]
LOSS_DIRS = ("s1", "s2", "ft")
RESAMPLES = 2000

# a run's program: report which sentigen it imported, then run each command
RUNNER = """import json, sys
import sentigen.cli
print(sentigen.cli.__file__)
for argv in json.loads(sys.argv[1]):
    if sentigen.cli.main(argv):
        sys.exit(f"{argv[0]} failed")
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path, help="the parent's tree")
    p.add_argument("change", type=Path, help="the change's tree")
    p.add_argument("--seeds", type=int, required=True, help="how many seeds, from 0")
    args = p.parse_args(argv)
    if args.seeds < 2:
        p.error("--seeds must be at least 2: one seed has no spread")
    for tree in (args.parent, args.change):
        if not (tree / "src" / "sentigen" / "cli.py").is_file():
            p.error(f"{tree} holds no src/sentigen/cli.py")
    return args


def run_recipe(tree, seed, out_dir):
    """Run ``RECIPE`` at ``seed`` in ``out_dir`` on ``tree``'s ``src/``;
    return {figure: value}, or None with the reason printed."""
    out_dir.mkdir(parents=True)
    (out_dir / "config.json").write_text(chain_config(D16, seed))
    src = (tree / "src").resolve()
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", RUNNER, json.dumps(RECIPE)], cwd=out_dir,
                          env=env, capture_output=True, text=True)
    imported = proc.stdout.splitlines()[:1]
    if proc.returncode != 0 or not imported or not Path(imported[0]).is_relative_to(src):
        print(f"quality: seed {seed} in {tree} failed (exit {proc.returncode})", file=sys.stderr)
        print(proc.stderr[-2000:], file=sys.stderr, end="")
        return None
    figures = {}
    for stage in LOSS_DIRS:
        last = json.loads((out_dir / stage / "metrics.jsonl").read_text("utf-8").splitlines()[-1])
        figures.update({f"{stage}/{key}": value for key, value in last.items()
                        if key not in ("step", "stage", "lr")})
    for dataset, metrics in json.loads((out_dir / "eval" / "eval.json").read_text("utf-8")).items():
        figures.update({f"eval/{dataset}/{name}": value for name, value in metrics.items()
                        if name != "samples"})
    return figures


def half_width(values):
    """Half the width of the 95% percentile-bootstrap interval of the mean
    of ``values``, from ``RESAMPLES`` resamples drawn with a fixed seed."""
    rng = np.random.default_rng(0)
    means = rng.choice(np.asarray(values, dtype=float), size=(RESAMPLES, len(values))).mean(axis=1)
    low, high = np.percentile(means, [2.5, 97.5])
    return (high - low) / 2.0


def main(argv=None):
    args = parse_args(argv)
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="quality-") as work:
        for seed in range(args.seeds):
            for side in runs:
                figures = run_recipe(getattr(args, side), seed, Path(work) / side / str(seed))
                if figures is None:
                    return 1
                runs[side].append(figures)
            print(f"quality: seed {seed} done", file=sys.stderr)

    names = sorted(set().union(*runs["parent"], *runs["change"]))
    print(f"{args.seeds} seeds, d16 recipe: {args.parent} (parent) against {args.change} (change)")
    print(f"{'figure':<28} {'parent mean':>14} {'mean diff':>12} {'95% half-width':>15}  pass")
    shown = differ = failed = 0
    for name in names:
        parent = [figures.get(name) for figures in runs["parent"]]
        change = [figures.get(name) for figures in runs["change"]]
        if None in parent + change:
            print(f"{name:<28} {'missing from a run':>43}  no")
            shown, differ, failed = shown + 1, differ + 1, failed + 1
            continue
        if not any(parent + change):
            continue
        diff = float(np.mean(np.subtract(change, parent)))
        width = half_width(parent)
        ok = abs(diff) <= width
        shown, differ, failed = shown + 1, differ + (parent != change), failed + (not ok)
        print(f"{name:<28} {np.mean(parent):>14.6g} {diff:>+12.3g} {width:>15.3g}  "
              f"{'yes' if ok else 'no'}")
    print(f"quality: {differ} of {shown} figures differ, {failed} outside the parent's spread")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
