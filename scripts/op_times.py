"""Print each autodiff op's forward and backward-rule seconds per unit of a workload.

    python scripts/op_times.py [--workload W] [--units N] [--seed S] [--smoke]

The script sets up one workload of ``benchmarks/workloads.py`` (default
``pretrain-d64``; ``--smoke`` its small configuration) and runs its warm-up.
It then times N units in this one process with a timer around every public
function of ``sentigen.autodiff`` (each ``ad.<op>``, ``backward`` included)
and around every backward rule that ``ad._make`` records, and restores the
module's functions when the units end, whether they end well or not. Each
figure is self time: a call's wall time less that of the timed calls it
makes, so ``attention`` (every attention block that records a graph, its
q, k, v and output projections inside) does not count its ``head_layout``,
and ``backward`` does not count its rules. ``ffn`` is every feed-forward
block that records a graph, both its projections inside; ``attend`` is
cached decoding's graph-free attention, and ``linear`` every other
projection: the input frames', and cached decoding's. A rule's seconds
include the rebuilds of the inputs it keeps (see ``ad.Tensor``): the
``layer_norm`` outputs that ``ffn``, ``attention`` and ``token_loss``
read. ``embedding`` is every stream's input rows, the token rows'
projection by ``w_text`` inside, and its rule gathers those rows again for
``w_text``'s gradient. Every unit's
outputs are checked as the benchmark checks them, and a failed check exits
1. The script writes only inside a temporary directory. BLAS threads follow the environment; set
``OPENBLAS_NUM_THREADS=1`` to time what ``benchmarks/run.py`` times.
"""
from __future__ import annotations

import argparse
import inspect
import sys
import tempfile
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import sentigen.autodiff as ad  # noqa: E402
import workloads  # noqa: E402


class OpClock:
    """Self seconds and call counts under (name, "forward" or "rule")."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self._inner = []  # per open timed call: the seconds its timed callees took

    def timed(self, fn, key):
        def call(*args, **kwargs):
            self._inner.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - start
                self.seconds[key] += took - self._inner.pop()
                self.calls[key] += 1
                if self._inner:
                    self._inner[-1] += took
        return call

    @contextmanager
    def installed(self):
        """Every public ``ad`` function and ``ad._make`` replaced by a timed
        one while the block runs; the originals afterwards."""
        real = {name: fn for name, fn in vars(ad).items()
                if inspect.isfunction(fn) and fn.__module__ == ad.__name__
                and (not name.startswith("_") or name == "_make")}
        make = real["_make"]

        def timed_make(data, op, parents, rule, rebuild=None):
            return make(data, op, parents, self.timed(rule, (op, "rule")), rebuild)

        try:
            for name, fn in real.items():
                setattr(ad, name, timed_make if name == "_make" else self.timed(fn, (name, "forward")))
            yield self
        finally:
            for name, fn in real.items():
                setattr(ad, name, fn)


def time_units(workload, units, seed, smoke):
    """The workload's ``OpClock`` over ``units`` timed units, their summed
    wall seconds, and its tally of checks."""
    tally = workloads.Tally()
    work = workloads.WORKLOADS[workload](seed, smoke, tally)
    clock, done, wall = OpClock(), [], 0.0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        work.setup(tmp / "setup")
        work.warm_up(tmp)
        with clock.installed():
            for i in range(units):
                start = time.perf_counter()
                done.append(work.run_unit(i, tmp / "timed"))
                wall += time.perf_counter() - start
        for i, unit in enumerate(done):
            work.check_unit(unit, i, tmp)
        work.finish(done)
    return clock, wall, tally


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="pretrain-d64", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--units", type=int, default=3, help="timed units (default 3)")
    p.add_argument("--seed", type=int, default=0, help="the workload's seed (default 0)")
    p.add_argument("--smoke", action="store_true", help="the workload's small configuration")
    args = p.parse_args(argv)
    if args.units < 1:
        p.error("--units must be at least 1")
    clock, wall, tally = time_units(args.workload, args.units, args.seed, args.smoke)

    per = 1.0 / args.units
    names = {name for name, _ in clock.seconds}
    rows = sorted(((name, clock.calls[name, "forward"] * per, clock.seconds[name, "forward"] * per,
                    clock.seconds[name, "rule"] * per) for name in names),
                  key=lambda row: -(row[2] + row[3]))
    print(f"autodiff self seconds per unit, {args.workload}{' (smoke)' if args.smoke else ''}, "
          f"seed {args.seed}, {args.units} units of {wall * per:.3f} s wall:")
    print(f"{'op':<24}{'calls':>10}{'forward':>10}{'rule':>10}{'total':>10}")
    for name, calls, fwd, rule in rows + [("total", sum(r[1] for r in rows), sum(r[2] for r in rows),
                                            sum(r[3] for r in rows))]:
        print(f"{name:<24}{calls:>10.1f}{fwd:>10.4f}{rule:>10.4f}{fwd + rule:>10.4f}")
    for note in tally.notes:
        print(f"op_times: {note}", file=sys.stderr)
    return 1 if tally.failed else 0


if __name__ == "__main__":
    sys.exit(main())
