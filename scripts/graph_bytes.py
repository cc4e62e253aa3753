"""Print the bytes a training graph holds at the first stage-one ``backward``.

    python scripts/graph_bytes.py [--smoke] [--seed S]

The script sets up the ``pretrain-d64`` workload of ``benchmarks/workloads.py``
(its synthetic corpus and its d=64, batch-64 configuration; with ``--smoke``
the d=16, batch-8 one), runs stage one, and stops it at its first
``autodiff.backward``. There it walks the graph behind the loss and counts
every distinct buffer once, a view as the array it views, under the op of
the first vertex that holds it and one of three holders:

- ``output``: the output array of a vertex whose tensor is still alive;
- ``rule``: an array a backward rule holds, a parent's or one the op made
  (``pair_contrast``'s pair differences and distances, say);
- ``constant``: the array of a constant leaf of the graph.

Parameters are counted apart: the model holds them whether a step runs or
not. The run writes only inside a temporary directory.
"""
from __future__ import annotations

import argparse
import sys
import tempfile
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import sentigen.autodiff as ad  # noqa: E402
import sentigen.training as training  # noqa: E402
import workloads  # noqa: E402

HOLDERS = ("output", "rule", "constant")
MB = float(1 << 20)


class _Stop(BaseException):
    """Ends the stage-one run once the probe has counted."""


def _buffer(a):
    """The array that owns ``a``'s memory: ``a``, or the array it views."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def rule_arrays(rule):
    """The arrays a backward rule holds, through its closure, the closures
    of the functions it calls, the tuples and lists it holds, and the data
    of any tensor it holds."""
    found, stack, seen = [], [rule], set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found.append(obj)
        elif isinstance(obj, ad.Tensor):
            stack.append(obj.data)
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif callable(obj) and getattr(obj, "__closure__", None):
            stack.extend(c.cell_contents for c in obj.__closure__)
    return found


def census(loss):
    """({(op, holder): bytes}, parameter bytes) over the graph behind ``loss``."""
    order = ad._topological_order(loss)
    params = {id(_buffer(v.data)): v.data.nbytes for v in order
              if type(v) is ad.Tensor and v.requires_grad}
    counted, table = set(params), defaultdict(int)

    def count(a, op, holder):
        buf = _buffer(a)
        if id(buf) not in counted:
            counted.add(id(buf))
            table[op, holder] += buf.nbytes

    for v in order:
        if type(v) is ad.Tensor:
            count(v.data, v.op, "constant")
            continue
        out = v.out()
        if out is not None:
            count(out.data, v.op, "output")
        for a in rule_arrays(v.rule):
            count(a, v.op, "rule")
    return table, sum(params.values())


def first_backward_census(seed, smoke):
    """``census`` of the loss at the first stage-one ``backward`` of the
    ``pretrain-d64`` workload, and that workload."""
    work = workloads.Pretrain(seed, smoke, workloads.Tally())
    seen = []

    def probe(loss):
        seen.append(census(loss))
        raise _Stop

    real = ad.backward
    with tempfile.TemporaryDirectory() as tmp:
        work.setup(Path(tmp))
        ad.backward = probe
        try:
            training.run_pretrain_stage1(work.records, work.registry, work.model_config,
                                         replace(work.train_config, max_steps=1), Path(tmp) / "s1")
        except _Stop:
            pass
        finally:
            ad.backward = real
    if not seen:
        sys.exit("graph_bytes: stage one reached no backward")
    return seen[0], work


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--smoke", action="store_true", help="the d=16, batch-8 configuration")
    p.add_argument("--seed", type=int, default=7, help="the workload's seed (default 7)")
    args = p.parse_args(argv)
    (table, param_bytes), work = first_backward_census(args.seed, args.smoke)

    cfg = work.model_config
    print(f"bytes held at the first stage-one backward, {work.name} "
          f"(d={cfg.model_dim}, batch {work.train_config.batch_size}), seed {args.seed}, MB:")
    ops = sorted({op for op, _ in table}, key=lambda op: -sum(table[op, h] for h in HOLDERS))
    print(f"{'op':<24}" + "".join(f"{h:>10}" for h in HOLDERS) + f"{'total':>10}")
    for op in ops + ["total"]:
        row = [sum(b for (o, h), b in table.items() if h == holder and op in (o, "total"))
               for holder in HOLDERS]
        print(f"{op:<24}" + "".join(f"{b / MB:>10.2f}" for b in row + [sum(row)]))
    print(f"{'parameters (apart)':<24}{param_bytes / MB:>40.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
