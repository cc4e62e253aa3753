"""Print the bytes a training graph holds at each ``backward`` of the first stage-one step.

    python scripts/graph_bytes.py [--smoke] [--seed S] [--peak] [--max-peak-mb X]

The script sets up the ``pretrain-d64`` workload of ``benchmarks/workloads.py``
(its synthetic corpus and its d=64, batch-64 configuration; with ``--smoke``
the d=16, batch-8 one) and runs one step of stage one. A stage-one step
calls ``autodiff.backward`` twice: on its corrupted pass's term, then on
its clean pass's. At each call the script walks the graph behind the loss
and counts every distinct buffer once, a view as the array it views, under
the op of the first vertex that holds it and one of three holders:

- ``output``: the output array of a vertex whose tensor is still alive;
- ``rule``: an array a backward rule holds, a parent's (``pair_contrast``'s
  input, say), one a kept input's rebuild reads (``layer_norm``'s
  normalised rows, which its own rule holds too), or one the op made
  (``pair_contrast``'s pair distances);
- ``constant``: the array of a constant leaf of the graph.

Parameters are counted apart: the model holds them whether a step runs or
not.

A step's peak need not sit at its ``backward``: an op's forward can hold
more while it runs than the graph holds at the end. With ``--peak`` the
script also runs one whole round of the workload (both stages) under
``tracemalloc`` and prints the round's peak traced memory and the op
windows that saw the most: each public ``autodiff`` function and each
backward rule, while it was the innermost such call running, and the time
between them. The module's functions are restored when the round ends,
whether it ends well or not. ``--max-peak-mb X`` traces that round too,
and exits 1 when its peak exceeds X MB (2^20 bytes): the peak is the same
run to run on one numpy, so a change that grows the graph has to raise
the bound it is run with. The runs write only inside temporary
directories.
"""
from __future__ import annotations

import argparse
import sys
import tempfile
import tracemalloc
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import op_times  # noqa: E402
import sentigen.autodiff as ad  # noqa: E402
import sentigen.training as training  # noqa: E402
import workloads  # noqa: E402

HOLDERS = ("output", "rule", "constant")
MB = float(1 << 20)


def _buffer(a):
    """The array that owns ``a``'s memory: ``a``, or the array it views."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def rule_arrays(rule):
    """The arrays a backward rule holds, through its closure, the closures
    of the functions it calls (a kept input's rebuild among them), the
    tuples and lists it holds, the slots of any ``Segments`` it holds
    (attention's row layouts), and the data of any tensor it holds."""
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
        elif isinstance(obj, ad.Segments):
            stack.extend(getattr(obj, name) for name in obj.__slots__)
        elif callable(obj) and getattr(obj, "__closure__", None):
            stack.extend(c.cell_contents for c in obj.__closure__)
    return found


def census(loss):
    """({(op, holder): bytes}, parameter bytes) over the graph behind ``loss``."""
    order = ad._topological_order(loss)
    # a parameter is a view into the optimizer's arena: its own bytes, not its buffer's
    params = [v.data for v in order if type(v) is ad.Tensor and v.requires_grad]
    counted, table = {id(_buffer(a)) for a in params}, defaultdict(int)

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
    return table, sum(a.nbytes for a in params)


def first_step_censuses(seed, smoke):
    """``census`` of the loss at each ``backward`` of the first stage-one
    step of the ``pretrain-d64`` workload, in call order, and that workload."""
    work = workloads.Pretrain(seed, smoke, workloads.Tally())
    seen = []

    def probe(loss, grads=None):
        seen.append(census(loss))
        return real(loss, grads)

    real = ad.backward
    with tempfile.TemporaryDirectory() as tmp:
        work.setup(Path(tmp))
        ad.backward = probe
        try:
            training.run_pretrain_stage1(work.records, work.registry, work.model_config,
                                         replace(work.train_config, max_steps=1), Path(tmp) / "s1")
        finally:
            ad.backward = real
    if not seen:
        sys.exit("graph_bytes: stage one reached no backward")
    return seen, work


class PeakWindows(op_times.OpClock):
    """``op_times.OpClock`` installed for memory: ``peak`` holds the most
    bytes traced while each (name, "forward" or "rule") call was the
    innermost open one, and ("between ops", "") while none was. Needs
    ``tracemalloc`` tracing."""

    BETWEEN = ("between ops", "")

    def __init__(self):
        super().__init__()
        self.peak = defaultdict(int)
        self._open = []

    def mark(self):
        """Credit the peak since the last mark to the innermost open window."""
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        key = self._open[-1] if self._open else self.BETWEEN
        self.peak[key] = max(self.peak[key], peak)

    def timed(self, fn, key):
        def call(*args, **kwargs):
            self.mark()
            self._open.append(key)
            try:
                return fn(*args, **kwargs)
            finally:
                self.mark()
                self._open.pop()
                self.calls[key] += 1
        return call


def round_peaks(seed, smoke):
    """``PeakWindows`` over one traced round of the ``pretrain-d64``
    workload, the workload, and its tally of the round's checks."""
    tally = workloads.Tally()
    work = workloads.Pretrain(seed, smoke, tally)
    windows = PeakWindows()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        work.setup(tmp / "setup")
        tracemalloc.start()
        try:
            with windows.installed():
                unit = work.run_unit(0, tmp)
            windows.mark()
        finally:
            tracemalloc.stop()
        work.check_unit(unit, 0, tmp)
    return windows, work, tally


def print_peaks(seed, smoke, max_peak_mb=None):
    windows, work, tally = round_peaks(seed, smoke)
    cfg, peak_mb = work.model_config, max(windows.peak.values()) / MB
    print(f"\npeak traced memory over one {work.name} round (d={cfg.model_dim}, "
          f"batch {work.train_config.batch_size}), seed {seed}: {peak_mb:.2f} MB; top windows:")
    print(f"{'window':<32}{'calls':>10}{'peak MB':>10}")
    for key, peak in sorted(windows.peak.items(), key=lambda kv: -kv[1])[:10]:
        calls = windows.calls[key] if key != windows.BETWEEN else ""
        print(f"{' '.join(key).strip():<32}{calls:>10}{peak / MB:>10.2f}")
    for note in tally.notes:
        print(f"graph_bytes: {note}", file=sys.stderr)
    over = max_peak_mb is not None and peak_mb > max_peak_mb
    if over:
        print(f"graph_bytes: the round's peak, {peak_mb:.2f} MB, exceeds --max-peak-mb "
              f"{max_peak_mb}", file=sys.stderr)
    return 1 if tally.failed or over else 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--smoke", action="store_true", help="the d=16, batch-8 configuration")
    p.add_argument("--seed", type=int, default=7, help="the workload's seed (default 7)")
    p.add_argument("--peak", action="store_true",
                   help="also trace one whole round and print its peak by op window")
    p.add_argument("--max-peak-mb", type=float, metavar="X",
                   help="trace the round as --peak does, and exit 1 when its peak exceeds X MB")
    args = p.parse_args(argv)
    censuses, work = first_step_censuses(args.seed, args.smoke)

    cfg = work.model_config
    for i, (table, param_bytes) in enumerate(censuses, 1):
        if i > 1:
            print()
        print(f"bytes held at stage-one backward {i} of {len(censuses)} of the first step, "
              f"{work.name} (d={cfg.model_dim}, batch {work.train_config.batch_size}), "
              f"seed {args.seed}, MB:")
        ops = sorted({op for op, _ in table}, key=lambda op: -sum(table[op, h] for h in HOLDERS))
        print(f"{'op':<24}" + "".join(f"{h:>10}" for h in HOLDERS) + f"{'total':>10}")
        for op in ops + ["total"]:
            row = [sum(b for (o, h), b in table.items() if h == holder and op in (o, "total"))
                   for holder in HOLDERS]
            print(f"{op:<24}" + "".join(f"{b / MB:>10.2f}" for b in row + [sum(row)]))
        print(f"{'parameters (apart)':<24}{param_bytes / MB:>40.2f}")
    if args.peak or args.max_peak_mb is not None:
        return print_peaks(args.seed, args.smoke, args.max_peak_mb)
    return 0


if __name__ == "__main__":
    sys.exit(main())
