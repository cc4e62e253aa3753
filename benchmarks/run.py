"""Run one benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload pretrain-d64 --seed 0 --seconds 25 --trace 0

Run from the repository root (or a copy of its committed files); the package
is imported from ``src/`` next to this directory. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``, its
per-layer metrics with ``--trace 1``. The line before it holds the run's
detail: environment fingerprint, per-phase figures, unit times, digests and
any failed check. Both, and the trace's spans, are also written under
``benchmarks/_out/``. ``--smoke`` shrinks every workload to a few seconds
for the benchmark's own test.

One process, one thread: the BLAS thread knobs are set to 1 before numpy is
imported. Exit status is 0 when every check passed, 1 when one failed and 2
when the benchmark cannot run here at all.
"""
from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import ctypes
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
SETUP_REPEATS = 17


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true", help="tiny configs, for the self-test")
    return p.parse_args(argv)


def declared_metrics():
    """{section: {name: unit}} from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    return {section: {m["name"]: m["unit"] for m in spec[section]}
            for section in ("end_to_end", "per_layer")}


# ---------------------------------------------------------------------------
# environment fingerprint


def _git_commit():
    """HEAD of a git repository rooted exactly here, else None; the ceiling
    keeps git from looking above the checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "sentigen").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _openblas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def fingerprint():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "openblas_threads": _openblas_threads(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# measurement


def measure(args, work):
    import tracing
    import workloads

    tally = workloads.Tally()
    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke, tally)
    setup_times = []

    def setup():
        t0 = time.perf_counter()
        wl.setup(work / f"setup{len(setup_times)}")
        setup_times.append(time.perf_counter() - t0)

    setup()
    wl.warm_up(work)

    # The remaining set-ups are spread between the units, so their median
    # does not hang on the host's speed during one short stretch. A traced
    # run spends half its time on plain units and half on traced repeats of
    # them, alternating, so the overhead compares like with like.
    count = wl.units_for(args.seconds / 2 if args.trace else args.seconds)
    setups_per_unit = math.ceil((SETUP_REPEATS - 1) / count)
    tracer = tracing.Tracer() if args.trace else None
    units, traced, nodes_at = [], [], [0]
    for i in range(count):
        for _ in range(setups_per_unit):
            setup()
        units.append(wl.run_unit(i, work / "plain"))
        if tracer is not None:
            with tracer.installed(wl.records), tracer.span("bench.unit"):
                traced.append(wl.run_unit(i, work / "traced"))
            nodes_at.append(len(tracer.step_nodes))
    for i, unit in enumerate(units):
        wl.check_unit(unit, i, work)
    wl.finish(units)
    detail = {"units": count, "unit_walls": [u.wall for u in units],
              "setup_runs": setup_times, "digests": [u.digest for u in units],
              "figures": wl.figures(units)}
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_rate": 1.0 - tally.failed / max(1, tally.attempted),
            "samples_per_s": wl.samples_per_s(units),
            "job_s": wl.job_s(units),
        }
        return metrics, tally, detail, None

    for i, unit in enumerate(traced):
        wl.check_unit(unit, i, work)
    per_unit_nodes = [tracer.step_nodes[a:b] for a, b in zip(nodes_at, nodes_at[1:])]
    if wl.same_seed_units:
        tally.check(all(n == per_unit_nodes[0] for n in per_unit_nodes),
                    "same-seed units built different graphs")
    tally.check([u.digest for u in traced] == [u.digest for u in units],
                "traced units wrote different outputs than untraced ones")
    check_self_times(tracer, traced, tally)

    setup_tracer = tracing.Tracer()
    with setup_tracer.installed():
        wl.setup(work / "setup-traced")
    load_s = sum(end - start for name, start, end, _, _ in setup_tracer.spans
                 if name == "data.load_corpus")
    phase_s = sum(end - start for name, start, end, _, _ in tracer.spans
                  if name in tracing.RUN_SPANS)
    metrics = tracing.layer_metrics(tracer, count, wl.records, phase_s, load_s)
    metrics["trace.overhead"] = sum(u.wall for u in traced) / sum(u.wall for u in units) - 1.0
    metrics.update(detail["figures"])
    detail["traced_walls"] = [u.wall for u in traced]
    detail["graph_nodes_sha256"] = hashlib.sha256(
        json.dumps(tracer.step_nodes, sort_keys=True).encode()).hexdigest()
    return metrics, tally, detail, tracer


def check_self_times(tracer, traced, tally):
    """Spans nest (each inside its parent, none negative in self time), and
    per traced unit the layers' self times add up to the unit's wall time,
    less only the benchmark's own timer reads."""
    import tracing
    spans = tracer.spans
    own = tracing.self_times(spans)
    nested = all(spans[p][1] <= start and end <= spans[p][2]
                 for _, start, end, p, _ in spans if p >= 0)
    tally.check(nested and min(own, default=0.0) >= -1e-9, "spans do not nest")
    roots = [i for i, s in enumerate(spans) if s[0] == "bench.unit"]
    for unit, root, end in zip(traced, roots, roots[1:] + [len(spans)]):
        covered = sum(own[root:end])
        tally.check(abs(covered - unit.wall) <= 0.01 * unit.wall,
                    f"self times cover {covered:.4f} s of a {unit.wall:.4f} s unit")


def fill(metrics, declared, section):
    """Every declared metric, with its unit; figures a workload has no phase
    for read 0. A metric the code makes but the file does not declare is a
    bug in the benchmark."""
    extra = sorted(set(metrics) - set(declared[section]))
    if extra:
        raise KeyError(f"metrics missing from BENCHMARK.json {section}: {extra}")
    return {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
            for name, unit in declared[section].items()}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "sentigen" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"benchmark: no sentigen sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import sentigen
    if Path(sentigen.__file__).resolve().parent != SRC / "sentigen":
        print(f"benchmark: imported sentigen from {sentigen.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    declared = declared_metrics()

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    work = OUT / f"work-{os.getpid()}"
    try:
        metrics, tally, detail, tracer = measure(args, work)
    except Exception:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    section = "per_layer" if args.trace else "end_to_end"
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": fill(metrics, declared, section)}
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "fingerprint": fingerprint(),
              **detail, "failures": tally.notes}
    (OUT / f"{stem}.json").write_text(json.dumps({"detail": detail, "result": result}, indent=1))
    if tracer is not None:
        tracer.write_spans(OUT / f"{stem}-spans.jsonl")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
