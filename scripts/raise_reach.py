"""Fail when a ``raise`` statement in ``src/`` is one the tier-1 tests never run.

    python scripts/raise_reach.py

The script finds every ``raise`` statement in ``src/sentigen/*.py`` with
``ast``. It then runs the tier-1 suite (``pytest -q
--continue-on-collection-errors tests``, from the repository root) in this
process under a ``sys.settrace`` line tracer that watches those lines alone.
It prints how many of them ran and the ``file:line`` of each that did not,
and exits 1 when any did not: a new error path needs a test that takes it.

A failing test also exits 1, since its raises would read as unreached.
Tracing makes the suite two to three times slower. Tests that run the
package in a subprocess are not traced.
"""
from __future__ import annotations

import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sentigen"


def raise_sites(src=SRC):
    """The ``(file, line)`` of every ``raise`` statement in the modules of
    ``src``: the file's resolved path and the line of the ``raise``."""
    return {(str(path.resolve()), node.lineno)
            for path in sorted(src.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Raise)}


def traced_run(watch, pytest_args):
    """Run ``pytest.main(pytest_args)`` with a line tracer on every thread;
    returns its exit code and the ``(file, line)`` keys of ``watch`` that
    ran. Only frames of the files ``watch`` names are traced line by line."""
    import pytest

    by_file, hit = defaultdict(dict), set()
    for f, line in watch:
        by_file[f][line] = (f, line)
    sites_in = {}  # a code object's file name, as spelled -> {line: site}, or None

    def lines(frame, event, arg):
        if event == "line":
            site = sites_in[frame.f_code.co_filename].get(frame.f_lineno)
            if site is not None:
                hit.add(site)
        return lines

    def calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in sites_in:
            sites_in[name] = by_file.get(str(Path(name).resolve())) if os.path.exists(name) else None
        return None if sites_in[name] is None else lines

    sys.settrace(calls)
    threading.settrace(calls)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hit


def main():
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [e for e in [os.environ.get("PYTHONPATH")] if e])
    sites = raise_sites()
    code, hit = traced_run(sites, ["-q", "--continue-on-collection-errors", "tests"])
    unreached = sorted(sites - hit)

    print(f"\nraise_reach: tier-1 ran {len(sites) - len(unreached)} of {len(sites)} raise "
          f"statements in {SRC.relative_to(ROOT)}" + ("; not reached:" if unreached else ""))
    for f, line in unreached:
        print(f"  {Path(f).relative_to(ROOT)}:{line}")
    if code != 0:
        print(f"raise_reach: the tests exited {code}, so the count above is not trustworthy")
    return 1 if code != 0 or unreached else 0


if __name__ == "__main__":
    sys.exit(main())
