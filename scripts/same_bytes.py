"""Check that a change leaves every file of the fixed-seed CLI chain byte for
byte as its base left it, or declares that it does not.

    python scripts/same_bytes.py BASE_TREE CHANGE_TREE

Each tree is a copy of the repository's files (a checkout, or ``git archive``
output). The script runs each tree's own ``scripts/cli_chain.py``, with
``OPENBLAS_NUM_THREADS=1``, in a temporary directory, and compares the
digests it prints. It prints ``unchanged``, or one line per file that
changed, was added or was removed. Byte identity holds run to run, and at
any BLAS thread count, on one BLAS kernel; it does not hold across CPUs, so
both trees run on the one host.

It exits 0 when nothing changed, or when the change tree's ``CHANGES.md``
has a line starting ``Bytes change:`` or ``- Bytes change:`` that the base
tree's lacks: such a line names the files and the reason, and comes with
``scripts/quality.py``'s table. It exits 1 on an undeclared change, or when
a chain fails.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

PREFIXES = ("Bytes change:", "- Bytes change:")


def chain_digests(tree, out_dir):
    """{path: sha256} of the files ``tree``'s chain writes in ``out_dir``,
    or None, with the reason printed, when it fails."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, str(tree / "scripts" / "cli_chain.py"), str(out_dir)],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"same_bytes: the chain in {tree} failed (exit {proc.returncode})", file=sys.stderr)
        print(proc.stderr[-2000:], file=sys.stderr, end="")
        return None
    return json.loads(proc.stdout)


def changed_files(base, change):
    """One ``changed``, ``added`` or ``removed`` line per path whose digest
    differs between the digest maps ``base`` and ``change``, sorted by path."""
    return [f"{'added' if path not in base else 'removed' if path not in change else 'changed'}"
            f" {path}" for path in sorted(base.keys() | change.keys())
            if base.get(path) != change.get(path)]


def declarations(notes):
    """The lines of a ``CHANGES.md`` text that declare a bytes change."""
    return {line for line in notes.splitlines() if line.startswith(PREFIXES)}


def verdict(changed, base_notes, change_notes):
    """The exit status for the ``changed`` lines, given both trees'
    ``CHANGES.md`` texts: 0 when nothing changed or the change's notes add
    a bytes-change line, else 1."""
    return 0 if not changed or declarations(change_notes) - declarations(base_notes) else 1


def notes(tree):
    path = tree / "CHANGES.md"
    return path.read_text("utf-8") if path.is_file() else ""


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit("usage: python scripts/same_bytes.py BASE_TREE CHANGE_TREE")
    base, change = (Path(tree).resolve() for tree in argv)
    with tempfile.TemporaryDirectory(prefix="same-bytes-") as work:
        digests = [chain_digests(tree, Path(work) / side)
                   for tree, side in ((base, "base"), (change, "change"))]
    if None in digests:
        return 1
    changed = changed_files(*digests)
    print("\n".join(changed) if changed else "unchanged")
    code = verdict(changed, notes(base), notes(change))
    if changed:
        print(f"same_bytes: {len(changed)} of {len(digests[1])} files differ; CHANGES.md "
              + ("declares it" if code == 0 else "adds no 'Bytes change:' line"))
    return code


if __name__ == "__main__":
    sys.exit(main())
