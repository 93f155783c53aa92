"""Report bytes of CI's console commands and of the decision census, to
show that a change keeps every report byte-identical.

Usage, from the repository root:

    PYTHONPATH=src python tests/report_hashes.py --out old.json    # on the parent
    PYTHONPATH=src python tests/report_hashes.py --compare old.json
    PYTHONPATH=src python tests/report_hashes.py --seeds 0-29 --out old.json

In one process it runs every ``hecke-lab`` command of CI's console step,
read from the workflow as the flag census reads it, and every
configuration of the decision census (``test_decision_census.CONFIGS`` at
its seeds and lattices, by replay key).  ``--seeds A-B`` adds every
elliptic console line of CI (the commands in ``ELLIPTIC``) rerun at each
seed from A to B.  It writes ``{"env": ...,
"reports": {command: [exit code, sha256, text]}}``, where the text is the
command's stdout followed by its ``config error:``, ``error:`` and
``replay:`` lines (a traceback names files by path and is left out), and
``env`` names Python, numpy, its BLAS and the CPU with numpy's SIMD
extensions: report bytes depend on which SIMD loops numpy runs, so two
files are comparable when they come from one machine.

``--compare old.json`` lists each command whose exit code or bytes differ
from ``old.json``, with a unified diff, and exits 1 if any do.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import hashlib
import io
import json
import os
import platform
import re
import shlex
import sys
from pathlib import Path

import numpy as np

from heckelab import cli
from test_api_census import console_lines
from test_decision_census import CONFIGS, runs

KEPT_STDERR = ("config error:", "error:", "replay:", "hecke-lab: error:")

#: The commands ``--seeds`` reruns: those that compute on the torus.
ELLIPTIC = ("verify-theta", "verify-elliptic-tables", "verify-double-table", "embed-check",
            "compute-space T2")


def commands() -> list[str]:
    """CI's console commands, then the census configurations not among them."""
    census = [key for config in CONFIGS for key, _ in runs(*config)]
    return list(dict.fromkeys(console_lines() + census))


def reseeded(seeds: range) -> list[str]:
    """CI's elliptic console commands, all of them at each seed of ``seeds`` in turn."""
    elliptic = [line for line in console_lines() if line.split(" ", 1)[1].startswith(ELLIPTIC)]
    return list(dict.fromkeys(re.sub(r"--seed \d+", f"--seed {s}", line) for s in seeds for line in elliptic))


def seed_range(text: str) -> range:
    """The seeds A..B of ``--seeds A-B``, both included."""
    first, last = text.split("-")
    return range(int(first), int(last) + 1)


def run(command: str) -> list:
    """[exit code, sha256, text] of one ``hecke-lab`` command line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(shlex.split(command)[1:])
        except SystemExit as exc:  # argparse rejected the command line
            code = exc.code
    text = out.getvalue() + "".join(line for line in err.getvalue().splitlines(keepends=True)
                                    if line.startswith(KEPT_STDERR))
    return [code, hashlib.sha256(text.encode()).hexdigest(), text]


def environment() -> dict:
    """Python, numpy, BLAS and CPU details that report bytes can depend on."""
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    cpuinfo = Path("/proc/cpuinfo")
    models = [line.split(":", 1)[1].strip() for line in
              (cpuinfo.read_text().splitlines() if cpuinfo.exists() else [])
              if line.startswith("model name")]
    return {
        "python": sys.version,
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_env": {key: os.environ[key] for key in sorted(os.environ) if key.startswith("OPENBLAS_")},
        "machine": platform.machine(),
        "cpu": models[0] if models else platform.processor(),
        "simd": config.get("SIMD Extensions", {}),
    }


def differences(old: dict, new: dict) -> list[str]:
    """One entry per command whose [exit code, sha256, text] differs:
    the command, then a unified diff of its texts."""
    out = []
    for command in dict.fromkeys([*new, *old]):
        a, b = old.get(command), new.get(command)
        if a == b:
            continue
        if a is None or b is None:
            out.append(f"{command}: only in the {'new' if a is None else 'old'} reports\n")
            continue
        diff = difflib.unified_diff(a[2].splitlines(keepends=True), b[2].splitlines(keepends=True),
                                    f"old (exit {a[0]})", f"new (exit {b[0]})")
        out.append(f"{command}\n{''.join(diff)}")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the reports to this JSON file")
    parser.add_argument("--compare", metavar="OLD_JSON", help="list the commands that differ from OLD_JSON")
    parser.add_argument("--seeds", metavar="A-B", type=seed_range, default=range(0),
                        help="also rerun CI's elliptic console lines at each seed from A to B")
    ns = parser.parse_args(argv)
    reports = {command: run(command) for command in dict.fromkeys(commands() + reseeded(ns.seeds))}
    new = {"env": environment(), "reports": reports}
    if ns.out:
        Path(ns.out).write_text(json.dumps(new, indent=1) + "\n")
    if not ns.compare:
        for command, (code, digest, _) in reports.items():
            print(f"{digest[:16]}  exit {code}  {command}")
        return 0
    old = json.loads(Path(ns.compare).read_text())
    if old["env"] != new["env"]:
        print("note: the two files come from different environments", file=sys.stderr)
    diffs = differences(old["reports"], reports)
    print("".join(diffs), end="")
    print(f"{len(diffs)} of {len(reports)} commands differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    raise SystemExit(main())
