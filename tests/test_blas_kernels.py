"""Reports do not depend on the BLAS kernel.

OpenBLAS picks one of its CPU kernels for each call at run time, so a
report that read a BLAS or LAPACK result could change bytes from one CPU
to the next with no code changed.  Five suites, whose reports all read 2x2
products, determinants, solves or eigenvalues, run in two child
interpreters: one on the kernel OpenBLAS picks here and one forced to its
Nehalem kernel (SSE only).  Their reports must be byte-identical.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import heckelab

COMMANDS = [
    ["verify-elliptic-tables", "--seed", "12345"],
    ["compute-space", "T2", "1", "--seed", "7"],
    ["check-conjecture", "1", "--seed", "7"],
    ["check-conjecture", "2", "--seed", "7"],
    ["verify-eta", "--seed", "7"],
]

#: Runs each command and prints its report, exit code last.
CHILD = ("from heckelab import cli\n"
         f"for argv in {COMMANDS!r}:\n    print('exit', cli.main(argv), flush=True)\n")


def _blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        return ""


@pytest.mark.skipif("openblas" not in _blas_name().lower(), reason="numpy is not built on OpenBLAS")
def test_reports_are_identical_under_the_nehalem_kernel():
    src = str(Path(heckelab.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("OPENBLAS_CORETYPE", None)
    children = [subprocess.Popen([sys.executable, "-c", CHILD], env={**env, **extra},
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE)
                for extra in ({}, {"OPENBLAS_CORETYPE": "Nehalem"})]
    (default, _), (nehalem, err) = (child.communicate(timeout=60) for child in children)
    assert [child.returncode for child in children] == [0, 0], err.decode()
    assert default.count(b"\nexit ") == len(COMMANDS)
    assert default == nehalem
