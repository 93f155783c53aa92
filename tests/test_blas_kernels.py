"""Reports do not depend on the BLAS kernel.

OpenBLAS picks one of its CPU kernels for each call at run time, so a
report that read a BLAS or LAPACK result could change bytes from one CPU
to the next with no code changed.  Five suites, whose reports all read 2x2
products, determinants, solves or eigenvalues, run in two child
interpreters (``report_hashes.rerun``): one on the kernel OpenBLAS picks
here and one forced to its Nehalem kernel (SSE only).  Their reports must
be byte-identical.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from report_hashes import rerun

COMMANDS = [
    "hecke-lab verify-elliptic-tables --seed 12345",
    "hecke-lab compute-space T2 1 --seed 7",
    "hecke-lab check-conjecture 1 --seed 7",
    "hecke-lab check-conjecture 2 --seed 7",
    "hecke-lab verify-eta --seed 7",
]


def _blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        return ""


@pytest.mark.skipif("openblas" not in _blas_name().lower(), reason="numpy is not built on OpenBLAS")
def test_reports_are_identical_under_the_nehalem_kernel():
    with ThreadPoolExecutor(2) as pool:
        default, nehalem = pool.map(lambda setting: rerun(COMMANDS, setting),
                                    ({}, {"OPENBLAS_CORETYPE": "Nehalem"}))
    assert list(default) == COMMANDS
    assert [code for code, _, _ in default.values()] == [0] * len(COMMANDS)
    assert default == nehalem
