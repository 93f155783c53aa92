"""Every record's decision over a fixed matrix of suite runs.

Report bytes depend on the CPU's SIMD dispatch (which of numpy's compiled
loops the CPU runs), because residuals do; decisions do not.  They do not
depend on the BLAS kernel OpenBLAS picks for the CPU (``test_blas_kernels``).
For 16 suite configurations, seeds 7, 11 and 12345 and both default
lattices, ``decision_census.json`` pins each record's name, provenance,
tolerance, status and inputs, and the observed value of each flag record
(``Report.add_flag``: tolerance 0.5, observed 0 or 1).  Residual values are
not pinned.  A change that moves an entry on purpose writes the
file again with ``PYTHONPATH=src python tests/test_decision_census.py`` and
says why.
"""

import json
from pathlib import Path

import pytest

from heckelab import cli
from heckelab.torus import DEFAULT_TAU

CENSUS = Path(__file__).with_name("decision_census.json")

#: (command, arguments, samples) of each configuration.
CONFIGS = [
    ("compute-space", ("S2", "3"), None),
    ("check-conjecture", ("1",), None),
    ("check-conjecture", ("2",), None),
    ("check-conjecture", ("3",), None),
    ("verify-eta", (), None),
    ("compute-space", ("T2", "2"), 8),
    ("compute-space", ("T2", "2"), None),
    ("compute-space", ("T2", "0"), None),
    ("compute-space", ("T2", "1"), 30),
    ("compute-space", ("T2", "1"), None),
    ("embed-check", (), 10),
    ("embed-check", (), None),
    ("verify-elliptic-tables", (), None),
    ("verify-double-table", (), None),
    ("verify-rational-tables", (), None),
    ("verify-theta", (), None),
]
SEEDS = (7, 11, 12345)
TAUS = (DEFAULT_TAU, 0.3 + 0.45j)


def runs(command, extra, samples):
    """(replay key, config) of one configuration at every seed and lattice."""
    for tau in TAUS:
        for seed in SEEDS:
            config = cli.RunConfig(tau=tau, seed=seed, samples=samples, extra=extra)
            yield cli._replay_key(command, config), config


def decisions(report) -> list[list]:
    """[name, provenance, tolerance, passed, inputs, flag value or None] per record."""
    return [[r.name, r.provenance, r.tolerance, r.passed, r.inputs,
             r.observed if r.tolerance == 0.5 else None] for r in report.records]


def census() -> dict[str, list[list]]:
    return {key: decisions(cli.run(command, config))
            for command, extra, samples in CONFIGS
            for key, config in runs(command, extra, samples)}


@pytest.fixture(scope="module")
def pinned():
    return json.loads(CENSUS.read_text())


def test_census_covers_the_matrix(pinned):
    assert list(pinned) == [key for c in CONFIGS for key, _ in runs(*c)]


@pytest.mark.parametrize("command,extra,samples", CONFIGS,
                         ids=[" ".join([c, *e, f"samples={s}"]) for c, e, s in CONFIGS])
def test_decisions_match_the_census(pinned, command, extra, samples):
    for key, config in runs(command, extra, samples):
        assert decisions(cli.run(command, config)) == pinned[key], key


if __name__ == "__main__":
    body = ",\n".join(f"{json.dumps(key)}: [\n" + ",\n".join(f"  {json.dumps(r)}" for r in recs) + "\n]"
                      for key, recs in census().items())
    CENSUS.write_text("{\n" + body + "\n}\n")
