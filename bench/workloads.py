"""The benchmark's workloads and the round that each one repeats.

A round is one pass of a workload's suite list through
``heckelab.cli.run``, the entry point behind ``hecke-lab``.  The reasons
for each workload are in README.md next to this file.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

import numpy as np

#: The CLI's default seed; reports at this seed are hashed to show drift.
DEFAULT_SEED = 7


@dataclass(frozen=True)
class Suite:
    command: str
    extra: tuple[str, ...] = ()
    samples: int | None = None

    @property
    def label(self) -> str:
        return " ".join((self.command, *self.extra))


@dataclass(frozen=True)
class Workload:
    name: str
    tau: complex
    suites: tuple[Suite, ...]


WORKLOADS = {
    w.name: w
    for w in (
        # Any --samples up to 8 gives the minimum of 2 on-curve and 4 far tuples.
        Workload("curve-membership", 0.21 + 1.3j, (Suite("compute-space", ("T2", "2"), 8),)),
        Workload("cover-inversion", 0.3 + 0.45j, (
            Suite("embed-check", (), 10),
            Suite("compute-space", ("T2", "1"), 30),
        )),
        # compute-space S2 3 ignores --samples; the other two run at their defaults.
        Workload("rational-slices", 0.21 + 1.3j, (
            Suite("compute-space", ("S2", "3")),
            Suite("check-conjecture", ("2",)),
            Suite("verify-eta"),
        )),
    )
}


def round_seed(workload_seed: int, index: int) -> int:
    """Seed of round ``index``; distinct rounds draw independent inputs."""
    return int(np.random.SeedSequence([workload_seed, index]).generate_state(1)[0])


@dataclass
class RoundResult:
    ok: bool
    wall_s: float
    cpu_s: float
    sha256: dict[str, str]
    error: str = ""


def run_round(cli, workload: Workload, seed: int) -> RoundResult:
    """Run every suite of ``workload`` once at ``seed``.

    The round fails if any report has a failing asserted record or any
    suite raises; the remaining suites still run so their hashes exist.
    """
    ok, errors, hashes = True, [], {}
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for suite in workload.suites:
        config = cli.RunConfig(tau=workload.tau, seed=seed, samples=suite.samples,
                               extra=suite.extra)
        try:
            report = cli.run(suite.command, config)
        except Exception as exc:  # a raising suite is a failed round, not a crash
            ok = False
            errors.append(f"{suite.label}: {type(exc).__name__}: {exc}")
            continue
        hashes[suite.label] = hashlib.sha256(report.to_text().encode()).hexdigest()
        if not report.ok:
            ok = False
            errors.append(f"{suite.label}: report has failing records")
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return RoundResult(ok, wall, cpu, hashes, "; ".join(errors))
