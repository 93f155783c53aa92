"""Batch verification front-end.

Each subcommand runs one suite of numerical checks and emits a
deterministic plain-text report: same command, same seed, same bytes.
Randomness is drawn from one seeded generator per suite, streamed by the
suite's index, so any failing record can be replayed from the header.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import suites
from .cli_errors import ConfigError
from .torus import DEFAULT_TAU


@dataclass(frozen=True)
class RunConfig:
    tau: complex = DEFAULT_TAU
    seed: int = 7
    samples: int | None = None
    extra: tuple[str, ...] = ()

    def __post_init__(self):
        if not np.isfinite(self.tau):
            raise ConfigError(f"tau must be finite, got {self.tau}")
        if complex(self.tau).imag <= 0:
            raise ConfigError("Im tau must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.samples is not None and self.samples < 1:
            raise ConfigError("samples must be >= 1")


@dataclass
class Record:
    name: str
    provenance: str
    observed: float
    tolerance: float | None
    passed: bool | None  # None marks report-only records
    inputs: str = ""

    def lines(self) -> list[str]:
        out = [f"  - name: {self.name}", f"    provenance: {self.provenance}"]
        out.append(f"    observed: {_fmt(self.observed)}")
        if self.tolerance is not None:
            out.append(f"    tolerance: {_fmt(self.tolerance)}")
        status = "info" if self.passed is None else ("pass" if self.passed else "FAIL")
        out.append(f"    status: {status}")
        if self.inputs:
            out.append(f"    inputs: {self.inputs}")
        return out


def _fmt(x: float) -> str:
    return f"{float(x):.12e}"


@dataclass
class Report:
    """One suite's records.

    All suite randomness streams from (seed, suite index), so the header
    fields are the verbatim replay key for every record; records add
    local inputs where a draw-independent summary would not replay.
    """

    suite: str
    config: RunConfig
    records: list[Record] = field(default_factory=list)

    def add(self, name, provenance, observed, tolerance, inputs="") -> Record:
        passed = None if tolerance is None else bool(observed <= tolerance)
        rec = Record(name, provenance, float(observed), tolerance, passed, inputs)
        self.records.append(rec)
        return rec

    def add_flag(self, name, provenance, ok: bool, inputs="") -> Record:
        rec = Record(name, provenance, 0.0 if ok else 1.0, 0.5, bool(ok), inputs)
        self.records.append(rec)
        return rec

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.records if r.passed is not None)

    def to_text(self) -> str:
        tau = complex(self.config.tau)
        head = [
            f"suite: {self.suite}",
            f"tau: {_fmt(tau.real)} {_fmt(tau.imag)}",
            f"seed: {self.config.seed}",
            f"samples: {self.config.samples if self.config.samples is not None else 'default'}",
            "records:",
        ]
        body: list[str] = []
        for r in self.records:
            body.extend(r.lines())
        asserted = [r for r in self.records if r.passed is not None]
        tail = [
            f"summary: {sum(1 for r in asserted if r.passed)} of {len(asserted)} asserted checks pass",
            f"result: {'ok' if self.ok else 'FAIL'}",
        ]
        return "\n".join(head + body + tail) + "\n"


COMMANDS = {
    "verify-theta": suites.verify_theta,
    "verify-eta": suites.verify_eta,
    "verify-rational-tables": suites.verify_rational_tables,
    "verify-elliptic-tables": suites.verify_elliptic_tables,
    "verify-double-table": suites.verify_double_table,
    "compute-space": suites.compute_space,
    "check-conjecture": suites.check_conjecture,
    "embed-check": suites.embed_check,
}

#: Stable stream index per suite for the seed-splitting discipline.
SUITE_STREAM = {name: i for i, name in enumerate(sorted(COMMANDS))}


def suite_rng(config: RunConfig, command: str) -> np.random.Generator:
    return np.random.default_rng([config.seed, SUITE_STREAM[command]])


def run(command: str, config: RunConfig) -> Report:
    """Run one suite; deterministic for a fixed (command, config)."""
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    if config.extra and command not in ("compute-space", "check-conjecture"):
        raise ConfigError(f"{command} takes no arguments, got {' '.join(config.extra)!r}")
    report = Report(suite=" ".join([command, *config.extra]), config=config)
    COMMANDS[command](report, config, suite_rng(config, command))
    return report


def _parse_tau(text: str) -> complex:
    re_s, im_s = text.split(",")
    return complex(float(re_s), float(im_s))


def _replay_key(command: str, config: RunConfig) -> str:
    tau = complex(config.tau)
    value = f"{tau.real!r},{tau.imag!r}"
    # argparse reads a word that starts with "-" (Re tau < 0, or -0.0) as a flag.
    tau_args = [f"--tau={value}"] if value.startswith("-") else ["--tau", value]
    parts = ["hecke-lab", command, *config.extra, *tau_args, "--seed", str(config.seed)]
    if config.samples is not None:
        parts += ["--samples", str(config.samples)]
    return " ".join(parts)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hecke-lab",
        description="verification suites for the Hecke-modification calculus",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("args", nargs="*", help="command arguments (e.g. S2 2, or m)")
    parser.add_argument("--tau", type=_parse_tau, default=DEFAULT_TAU, metavar="RE,IM")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--samples", type=int, default=None)
    parser.add_argument("--out", type=str, default=None)
    ns = parser.parse_args(argv)

    try:
        config = RunConfig(tau=ns.tau, seed=ns.seed, samples=ns.samples, extra=tuple(ns.args))
        if ns.out:  # checked before the suite runs, and without creating the file
            parent = os.path.dirname(os.path.abspath(ns.out))
            target = ns.out if os.path.exists(ns.out) else parent
            if os.path.isdir(ns.out) or not os.path.isdir(parent) or not os.access(target, os.W_OK):
                raise ConfigError(f"cannot write {ns.out}")
        report = run(ns.command, config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # A numerical failure inside a suite is a failed run, not a config
        # problem: report it with the command line that replays it.  The
        # import is deferred to keep start-up, paid by every run, lean.
        import traceback

        traceback.print_exc()
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        print(f"replay: {_replay_key(ns.command, config)}", file=sys.stderr)
        return 1
    text = report.to_text()
    if ns.out:
        with open(ns.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
