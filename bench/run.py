"""heckelab benchmark: one client runs suite rounds in a closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nothing is installed.  One process, one
thread, BLAS pinned to one thread.

``--trace 0`` times rounds until ``--seconds`` have passed and prints the
end-to-end metrics.  ``--trace 1`` first runs one round at the CLI's
default seed 7 and prints the sha256 of each suite report, then runs
each round seed twice, untraced then traced, checks that both give the
same report bytes, and prints the per-layer metrics.  The last line of
output is one JSON object; the exit code is 1 if any round failed.
README.md defines every metric.
"""

from __future__ import annotations

import os

# OpenBLAS reads its thread count when numpy loads, so this precedes
# every import that loads numpy.
THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PIN)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from speed import REFERENCE_S, Speedometer  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, run_round, round_seed  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: Modules whose line counts are reported; ``src.lines`` covers all of src/.
MODULES = ("cli", "cli_errors", "elliptic", "grassmannian", "parabolic", "projective",
           "pseries", "rational", "seidel_smith", "suites", "theta", "torus")

#: Fresh interpreters timed per run for setup_s; one more, untimed, goes first
#: because it may be the one that writes the bytecode cache.
SETUP_SAMPLES = 11

#: Times the import, then probes the machine speed in the same process.
SETUP_CHILD = """
import sys, time
sys.path[:0] = sys.argv[1:3]
t0 = time.perf_counter()
import heckelab.cli
t1 = time.perf_counter()
import speed
speed.reference_work()
print(t1 - t0, speed.probe())
"""

#: Shown in the metric table but left out of the result line.  p90 rests on
#: the slowest two or three rounds of a run, too few to bound; failed_ratio
#: reads 0, which has no relative bound, and the result line carries it as
#: "failed" and "attempted".
PRINTED_ONLY = ("latency_p90_ms", "failed_ratio")


def import_program():
    """Import ``heckelab.cli`` from this checkout's src/, or exit 1."""
    if not (SRC / "heckelab" / "cli.py").is_file():
        sys.exit(f"bench: {SRC / 'heckelab'} not found; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import heckelab
    from heckelab import cli
    if Path(heckelab.__file__).resolve().parent != SRC / "heckelab":
        sys.exit(f"bench: imported heckelab from {heckelab.__file__}, not {SRC}")
    return heckelab, cli


def setup_seconds() -> tuple[float, float]:
    """Median time for a fresh interpreter to import heckelab.cli, unscaled
    and scaled by the slowdown each child measures right after its import."""
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC), str(BENCH)],
                              capture_output=True, text=True, check=True, timeout=60)
        seconds, probe_s = map(float, done.stdout.split())
        raw.append(seconds)
        scaled.append(seconds * REFERENCE_S / probe_s)
    return statistics.median(raw[1:]), statistics.median(scaled[1:])


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(workload, seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "thread_pin": THREAD_PIN,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload.name,
        "workload_seed": seed,
        "tau": [workload.tau.real, workload.tau.imag],
        "suites": [s.label + ("" if s.samples is None else f" --samples {s.samples}")
                   for s in workload.suites],
    }


def line_counts() -> dict[str, tuple[float, str]]:
    def lines(path):
        return len(path.read_text().splitlines()) if path.is_file() else 0

    out = {f"{m}.lines": (lines(SRC / "heckelab" / f"{m}.py"), "lines") for m in MODULES}
    out["src.lines"] = (sum(lines(p) for p in SRC.rglob("*.py")), "lines")
    return out


def timed_run(cli, workload, seed: int, seconds: float):
    """Time rounds for ``seconds``; times are scaled to the reference speed
    by the slowdown probed before each round."""
    setup_raw, setup_s = setup_seconds()
    speed = Speedometer()
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        speed.probe()
        rounds.append(run_round(cli, workload, round_seed(seed, len(rounds))))
    wall = [r.wall_s for r in rounds]
    p90 = statistics.quantiles(wall, n=10, method="inclusive")[8] if len(wall) > 1 else wall[0]
    unscaled = {
        "setup_s": setup_raw,
        "ops_per_s": len(rounds) / sum(wall),
        "latency_p50_ms": 1e3 * statistics.median(wall),
        "latency_p90_ms": 1e3 * p90,
        "cpu_ms_per_op": 1e3 * statistics.fmean(r.cpu_s for r in rounds),
    }
    k = speed.slowdown
    print(json.dumps({"unscaled": unscaled, "slowdown": k}))
    return rounds, {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (unscaled["ops_per_s"] * k, "1/s"),
        "latency_p50_ms": (unscaled["latency_p50_ms"] / k, "ms"),
        "latency_p90_ms": (unscaled["latency_p90_ms"] / k, "ms"),
        "cpu_ms_per_op": (unscaled["cpu_ms_per_op"] / k, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced_run(heckelab, cli, workload, seed: int, seconds: float):
    # The default-seed round also lets lazy set-up finish before the pairs.
    default = run_round(cli, workload, DEFAULT_SEED)
    print(json.dumps({"report_sha256_seed_7": default.sha256}))
    tracer = Tracer(heckelab)
    rounds, plain_cpu, traced_cpu = [], 0.0, 0.0
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        s = round_seed(seed, len(rounds) // 2)
        plain = run_round(cli, workload, s)
        with tracer:
            traced = run_round(cli, workload, s)
        if traced.sha256 != plain.sha256:
            traced.ok = False
            traced.error = f"traced report bytes differ from untraced at seed {s}"
        rounds += [plain, traced]
        plain_cpu += plain.cpu_s
        traced_cpu += traced.cpu_s
    metrics = layer_metrics(tracer.stats, len(rounds) // 2)
    metrics["trace.overhead_ratio"] = (traced_cpu / plain_cpu, "ratio")
    metrics.update(line_counts())
    busiest = sorted(tracer.stats.items(), key=lambda kv: -kv[1].self_s)[:25]
    print("busiest wrapped functions over the traced rounds (calls, self s, incl s):")
    for key, st in busiest:
        print(f"  {key:45s} {st.calls:10d} {st.self_s:10.4f} {st.incl_s:10.4f}")
    return [default, *rounds], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    heckelab, cli = import_program()
    workload = WORKLOADS[args.workload]

    print(json.dumps({"environment": environment(workload, args.seed)}))
    if args.trace:
        rounds, metrics = traced_run(heckelab, cli, workload, args.seed, args.seconds)
    else:
        rounds, metrics = timed_run(cli, workload, args.seed, args.seconds)
    for r in rounds:
        if not r.ok:
            print(f"FAILED round: {r.error}")
    failed = sum(not r.ok for r in rounds)
    if not args.trace:
        metrics["failed_ratio"] = (failed / len(rounds), "ratio")
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:16.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(rounds),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                    if k not in PRINTED_ONLY},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
