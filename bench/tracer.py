"""Call-boundary tracing for the benchmark, kept outside the program.

``Tracer`` wraps every public module-level function of the ``heckelab``
package, plus three hot methods, and aggregates what the wrappers see
into per-function statistics.  Nothing inside the program is edited:
installing rebinds names, uninstalling puts the originals back.

A wrapped call is a span.  Spans are aggregated as they close instead
of being stored, because one round of ``compute-space T2 2`` closes
about a million of them.  For each wrapped name the tracer keeps:

- ``calls``: completed calls, recursive ones included;
- ``incl_s``: wall time of outermost activations (recursion is not
  counted twice);
- ``self_s``: wall time minus the time covered by wrapped callees;
- ``failed``: exceptions that left the function, by exception class;
- ``kernel_points``: theta-kernel points evaluated inside outermost
  activations, where a kernel call adds ``np.size`` of its argument.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

#: Functions whose first argument is a batch of theta-kernel points.
KERNEL = ("theta.theta_raw", "theta.theta_raw_deriv")

#: Methods patched on their class, under the names the metrics use.
METHODS = {
    "rational.polymat_mul": ("rational", "PolyMat2", "__mul__"),
    "pseries.series_mul": ("pseries", "SeriesMat2", "__mul__"),
    "torus.reduce": ("torus", "Lattice", "reduce"),
}


@dataclass
class Stat:
    calls: int = 0
    incl_s: float = 0.0
    self_s: float = 0.0
    kernel_points: int = 0
    failed: Counter = field(default_factory=Counter)
    active: int = 0


def package_modules(package) -> dict[str, object]:
    """Every submodule of ``package``, imported, keyed by its short name."""
    out = {}
    for info in pkgutil.iter_modules(package.__path__):
        out[info.name] = importlib.import_module(f"{package.__name__}.{info.name}")
    return out


def public_functions(modules: dict[str, object]) -> dict[str, object]:
    """``module.function`` -> function, for functions a module defines
    under a public name, plus the methods in ``METHODS``."""
    out = {}
    for short, mod in modules.items():
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                out[f"{short}.{name}"] = obj
    for key, (short, cls, meth) in METHODS.items():
        out[key] = vars(getattr(modules[short], cls))[meth]
    return out


class Tracer:
    """Aggregating span recorder for one package; see the module docstring."""

    def __init__(self, package):
        self.modules = package_modules(package)
        self.targets = public_functions(self.modules)
        self.stats = {key: Stat() for key in self.targets}
        self._kernel_points = 0
        self._stack: list[list[float]] = []
        self._undo: list[tuple] = []

    def _wrap(self, key, fn):
        stat = self.stats[key]
        stack = self._stack
        clock = time.perf_counter
        kernel = key in KERNEL
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = stat.active == 0
            stat.active += 1
            points0 = tracer._kernel_points
            if kernel:
                tracer._kernel_points += int(np.size(args[0]))
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                stat.failed[type(exc).__name__] += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stat.active -= 1
                stat.calls += 1
                stat.self_s += dt - frame[0]
                if outer:
                    stat.incl_s += dt
                    stat.kernel_points += tracer._kernel_points - points0

        return wrapper

    def install(self) -> None:
        """Rebind every binding of every target to its wrapper.

        ``from .x import f`` leaves a copy of ``f`` in each importing
        module, and ``cli.COMMANDS`` holds the suite functions, so every
        module global and every value of a module-level dict that is a
        target is replaced, not just the defining module's name.
        """
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrappers = {id(fn): self._wrap(key, fn) for key, fn in self.targets.items()
                    if key not in METHODS}
        for key, (short, cls, meth) in METHODS.items():
            owner = getattr(self.modules[short], cls)
            self._undo.append((setattr, owner, meth, self.targets[key]))
            setattr(owner, meth, self._wrap(key, self.targets[key]))
        for mod in self.modules.values():
            for name, obj in list(vars(mod).items()):
                if name.startswith("__"):
                    continue
                if id(obj) in wrappers:
                    self._undo.append((setattr, mod, name, obj))
                    setattr(mod, name, wrappers[id(obj)])
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        if id(v) in wrappers:
                            self._undo.append((dict.__setitem__, obj, k, v))
                            obj[k] = wrappers[id(v)]

    def uninstall(self) -> None:
        while self._undo:
            restore, owner, name, original = self._undo.pop()
            restore(owner, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


#: Per-function statistics reported by name, as ``<key>.<stat>``.
REPORTED = {
    "theta.pi_cover": ("calls", "self_s"),
    "theta.invert_cover": ("calls", "incl_s", "kernel_points_per_call", "failed"),
    "torus.reduce": ("calls", "self_s"),
    "elliptic.distance_to_curve": ("calls", "self_s", "incl_s", "kernel_points_per_call"),
    "elliptic.membership_Hp": ("calls", "incl_s"),
    "elliptic.morphism_rep": ("calls", "self_s"),
    "elliptic.double_hecke": ("incl_s",),
    "elliptic.sequence_from_coordinates": ("incl_s",),
    "elliptic.h_total": ("incl_s",),
    "grassmannian.eta_at": ("calls", "self_s", "failed"),
    "projective.rank_one_column_space": ("calls", "self_s"),
    "projective.transport_direction": ("calls",),
    "rational.polymat_mul": ("calls", "self_s"),
    "rational.min_column_degree": ("calls", "self_s"),
    "rational.membership_H": ("incl_s",),
    "pseries.series_mul": ("calls", "self_s"),
    "seidel_smith.kamnitzer": ("calls", "self_s"),
    "parabolic.stability": ("calls", "self_s"),
    "suites.compute_space": ("incl_s",),
    "suites.embed_check": ("incl_s",),
    "suites.check_conjecture": ("incl_s",),
    "suites.verify_eta": ("incl_s",),
}

#: The exception a ``.failed`` metric counts, by function.
FAILURE = {"theta.invert_cover": "NoConvergence", "grassmannian.eta_at": "NotInCell"}

UNITS = {"calls": "count/round", "self_s": "s/round", "incl_s": "s/round",
         "kernel_points_per_call": "points/call", "failed": "count/round"}


def layer_metrics(stats: dict[str, Stat], rounds: int) -> dict[str, tuple[float, str]]:
    """Named per-layer metrics, as (value, unit), from ``rounds`` traced rounds.

    Counts and times are per round; ``points_per_call`` ratios are over
    the whole traced run and read 0 when there were no calls.
    """
    def ratio(num, den):
        return num / den if den else 0.0

    kernel = [stats[k] for k in KERNEL]
    calls = sum(s.calls for s in kernel)
    points = sum(s.kernel_points for s in kernel)
    out = {
        "theta.kernel.calls": (calls / rounds, "count/round"),
        "theta.kernel.points": (points / rounds, "count/round"),
        "theta.kernel.points_per_call": (ratio(points, calls), "points/call"),
        "theta.kernel.self_s": (sum(s.self_s for s in kernel) / rounds, "s/round"),
    }
    for key, fields in REPORTED.items():
        st = stats[key]
        for f in fields:
            if f == "kernel_points_per_call":
                value = ratio(st.kernel_points, st.calls)
            elif f == "failed":
                value = st.failed[FAILURE[key]] / rounds
            else:
                value = getattr(st, f) / rounds
            out[f"{key}.{f}"] = (value, UNITS[f])
    return out
