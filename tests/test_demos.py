"""Every script in demos/ runs to completion; the theta and elliptic demos
print the decisions they claim.

Printed residuals depend on the CPU and the BLAS build, so these demos are
checked by parsing their output against each residual's bound, not by
pinning bytes.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCI = r"(\d\.\d+e[-+]\d+)"


def run_demo(demo: Path) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def values(pattern: str, text: str) -> list[float]:
    return [float(x) for x in re.findall(pattern, text, flags=re.MULTILINE)]


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_exits_cleanly(demo):
    run_demo(demo)


def test_theta_demo_decisions():
    out = run_demo(ROOT / "demos" / "02_theta_functions_and_cover.py")
    [zero] = values(rf"^theta_w vanishes at w: \|theta\| = {SCI}$", out)
    [law] = values(rf"^translation law theta\(z \+ tau\) = f\(z\) theta\(z\): {SCI}$", out)
    [step] = values(rf"^log-derivative steps by one across tau: {SCI}$", out)
    [even] = values(rf"^  \|h\(-z\) - h\(z\)\|: {SCI}$", out)
    assert max(zero, law, step, even) < 1e-10
    assert "sums to the origin: True" in out
    assert "(= tau/2: True)" in out


def test_elliptic_tables_demo_decisions():
    out = run_demo(ROOT / "demos" / "05_elliptic_hecke_tables.py")
    # One table row per morphism: equivariance, then direction residual.
    rows = re.findall(rf"^.{{28}} +{SCI} +{SCI} ", out, flags=re.MULTILINE)
    assert len(rows) == 5
    assert all(float(eq) < 1e-8 and float(d) < 1e-8 for eq, d in rows)
    assert "(trivial type: True)" in out
    assert values(rf"matches the direction: {SCI}$", out)[0] < 1e-8
    assert "agree as S-equivalence classes: True" in out


def test_elliptic_moduli_demo_decisions():
    out = run_demo(ROOT / "demos" / "06_elliptic_moduli_and_embedding.py")
    residuals = values(rf"^  h_\d = .*\(residual {SCI}\)$", out)
    assert len(residuals) == 3 and max(residuals) < 1e-7
    [on] = values(rf"f\(p\) tuple: +member = False +\(distance to curve {SCI}\)", out)
    [off] = values(r"prescribed tuple: member = True +\(distance to curve (\d+\.\d+)\)", out)
    assert on < 1e-6 < off
    assert re.search(r", 3 marks, verdict stable$", out, flags=re.MULTILINE)
    assert values(r"min pairwise distance over 276 pairs: (\d+\.\d+)$", out)[0] > 1e-6
