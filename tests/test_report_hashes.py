"""Smoke test of ``report_hashes``: a run compares equal to itself, a
changed report is listed with its diff, ``--seeds`` reseeds CI's
elliptic console lines, and ``--kernels`` reruns the listed commands in
two child interpreters."""

import hashlib
import json
import os

import report_hashes
from test_api_census import console_lines

#: The two console commands of CI that draw one verify-theta sample.
TWO = "hecke-lab verify-theta --samples 1 "


def test_a_two_command_run_compares_equal_to_itself(tmp_path, capsys, monkeypatch):
    two = [line for line in console_lines() if line.startswith(TWO)]
    assert len(two) == 2
    monkeypatch.setattr(report_hashes, "commands", lambda: two)
    path = tmp_path / "reports.json"
    assert report_hashes.main(["--out", str(path)]) == 0
    saved = json.loads(path.read_text())
    assert len(saved["reports"]) == 2 and {"python", "numpy", "blas", "cpu", "simd"} <= set(saved["env"])
    for command, (code, digest, text) in saved["reports"].items():
        assert command in two and code == 0
        assert digest == hashlib.sha256(text.encode()).hexdigest() and "result: ok" in text
    capsys.readouterr()
    assert report_hashes.main(["--compare", str(path)]) == 0
    assert capsys.readouterr().out == "0 of 2 commands differ\n"

    command, (code, _, text) = next(iter(saved["reports"].items()))
    saved["reports"][command] = [code, "", text.replace("result: ok", "result: FAIL")]
    path.write_text(json.dumps(saved))
    assert report_hashes.main(["--compare", str(path)]) == 1
    out = capsys.readouterr().out
    assert out.startswith(command + "\n") and "-result: FAIL\n+result: ok\n" in out
    assert out.endswith("1 of 2 commands differ\n")


def test_seeds_rerun_the_elliptic_console_lines():
    lines = report_hashes.reseeded(report_hashes.seed_range("3-4"))
    elliptic = [line for line in console_lines() if line.split()[1] in
                ("verify-theta", "verify-elliptic-tables", "verify-double-table", "embed-check")
                or line.startswith("hecke-lab compute-space T2 ")]
    assert all(line.split()[-2] == "--seed" for line in elliptic)
    assert lines == list(dict.fromkeys(f"{line.rpartition(' ')[0]} {s}" for s in (3, 4) for line in elliptic))
    assert len(lines) > 40 and not any("S2" in line or "conjecture" in line for line in lines)


def test_kernels_rerun_the_listed_commands_in_two_children(capsys, monkeypatch):
    two = [line for line in console_lines() if line.startswith(TWO)]
    monkeypatch.setattr(report_hashes, "commands", lambda: two)
    environ = dict(os.environ)
    code = report_hashes.main(["--kernels"])
    counts = [line.split(" of 2 commands differ under ") for line in capsys.readouterr().out.splitlines()
              if " commands differ" in line]
    assert [where for _, where in counts] == [
        "OPENBLAS_CORETYPE=Nehalem", "NPY_DISABLE_CPU_FEATURES='X86_V4 AVX512_ICL X86_V3'"]
    # Each child ran the two listed commands, which it read on stdin.
    assert all(n in ("0", "1", "2") for n, _ in counts) and code == any(n != "0" for n, _ in counts)
    assert dict(os.environ) == environ  # the settings reach the children only
