import hashlib

import numpy as np
import pytest

from heckelab import cli
from heckelab import elliptic as ell
from heckelab import seidel_smith as ss
from heckelab import suites
from heckelab.projective import DegeneratePoint
from heckelab.torus import Lattice


def run_text(command, extra=(), **kw):
    config = cli.RunConfig(extra=tuple(extra), **kw)
    return cli.run(command, config)


def test_reports_are_deterministic():
    for command, extra in [("verify-theta", ()), ("verify-eta", ()),
                           ("compute-space", ("S2", "2"))]:
        r1 = run_text(command, extra, seed=7, samples=20)
        r2 = run_text(command, extra, seed=7, samples=20)
        assert r1.to_text() == r2.to_text()


#: sha256 of the seed-7 compute-space S2 n reports: flags, counts and exact
#: fractions only, so the same on any platform.
S2_REPORTS = {
    1: "314ed8532ad7bd7b090e634209628c93828f203b868e94d64474df5212ead91e",
    2: "195066fe4871f4eacdbea5f3d3adf4c764552cd9ce919eea9a86c567df68519c",
    3: "d705f7461d7141e1078e20d396f40f01b560d7fe00730ba689d7a16e9459662a",
    4: "7181c8ee14f79037066600b7c7b39e8460d1883661678c92deaea42e3bb9fa8c",
    5: "b5db028c4127c79d8d0c7218f0725284705567307a7ea9866a7f484d10e85afa",
}


def test_s2_reports_are_pinned():
    for n, digest in S2_REPORTS.items():
        text = run_text("compute-space", ("S2", str(n)), seed=7).to_text()
        assert hashlib.sha256(text.encode()).hexdigest() == digest, n


#: (command, tau, samples) -> seed -> each record's (name, status, observed
#: value of a flag, inputs line): the decisions of the elliptic rounds the
#: benchmark times, which a change of draw order would move.  No residual
#: digit is pinned; those depend on the BLAS and SIMD build.
ELLIPTIC_DECISIONS = {
    ("compute-space T2 2", 0.21 + 1.3j, 8): {
        seed: [("embedding-injectivity", "pass", None, f"min-distance={mind}"),
               ("curve-excluded", "pass", 0.0, ""), ("far-tuples-included", "pass", 0.0, "")]
        for seed, mind in ((7, "0.044712"), (11, "0.035089"), (12345, "0.029939"))
    },
    ("embed-check", 0.3 + 0.45j, 10): {
        seed: [(name, "pass", 0.0, "") for name in (
            "split-verdicts", "unstable-marks-unstable-terminal-rational",
            "unstable-marks-unstable-terminal-elliptic", "rational-embedding-stable",
            "elliptic-embedding-stable")]
        for seed in (7, 11, 12345)
    },
    ("embed-check", 0.21 + 1.3j, None): {
        seed: [(name, "pass", 0.0, "") for name in (
            "split-verdicts", "unstable-marks-unstable-terminal-rational",
            "unstable-marks-unstable-terminal-elliptic", "rational-embedding-stable",
            "elliptic-embedding-stable")]
        for seed in (7, 11)
    },
    ("compute-space T2 1", 0.3 + 0.45j, 30): {
        seed: [("bijectivity-roundtrip", "pass", None, "")] for seed in (7, 11, 12345)
    },
}


def test_elliptic_decisions_are_pinned():
    for (label, tau, samples), by_seed in ELLIPTIC_DECISIONS.items():
        command, *extra = label.split()
        for seed, want in by_seed.items():
            report = run_text(command, extra, tau=tau, seed=seed, samples=samples)
            # add_flag records observe 0 or 1 against tolerance 0.5.
            got = [(r.name, {True: "pass", False: "FAIL", None: "info"}[r.passed],
                    r.observed if r.tolerance == 0.5 else None, r.inputs)
                   for r in report.records]
            assert got == want, (label, seed)


def test_seed_changes_draws_not_structure():
    r1 = run_text("verify-theta", seed=1, samples=20)
    r2 = run_text("verify-theta", seed=2, samples=20)
    assert [rec.name for rec in r1.records] == [rec.name for rec in r2.records]
    assert r1.ok and r2.ok


def test_all_suites_pass_at_small_samples():
    jobs = [
        ("verify-theta", ()),
        ("verify-eta", ()),
        ("verify-rational-tables", ()),
        ("verify-elliptic-tables", ()),
        ("verify-double-table", ()),
        ("compute-space", ("S2", "2")),
        ("compute-space", ("T2", "1")),
        ("check-conjecture", ("1",)),
        ("embed-check", ()),
    ]
    for command, extra in jobs:
        report = run_text(command, extra, samples=8)
        assert report.ok, f"{command} {extra}: {report.to_text()}"


@pytest.mark.parametrize("tau, seed", [(0.21 + 1.3j, 2019), (0.3 + 0.45j, 815)])
def test_verify_theta_with_its_one_sample_near_w(tau, seed):
    # The one sample lies within 1e-2 of w, so none qualifies for the g
    # records; they are evaluated half a period away.
    rng = cli.suite_rng(cli.RunConfig(tau=tau, seed=seed), "verify-theta")
    lat = Lattice(tau)
    z, w = suites._box(rng, lat, 1)[0], suites._box(rng, lat, 1)[0]
    assert lat.distance(z, w) <= 1e-2
    report = run_text("verify-theta", tau=tau, seed=seed, samples=1)
    g = [r for r in report.records if r.name.startswith("g-")]
    assert report.ok and len(g) == 3 and max(r.observed for r in g) < 1e-14


@pytest.mark.parametrize("tau, seed", [("0.21,1.5", 10), ("0.21,1.6", 2), ("0,2.0", 0),
                                       ("0.21,2.5", 0), ("0.21,2.5", 5)])
def test_double_table_runs_above_the_default_im_tau(capsys, tau, seed):
    # Each run once raised NotInCell from a counter row's rounded theta zero
    # scaled by its frame, or, at seed 5 and Im tau 2.5, DegeneratePoint
    # from the frame map.
    assert cli.main(["verify-double-table", "--tau", tau, "--seed", str(seed)]) == 0
    assert "result: ok" in capsys.readouterr().out


def test_main_writes_file_and_exit_code(tmp_path):
    out = tmp_path / "report.txt"
    code = cli.main(["verify-theta", "--samples", "10", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("suite: verify-theta")
    assert "result: ok" in text
    code2 = cli.main(["verify-theta", "--samples", "10", "--out", str(out)])
    assert out.read_text() == text
    assert code2 == 0


def test_main_rejects_bad_config(capsys):
    assert cli.main(["verify-theta", "--tau", "0.2,-1.0"]) == 2
    assert cli.main(["compute-space", "S2"]) == 2
    assert cli.main(["compute-space", "Q9", "2"]) == 2
    assert cli.main(["compute-space", "T2", "two"]) == 2
    assert cli.main(["check-conjecture", "m"]) == 2
    assert "config error" in capsys.readouterr().err


def test_arguments_to_a_command_that_takes_none_are_config_errors(capsys):
    for args in (["verify-theta", "foo"], ["embed-check", "S2", "2"], ["verify-eta", "1"]):
        assert cli.main(args) == 2, args
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"{args[0]} takes no arguments" in err, err
    with pytest.raises(cli.ConfigError, match="takes no arguments"):
        cli.run("verify-double-table", cli.RunConfig(extra=("7",)))


def test_unwritable_out_path_is_a_config_error(capsys, tmp_path):
    # Checked before the suite runs: no report, no traceback, no replay line.
    for out in (tmp_path / "missing" / "r.txt", tmp_path):
        code = cli.main(["verify-theta", "--samples", "2", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2 and not captured.out
        assert captured.err == f"config error: cannot write {out}\n", captured.err
    assert not (tmp_path / "missing").exists()


def test_a_config_error_with_out_leaves_no_file(capsys, tmp_path):
    # Arguments to a command that takes none, and a suite's own config error.
    for args in (["verify-theta", "foo"], ["check-conjecture", "0"]):
        out = tmp_path / "r.txt"
        assert cli.main([*args, "--out", str(out)]) == 2, args
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists(), args


def test_out_of_range_counts_are_config_errors(capsys):
    for args, bound in [(["check-conjecture", "0"], "m must be >= 1"),
                        (["check-conjecture", "-1"], "m must be >= 1"),
                        (["compute-space", "S2", "-1"], "n must be >= 0"),
                        (["compute-space", "T2", "-1"], "n must be >= 0"),
                        (["verify-theta", "--seed", "-1"], "seed must be >= 0")]:
        assert cli.main(args) == 2, args
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and bound in err, (args, err)
        assert "Traceback" not in err


def test_non_finite_tau_is_a_config_error(capsys):
    for args in (["verify-theta", "--tau", "nan,1.3"], ["verify-theta", "--tau", "0.2,inf"]):
        assert cli.main(args) == 2, args
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "tau must be finite" in err, (args, err)
        assert "Traceback" not in err
    # Each record's bound is fixed: no flag overrides it.
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify-theta", "--tol", "1e-9"])
    assert exc.value.code == 2


def test_numerical_failure_is_not_a_config_error(capsys):
    # Im tau = 0.08 lies outside the range where the cover inverts: the
    # image check raises NoConvergence inside the suite at every seed tried,
    # so the failure does not hang on one draw of the stream.
    code = cli.main(["verify-theta", "--tau", "0,0.08", "--samples", "12"])
    err = capsys.readouterr().err
    assert code == 1
    assert "config error" not in err
    assert "error: NoConvergence: " in err
    assert "replay: hecke-lab verify-theta --tau 0.0,0.08 --seed 7 --samples 12" in err


def test_suite_exception_names_class_and_replay_key(capsys, monkeypatch):
    def crash(report, config, rng):
        raise DegeneratePoint("[0j:0j] is not a projective point")

    monkeypatch.setitem(cli.COMMANDS, "compute-space", crash)
    code = cli.main(["compute-space", "T2", "2", "--tau", "0.3,0.45", "--seed", "3"])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert err[-2] == "error: DegeneratePoint: [0j:0j] is not a projective point"
    assert err[-1] == "replay: hecke-lab compute-space T2 2 --tau 0.3,0.45 --seed 3"



@pytest.mark.parametrize("tau", ["-0.2,2.5", "-0.0,1.3", "0.3,0.45"])
def test_replay_line_replays(capsys, monkeypatch, tau):
    # The printed replay line, fed back to the CLI, fails the same way (exit
    # 1); argparse would reject "--tau -0.2,2.5" with exit 2.
    def crash(report, config, rng):
        raise DegeneratePoint("[0j:0j] is not a projective point")

    monkeypatch.setitem(cli.COMMANDS, "verify-double-table", crash)
    assert cli.main(["verify-double-table", f"--tau={tau}", "--seed", "7"]) == 1
    replay = capsys.readouterr().err.splitlines()[-1]
    assert replay.startswith("replay: hecke-lab verify-double-table ")
    try:
        code = cli.main(replay.split()[2:])
    except SystemExit as exc:
        code = exc.code
    assert code == 1
    assert capsys.readouterr().err.splitlines()[-1] == replay

def test_custom_tau_flows_through():
    report = run_text("verify-theta", tau=0.1 + 0.9j, samples=15)
    assert report.ok
    assert "1.000000000000e-01" in report.to_text().splitlines()[1]


def test_failure_sets_exit_code(tmp_path, monkeypatch):
    # One failing record after a passing suite fails the run.
    suite = cli.COMMANDS["verify-theta"]

    def failing(report, config, rng):
        suite(report, config, rng)
        report.add("forced-failure", "a residual above its bound", 1.0, 1e-9)

    monkeypatch.setitem(cli.COMMANDS, "verify-theta", failing)
    out = tmp_path / "r.txt"
    assert cli.main(["verify-theta", "--samples", "10", "--out", str(out)]) == 1
    assert out.read_text().endswith("result: FAIL\n")


def nan_first(f):
    """``f`` with the first element of its (first) residual array set to NaN."""
    def wrapped(*args):
        out = f(*args)
        (out[0] if isinstance(out, tuple) else out)[0] = np.nan
        return out
    return wrapped


@pytest.mark.parametrize("module,name,command,extra,record", [
    (ell, "certify_rows", "verify-elliptic-tables", (), "equivariance"),
    (ss, "conjecture_residuals", "check-conjecture", ("2",), "diagram-residual-m2"),
], ids=["certify_rows", "conjecture_residuals"])
def test_nan_residual_fails_its_record(monkeypatch, module, name, command, extra, record):
    # A running max(worst, x) drops a NaN, which compares false with
    # everything; the record must read NaN and FAIL.
    monkeypatch.setattr(module, name, nan_first(getattr(module, name)))
    report = run_text(command, extra, samples=8)
    rec, = [r for r in report.records if r.name == record]
    assert np.isnan(rec.observed) and rec.passed is False
    assert not report.ok
