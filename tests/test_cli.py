"""Command-line front end: reports, exit codes, and golden files."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from scorerisk.cli import EXIT_CONTRACT, fmt_num, run
from scorerisk.errors import ScoreriskError
from scorerisk.risk import CoherentRiskMeasure
from scorerisk.scores import ScoreFunction

from conftest import swapped_pinball

DATA = Path(__file__).parent / "data"

GOLDEN = [
    (
        ["solve", str(DATA / "quartet.csv"), "--risk", "es:0.5", "--score", "absolute"],
        "quartet_solve.json",
    ),
    (
        [
            "regress",
            str(DATA / "regression.csv"),
            "--target",
            "y",
            "--regressors",
            "x1,x2",
            "--tol",
            "1e-10",
        ],
        "regression_regress.json",
    ),
    (
        ["portfolio", str(DATA / "assets.csv"), "--tol", "1e-9"],
        "assets_portfolio.json",
    ),
]


# the options besides --risk, --score, --tol and --format that each command reads
COMMAND_OPTIONS = {
    "risk": {"--target"},
    "deviation": {"--target"},
    "solve": {"--target"},
    "oracle-check": {"--target", "--grid-step"},
    "regress": {"--target", "--regressors"},
    "hedge": {"--target", "--regressors"},
    "portfolio": {"--regressors"},
}


def run_cli(argv, capsys):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReports:
    def test_solve_worked_example(self, capsys):
        code, out, _ = run_cli(GOLDEN[0][0], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["r_value"] == -2
        assert report["d_value"] == 1.5
        assert report["argmin_lo"] == 2
        assert report["argmin_hi"] == 3

    def test_risk_and_deviation_subsets_of_solve(self, capsys):
        base = [str(DATA / "quartet.csv"), "--risk", "es:0.5", "--score", "absolute"]
        _, solve_out, _ = run_cli(["solve", *base], capsys)
        _, risk_out, _ = run_cli(["risk", *base], capsys)
        _, dev_out, _ = run_cli(["deviation", *base], capsys)
        solve_report = json.loads(solve_out)
        assert json.loads(risk_out)["r_value"] == solve_report["r_value"]
        assert json.loads(dev_out)["d_value"] == solve_report["d_value"]

    def test_oracle_check_small_discrepancy(self, capsys):
        code, out, _ = run_cli(
            ["oracle-check", str(DATA / "quartet.csv"), "--score", "pinball:0.3"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["d_rel_err"] <= 1e-6
        assert report["argmin_lo_err"] <= 2e-4
        assert report["argmin_hi_err"] <= 2e-4

    def test_hedge_report(self, capsys):
        code, out, _ = run_cli(
            ["hedge", str(DATA / "regression.csv"), "--target", "y", "--tol", "1e-10"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert len(report["w"]) == 2
        assert report["residual_deviation"] >= 0.0

    def test_kinked_score_beyond_expected_loss(self, capsys):
        # es with pinball: the two portfolio routes may return different
        # optimal weights on a flat optimum, so only their deviations agree
        pair = ["--risk", "es:0.2", "--score", "pinball:0.3"]
        code, out, _ = run_cli(["portfolio", str(DATA / "assets.csv"), *pair], capsys)
        assert code == 0
        assert json.loads(out)["deviation_discrepancy"] <= 1e-8
        for command, field in (("regress", "objective"), ("hedge", "residual_deviation")):
            code, out, _ = run_cli([command, str(DATA / "regression.csv"), "--target", "y", *pair], capsys)
            assert code == 0
            assert json.loads(out)[field] >= 0.0

    def test_constant_target_fits_with_cd_one(self, capsys, tmp_path):
        data = tmp_path / "constant.csv"
        data.write_text("y,x\n2,0.3\n2,1.7\n2,-0.4\n2,2.2\n2,0.9\n")
        for score in ("pinball:0.3", "absolute", "squared"):
            code, out, _ = run_cli(["regress", str(data), "--target", "y", "--score", score],
                                   capsys)
            assert code == 0
            assert '"cd":1,' in out

    def test_json_escapes_column_names(self, capsys, tmp_path):
        data = tmp_path / "quoted.csv"
        data.write_text('"x""y"\n1\n2\n3\n')
        code, out, _ = run_cli(["solve", str(data)], capsys)
        assert code == 0
        assert json.loads(out)["target"] == 'x"y'

    def test_small_numbers_are_json_numbers(self, capsys, tmp_path):
        # numpy writes 1e-5 as "1.e-05", which JSON rejects
        for m in range(1, 10):
            for e in range(-320, -4):
                x = float(f"{m}e{e}")
                assert json.loads(fmt_num(x)) == pytest.approx(x, rel=1e-11)
                assert json.loads(fmt_num(-x)) == pytest.approx(-x, rel=1e-11)
        data = tmp_path / "tiny.csv"
        data.write_text("x\n0\n1e-5\n")
        code, out, _ = run_cli(["solve", str(data), "--risk", "el", "--score", "absolute"], capsys)
        assert code == 0
        report = json.loads(out)
        assert (report["d_value"], report["argmin_hi"]) == (5e-06, 1e-05)

    def test_spec_parameters_are_echoed_exactly(self, capsys):
        code, out, _ = run_cli(["solve", str(DATA / "quartet.csv"), "--risk", "es:0.1234567",
                                "--score", "barron:1"], capsys)
        assert code == 0
        report = json.loads(out)
        assert (report["risk"], report["score"]) == ("es:0.1234567", "barron:1")

    def test_plain_format_same_payload(self, capsys):
        args = GOLDEN[1][0]
        _, json_out, _ = run_cli(args, capsys)
        _, plain_out, _ = run_cli([*args, "--format", "plain"], capsys)
        report = json.loads(json_out)
        plain = {}
        for line in plain_out.strip().splitlines():
            key, value = line.split(" ", 1)
            plain[key] = value
        assert plain["mu"] == format(report["mu"], "") or float(plain["mu"]) == report["mu"]
        assert float(plain["betas.0"]) == report["betas"][0]
        assert float(plain["betas.1"]) == report["betas"][1]
        assert float(plain["objective"]) == report["objective"]
        assert float(plain["cd"]) == report["cd"]
        assert plain["target"] == report["target"]


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, out, err = run_cli(["solve", str(DATA / "nope.csv")], capsys)
        assert code == 1
        assert out == ""
        assert "error" in err

    def test_bad_spec_string(self, capsys):
        code, _, err = run_cli(
            ["solve", str(DATA / "quartet.csv"), "--risk", "var:0.5"], capsys
        )
        assert code == 1
        assert "error" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("score", ["huber:inf", "linex:inf", "barron:inf", "huber:nan"])
    def test_non_finite_score_parameter(self, score, capsys):
        code, out, err = run_cli(["solve", str(DATA / "quartet.csv"), "--score", score], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {score.split(':')[0]} ")
        assert err.count("\n") == 1

    def test_missing_column(self, capsys):
        code, _, err = run_cli(
            ["solve", str(DATA / "quartet.csv"), "--target", "zzz"], capsys
        )
        assert code == 1
        assert "zzz" in err

    def test_unknown_regressor(self, capsys):
        code, out, err = run_cli(
            ["regress", str(DATA / "regression.csv"), "--target", "y", "--regressors", "x1,nope"],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: columns ['nope'] not in input")

    def test_singular_design(self, capsys, tmp_path):
        bad = tmp_path / "collinear.csv"
        bad.write_text("y,x1,x2\n1,1,2\n2,2,4\n0,0,0\n3,1,2\n")
        code, _, err = run_cli(
            ["regress", str(bad), "--target", "y", "--tol", "1e-8"], capsys
        )
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("command", ["regress", "portfolio"])
    def test_overflowing_fit_is_named(self, command, capsys, tmp_path):
        # near 1e300 the ellipsoid's cuts overflow, at once, not after its
        # 100 000-cut cap; the design is not collinear
        huge = tmp_path / "huge.csv"
        huge.write_text("y,x\n1e300,1e300\n-2e300,-1e300\n5e299,5e299\n3e299,-4e299\n")
        code, out, err = run_cli([command, str(huge)], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: the search overflows")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "risk, score", [("es:0.5", "absolute"), ("el", "squared")], ids=["es-absolute", "el-squared"]
    )
    def test_range_beyond_float(self, risk, score, capsys, tmp_path):
        huge = tmp_path / "huge.csv"
        huge.write_text("x\n1e308\n-1e308\n0\n")
        code, out, err = run_cli(["solve", str(huge), "--risk", risk, "--score", score], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: outcome range")

    def test_oracle_check_range_beyond_float(self, capsys, tmp_path):
        huge = tmp_path / "huge.csv"
        huge.write_text("x\n1e308\n-1e308\n0\n")
        code, out, err = run_cli(["oracle-check", str(huge)], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_oracle_check_grid_too_large(self, capsys, tmp_path):
        wide = tmp_path / "wide.csv"
        wide.write_text("x\n0\n1e6\n")
        code, out, err = run_cli(["oracle-check", str(wide)], capsys)
        assert code == 1
        assert out == ""
        assert "grid" in err

    def test_non_finite_result_is_refused(self, capsys, tmp_path):
        # exp(800) overflows, so the deviation is inf, which JSON cannot spell
        data = tmp_path / "linex.csv"
        data.write_text("x\n-800\n0\n800\n")
        code, out, err = run_cli(["solve", str(data), "--score", "linex:1"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: d_value is not finite")
        assert err.count("\n") == 1

    @pytest.mark.filterwarnings("error")
    def test_overflow_prints_one_error_line(self, capsys):
        # exp(-1e300 x) overflows in f and f'; numpy's warnings stay off stderr
        code, out, err = run_cli(["solve", str(DATA / "quartet.csv"), "--score", "linex:1e300"],
                                 capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "command", ["risk", "deviation", "solve", "oracle-check", "regress", "hedge", "portfolio"]
    )
    def test_prob_column_only(self, command, capsys, tmp_path):
        data = tmp_path / "prob.csv"
        data.write_text("prob\n0.5\n0.5\n")
        code, out, err = run_cli([command, str(data)], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_nan_tol(self, capsys):
        code, out, err = run_cli(["solve", str(DATA / "quartet.csv"), "--tol", "nan"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: tol must be > 0")

    @pytest.mark.parametrize("argv, message", [
        (["solve", "quartet.csv", "--tol", "inf"], "tol must be > 0 and finite"),
        (["regress", "regression.csv", "--target", "y", "--tol", "inf"], "tol must be > 0 and finite"),
        (["oracle-check", "quartet.csv", "--grid-step", "inf"], "grid_step must be > 0 and finite"),
        (["oracle-check", "quartet.csv", "--grid-step", "nan"], "grid_step must be > 0 and finite"),
    ], ids=["solve-tol", "regress-tol", "oracle-grid-step-inf", "oracle-grid-step-nan"])
    def test_non_finite_tolerance(self, argv, message, capsys):
        command, data, *rest = argv
        code, out, err = run_cli([command, str(DATA / data), *rest], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {message}")
        assert err.count("\n") == 1

    def test_contract_violation(self, capsys, monkeypatch):
        monkeypatch.setattr(ScoreFunction, "parse", staticmethod(lambda text: swapped_pinball(0.3)))
        code, out, err = run_cli(
            ["solve", str(DATA / "quartet.csv"), "--risk", "msd:0.5", "--score", "pinball:0.3"],
            capsys,
        )
        assert code == EXIT_CONTRACT == 2
        assert out == ""
        assert err.startswith("error: at y = 2.0 the left slope ")

    def test_help_prints_each_grammar(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(["solve", "--help"])
        assert excinfo.value.code == 0
        text = " ".join(capsys.readouterr().out.split())  # argparse wraps lines
        assert f"risk: {CoherentRiskMeasure.GRAMMAR}" in text
        assert f"score: {ScoreFunction.GRAMMAR}" in text

    def test_usage_error_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(["frobnicate", str(DATA / "quartet.csv")])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("command, options", COMMAND_OPTIONS.items(),
                             ids=list(COMMAND_OPTIONS))
    def test_help_lists_only_the_options_read(self, command, options, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run([command, "--help"])
        assert excinfo.value.code == 0
        listed = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        assert listed == {"--help", "--risk", "--score", "--tol", "--format", *options}

    @pytest.mark.parametrize("command, option", [
        (command, option) for command, options in COMMAND_OPTIONS.items()
        for option in ("--target", "--regressors", "--grid-step") if option not in options
    ])
    def test_option_the_command_does_not_read_is_refused(self, command, option, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run([command, str(DATA / "quartet.csv"), option, "x"])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {option} x" in capsys.readouterr().err


EDGE_PARAMETERS = [5e-324, 1e-300, 1e-5, 0.1, 0.1234564, 0.1234567, 1 / 3, 0.5,
                   float(np.nextafter(0.5, 0.0)), float(np.nextafter(1.0, 0.0)), 1.0, 1.5,
                   123456789.0, 1e16, 1e300]


class TestSpecStrings:
    @pytest.mark.parametrize("catalog", [CoherentRiskMeasure, ScoreFunction],
                             ids=["risk", "score"])
    def test_spec_string_parses_back_to_the_same_entry(self, catalog):
        for entry in catalog.GRAMMAR.split(" | "):
            kind, _, name = entry.partition(":")
            if not name:
                assert catalog.parse(kind).spec_string() == kind
                continue
            for param in EDGE_PARAMETERS:
                try:
                    spec = getattr(catalog, kind)(param)
                except ScoreriskError:
                    continue  # outside the kind's range
                assert catalog.parse(spec.spec_string()) == spec

    def test_short_forms_are_kept(self):
        assert ScoreFunction.barron(1.0).spec_string() == "barron:1"
        assert CoherentRiskMeasure.es(0.1).spec_string() == "es:0.1"
        assert ScoreFunction.huber(1e16).spec_string() == "huber:1e+16"
        assert CoherentRiskMeasure.es(0.1234567).spec_string() == "es:0.1234567"


class TestGoldenFiles:
    @pytest.mark.parametrize("argv, golden", GOLDEN, ids=lambda g: str(g)[-20:])
    def test_byte_identical_and_matches_golden(self, argv, golden, capsys):
        if isinstance(argv, str):
            pytest.skip("parametrize id pass-through")
        code1, out1, _ = run_cli(argv, capsys)
        code2, out2, _ = run_cli(argv, capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        expected = (DATA / golden).read_text()
        assert out1 == expected

    def test_fit_goldens_match_closed_forms(self, capsys):
        """el/squared regress and portfolio reports sit on weighted least
        squares and on the minimum-variance weights."""
        _, out, _ = run_cli(GOLDEN[1][0], capsys)
        report = json.loads(out)
        data = np.genfromtxt(DATA / "regression.csv", delimiter=",", names=True)
        root_p = np.sqrt(data["prob"])
        B = np.column_stack([np.ones(root_p.size), data["x1"], data["x2"]])
        theta = np.linalg.lstsq(root_p[:, None] * B, root_p * data["y"], rcond=None)[0]
        fitted = np.array([report["mu"], *report["betas"]])
        assert np.max(np.abs(fitted - theta)) <= 1e-10

        _, out, _ = run_cli(GOLDEN[2][0], capsys)
        report = json.loads(out)
        V = np.genfromtxt(DATA / "assets.csv", delimiter=",", skip_header=1)
        raw = np.linalg.solve(np.cov(V, rowvar=False, bias=True), np.ones(V.shape[1]))
        for route in ("direct_weights", "regression_weights"):
            assert np.max(np.abs(np.array(report[route]) - raw / raw.sum())) <= 1e-9


def test_cli_imports_nothing_beyond_numpy_but_the_standard_library():
    # import time is benchmarked: a third-party import would add to every run
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = ("import sys, numpy; before = set(sys.modules); import scorerisk.cli; "
            "print(*sorted(set(sys.modules) - before))")
    added = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                           check=True, timeout=60).stdout.split()
    assert "scorerisk.cli" in added
    stray = [m for m in added if m.partition(".")[0] not in sys.stdlib_module_names | {"scorerisk"}]
    assert stray == []


# parameters at and just past each kind's domain edges, and beyond any
EDGES = (5e-324, 1e-300, 0.5, 0.9999999999999999, 1.0, 1.0000000000000002, 2.0, 1e300, 0.0,
         math.inf, math.nan)


def specs(grammar: str):
    """Spec strings of every kind in `grammar`, parameters drawn from EDGES."""
    terms = grammar.split(" | ")
    bare = [t for t in terms if ":" not in t]
    kinds = [t.partition(":")[0] for t in terms if ":" in t]
    with_param = st.builds(lambda k, v: f"{k}:{v!r}", st.sampled_from(kinds), st.sampled_from(EDGES))
    return st.one_of(st.sampled_from(bare), with_param)


@st.composite
def tables(draw):
    """1-200 rows of 1-3 columns at magnitudes 1e-300 to 1e300: continuous,
    whole multiples (ties) or constant."""
    n, k = draw(st.integers(1, 200)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for _ in range(k):
        normal = rng.normal(0.0, 1.0, n)
        column = draw(st.sampled_from([normal, np.round(2.0 * normal), np.full(n, normal[0])]))
        columns.append(column * 10.0 ** draw(st.integers(-300, 300)))
    return np.column_stack(columns)


def write_table(path: Path, table: np.ndarray) -> None:
    names = ["y", "x1", "x2"][: table.shape[1]]
    rows = [",".join(map(repr, map(float, row))) for row in table]
    path.write_text("\n".join([",".join(names), *rows]) + "\n")


def no_constant(token: str):
    raise AssertionError(f"stdout holds {token}, which JSON has no spelling for")


def run_checked(argv, capfd) -> tuple[int, dict | None]:
    """cli.run with stdout and stderr, fd 2 included, held to the contract."""
    capfd.readouterr()
    code = run(argv)
    out, err = capfd.readouterr()
    assert code in (0, 1, 2)
    if code != 0:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
        return code, None
    assert err == ""
    assert out.count("\n") == 1 and out.endswith("\n")
    return code, json.loads(out, parse_constant=no_constant)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["solve", "regress", "portfolio"]),
       risk=specs(CoherentRiskMeasure.GRAMMAR), score=specs(ScoreFunction.GRAMMAR),
       tol=st.sampled_from([1e-8, 1e-3]), table=tables(), data=st.data())
def test_every_input_gives_valid_output_or_one_error_line(command, risk, score, tol, table, data,
                                                          capfd, tmp_path):
    path = tmp_path / "table.csv"
    write_table(path, table)
    flags = ["--risk", risk, "--score", score]
    code, _ = run_checked([command, str(path), *flags, "--tol", repr(tol)], capfd)
    top = np.abs(table[:, 0]).max()
    if (code != 0 or command != "solve" or top == 0.0
            or score.partition(":")[0] not in ("pinball", "absolute", "cost")):
        return
    # the pinball family is positively homogeneous: R and D scale with the
    # data (and tol with them) wherever max|x| lies from 1e-150 to 1e300
    x = table[:, :1] / top
    scale = 10.0 ** data.draw(st.integers(-150, 300), label="log10 scale")
    found = []
    for factor in (1.0, scale):
        write_table(path, x * factor)
        code, report = run_checked(["solve", str(path), *flags, "--tol", repr(tol * factor)], capfd)
        assert code == 0
        found.append(report)
    base, scaled = found
    for key in ("r_value", "d_value"):
        assert abs(scaled[key] / scale - base[key]) <= 4.0 * tol + 1e-12 * (1.0 + abs(base[key]))
