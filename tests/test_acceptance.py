"""End-to-end acceptance: closed forms, oracles, axioms, applications.

Each criterion prints a single pass/fail line on the terminal (bypassing
capture) and then asserts, so a full run shows the whole scoreboard.
"""

import json
import math
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from scorerisk import (
    CoherentRiskMeasure,
    MeasureWeights,
    ScoreFunction,
    brute_force_oracle,
    cd_metric,
    conditional_risk,
    dual_maximizer,
    expectation,
    fit,
    left_quantile,
    min_deviation_portfolio,
    optimal_hedge,
    risk_value,
    solve,
)
from scorerisk.cli import run as cli_run

from conftest import minimax_gaps, uvar, wvar

DATA = Path(__file__).parent / "data"

EL = CoherentRiskMeasure.el()
SQ = ScoreFunction.squared()

RISK_CATALOG = [
    EL,
    CoherentRiskMeasure.es(0.25),
    CoherentRiskMeasure.es(0.7),
    CoherentRiskMeasure.evar(0.3),
    CoherentRiskMeasure.msd(0.5),
    CoherentRiskMeasure.ml(),
]
SCORE_CATALOG = [
    SQ,
    ScoreFunction.pinball(0.3),
    ScoreFunction.absolute(),
    ScoreFunction.huber(0.8),
    ScoreFunction.linex(1.0),
    ScoreFunction.expectile(0.4),
    ScoreFunction.barron(1.0),
    ScoreFunction.barron(2.5),
    ScoreFunction.cost(0.6),
]


def report(capsys, num, desc, worst, bound):
    ok = worst <= bound
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"acceptance criterion {num} [{desc}]: {status} "
              f"(worst {worst:.3e} vs bound {bound:.1e})")
    assert ok, f"criterion {num} ({desc}): worst {worst} exceeds {bound}"


def random_variable(rng, n=50):
    return wvar(rng.normal(0, 1.5, n), rng.dirichlet(np.ones(n)))


def expectile_root(x, p, alpha):
    def eq(e):
        return alpha * float(p @ np.maximum(x - e, 0.0)) - (1.0 - alpha) * float(
            p @ np.maximum(e - x, 0.0)
        )

    return brentq(eq, float(x.min()), float(x.max()), xtol=1e-13)


def test_criterion_1_closed_form_sweep(capsys):
    rel = 0.0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        X = random_variable(rng)
        p, x = X.space.p, X.values
        mean = float(p @ x)

        res = solve(EL, SQ, X, tol=1e-11)
        rel = max(rel, abs(res.r_value + mean) / (1.0 + abs(mean)))
        var = float(p @ (x - mean) ** 2)
        rel = max(rel, abs(res.d_value - var) / (1.0 + var))

        for gamma in (0.5, 1.0, 2.0):
            res = solve(EL, ScoreFunction.linex(gamma), X, tol=1e-11)
            entropic = (1.0 / gamma) * math.log(float(p @ np.exp(-gamma * x)))
            rel = max(rel, abs(res.r_value - entropic) / (1.0 + abs(entropic)))
            centered = gamma * (mean + entropic)
            rel = max(rel, abs(res.d_value - centered) / (1.0 + abs(centered)))

        for alpha in (0.1, 0.25, 0.5):
            res = solve(EL, ScoreFunction.expectile(alpha), X, tol=1e-11)
            e = expectile_root(x, p, alpha)
            rel = max(rel, abs(res.r_value + e) / (1.0 + abs(e)))

        for alpha in (0.05, 0.25, 0.5):
            res = solve(EL, ScoreFunction.pinball(alpha), X, tol=1e-11)
            q = left_quantile(X, MeasureWeights.from_space(X.space), alpha)
            assert res.argmin_lo == q  # exact outcome value
            es_dev = alpha * risk_value(
                CoherentRiskMeasure.es(alpha), X.with_values(x - mean)
            )
            rel = max(rel, abs(res.d_value - es_dev) / (1.0 + abs(es_dev)))

        res = solve(CoherentRiskMeasure.ml(), ScoreFunction.absolute(), X, tol=1e-12)
        lo, hi = float(x.min()), float(x.max())
        rel = max(rel, abs(res.r_value + (lo + hi) / 2.0))
        rel = max(rel, abs(res.d_value - (hi - lo) / 2.0))
    report(capsys, 1, "closed-form sweep", rel, 1e-8)


def test_criterion_2_worst_case_example(capsys):
    X = uvar([1.0, 2.0, 3.0, 4.0])
    rho, s = CoherentRiskMeasure.es(0.5), ScoreFunction.absolute()
    oracle = brute_force_oracle(rho, s, X, grid_step=1e-4)
    assert abs(oracle.d_value - 1.5) <= 1e-4
    res = solve(rho, s, X, tol=1e-9)
    worst = max(
        abs(res.d_value - 1.5),
        abs(res.argmin_lo - 2.0),
        abs(res.argmin_hi - 3.0),
        abs(res.r_value + 2.0),
    )
    report(capsys, 2, "worst-case example", worst, 1e-6)


def test_criterion_3_oracle_equivalence(capsys):
    rng = np.random.default_rng(42)
    worst_d = worst_arg = 0.0
    for _ in range(200):
        rho = RISK_CATALOG[rng.integers(len(RISK_CATALOG))]
        s = SCORE_CATALOG[rng.integers(len(SCORE_CATALOG))]
        X = random_variable(rng, int(rng.integers(3, 11)))
        res = solve(rho, s, X, tol=1e-8)
        ref = brute_force_oracle(rho, s, X, grid_step=1e-4)
        worst_d = max(worst_d, abs(res.d_value - ref.d_value) / max(1.0, abs(ref.d_value)))
        worst_arg = max(
            worst_arg,
            abs(res.argmin_lo - ref.argmin_lo),
            abs(res.argmin_hi - ref.argmin_hi),
        )
    assert worst_arg <= 2e-4, f"argmin endpoints off by {worst_arg}"
    report(capsys, 3, "oracle equivalence, 200 triples", worst_d, 1e-6)


def test_criterion_4_axiom_suites(capsys):
    rng = np.random.default_rng(7)
    worst = 0.0

    # risk-measure axioms + loadedness + dual consistency, tol 1e-10
    tight = 0.0
    for _ in range(500):
        rho = RISK_CATALOG[rng.integers(len(RISK_CATALOG))]
        Z = random_variable(rng, int(rng.integers(3, 12)))
        z, p = Z.values, Z.space.p
        c = float(rng.normal(0, 2))
        lam = float(rng.uniform(0, 3))
        v = risk_value(rho, Z)
        tight = max(tight, abs(risk_value(rho, Z.with_values(z + c)) - (v - c)))
        tight = max(tight, abs(risk_value(rho, Z.with_values(lam * z)) - lam * v))
        W = Z.with_values(z + rng.uniform(0, 1, z.size))
        tight = max(tight, risk_value(rho, W) - v)  # monotone: risk drops
        U = Z.with_values(rng.normal(0, 2, z.size))
        tight = max(
            tight, risk_value(rho, Z.with_values(z + U.values)) - v - risk_value(rho, U)
        )
        tight = max(tight, risk_value(EL, Z) - v)  # loadedness
        q = dual_maximizer(rho, Z)
        tight = max(tight, abs(expectation(Z.with_values(-z), q) - v))
    assert tight <= 1e-10, f"risk-measure axioms off by {tight}"

    # R and D measure properties through solve, tol 1e-6
    for _ in range(500):
        rho = RISK_CATALOG[rng.integers(len(RISK_CATALOG))]
        s = SCORE_CATALOG[rng.integers(len(SCORE_CATALOG))]
        X = random_variable(rng, 8)
        base = solve(rho, s, X, tol=1e-8)
        c = float(rng.normal(0, 2))
        shifted = solve(rho, s, X.with_values(X.values + c), tol=1e-8)
        worst = max(worst, abs(shifted.r_value - (base.r_value - c)))
        worst = max(worst, abs(shifted.d_value - base.d_value))
        if rho.kind in ("el", "es", "ml"):
            # monotonicity of the argmin-based risk holds for the
            # comonotone-additive measures; the expectile and
            # semideviation kinds admit verified counterexamples (see the
            # solver test module), so they are excluded here
            higher = solve(
                rho, s, X.with_values(X.values + rng.uniform(0, 1, 8)), tol=1e-8
            )
            worst = max(worst, higher.r_value - base.r_value)
        if s.positively_homogeneous:
            lam = float(rng.uniform(0, 3))
            scaled = solve(rho, s, X.with_values(lam * X.values), tol=1e-8)
            worst = max(worst, abs(scaled.r_value - lam * base.r_value))
            worst = max(worst, abs(scaled.d_value - lam * base.d_value))
        worst = max(worst, -base.d_value)  # non-negativity
        Y = X.with_values(rng.normal(0, 1.5, 8))
        lam = float(rng.uniform(0, 1))
        mix = X.with_values(lam * X.values + (1 - lam) * Y.values)
        d_mix = solve(rho, s, mix, tol=1e-8).d_value
        d_bound = lam * base.d_value + (1 - lam) * solve(rho, s, Y, tol=1e-8).d_value
        worst = max(worst, d_mix - d_bound)
    # monotone in rho and in s (500 paired cases)
    for _ in range(500):
        X = random_variable(rng, 8)
        d_el = solve(EL, ScoreFunction.pinball(0.4), X, tol=1e-8).d_value
        d_es = solve(CoherentRiskMeasure.es(0.3), ScoreFunction.pinball(0.4), X, tol=1e-8).d_value
        d_abs = solve(EL, ScoreFunction.absolute(), X, tol=1e-8).d_value
        worst = max(worst, d_el - d_es, d_el - d_abs)
    report(capsys, 4, "axiom suites, 500+ cases each", worst, 1e-6)


def test_criterion_5_minimax_representation(capsys):
    rng = np.random.default_rng(11)
    cases = []
    for s in (ScoreFunction.absolute(), SQ):
        cases.append((CoherentRiskMeasure.es(0.5), s, uvar(rng.normal(0, 1, 4))))
        cases.append((CoherentRiskMeasure.es(0.25), s, uvar(rng.normal(0, 1, 8))))
    # worked examples: an interval of minimizers, and point-mass vertices
    quartet = uvar([1.0, 2.0, 3.0, 4.0])
    cases.append((CoherentRiskMeasure.es(0.5), ScoreFunction.absolute(), quartet))
    cases.append((CoherentRiskMeasure.es(0.25), SQ, quartet))
    worst = 0.0
    for rho, s, X in cases:
        vertex_excess, gap = minimax_gaps(rho, s, X)
        # the vertices bound D from below
        assert vertex_excess <= 1e-8
        worst = max(worst, gap)
    report(capsys, 5, "minimax representation ES(0.5), ES(0.25) on n=4, 8: |D - sampled sup|",
           worst, 5e-3)


def test_criterion_6_regression(capsys):
    rng = np.random.default_rng(19)
    worst = 0.0

    # normal equations, 20 designs, tol 1e-6
    tight = 0.0
    for _ in range(20):
        m = int(rng.integers(8, 50))
        n = int(rng.integers(1, 4))
        p = rng.dirichlet(np.ones(m))
        A = rng.normal(0, 1.5, (m, n))
        y = rng.normal(0, 1, m) + A @ rng.normal(0, 1, n)
        Y = wvar(y, p)
        X = [Y.with_values(A[:, i]) for i in range(n)]
        result = fit(EL, SQ, Y, X, tol=1e-10)
        full = np.column_stack([np.ones(m), A])
        coef = np.linalg.solve(full.T @ (p[:, None] * full), full.T @ (p * y))
        tight = max(tight, abs(result.mu_star - coef[0]))
        tight = max(tight, float(np.max(np.abs(result.betas - coef[1:]))))
        # CD equals the classical coefficient of determination
        ssr = float(p @ (y - full @ coef) ** 2)
        sst = float(p @ (y - float(p @ y)) ** 2)
        tight = max(tight, abs(result.cd - (1.0 - ssr / sst)))
    assert tight <= 1e-6, f"normal equations / CD off by {tight}"

    # el/pinball vs pair enumeration, tol 1e-6
    s_pin = ScoreFunction.pinball(0.35)
    for _ in range(10):
        x = rng.normal(0, 1, 4)
        y = rng.normal(0, 1, 4)
        Y = uvar(y)
        best = np.inf
        for i, j in product(range(4), range(4)):
            if i == j or x[i] == x[j]:
                continue
            b = (y[i] - y[j]) / (x[i] - x[j])
            best = min(best, float(np.mean(s_pin.f(y - (y[i] - b * x[i]) - b * x))))
        result = fit(EL, s_pin, Y, [Y.with_values(x)], tol=1e-10)
        assert abs(result.objective - best) <= 1e-6

    # equivariance properties (iii)-(viii), tol 1e-5
    for _ in range(5):
        m, n = 15, 2
        p = rng.dirichlet(np.ones(m))
        A = rng.normal(0, 1.5, (m, n))
        y = rng.normal(0, 1, m) + A @ rng.normal(0, 1, n)
        Y = wvar(y, p)
        X = [Y.with_values(A[:, i]) for i in range(n)]
        base = fit(EL, SQ, Y, X, tol=1e-9)
        risk_base = conditional_risk(base, X)
        c = float(rng.normal(0, 2))
        # (iii) monotonicity + translation
        Z = Y.with_values(y + rng.uniform(0, 1, m))
        worst = max(worst, float(np.max(conditional_risk(fit(EL, SQ, Z, X, tol=1e-9), X) - risk_base)))
        shifted = fit(EL, SQ, Y.with_values(y + c), X, tol=1e-9)
        worst = max(worst, float(np.max(np.abs(conditional_risk(shifted, X) - (risk_base - c)))))
        # (iv) regressor shift
        reg_shift = fit(EL, SQ, Y.with_values(y + c * A[:, 0]), X, tol=1e-9)
        worst = max(worst, abs(reg_shift.betas[0] - (base.betas[0] + c)))
        worst = max(
            worst,
            float(np.max(np.abs(conditional_risk(reg_shift, X) - (risk_base - c * A[:, 0])))),
        )
        # (v) convexity in the target: guaranteed only for the squared
        # score (coefficients affine in the target); nonlinear fits admit
        # verified pointwise counterexamples pinned in the regression
        # test module, so they are excluded here
        W = Y.with_values(rng.normal(0, 1.5, m))
        lam = float(rng.uniform(0.2, 0.8))
        mix = Y.with_values(lam * y + (1 - lam) * W.values)
        r_mix = conditional_risk(fit(EL, SQ, mix, X, tol=1e-9), X)
        bound = lam * conditional_risk(fit(EL, SQ, Y, X, tol=1e-9), X) + (
            1 - lam
        ) * conditional_risk(fit(EL, SQ, W, X, tol=1e-9), X)
        worst = max(worst, float(np.max(r_mix - bound)))
        # (vi) positive homogeneity for a homogeneous score
        s_ph = ScoreFunction.pinball(0.4)
        lam = float(rng.uniform(0.5, 3.0))
        ph_base = fit(EL, s_ph, Y, X, tol=1e-9)
        ph_scaled = fit(EL, s_ph, Y.with_values(lam * y), X, tol=1e-9)
        worst = max(worst, float(np.max(np.abs(ph_scaled.betas - lam * ph_base.betas))))
        # (vii) reparameterization
        M = rng.normal(0, 1, (n, n))
        while abs(np.linalg.det(M)) < 0.3:
            M = rng.normal(0, 1, (n, n))
        reparam = fit(EL, SQ, Y, [Y.with_values(A @ M[:, j]) for j in range(n)], tol=1e-9)
        worst = max(
            worst, float(np.max(np.abs(reparam.betas - np.linalg.solve(M, base.betas))))
        )
        # (viii) residual refit is zero
        resid = Y.with_values(y - base.mu_star - A @ base.betas)
        refit = fit(EL, SQ, resid, X, tol=1e-9)
        worst = max(worst, abs(refit.mu_star), float(np.max(np.abs(refit.betas))))
    report(capsys, 6, "regression oracles + equivariance", worst, 1e-5)


def test_criterion_7_portfolio(capsys):
    rng = np.random.default_rng(23)
    worst_w = worst_d = 0.0
    for _ in range(20):
        m = 20
        p = rng.dirichlet(np.ones(m))
        V = rng.normal(0, 1, (m, 3)) @ rng.normal(0, 1, (3, 3)) + rng.normal(0, 0.3, (m, 3))
        assets = [wvar(V[:, i], p) for i in range(3)]
        wd, dd = min_deviation_portfolio(EL, SQ, assets, method="direct", tol=1e-9)
        wr, dr = min_deviation_portfolio(EL, SQ, assets, method="regression", tol=1e-9)
        worst_w = max(worst_w, float(np.max(np.abs(wd.w - wr.w))))
        worst_d = max(worst_d, abs(dd - dr))
        mean = V.T @ p
        cov = V.T @ (p[:, None] * V) - np.outer(mean, mean)
        raw = np.linalg.solve(cov, np.ones(3))
        worst_w = max(worst_w, float(np.max(np.abs(wd.w - raw / raw.sum()))) / 0.1)
    assert worst_d <= 1e-4, f"deviation discrepancy {worst_d}"
    # a riskless budget combination exists: the equal-weight mix is constant
    x1, x2 = rng.normal(0, 1, 10), rng.normal(0, 1, 10)
    assets = [uvar(x1), uvar(x2), uvar(3.0 - x1 - x2)]
    w, d = min_deviation_portfolio(EL, SQ, assets, method="direct", tol=1e-10)
    assert d <= 1e-10, f"perfect-hedge portfolio deviation {d}"
    report(capsys, 7, "portfolio routes + GMVP oracle", worst_w, 1e-3)


def test_criterion_8_hedging(capsys):
    rng = np.random.default_rng(29)
    x1, x2 = rng.normal(0, 1, 15), rng.normal(0, 1, 15)
    Y = uvar(0.7 + 1.4 * x1 - 0.9 * x2)
    result = optimal_hedge(EL, SQ, Y, [Y.with_values(x1), Y.with_values(x2)], tol=1e-11)
    worst = max(
        abs(result.mu - 0.7),
        abs(result.w[0] - 1.4),
        abs(result.w[1] + 0.9),
    )
    assert result.residual_deviation <= 1e-10
    for _ in range(20):
        a = rng.normal(0, 1, 12)
        b = rng.normal(0, 1, 12)
        Y = uvar(rng.normal(0, 1, 12) + a)
        one = optimal_hedge(EL, SQ, Y, [Y.with_values(a)], tol=1e-9)
        two = optimal_hedge(EL, SQ, Y, [Y.with_values(a), Y.with_values(b)], tol=1e-9)
        assert two.residual_deviation <= one.residual_deviation + 1e-6
    report(capsys, 8, "hedging replication + monotone improvement", worst, 1e-8)


def test_criterion_9_cli_golden_files(capsys):
    cases = [
        (
            ["solve", str(DATA / "quartet.csv"), "--risk", "es:0.5", "--score", "absolute"],
            "quartet_solve.json",
        ),
        (
            ["regress", str(DATA / "regression.csv"), "--target", "y",
             "--regressors", "x1,x2", "--tol", "1e-10"],
            "regression_regress.json",
        ),
        (["portfolio", str(DATA / "assets.csv"), "--tol", "1e-9"], "assets_portfolio.json"),
    ]
    for argv, golden in cases:
        outputs = []
        for _ in range(2):
            code = cli_run(argv)
            out = capsys.readouterr().out
            assert code == 0
            json.loads(out)  # well-formed
            outputs.append(out)
        assert outputs[0] == outputs[1], f"non-deterministic report for {golden}"
        assert outputs[0] == (DATA / golden).read_text(), f"golden mismatch for {golden}"
    report(capsys, 9, "CLI golden files byte-identical", 0.0, 1.0)
