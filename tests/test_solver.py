"""Robust solve: worked cases, oracle agreement, and measure properties."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scorerisk import (
    CoherentRiskMeasure,
    ContractError,
    DomainError,
    MeasureWeights,
    ScoreFunction,
    acceptability_index,
    brute_force_oracle,
    convex1d,
    fit,
    left_quantile,
    minimax_check,
    risk_value,
    solve,
    solver,
)
from scorerisk.risk import evaluate_batch

from conftest import swapped_pinball, uvar, wvar

EL = CoherentRiskMeasure.el()

RISK_CATALOG = [
    CoherentRiskMeasure.el(),
    CoherentRiskMeasure.es(0.1),
    CoherentRiskMeasure.es(0.35),
    CoherentRiskMeasure.evar(0.2),
    CoherentRiskMeasure.evar(0.5),
    CoherentRiskMeasure.msd(0.6),
    CoherentRiskMeasure.ml(),
]
SCORE_CATALOG = [
    ScoreFunction.squared(),
    ScoreFunction.pinball(0.2),
    ScoreFunction.pinball(0.7),
    ScoreFunction.absolute(),
    ScoreFunction.huber(0.8),
    ScoreFunction.linex(1.3),
    ScoreFunction.expectile(0.3),
    ScoreFunction.barron(1.5),
    ScoreFunction.barron(1.0),
    ScoreFunction.cost(0.4),
]


def random_variable(rng, n=None):
    n = n or int(rng.integers(5, 25))
    return wvar(rng.normal(float(rng.normal()) * 2, 2, n), rng.dirichlet(np.ones(n)))


class TestWorkedExamples:
    def test_squared_el(self):
        res = solve(EL, ScoreFunction.squared(), uvar([-1, 1]), tol=1e-10)
        assert res.r_value == pytest.approx(0.0, abs=1e-10)
        assert res.d_value == pytest.approx(1.0, abs=1e-10)
        assert res.argmin_hi - res.argmin_lo <= 1e-9

    def test_pinball_el_median_interval(self):
        res = solve(EL, ScoreFunction.pinball(0.5), uvar([1, 2, 3, 4]), tol=1e-10)
        assert res.argmin_lo == pytest.approx(2.0, abs=1e-10)
        assert res.argmin_hi == pytest.approx(3.0, abs=1e-10)
        assert res.r_value == pytest.approx(-2.0, abs=1e-10)
        assert res.d_value == pytest.approx(0.5, abs=1e-10)

    def test_absolute_es(self):
        res = solve(
            CoherentRiskMeasure.es(0.5), ScoreFunction.absolute(), uvar([1, 2, 3, 4]), tol=1e-10
        )
        assert res.argmin_lo == pytest.approx(2.0, abs=1e-10)
        assert res.argmin_hi == pytest.approx(3.0, abs=1e-10)
        assert res.d_value == pytest.approx(1.5, abs=1e-10)
        assert res.r_value == pytest.approx(-2.0, abs=1e-10)

    def test_absolute_ml_midrange(self):
        res = solve(CoherentRiskMeasure.ml(), ScoreFunction.absolute(), uvar([0, 10]), tol=1e-10)
        assert res.r_value == pytest.approx(-5.0, abs=1e-10)
        assert res.d_value == pytest.approx(5.0, abs=1e-10)
        assert res.argmin_lo == pytest.approx(5.0, abs=1e-10)
        assert res.argmin_hi == pytest.approx(5.0, abs=1e-10)

    def test_squared_el_is_exact(self):
        # the slope is linear in y, so the secant step lands on the mean
        res = solve(EL, ScoreFunction.squared(), uvar([1, 2, 3]))
        assert res.r_value == -2.0
        assert res.tol_achieved == 0.0

    def test_constant_short_circuit(self):
        res = solve(EL, ScoreFunction.squared(), uvar([3, 3, 3]))
        assert (res.d_value, res.argmin_lo, res.argmin_hi, res.r_value) == (0.0, 3.0, 3.0, -3.0)
        assert res.evaluations == 0

    def test_tol_domain(self):
        for tol in (0.0, math.nan):
            with pytest.raises(DomainError):
                solve(EL, ScoreFunction.squared(), uvar([1, 2]), tol=tol)

    def test_range_beyond_float_is_refused(self):
        with pytest.raises(DomainError):
            solve(EL, ScoreFunction.squared(), uvar([1e308, -1e308, 0.0]))


class TestSolveResultInvariants:
    def test_interval_and_bounds(self, rng):
        for _ in range(25):
            rho = RISK_CATALOG[rng.integers(len(RISK_CATALOG))]
            s = SCORE_CATALOG[rng.integers(len(SCORE_CATALOG))]
            X = random_variable(rng)
            res = solve(rho, s, X, tol=1e-9)
            lo, hi = float(X.values.min()), float(X.values.max())
            assert res.argmin_lo <= res.argmin_hi
            assert lo - 1e-9 <= res.argmin_lo and res.argmin_hi <= hi + 1e-9
            assert res.r_value == -res.argmin_lo
            assert res.d_value >= 0.0
            assert res.tol_achieved <= 1e-9

    def test_singleton_when_strictly_convex(self, rng):
        for s in SCORE_CATALOG:
            if not s.smooth_strictly_convex:
                continue
            X = random_variable(rng)
            res = solve(EL, s, X, tol=1e-9)
            assert res.argmin_hi - res.argmin_lo <= 1e-8

    def test_loose_tol_caps_work_not_precision(self):
        # the kinks are searched, not scanned: a loose tol neither costs
        # evaluations nor moves the exact endpoints
        X = uvar(0.8 * np.random.default_rng(1).standard_t(4, 2500))
        rho, s = CoherentRiskMeasure.es(0.1), ScoreFunction.pinball(0.1)
        loose, tight = solve(rho, s, X, tol=1e-2), solve(rho, s, X, tol=1e-8)
        assert loose.evaluations < 200
        assert (loose.argmin_lo, loose.argmin_hi) == (tight.argmin_lo, tight.argmin_hi)
        assert loose.tol_achieved == 0.0

    def test_unlisted_jump_at_the_minimizer_is_bounded(self):
        # the evar slope jumps at this minimizer, a point no kink list holds
        res = solve(CoherentRiskMeasure.evar(0.3), ScoreFunction.expectile(0.7), uvar([1, 2, 3]))
        assert res.evaluations < 80
        assert 0.0 < res.tol_achieved <= 1e-8

    @pytest.mark.parametrize("risk, score", [
        ("el", "pinball:0.1"), ("es:0.1", "barron:1"), ("es:0.5", "absolute"),
        ("evar:0.3", "cost:0.2"), ("msd:0.5", "pinball:0.3"),
    ])
    def test_no_payoff_is_evaluated_twice(self, risk, score, monkeypatch):
        # both ends come from one search that keeps every point it evaluates
        payoffs = []
        gradient, batch = solver.payoff_gradient, solver.evaluate_batch

        def traced_gradient(rho, z, p):
            payoffs.append(z.tobytes())
            return gradient(rho, z, p)

        def traced_batch(rho, Z, p):
            payoffs.extend(z.tobytes() for z in Z)
            return batch(rho, Z, p)

        monkeypatch.setattr(solver, "payoff_gradient", traced_gradient)
        monkeypatch.setattr(solver, "evaluate_batch", traced_batch)
        X = uvar(np.random.default_rng(0).normal(0, 1, 1001))
        res = solve(CoherentRiskMeasure.parse(risk), ScoreFunction.parse(score), X)
        assert len(payoffs) == res.evaluations
        assert len(set(payoffs)) == len(payoffs)

    def test_values_come_from_the_payoff_gradient(self, monkeypatch):
        # solve and fit take rho's value from the gradient they already
        # hold; only the grid oracle, their independent check, evaluates it
        def refuse(rho, Z, p):
            raise AssertionError("evaluate_batch called")

        for module in ("risk", "solver", "conditional"):
            monkeypatch.setattr(f"scorerisk.{module}.evaluate_batch", refuse, raising=False)
        rng = np.random.default_rng(3)
        X, Y = uvar(rng.normal(0, 1, 200)), uvar(rng.normal(0, 1, 200))
        for rho in RISK_CATALOG:
            for s in (ScoreFunction.squared(), ScoreFunction.pinball(0.3), ScoreFunction.huber(0.8)):
                solve(rho, s, X)
                fit(rho, s, Y, [X], tol=1e-6)
        with pytest.raises(AssertionError, match="evaluate_batch called"):
            brute_force_oracle(EL, ScoreFunction.squared(), X, grid_step=1e-2)

    @pytest.mark.parametrize("risk, score, most, left", [
        ("es:0.1", "barron:1", 45, -0.025832797916994124),
        ("ml", "huber:0.5", 36, -0.4166924955635374),
        ("el", "huber:0.5", 35, -0.06036499834376849),
    ])
    def test_rightmost_search_on_a_settled_bracket_takes_no_steps(self, risk, score, most, left,
                                                                 monkeypatch):
        # the leftmost search ends on a bracket under tol at an unlisted
        # jump or a strict minimum, and the rightmost search starts there
        searched, sign_change = [], convex1d.sign_change

        def traced_search(slopes, lo, hi, tol, **kw):
            points = []
            searched.append((kw.get("rightmost", False), hi - lo, points))
            return sign_change(lambda y: points.append(y) or slopes(y), lo, hi, tol, **kw)

        monkeypatch.setattr(convex1d, "sign_change", traced_search)
        X = uvar(np.random.default_rng(0).normal(0, 1, 1001))
        res = solve(CoherentRiskMeasure.parse(risk), ScoreFunction.parse(score), X, tol=1e-8)
        (first, _, seen), (rightmost, width, points) = searched
        assert not first and rightmost and width <= 1e-8
        assert set(points) <= set(seen)  # no new point: the bracket ends only
        assert res.evaluations <= most
        assert res.argmin_lo == pytest.approx(left, abs=1e-8)
        assert res.argmin_hi == pytest.approx(left, abs=1e-8)

    def test_swapped_one_sided_derivatives_break_the_contract(self):
        # the msd search evaluates the slopes at the outcome 2, where the
        # swapped left slope exceeds the right one; the el search returns
        # the kink 2 unevaluated, and its value takes the slopes there
        for rho in (CoherentRiskMeasure.msd(0.5), EL):
            with pytest.raises(ContractError) as raised:
                solve(rho, swapped_pinball(0.3), uvar([1, 2, 3, 4]))
            message = str(raised.value)
            assert message.startswith("at y = 2.0 the left slope ")
            left, right = (float(part.split()[0]) for part in message.split(" slope ")[1:])
            assert left > right

    @pytest.mark.parametrize(
        "rho", [EL, CoherentRiskMeasure.es(0.1), CoherentRiskMeasure.ml()], ids=["el", "es", "ml"]
    )
    @pytest.mark.parametrize(
        "s", [ScoreFunction.absolute(), ScoreFunction.pinball(0.1), ScoreFunction.cost(0.3)],
        ids=["absolute", "pinball", "cost"],
    )
    def test_kink_snapping_memory_is_linear(self, rho, s):
        n = 3001
        X = uvar(0.8 * np.random.default_rng(1).standard_t(4, n))
        tracemalloc.start()
        try:
            solve(rho, s, X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # every pairwise combination of the outcomes would take 69 MiB
        assert peak < 20 * 2**20


def golden_min(g, a: float, b: float, width: float) -> tuple[float, float]:
    """(y, g(y)) at a minimum of convex g on [a, b], by golden-section search."""
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - inv * (b - a), a + inv * (b - a)
    gc, gd = g(c), g(d)
    while b - a > width:
        if gc <= gd:
            b, d, gd = d, c, gc
            c = b - inv * (b - a)
            gc = g(c)
        else:
            a, c, gc = c, d, gd
            d = a + inv * (b - a)
            gd = g(d)
    return (c, gc) if gc <= gd else (d, gd)


class TestKinkedSearch:
    """Pinball-family solves on 3 001 t(4) outcomes, as in the `kinked` benchmark."""

    X = uvar(0.8 * np.random.default_rng(1).standard_t(4, 3001))

    @pytest.mark.parametrize("risk, score, most, slack", [
        # a bisection to tol 1e-8 alone takes about 30 steps past the kink search
        ("evar:0.2", "pinball:0.1", 30, 1e-8),
        ("evar:0.2", "absolute", 26, 1e-8),
        ("evar:0.2", "cost:0.3", 16, 1e-8),
        ("msd:0.5", "pinball:0.1", 16, 1e-8),
        ("msd:0.5", "absolute", 16, 1e-8),
        # a smooth minimum between kinks: golden section resolves it only to
        # about sqrt(eps) of the range, where the values agree to rounding
        ("msd:0.5", "cost:0.3", 23, 1e-7),
    ])
    def test_evar_and_msd_end_within_tol_in_few_evaluations(self, risk, score, most, slack):
        rho, s = CoherentRiskMeasure.parse(risk), ScoreFunction.parse(score)
        x = self.X.values
        res = solve(rho, s, self.X, tol=1e-8)
        assert res.evaluations <= most

        def g(y):
            return risk_value(rho, uvar(-s.f(x - y)))

        y_ref, g_ref = golden_min(g, float(x.min()), float(x.max()), 1e-12)
        assert res.argmin_lo - slack <= y_ref <= res.argmin_hi + slack
        assert res.d_value <= g_ref * (1.0 + 1e-14)
        for end in (res.argmin_lo, res.argmin_hi):
            assert g(end) == pytest.approx(res.d_value, rel=1e-13)

    @pytest.mark.parametrize("risk, score, evaluations", [
        ("el", "pinball:0.1", 15), ("el", "absolute", 14), ("el", "cost:0.3", 14),
        ("es:0.1", "pinball:0.1", 12), ("es:0.1", "absolute", 12), ("es:0.1", "cost:0.3", 13),
        ("ml", "pinball:0.1", 3), ("ml", "absolute", 3), ("ml", "cost:0.3", 3),
    ])
    def test_linear_searches_keep_their_evaluation_counts(self, risk, score, evaluations):
        # under el, es and ml the slope is constant between kinks, so the
        # search ends on an exact kink
        res = solve(CoherentRiskMeasure.parse(risk), ScoreFunction.parse(score), self.X)
        assert res.evaluations == evaluations
        assert res.tol_achieved == 0.0

    def test_es_and_ml_list_every_point_where_the_slope_changes(self):
        # every kink of g is an outcome or a pairwise tie point a*v_i +
        # (1-a)*v_j, so between two candidates g is linear, and one-sided
        # difference quotients with steps short of the nearest candidate
        # show exactly where its slope changes
        rng = np.random.default_rng(11)
        scores = [ScoreFunction.parse(s)
                  for s in ("pinball:0.1", "pinball:0.5", "pinball:0.8", "absolute", "cost:0.3")]
        alphas = [0.05, 0.1, 0.25, 1.0 / 3.0, 0.5, 0.7, 0.9, 0.99, None, "ml"]
        changes = 0
        for trial in range(1000):
            n = int(rng.integers(2, 14))
            x = [rng.normal(0.0, 1.0, n), rng.integers(-3, 4, n).astype(float),
                 rng.choice([-1.0, 0.5, 2.0], n),
                 np.round(rng.standard_t(3, n), 1)][trial % 4]
            if np.ptp(x) == 0.0:
                continue
            p = rng.dirichlet(np.ones(n)) if trial % 3 else np.full(n, 1.0 / n)
            alpha = alphas[trial % len(alphas)]
            rho = (CoherentRiskMeasure.ml() if alpha == "ml"
                   else CoherentRiskMeasure.es(alpha or float(rng.uniform(0.01, 0.99))))
            s = scores[int(rng.integers(len(scores)))]
            X = wvar(x, p)
            listed = solver._kinks(rho, s, X)
            assert listed.size <= 2 * n
            v = np.unique(x)
            a = 0.5 if s.kind == "absolute" else s.param
            points = np.unique(np.concatenate([v, (a * v[:, None] + (1.0 - a) * v).ravel()]))
            points = points[np.concatenate(([True], np.diff(points) > 1e-12))]
            gaps = np.diff(points, prepend=-np.inf, append=np.inf)
            h = 0.25 * np.minimum(np.minimum(gaps[:-1], gaps[1:]), 1.0)
            ys = np.stack([points - h, points, points + h], axis=1).ravel()
            g = solver.evaluate_batch(rho, -s.f(x - ys[:, None]), X.space.p).reshape(-1, 3)
            jump = np.abs((g[:, 2] - g[:, 1]) - (g[:, 1] - g[:, 0])) / h
            kinked = points[jump > 1e-9 + 1e-13 * np.abs(g).max() / h]
            changes += kinked.size
            near = np.abs(listed[None, :] - kinked[:, None]).min(axis=1, initial=np.inf)
            missing = kinked[near > 1e-12 * (1.0 + np.abs(kinked))]
            assert missing.size == 0, (x, p, rho, s, missing)
        assert changes > 2000

    def test_es_list_stays_linear_where_masses_vanish_in_the_sums(self):
        # masses of 1e-20 leave the cumulative sums flat, so bands that
        # compared them with <= would pair every light outcome above with
        # every light outcome below: 2.6 million ties here
        k = 1600
        x = np.concatenate(([0.0], np.linspace(0.1, 0.2, k), [1.0], np.linspace(1.1, 1.2, k), [2.0]))
        p = np.concatenate(([0.25], np.full(k, 1e-20), [0.5], np.full(k, 1e-20), [0.25]))
        listed = solver._kinks(CoherentRiskMeasure.es(0.5), ScoreFunction.pinball(0.3), wvar(x, p))
        assert listed.size <= 2 * x.size


@st.composite
def tail_cases(draw):
    """(rho, s, X): es:0.05, es:0.1, es:0.3 or ml, a kinked or smooth score,
    and 2-60 outcomes, continuous, on 0.5 ticks or atoms of a few values,
    on uniform or Dirichlet weights."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 60))
    x = {
        "continuous": rng.standard_t(4, n),
        "tick": np.round(2.0 * rng.normal(0.0, 1.0, n)) / 2.0,
        "atoms": rng.choice([-1.5, 0.0, 0.25, 2.0], n),
    }[draw(st.sampled_from(["continuous", "tick", "atoms"]))]
    if np.ptp(x) == 0.0:
        x[0] += 1.0
    p = np.full(n, 1.0 / n) if draw(st.booleans()) else rng.dirichlet(np.full(n, 0.5))
    rho = CoherentRiskMeasure.parse(draw(st.sampled_from(["es:0.05", "es:0.1", "es:0.3", "ml"])))
    s = ScoreFunction.parse(draw(st.sampled_from(["pinball:0.1", "absolute", "cost:0.3",
                                                  "squared", "huber:0.5"])))
    return rho, s, wvar(x, p)


class TestTailOutcomes:
    """es and ml solve on the outcomes their tails can hold."""

    @settings(max_examples=100)
    @given(tail_cases())
    def test_ends_are_minima_on_the_full_outcomes(self, case):
        rho, s, X = case
        x, p = X.values, X.space.p
        res = solve(rho, s, X)

        def g(y):
            return float(evaluate_batch(rho, -s.f(x - y)[None, :], p)[0])

        step = 1e-3 * np.ptp(x)
        for end in (res.argmin_lo, res.argmin_hi):
            assert g(end) == pytest.approx(res.d_value, rel=1e-12, abs=1e-300)
            assert min(g(end - step), g(end + step)) >= res.d_value * (1.0 - 1e-12)
        grid = np.ptp(x) / 2000.0
        ref = brute_force_oracle(rho, s, X, grid_step=grid)
        # a smooth es search may stop within tol of a tail change, where g kinks
        assert abs(res.d_value - ref.d_value) <= 1e-6 * max(1.0, ref.d_value)
        assert abs(res.argmin_lo - ref.argmin_lo) <= 2.0 * grid
        assert abs(res.argmin_hi - ref.argmin_hi) <= 2.0 * grid

    @pytest.mark.parametrize("risk", ["es:0.05", "es:0.1", "es:0.3", "ml"])
    @pytest.mark.parametrize("score", ["pinball:0.1", "absolute", "huber:0.5", "squared"])
    def test_gradients_see_only_the_kept_outcomes(self, risk, score, monkeypatch):
        rows, gradient = [], solver.payoff_gradient

        def spy(rho, z, p):
            rows.append(z.size)
            return gradient(rho, z, p)

        monkeypatch.setattr(solver, "payoff_gradient", spy)
        n = 1001
        rho = CoherentRiskMeasure.parse(risk)
        solve(rho, ScoreFunction.parse(score), uvar(np.random.default_rng(5).normal(0, 1, n)))
        most = 2 if risk == "ml" else 2 * math.ceil(rho.param * n) + 2
        assert rows and max(rows) <= most


class TestOracleAgreement:
    def test_random_triples(self, rng):
        for _ in range(40):
            rho = RISK_CATALOG[rng.integers(len(RISK_CATALOG))]
            s = SCORE_CATALOG[rng.integers(len(SCORE_CATALOG))]
            X = random_variable(rng)
            res = solve(rho, s, X, tol=1e-10)
            ref = brute_force_oracle(rho, s, X, grid_step=1e-4)
            scale = max(1.0, abs(ref.d_value))
            assert abs(res.d_value - ref.d_value) / scale <= 1e-6
            assert abs(res.argmin_lo - ref.argmin_lo) <= 2e-4
            assert abs(res.argmin_hi - ref.argmin_hi) <= 2e-4

    def test_oracle_constant(self):
        ref = brute_force_oracle(EL, ScoreFunction.squared(), uvar([2, 2]), 1e-3)
        assert (ref.d_value, ref.argmin_lo, ref.argmin_hi) == (0.0, 2.0, 2.0)

    def test_oracle_grid_step_domain(self):
        with pytest.raises(DomainError):
            brute_force_oracle(EL, ScoreFunction.squared(), uvar([1, 2]), 0.0)

    def test_oracle_refuses_an_infinite_grid(self):
        with pytest.raises(DomainError):
            brute_force_oracle(EL, ScoreFunction.squared(), uvar([1e308, -1e308, 0.0]), 1e-4)

    def test_oracle_memory_is_linear(self):
        X = uvar(np.random.default_rng(3).standard_normal(4000))
        step = 1.2 * np.ptp(X.values) / 4100
        tracemalloc.start()
        try:
            ref = brute_force_oracle(CoherentRiskMeasure.es(0.1), ScoreFunction.huber(0.5), X, step)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ref.evaluations >= 4096
        # blocks of 4096 grid points took 516 MiB on this input
        assert peak < 64 * 2**20

    def test_oracle_refuses_a_large_grid_before_allocating(self):
        # 1.2e10 grid points would take 96 GB for the grid alone
        tracemalloc.start()
        try:
            with pytest.raises(DomainError):
                brute_force_oracle(EL, ScoreFunction.squared(), uvar([0.0, 1e6]), 1e-4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestClosedForms:
    def test_squared_el_mean_variance(self, rng):
        X = random_variable(rng)
        p, x = X.space.p, X.values
        mean = float(p @ x)
        res = solve(EL, ScoreFunction.squared(), X, tol=1e-11)
        assert res.r_value == pytest.approx(-mean, abs=1e-9)
        assert res.d_value == pytest.approx(float(p @ (x - mean) ** 2), abs=1e-9)

    def test_pinball_el_quantile(self, rng):
        alpha = 0.3
        X = random_variable(rng)
        res = solve(EL, ScoreFunction.pinball(alpha), X, tol=1e-10)
        quantile = left_quantile(X, MeasureWeights.from_space(X.space), alpha)
        assert res.argmin_lo == quantile

    @pytest.mark.parametrize("n", [10, 20, 1000])
    @pytest.mark.parametrize(
        "s, alpha",
        [
            (ScoreFunction.pinball(0.1), 0.1),
            (ScoreFunction.pinball(0.3), 0.3),
            (ScoreFunction.pinball(0.7), 0.7),
            (ScoreFunction.cost(0.3), 0.3),
            (ScoreFunction.absolute(), 0.5),
        ],
        ids=["pinball:0.1", "pinball:0.3", "pinball:0.7", "cost:0.3", "absolute"],
    )
    def test_tied_quantile_interval_is_exact(self, s, alpha, n):
        # alpha * n is a whole number k, so the cumulative mass equals alpha
        # exactly between the k-th and (k+1)-th outcomes, a flat valley
        x = np.random.default_rng(0).normal(0, 1, n)
        z = np.sort(x)
        k = round(alpha * n)
        res = solve(EL, s, uvar(x))
        assert (res.argmin_lo, res.argmin_hi) == (z[k - 1], z[k])

    def test_linex_el_entropic(self, rng):
        gamma = 1.3
        X = random_variable(rng)
        p, x = X.space.p, X.values
        entropic = (1.0 / gamma) * math.log(float(p @ np.exp(-gamma * x)))
        res = solve(EL, ScoreFunction.linex(gamma), X, tol=1e-11)
        assert res.r_value == pytest.approx(entropic, abs=1e-9)

    def test_expectile_el_matches_evar(self, rng):
        alpha = 0.25
        X = random_variable(rng)
        res = solve(EL, ScoreFunction.expectile(alpha), X, tol=1e-11)
        assert res.r_value == pytest.approx(
            risk_value(CoherentRiskMeasure.evar(alpha), X), abs=1e-8
        )

    def test_absolute_ml_midrange(self, rng):
        X = random_variable(rng)
        lo, hi = float(X.values.min()), float(X.values.max())
        res = solve(CoherentRiskMeasure.ml(), ScoreFunction.absolute(), X, tol=1e-11)
        assert res.r_value == pytest.approx(-(lo + hi) / 2.0, abs=1e-10)
        assert res.d_value == pytest.approx((hi - lo) / 2.0, abs=1e-10)


class TestMeasureProperties:
    def test_translation(self, rng):
        for _ in range(10):
            rho = RISK_CATALOG[rng.integers(len(RISK_CATALOG))]
            s = SCORE_CATALOG[rng.integers(len(SCORE_CATALOG))]
            X = random_variable(rng)
            c = float(rng.normal(0, 3))
            base = solve(rho, s, X, tol=1e-9)
            shifted = solve(rho, s, X.with_values(X.values + c), tol=1e-9)
            assert shifted.r_value == pytest.approx(base.r_value - c, abs=1e-6)
            assert shifted.d_value == pytest.approx(base.d_value, abs=1e-6)

    # Monotonicity of the argmin-based risk holds for the
    # comonotone-additive measures (el, es, ml). The expectile and
    # semideviation kinds reweight outcomes nonlinearly and can move the
    # minimizer the wrong way; the companion test pins a verified
    # counterexample.
    def test_monotonicity_of_r(self, rng):
        monotone = [r for r in RISK_CATALOG if r.kind in ("el", "es", "ml")]
        for _ in range(10):
            rho = monotone[rng.integers(len(monotone))]
            s = SCORE_CATALOG[rng.integers(len(SCORE_CATALOG))]
            X = random_variable(rng)
            Y = X.with_values(X.values + rng.uniform(0, 1, X.values.size))
            assert solve(rho, s, X, tol=1e-9).r_value >= solve(rho, s, Y, tol=1e-9).r_value - 1e-6

    def test_expectile_measure_breaks_monotonicity_of_r(self):
        # raising every outcome increases the risk value by 0.067 here;
        # confirmed against an independent root-finder on a fine grid
        rho = CoherentRiskMeasure.evar(0.3)
        s = ScoreFunction.pinball(0.3)
        x = np.array([
            -2.2373223, 1.67622995, 0.19678633, 0.62477529,
            2.34064097, -0.72303732, 2.46035161, -2.66249502,
        ])
        p = np.array([
            0.17947599, 0.24016857, 0.05506655, 0.18395485,
            0.07240463, 0.15104774, 0.07467001, 0.04321167,
        ])
        p = p / p.sum()
        up = np.array([
            0.00911594, 0.20797974, 0.72673243, 0.68058893,
            0.70498711, 0.11681961, 0.54790158, 0.04903479,
        ])
        X = wvar(x, p)
        r_low = solve(rho, s, X, tol=1e-10).r_value
        r_high = solve(rho, s, X.with_values(x + up), tol=1e-10).r_value
        assert r_high - r_low > 0.05

    def test_positive_homogeneity_where_flagged(self, rng):
        homogeneous = [s for s in SCORE_CATALOG if s.positively_homogeneous]
        for lam in (0.0, 0.5, 2.0, 7.0):
            rho = RISK_CATALOG[rng.integers(len(RISK_CATALOG))]
            s = homogeneous[rng.integers(len(homogeneous))]
            X = random_variable(rng)
            base = solve(rho, s, X, tol=1e-9)
            scaled = solve(rho, s, X.with_values(lam * X.values), tol=1e-9)
            assert scaled.r_value == pytest.approx(lam * base.r_value, abs=1e-6)
            assert scaled.d_value == pytest.approx(lam * base.d_value, abs=1e-6)

    @pytest.mark.parametrize("score", ["pinball:0.3", "absolute", "cost:0.3"])
    def test_msd_scales_with_the_data_at_extreme_magnitudes(self, score):
        # u * u overflows near 1e154 and underflows near 1e-154; msd's
        # semideviation must not fall back to el's gradient there
        rho, s = CoherentRiskMeasure.msd(0.5), ScoreFunction.parse(score)
        values = np.array([1.0, -1.0, 0.5, 0.2])
        base = solve(rho, s, uvar(values))
        assert base.d_value != solve(EL, s, uvar(values)).d_value
        for scale in (1e-300, 1e300):
            scaled = solve(rho, s, uvar(scale * values), tol=1e-8 * scale)
            assert scaled.r_value / scale == pytest.approx(base.r_value, abs=1e-8)
            assert scaled.d_value / scale == pytest.approx(base.d_value, rel=1e-12)
            assert risk_value(rho, uvar(scale * values)) / scale == pytest.approx(
                risk_value(rho, uvar(values)), rel=1e-12)

    def test_deviation_convexity(self, rng):
        for _ in range(10):
            rho = RISK_CATALOG[rng.integers(len(RISK_CATALOG))]
            s = SCORE_CATALOG[rng.integers(len(SCORE_CATALOG))]
            X = random_variable(rng, 12)
            Y = X.with_values(rng.normal(0, 2, 12))
            lam = float(rng.uniform(0, 1))
            mix = X.with_values(lam * X.values + (1 - lam) * Y.values)
            d_mix = solve(rho, s, mix, tol=1e-9).d_value
            bound = (
                lam * solve(rho, s, X, tol=1e-9).d_value
                + (1 - lam) * solve(rho, s, Y, tol=1e-9).d_value
            )
            assert d_mix <= bound + 1e-6

    def test_deviation_zero_iff_constant(self, rng):
        X = random_variable(rng)
        for rho in (EL, CoherentRiskMeasure.ml()):
            for s in (ScoreFunction.squared(), ScoreFunction.absolute()):
                assert solve(rho, s, X, tol=1e-9).d_value > 0.0
                assert solve(rho, s, uvar([1.5, 1.5]), tol=1e-9).d_value == 0.0

    def test_monotone_in_rho_and_score(self, rng):
        # EL <= ES(0.3) <= ML pointwise, and pinball(0.4) <= absolute
        for _ in range(10):
            X = random_variable(rng)
            s = ScoreFunction.absolute()
            d_el = solve(EL, s, X, tol=1e-9).d_value
            d_es = solve(CoherentRiskMeasure.es(0.3), s, X, tol=1e-9).d_value
            d_ml = solve(CoherentRiskMeasure.ml(), s, X, tol=1e-9).d_value
            assert d_el <= d_es + 1e-8 and d_es <= d_ml + 1e-8
            d_pin = solve(EL, ScoreFunction.pinball(0.4), X, tol=1e-9).d_value
            assert d_pin <= d_el + 1e-8


class TestAcceptabilityIndex:
    def test_reward_to_deviation(self):
        assert acceptability_index(EL, ScoreFunction.squared(), uvar([-1, 3])) == pytest.approx(
            0.25, abs=1e-8
        )

    def test_acceptable_constant(self):
        assert acceptability_index(EL, ScoreFunction.squared(), uvar([2, 2])) == math.inf

    def test_unacceptable_constant(self):
        assert acceptability_index(EL, ScoreFunction.squared(), uvar([-2, -2])) == 0.0


class TestMinimaxCheck:
    def test_worked_example(self):
        assert minimax_check(
            CoherentRiskMeasure.es(0.5), ScoreFunction.absolute(), uvar([1, 2, 3, 4])
        )

    def test_point_mass_vertices(self):
        assert minimax_check(
            CoherentRiskMeasure.es(0.25), ScoreFunction.squared(), uvar([1.0, 2.0, 3.0, 4.0])
        )

    def test_preconditions(self, rng):
        X = uvar(rng.normal(0, 1, 4))
        with pytest.raises(DomainError):
            minimax_check(EL, ScoreFunction.absolute(), X)
        with pytest.raises(DomainError):
            minimax_check(CoherentRiskMeasure.es(0.3), ScoreFunction.absolute(), X)
        big = uvar(rng.normal(0, 1, 10))
        with pytest.raises(DomainError):
            minimax_check(CoherentRiskMeasure.es(0.5), ScoreFunction.absolute(), big)
        skew = wvar(rng.normal(0, 1, 4), [0.4, 0.3, 0.2, 0.1])
        with pytest.raises(DomainError):
            minimax_check(CoherentRiskMeasure.es(0.5), ScoreFunction.absolute(), skew)
