"""Coherent risk measures: values, axioms, and dual maximizers."""

import numpy as np
import pytest
from scipy.optimize import brentq

from scorerisk import (
    CoherentRiskMeasure,
    DomainError,
    FiniteScenarioSpace,
    MeasureWeights,
    ScenarioVariable,
    ValidationError,
    dual_maximizer,
    expectation,
    risk_value,
)
from scorerisk.risk import evaluate_batch, payoff_gradient

from conftest import uvar, wvar

ALL_RISKS = [
    CoherentRiskMeasure.el(),
    CoherentRiskMeasure.es(0.1),
    CoherentRiskMeasure.es(0.5),
    CoherentRiskMeasure.es(0.95),
    CoherentRiskMeasure.evar(0.2),
    CoherentRiskMeasure.evar(0.5),
    CoherentRiskMeasure.msd(0.0),
    CoherentRiskMeasure.msd(0.6),
    CoherentRiskMeasure.msd(1.0),
    CoherentRiskMeasure.ml(),
]


def random_variable(rng, n=None):
    n = n or int(rng.integers(3, 20))
    return wvar(rng.normal(0, 2, n), rng.dirichlet(np.ones(n)))


def greedy_es_weights(z, p, alpha):
    """Lower alpha-tail masses, filled outcome by outcome in (value, index)
    order."""
    w = np.zeros_like(p)
    remaining = alpha
    for i in np.lexsort((np.arange(z.size), z)):
        if remaining <= 0.0:
            break
        take = min(p[i], remaining)
        w[i] = take
        remaining -= take
    return w


def expectile_gap(z, p, alpha, x):
    """alpha E[(Z-x)+] - (1-alpha) E[(x-Z)+]; zero at the expectile."""
    return alpha * np.dot(p, np.maximum(z - x, 0.0)) - (1.0 - alpha) * np.dot(
        p, np.maximum(x - z, 0.0)
    )


def reference_risk(rho, z, p):
    """Each measure from its definition, one row at a time."""
    a = rho.param
    if rho.kind == "el":
        return -np.dot(p, z)
    if rho.kind == "es":
        return -np.dot(greedy_es_weights(z, p, a), z) / a
    if rho.kind == "evar":
        return -brentq(lambda x: expectile_gap(z, p, a, x), z.min(), z.max(), xtol=1e-15)
    if rho.kind == "msd":
        mean = np.dot(p, z)
        return -mean + a * np.sqrt(np.dot(p, np.maximum(mean - z, 0.0) ** 2))
    return -z.min()


class TestConstruction:
    @pytest.mark.parametrize(
        "maker, bad",
        [
            (CoherentRiskMeasure.es, 0.0),
            (CoherentRiskMeasure.es, 1.0),
            (CoherentRiskMeasure.evar, 0.6),
            (CoherentRiskMeasure.evar, 0.0),
            (CoherentRiskMeasure.msd, 1.5),
            (CoherentRiskMeasure.msd, -0.1),
            (CoherentRiskMeasure.es, float("inf")),
            (CoherentRiskMeasure.es, float("nan")),
            (CoherentRiskMeasure.evar, float("nan")),
            (CoherentRiskMeasure.msd, float("inf")),
            (CoherentRiskMeasure.msd, float("nan")),
        ],
    )
    def test_domain_checks(self, maker, bad):
        with pytest.raises(DomainError):
            maker(bad)

    def test_parse_round_trip(self):
        for rho in ALL_RISKS:
            assert CoherentRiskMeasure.parse(rho.spec_string()) == rho

    @pytest.mark.parametrize("text", ["", "var", "es", "el:1", "es:0.1:0.2", "msd:x"])
    def test_parse_rejects(self, text):
        with pytest.raises(ValidationError):
            CoherentRiskMeasure.parse(text)


class TestValues:
    def test_expected_loss(self):
        assert risk_value(CoherentRiskMeasure.el(), uvar([1, 2, 3])) == -2.0

    def test_expected_shortfall_half(self):
        assert risk_value(CoherentRiskMeasure.es(0.5), uvar([1, 2, 3, 4])) == -1.5

    def test_expected_shortfall_fractional_atom(self):
        # alpha=0.3 on 4 uniform outcomes: full atom on the worst (mass
        # 0.25) plus 0.05 on the next; -(0.25*1 + 0.05*2)/0.3
        value = risk_value(CoherentRiskMeasure.es(0.3), uvar([1, 2, 3, 4]))
        assert value == pytest.approx(-(0.25 * 1 + 0.05 * 2) / 0.3, abs=1e-14)

    def test_maximum_loss(self):
        assert risk_value(CoherentRiskMeasure.ml(), uvar([-3, 0, 7])) == 3.0

    def test_msd_manual(self):
        Z = uvar([-1.0, 1.0])
        # mean 0, lower semideviation sqrt(0.5); value = 0 + beta*sqrt(0.5)
        assert risk_value(CoherentRiskMeasure.msd(0.6), Z) == pytest.approx(
            0.6 * np.sqrt(0.5), abs=1e-14
        )
        assert risk_value(CoherentRiskMeasure.msd(0.0), Z) == pytest.approx(0.0, abs=1e-15)

    def test_evar_half_equals_expected_loss(self, rng):
        el = CoherentRiskMeasure.el()
        ev = CoherentRiskMeasure.evar(0.5)
        for _ in range(20):
            Z = random_variable(rng)
            assert risk_value(ev, Z) == pytest.approx(risk_value(el, Z), abs=1e-10)

    def test_es_approaches_expected_loss(self, rng):
        Z = random_variable(rng)
        el = risk_value(CoherentRiskMeasure.el(), Z)
        assert risk_value(CoherentRiskMeasure.es(1.0 - 1e-12), Z) == pytest.approx(el, abs=1e-9)

    def test_constant_variable(self):
        Z = uvar([2.5, 2.5, 2.5])
        for rho in ALL_RISKS:
            assert risk_value(rho, Z) == pytest.approx(-2.5, abs=1e-11)

    def test_batch_matches_scalar(self, rng):
        n = 11
        p = rng.dirichlet(np.ones(n))
        Z = rng.normal(0, 2, (7, n))
        for rho in ALL_RISKS:
            batch = evaluate_batch(rho, Z, p)
            for k in range(Z.shape[0]):
                assert batch[k] == pytest.approx(reference_risk(rho, Z[k], p), abs=1e-11)

    @pytest.mark.parametrize("alpha", [0.05, 0.2, 0.5])
    def test_evar_root_solves_defining_equation(self, alpha, rng):
        # rounding to a coarse grid makes ties and roots on outcomes common
        rho = CoherentRiskMeasure.evar(alpha)
        for decimals in (None, 0):
            Z = rng.normal(0, 3, (40, 9))
            if decimals is not None:
                Z = np.round(Z, decimals)
            p = rng.dirichlet(np.ones(9))
            for z, value in zip(Z, evaluate_batch(rho, Z, p)):
                scale = 1.0 + z.max() - z.min()
                assert abs(expectile_gap(z, p, alpha, -value)) <= 1e-12 * scale

    @pytest.mark.parametrize(
        "alpha, values, p, expected",
        [
            (0.2, [0, 1], [0.5, 0.5], -0.2),
            (0.2, [0, 1], [0.25, 0.75], -3 / 7),
            # the root lands on an outcome
            (0.5, [0, 1, 2], [1 / 3, 1 / 3, 1 / 3], -1.0),
        ],
    )
    def test_evar_hand_checked(self, alpha, values, p, expected):
        value = risk_value(CoherentRiskMeasure.evar(alpha), wvar(values, p))
        assert value == pytest.approx(expected, abs=1e-15)

    def test_es_tie_with_fractional_boundary_atom(self):
        # the two zeros fill the 0.25-tail in index order: all of the
        # first (0.2), then 0.05 of the second
        Z = wvar([1, 0, 0, 3], [0.1, 0.2, 0.3, 0.4])
        rho = CoherentRiskMeasure.es(0.25)
        assert risk_value(rho, Z) == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(dual_maximizer(rho, Z).q, [0, 0.8, 0.2, 0], atol=1e-15)


class TestAxioms:
    @pytest.mark.parametrize("rho", ALL_RISKS, ids=lambda r: r.spec_string())
    def test_monotonicity(self, rho, rng):
        for _ in range(30):
            Z = random_variable(rng)
            W = Z.with_values(Z.values + rng.uniform(0, 1, Z.values.size))
            assert risk_value(rho, Z) >= risk_value(rho, W) - 1e-10

    @pytest.mark.parametrize("rho", ALL_RISKS, ids=lambda r: r.spec_string())
    def test_translation_invariance(self, rho, rng):
        for _ in range(30):
            Z = random_variable(rng)
            c = float(rng.normal(0, 3))
            shifted = Z.with_values(Z.values + c)
            assert risk_value(rho, shifted) == pytest.approx(
                risk_value(rho, Z) - c, abs=1e-10
            )

    @pytest.mark.parametrize("rho", ALL_RISKS, ids=lambda r: r.spec_string())
    def test_positive_homogeneity(self, rho, rng):
        for _ in range(30):
            Z = random_variable(rng)
            lam = float(rng.uniform(0, 4))
            assert risk_value(rho, Z.with_values(lam * Z.values)) == pytest.approx(
                lam * risk_value(rho, Z), abs=1e-10
            )

    @pytest.mark.parametrize("rho", ALL_RISKS, ids=lambda r: r.spec_string())
    def test_subadditivity(self, rho, rng):
        for _ in range(30):
            Z = random_variable(rng)
            W = Z.with_values(rng.normal(0, 2, Z.values.size))
            combined = Z.with_values(Z.values + W.values)
            assert risk_value(rho, combined) <= risk_value(rho, Z) + risk_value(rho, W) + 1e-10

    @pytest.mark.parametrize("rho", ALL_RISKS, ids=lambda r: r.spec_string())
    def test_loadedness(self, rho, rng):
        el = CoherentRiskMeasure.el()
        for _ in range(30):
            Z = random_variable(rng)
            assert risk_value(rho, Z) >= risk_value(el, Z) - 1e-12

    def test_es_ordering_in_alpha(self, rng):
        for _ in range(20):
            Z = random_variable(rng)
            a1, a2 = sorted(rng.uniform(0.05, 0.95, 2))
            assert risk_value(CoherentRiskMeasure.es(a1), Z) >= risk_value(
                CoherentRiskMeasure.es(a2), Z
            ) - 1e-12


class TestDualMaximizer:
    def test_el_returns_base_measure(self, rng):
        Z = random_variable(rng)
        q = dual_maximizer(CoherentRiskMeasure.el(), Z)
        np.testing.assert_allclose(q.q, Z.space.p, rtol=1e-12)

    def test_es_tail_reweighting(self):
        q = dual_maximizer(CoherentRiskMeasure.es(0.5), uvar([1, 2, 3, 4]))
        np.testing.assert_allclose(q.q, [0.5, 0.5, 0.0, 0.0])

    def test_ml_point_mass_lowest_index(self):
        q = dual_maximizer(CoherentRiskMeasure.ml(), uvar([-3, 0, 7]))
        np.testing.assert_array_equal(q.q, [1.0, 0.0, 0.0])
        # ties break to the lowest index
        q = dual_maximizer(CoherentRiskMeasure.ml(), uvar([0, -3, -3]))
        np.testing.assert_array_equal(q.q, [0.0, 1.0, 0.0])

    @pytest.mark.parametrize("rho", ALL_RISKS, ids=lambda r: r.spec_string())
    @pytest.mark.parametrize("weights", ["uniform", "dirichlet"])
    def test_every_measure_has_a_feasible_maximizer(self, rho, weights, rng):
        # q attains rho and is feasible: no random W gets E_q[-W] above
        # rho(W), on tick-rounded rows too; on the last two uniform rows
        # outcomes tie with the evar:0.2 and evar:0.5 expectile 0
        n = 48
        p = np.full(n, 1.0 / n) if weights == "uniform" else rng.dirichlet(np.full(n, 0.5))
        space = FiniteScenarioSpace(p)
        for z in [*tie_patterns(rng, n), np.tile([-1.0, 0.0, 4.0], 16), np.tile([-1.0, 0.0, 0.0, 1.0], 12)]:
            Z = ScenarioVariable(space, z)
            q = dual_maximizer(rho, Z).q
            assert np.dot(q, -z) == pytest.approx(risk_value(rho, Z), abs=1e-10)
            for _ in range(50):
                W = rng.normal(0.0, 2.0, n) * rng.integers(0, 2, n)
                assert np.dot(q, -W) <= risk_value(rho, ScenarioVariable(space, W)) + 1e-10

    @pytest.mark.parametrize("rho", ALL_RISKS, ids=lambda r: r.spec_string())
    def test_attains_value(self, rho, rng):
        for _ in range(30):
            Z = random_variable(rng)
            q = dual_maximizer(rho, Z)
            attained = expectation(Z.with_values(-Z.values), q)
            assert attained == pytest.approx(risk_value(rho, Z), abs=1e-10)

    def test_es_density_bound(self, rng):
        rho = CoherentRiskMeasure.es(0.35)
        for _ in range(20):
            Z = random_variable(rng)
            q = dual_maximizer(rho, Z)
            assert np.all(q.q <= Z.space.p / 0.35 + 1e-12)

    @pytest.mark.parametrize(
        "rho",
        [r for r in ALL_RISKS if r.kind in ("el", "es", "ml")],
        ids=lambda r: r.spec_string(),
    )
    def test_dominates_random_feasible_measures(self, rho, rng):
        # feasible points: EL admits only the base measure; ES admits any
        # q <= p/alpha (built by greedily filling alpha mass along a random
        # outcome order, respecting the per-outcome caps); ML admits the
        # whole simplex
        Z = random_variable(rng, 8)
        p = Z.space.p
        value = risk_value(rho, Z)
        neg = Z.with_values(-Z.values)
        for _ in range(100):
            if rho.kind == "el":
                raw = p
            elif rho.kind == "es":
                alpha = rho.param
                w = np.zeros(8)
                remaining = alpha
                for i in rng.permutation(8):
                    take = min(p[i], remaining)
                    w[i] = take
                    remaining -= take
                raw = w / alpha
            else:
                raw = rng.dirichlet(np.ones(8))
            q = MeasureWeights(raw)
            assert expectation(neg, q) <= value + 1e-10


class TestPayoffGradient:
    @pytest.mark.parametrize("rho", ALL_RISKS, ids=lambda r: r.spec_string())
    def test_sums_to_minus_one(self, rho, rng):
        for _ in range(15):
            Z = random_variable(rng)
            grad = payoff_gradient(rho, Z.values, Z.space.p)
            assert float(grad.sum()) == pytest.approx(-1.0, abs=1e-10)

    @pytest.mark.parametrize("rho", ALL_RISKS, ids=lambda r: r.spec_string())
    def test_matches_directional_derivative(self, rho, rng):
        # generic payoffs have no ties, so the subgradient is a gradient
        # and must match central finite differences of the risk value
        h = 1e-6
        for _ in range(10):
            n = 7
            p = rng.dirichlet(np.ones(n))
            z = rng.normal(0, 2, n)
            d = rng.normal(0, 1, n)
            grad = payoff_gradient(rho, z, p)
            plus = evaluate_batch(rho, (z + h * d)[None, :], p)[0]
            minus = evaluate_batch(rho, (z - h * d)[None, :], p)[0]
            assert float(np.dot(grad, d)) == pytest.approx(
                (plus - minus) / (2 * h), abs=5e-5
            )


def stable_sort_tail(Z, p, alpha):
    """Lower alpha-tail masses per outcome from a full stable sort of each
    row, and the ES values summed in that order: the kernel's reference,
    with the same order and the same running sums."""
    order = np.argsort(Z, axis=1, kind="stable")
    ps = p[order]
    masses = np.clip(alpha - (np.cumsum(ps, axis=1) - ps), 0.0, ps)
    w = np.zeros(Z.shape)
    np.put_along_axis(w, order, masses, axis=1)
    values = -(masses * np.take_along_axis(Z, order, axis=1)).sum(axis=1) / alpha
    return w, values


def tie_patterns(rng, n):
    """Rows of n outcomes: continuous, rounded to a fine and a coarse tick,
    two values, and constant."""
    z = rng.normal(0.0, 1.0, n)
    return np.array([z, np.round(z / 0.05) * 0.05, np.round(z / 0.5) * 0.5,
                     np.where(z < 0.3, -1.0, 2.0), np.full(n, 0.7)])


class TestExpectedShortfallKernel:
    """The selected tail against a full stable sort: payoff gradients and
    dual maximizers bit-identical, values within 1e-15 (1 + |rho|), as the
    kernel sums over the tail only."""

    @staticmethod
    def check(Z, p, alpha):
        space = FiniteScenarioSpace(p)
        rho, p = CoherentRiskMeasure.es(alpha), space.p
        w, values = stable_sort_tail(Z, p, alpha)
        batch = evaluate_batch(rho, Z, p)
        np.testing.assert_allclose(batch, values, rtol=0.0, atol=1e-15 * (1.0 + np.abs(values).max()))
        for k, z in enumerate(Z):
            np.testing.assert_array_equal(payoff_gradient(rho, z, p), -w[k] / alpha)
            np.testing.assert_array_equal(dual_maximizer(rho, ScenarioVariable(space, z)).q,
                                          MeasureWeights(w[k] / alpha).q)

    @pytest.mark.parametrize("n", [1, 2, 10_000])
    @pytest.mark.parametrize("alpha", [None, 0.1, 0.5, 0.95], ids=["alpha_n_below_1", "0.1", "0.5", "0.95"])
    @pytest.mark.parametrize("weights", ["uniform", "dirichlet"])
    def test_rows_match_full_sort(self, n, alpha, weights, rng):
        alpha = alpha or 0.5 / n
        p = np.full(n, 1.0 / n) if weights == "uniform" else rng.dirichlet(np.full(n, 0.5))
        self.check(tie_patterns(rng, n), p, alpha)

    @pytest.mark.parametrize("low, mass, kths", [(3000, 4e-4, [1000, 2001, 4003]),
                                                  (1001, 0.1 - 1e-13, [1000, 2001])])
    def test_light_tail_candidates_double(self, low, mass, kths, rng, monkeypatch):
        # the `low` lowest of 10 000 outcomes hold `mass`, so the first
        # ceil(alpha n) + 1 = 1001 candidates fall short of alpha = 0.1
        n, alpha = 10_000, 0.1
        z = rng.permutation(n).astype(float)
        p = np.where(z < low, mass / low, (1.0 - mass) / (n - low))
        seen = []
        partition = np.partition

        def spy(a, kth, **kwargs):
            seen.append(kth)
            return partition(a, kth, **kwargs)

        monkeypatch.setattr(np, "partition", spy)
        self.check(z[None, :], p, alpha)
        assert seen[:len(kths)] == kths
        # a batch whose rows tie at the c-th smallest is sorted whole
        self.check(np.array([z, np.round(z / 7.0)]), p, alpha)

    def test_nan_payoffs_order_last(self, rng):
        # as in a full sort; 95 of 100 nan put one among the c smallest
        z = rng.normal(0.0, 1.0, 100)
        for count in (30, 95):
            row = z.copy()
            row[rng.permutation(100)[:count]] = np.nan
            p = np.full(100, 0.01)
            w, _ = stable_sort_tail(row[None, :], p, 0.1)
            rho = CoherentRiskMeasure.es(0.1)
            np.testing.assert_array_equal(payoff_gradient(rho, row, p), -w[0] / 0.1)
