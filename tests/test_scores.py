"""Score catalog: values, one-sided derivatives, flags, and parsing."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from scorerisk import DomainError, ScoreFunction, ValidationError, dminus_y, dplus_y, score_value

ALL_SCORES = [
    ScoreFunction.squared(),
    ScoreFunction.pinball(0.05),
    ScoreFunction.pinball(0.5),
    ScoreFunction.pinball(0.9),
    ScoreFunction.absolute(),
    ScoreFunction.huber(0.75),
    ScoreFunction.linex(0.5),
    ScoreFunction.linex(2.0),
    ScoreFunction.expectile(0.25),
    ScoreFunction.expectile(0.5),
    ScoreFunction.barron(1.0),
    ScoreFunction.barron(1.5),
    ScoreFunction.barron(2.0),
    ScoreFunction.barron(3.0),
    ScoreFunction.cost(0.3),
]

finite_reals = st.floats(-30.0, 30.0)


class TestConstruction:
    @pytest.mark.parametrize(
        "maker, bad",
        [
            (ScoreFunction.pinball, 0.0),
            (ScoreFunction.pinball, 1.0),
            (ScoreFunction.huber, 0.0),
            (ScoreFunction.huber, -1.0),
            (ScoreFunction.linex, 0.0),
            (ScoreFunction.expectile, 1.2),
            (ScoreFunction.barron, 0.5),
            (ScoreFunction.cost, 1.0),
        ],
    )
    def test_domain_checks(self, maker, bad):
        with pytest.raises(DomainError):
            maker(bad)

    def test_flags(self):
        assert ScoreFunction.squared().smooth_strictly_convex
        assert ScoreFunction.squared().derivative_convex
        assert not ScoreFunction.squared().positively_homogeneous
        assert ScoreFunction.pinball(0.2).positively_homogeneous
        assert not ScoreFunction.huber(1.0).smooth_strictly_convex
        assert ScoreFunction.expectile(0.7).derivative_convex
        assert not ScoreFunction.expectile(0.3).derivative_convex
        assert ScoreFunction.barron(1.5).smooth_strictly_convex
        assert not ScoreFunction.barron(1.0).smooth_strictly_convex

    def test_differentiable_property(self):
        assert ScoreFunction.huber(1.0).differentiable
        assert ScoreFunction.barron(1.0).differentiable
        assert not ScoreFunction.pinball(0.4).differentiable
        assert not ScoreFunction.absolute().differentiable
        assert not ScoreFunction.cost(0.3).differentiable

    def test_parse_round_trip(self):
        for s in ALL_SCORES:
            assert ScoreFunction.parse(s.spec_string()) == s

    @pytest.mark.parametrize(
        "text", ["", "unknown", "pinball", "pinball:0.1:0.2", "squared:1", "huber:x"]
    )
    def test_parse_rejects(self, text):
        with pytest.raises(ValidationError):
            ScoreFunction.parse(text)

    def test_parse_propagates_domain(self):
        with pytest.raises(DomainError):
            ScoreFunction.parse("pinball:1.5")


class TestValues:
    def test_known_values(self):
        assert score_value(ScoreFunction.squared(), 3.0, 1.0) == 4.0
        assert score_value(ScoreFunction.pinball(0.1), 0.0, 1.0) == pytest.approx(0.9)
        assert score_value(ScoreFunction.linex(1.0), 2.0, 2.0) == 0.0
        assert score_value(ScoreFunction.absolute(), -1.0, 3.0) == 4.0
        # huber: quadratic inside the width, shifted absolute outside
        hb = ScoreFunction.huber(2.0)
        assert score_value(hb, 1.0, 0.0) == pytest.approx(0.25)
        assert score_value(hb, 5.0, 0.0) == pytest.approx(4.0)
        # barron shape 2 is half the squared error
        assert score_value(ScoreFunction.barron(2.0), 3.0, 1.0) == pytest.approx(2.0)

    def test_cost_is_pinball(self):
        c, pb = ScoreFunction.cost(0.3), ScoreFunction.pinball(0.3)
        for x in (-2.0, -0.5, 0.0, 0.4, 3.0):
            assert score_value(c, x, 0.0) == score_value(pb, x, 0.0)

    @pytest.mark.parametrize("s", ALL_SCORES, ids=lambda s: s.spec_string())
    def test_nonnegative_zero_iff_equal(self, s, rng):
        for _ in range(60):
            x, y = rng.normal(0, 4, 2)
            v = score_value(s, x, y)
            assert v >= 0.0
            assert (v == 0.0) == (x == y)
        assert score_value(s, 1.7, 1.7) == 0.0

    @pytest.mark.parametrize("s", ALL_SCORES, ids=lambda s: s.spec_string())
    def test_translation_structure(self, s, rng):
        # dyadic inputs make (x+c)-(y+c) == x-y exact in floating point,
        # so the structural identity S(x+c,y+c)=S(x,y) holds bitwise
        for _ in range(20):
            x, y, c = np.round(rng.normal(0, 3, 3) * 64.0) / 64.0
            assert score_value(s, x + c, y + c) == score_value(s, x, y)

    def test_rejects_nonfinite(self):
        s = ScoreFunction.squared()
        with pytest.raises(DomainError):
            score_value(s, np.nan, 0.0)
        with pytest.raises(DomainError):
            dplus_y(s, 0.0, np.inf)

    @pytest.mark.parametrize("s", ALL_SCORES, ids=lambda s: s.spec_string())
    @given(x=finite_reals, y1=finite_reals, y2=finite_reals, lam=st.floats(0.0, 1.0))
    def test_convex_in_y(self, s, x, y1, y2, lam):
        mid = lam * y1 + (1.0 - lam) * y2
        lhs = score_value(s, x, mid)
        rhs = lam * score_value(s, x, y1) + (1.0 - lam) * score_value(s, x, y2)
        assert lhs <= rhs + 1e-9 * (1.0 + abs(rhs))

    @pytest.mark.parametrize(
        "s", [s for s in ALL_SCORES if s.positively_homogeneous], ids=lambda s: s.spec_string()
    )
    def test_positive_homogeneity(self, s, rng):
        for _ in range(30):
            x = float(rng.normal(0, 3))
            lam = float(rng.uniform(0, 5))
            assert score_value(s, lam * x, 0.0) == pytest.approx(
                lam * score_value(s, x, 0.0), abs=1e-12
            )


class TestDerivatives:
    def test_known_one_sided_values(self):
        assert dplus_y(ScoreFunction.squared(), 3.0, 1.0) == -4.0
        pb = ScoreFunction.pinball(0.2)
        assert dminus_y(pb, 1.0, 1.0) == pytest.approx(-0.2)
        assert dplus_y(pb, 1.0, 1.0) == pytest.approx(0.8)
        assert dplus_y(ScoreFunction.absolute(), 0.0, 5.0) == 1.0

    @pytest.mark.parametrize("s", ALL_SCORES, ids=lambda s: s.spec_string())
    def test_matches_finite_differences(self, s, rng):
        h = 1e-7
        for _ in range(40):
            x, y = rng.normal(0, 3, 2)
            forward = (score_value(s, x, y + h) - score_value(s, x, y)) / h
            backward = (score_value(s, x, y) - score_value(s, x, y - h)) / h
            assert dplus_y(s, x, y) == pytest.approx(forward, abs=1e-5, rel=1e-5)
            assert dminus_y(s, x, y) == pytest.approx(backward, abs=1e-5, rel=1e-5)

    @pytest.mark.parametrize("s", ALL_SCORES, ids=lambda s: s.spec_string())
    def test_one_sided_order_and_monotone(self, s, rng):
        for _ in range(40):
            x = float(rng.normal(0, 3))
            y1, y2 = sorted(rng.normal(0, 3, 2))
            assert dminus_y(s, x, y1) <= dplus_y(s, x, y1) + 1e-12
            assert dplus_y(s, x, y1) <= dminus_y(s, x, y2) + 1e-12

    @pytest.mark.parametrize(
        "s", [s for s in ALL_SCORES if s.differentiable], ids=lambda s: s.spec_string()
    )
    def test_differentiable_sides_agree(self, s, rng):
        # x - y = 0.0 and -0.0 too: the sides must agree to the sign of zero
        pairs = [rng.normal(0, 3, 2) for _ in range(25)] + [(0.0, 0.0), (-0.0, 0.0)]
        for x, y in pairs:
            minus, plus = dminus_y(s, x, y), dplus_y(s, x, y)
            assert minus == plus and np.signbit(minus) == np.signbit(plus)

    @pytest.mark.parametrize(
        "s", [s for s in ALL_SCORES if s.smooth_strictly_convex], ids=lambda s: s.spec_string()
    )
    def test_strictly_increasing_derivative(self, s, rng):
        for _ in range(25):
            x = float(rng.normal(0, 2))
            y1, y2 = np.sort(rng.normal(0, 2, 2))
            if y2 - y1 < 1e-6:
                continue
            assert dplus_y(s, x, y2) > dplus_y(s, x, y1)
