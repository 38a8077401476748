"""Scenario spaces, variables, weights, and CSV ingestion."""

import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from scorerisk import (
    DimensionError,
    DomainError,
    FiniteScenarioSpace,
    MeasureWeights,
    ScenarioVariable,
    ValidationError,
    ess_bounds,
    expectation,
    left_quantile,
    load_csv,
)

from conftest import uvar, wvar


class TestFiniteScenarioSpace:
    def test_uniform(self):
        space = FiniteScenarioSpace.uniform(4)
        assert space.n == 4
        np.testing.assert_allclose(space.p, 0.25)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            FiniteScenarioSpace([0.5, 0.5, 0.0])
        with pytest.raises(ValidationError):
            FiniteScenarioSpace([1.5, -0.5])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValidationError):
            FiniteScenarioSpace([0.5, 0.6])

    def test_renormalizes_subtolerance_drift(self):
        p = np.full(3, 1.0 / 3.0)
        space = FiniteScenarioSpace(p * (1.0 + 1e-13))
        assert float(space.p.sum()) == 1.0

    def test_rejects_nonfinite_and_empty(self):
        with pytest.raises(ValidationError):
            FiniteScenarioSpace([0.5, np.nan])
        with pytest.raises(ValidationError):
            FiniteScenarioSpace([])
        with pytest.raises(ValidationError):
            FiniteScenarioSpace.uniform(0)

    def test_rejects_two_dimensional(self):
        with pytest.raises(ValidationError, match="one-dimensional"):
            FiniteScenarioSpace([[0.5, 0.5]])

    def test_immutable(self):
        space = FiniteScenarioSpace.uniform(2)
        with pytest.raises(ValueError):
            space.p[0] = 0.7


class TestScenarioVariable:
    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            ScenarioVariable(FiniteScenarioSpace.uniform(3), [1.0, 2.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            uvar([1.0, np.inf])

    def test_with_values(self):
        X = uvar([1.0, 2.0])
        Y = X.with_values([3.0, 4.0])
        assert Y.space == X.space
        np.testing.assert_array_equal(Y.values, [3.0, 4.0])

    def test_values_are_copied(self):
        raw = np.array([1.0, 2.0])
        X = uvar(raw)
        raw[0] = 99.0
        assert X.values[0] == 1.0


class TestEqualityAndHash:
    def test_spaces_and_weights_compare_by_their_vectors(self):
        for make in (FiniteScenarioSpace, MeasureWeights):
            a, b = make([0.25, 0.75]), make([0.25, 0.75])
            assert a == b and hash(a) == hash(b) and len({a, b}) == 1
            assert a != make([0.75, 0.25])
        assert FiniteScenarioSpace([0.5, 0.5]) != MeasureWeights([0.5, 0.5])

    def test_variables_compare_by_space_and_values(self):
        X, Y = wvar([1.0, 2.0], [0.25, 0.75]), wvar([1.0, 2.0], [0.25, 0.75])
        assert X == Y and hash(X) == hash(Y) and len({X, Y}) == 1
        assert X != wvar([2.0, 1.0], [0.25, 0.75])
        assert X != wvar([1.0, 2.0], [0.75, 0.25])
        assert X != X.space


class TestMeasureWeights:
    def test_from_space(self):
        space = FiniteScenarioSpace([0.2, 0.8])
        np.testing.assert_array_equal(MeasureWeights.from_space(space).q, [0.2, 0.8])

    def test_zero_weight_allowed(self):
        q = MeasureWeights([0.0, 1.0])
        assert q.q[0] == 0.0

    def test_rejects_negative_and_bad_sum(self):
        with pytest.raises(ValidationError):
            MeasureWeights([-0.1, 1.1])
        with pytest.raises(ValidationError):
            MeasureWeights([0.3, 0.3])


class TestExpectation:
    def test_uniform_mean(self):
        assert expectation(uvar([1, 2, 3]), MeasureWeights.from_space(FiniteScenarioSpace.uniform(3))) == 2.0

    def test_constant(self):
        assert expectation(wvar([5, 5], [0.9, 0.1]), MeasureWeights([0.9, 0.1])) == 5.0

    def test_hand_value(self):
        assert expectation(uvar([-1, 3]), MeasureWeights([0.25, 0.75])) == 2.0

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            expectation(uvar([1, 2, 3]), MeasureWeights([0.5, 0.5]))

    @given(
        st.lists(st.floats(-50, 50), min_size=2, max_size=8),
        st.floats(-3, 3),
        st.floats(-3, 3),
    )
    def test_linearity(self, values, a, b):
        X = uvar(values)
        Y = uvar(list(reversed(values)))
        q = MeasureWeights.from_space(X.space)
        combined = X.with_values(a * X.values + b * Y.values)
        lhs = expectation(combined, q)
        rhs = a * expectation(X, q) + b * expectation(Y, q)
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))


class TestLeftQuantile:
    def test_uniform_median(self):
        X = uvar([1, 2, 3, 4])
        assert left_quantile(X, MeasureWeights.from_space(X.space), 0.5) == 2.0

    def test_constant(self):
        X = uvar([7, 7, 7])
        assert left_quantile(X, MeasureWeights.from_space(X.space), 0.3) == 7.0

    def test_unsorted_input(self):
        X = uvar([10, -5, 0])
        assert left_quantile(X, MeasureWeights.from_space(X.space), 0.4) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            left_quantile(uvar([1, 2, 3]), MeasureWeights([0.5, 0.5]), 0.5)

    def test_alpha_domain(self):
        X = uvar([1, 2])
        q = MeasureWeights.from_space(X.space)
        for alpha in (0.0, 1.0, -0.2):
            with pytest.raises(DomainError):
                left_quantile(X, q, alpha)

    def test_monotone_in_alpha_and_shift_equivariant(self, rng):
        values = rng.normal(0, 3, 12)
        X = uvar(values)
        q = MeasureWeights.from_space(X.space)
        alphas = np.linspace(0.05, 0.95, 13)
        quantiles = [left_quantile(X, q, a) for a in alphas]
        assert quantiles == sorted(quantiles)
        shifted = uvar(values + 2.5)
        for a in alphas:
            assert left_quantile(shifted, q, a) == left_quantile(X, q, a) + 2.5


class TestEssBounds:
    def test_basic(self):
        assert ess_bounds(uvar([3, 1, 2])) == (1.0, 3.0)
        assert ess_bounds(uvar([4.5])) == (4.5, 4.5)

    def test_sandwich(self, rng):
        X = wvar(rng.normal(0, 1, 9), rng.dirichlet(np.ones(9)))
        lo, hi = ess_bounds(X)
        mean = expectation(X, MeasureWeights.from_space(X.space))
        assert lo <= mean <= hi


class TestLoadCsv:
    def test_uniform_without_prob_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,4\n2,5\n3,6\n")
        space, variables = load_csv(path)
        assert space.n == 3
        np.testing.assert_allclose(space.p, 1.0 / 3.0)
        np.testing.assert_array_equal(variables["a"].values, [1, 2, 3])
        np.testing.assert_array_equal(variables["b"].values, [4, 5, 6])

    def test_prob_column(self):
        stream = io.StringIO("prob,x\n0.2,10\n0.8,20\n")
        space, variables = load_csv(stream)
        np.testing.assert_array_equal(space.p, [0.2, 0.8])
        assert list(variables) == ["x"]

    def test_bad_inputs(self, tmp_path):
        for text in ("", "a,b\n", "a\n1\nfoo\n", "a,a\n1,2\n", "a,b\n1\n"):
            with pytest.raises(ValidationError):
                load_csv(io.StringIO(text))

    @pytest.mark.parametrize("text", ["a,b\n1,inf\n2,3\n", 'a,b\n1,"-inf"\n2,3\n'],
                             ids=["numpy-reader", "csv-module"])
    def test_non_finite_cell(self, text):
        with pytest.raises(ValidationError, match="CSV input contains non-finite values"):
            load_csv(io.StringIO(text))

    def test_missing_file(self):
        with pytest.raises(OSError):
            load_csv("/nonexistent/scenarios.csv")

    def test_random_decimals_parse_as_float_does(self, tmp_path):
        rng = np.random.default_rng(7)
        cells = [[f"{v:.17g}" for v in row] for row in rng.normal(0.0, 1e3, (500, 3))
                 * 10.0 ** rng.integers(-300, 300, (500, 3))]
        text = "a,b,c\n" + "".join(",".join(row) + "\n" for row in cells)
        path = tmp_path / "data.csv"
        path.write_text(text)
        expected = np.array([[float(cell) for cell in row] for row in cells])
        for source in (path, io.StringIO(text)):
            _, variables = load_csv(source)
            table = np.column_stack([variables[name].values for name in "abc"])
            assert table.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("a,b\n1_0,2\n3,4\n", {"a": [10.0, 3.0], "b": [2.0, 4.0]}),
            ('a,b\n"1.5",2\n3,4\n', {"a": [1.5, 3.0], "b": [2.0, 4.0]}),
            ("a,b\n1,2\n \t ,  \n3,4\n", {"a": [1.0, 3.0], "b": [2.0, 4.0]}),
            ("a\n1\n   \n2\n", {"a": [1.0, 2.0]}),
            ("a,b\n", "CSV input has no data rows"),
            ("a\n\n", "CSV input has no data rows"),
            ("a,b\n1,2\n#3,4\n", "CSV row 3 contains a non-numeric cell"),
            ("a,b\n1,2\n3,4,5\n", "CSV row 3 has 3 cells, expected 2"),
            ("a,b\n1,2\n\n3\n", "CSV row 4 has 1 cells, expected 2"),
        ],
        ids=["underscore", "quoted", "blank_row", "blank_row_one_column", "header_only",
             "header_only_one_column", "comment_row", "long_row", "short_row"],
    )
    def test_csv_module_fallback(self, text, expected, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(text)
        for source in (path, io.StringIO(text)):
            if isinstance(expected, str):
                with pytest.raises(ValidationError) as info:
                    load_csv(source)
                assert str(info.value) == expected
            else:
                _, variables = load_csv(source)
                assert {k: v.values.tolist() for k, v in variables.items()} == expected
