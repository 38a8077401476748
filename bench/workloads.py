"""The benchmark's three workloads: their inputs, operations and output checks.

Each workload is a fixed list of operations built from ``--seed``; the
runner times every operation and afterwards checks its output against
`reference`. Inputs are the same in every round of a run, except in
``fit``, which draws new ones each round for all but one operation.

- ``cli``: ``scorerisk solve|risk|deviation|oracle-check`` as subprocesses
  on CSVs of 1e4 and 1e5 rows, smooth and differentiable scores under all
  five measures.
- ``kinked``: in-process ``solver.solve`` with pinball, absolute and cost
  scores under all five measures, on continuous and tick-rounded outcomes.
- ``fit``: in-process ``conditional.fit``, ``min_deviation_portfolio``
  (both routes) and ``optimal_hedge`` on m = 1e3 and 3e3 scenarios.

Run ``python3 bench/workloads.py <workload> <seed> <dir>`` to write a
workload's inputs to ``<dir>`` without running anything.
"""

from __future__ import annotations

import json
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

MEASURES = ["el", "es:0.1", "evar:0.2", "msd:0.5", "ml"]
SMOOTH_SCORES = ["squared", "linex:0.5", "expectile:0.7", "huber:0.5", "barron:1"]
KINKED_SCORES = ["pinball:0.1", "absolute", "cost:0.3"]
# tolerance of the fit workload's operations: at the default 1e-8 coordinate
# descent runs to its 400-sweep cap on some seeds' data (README.md, `fit`)
FIT_TOL = 1e-7
# rounding tick of the kinked workload's discrete scenario sets
TICK = 0.05
# oracle-check grid: this many steps across the outcome range
ORACLE_STEPS = 400
# coefficient and weight tolerance of coordinate-descent fits, relative
FIT_REL = 1e-5
# agreement of the direct and regression portfolio deviations
PORTFOLIO_REL = 1e-5


@dataclass
class Op:
    """One timed operation and the check of its output."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    failed: Callable[[object], str | None] = lambda out: None
    # a fault of the program this operation hits on every run, on inputs
    # that do not depend on the seed: called on an output that passed
    # ``check``, it names the fault if the output still shows it, and the
    # operation then counts as failed. Every other wrong output is left
    # to ``check`` and makes the run incorrect.
    known_fault: Callable[[object], str | None] | None = None


@dataclass
class Workload:
    name: str
    # the operations of round r; the same list every round unless the
    # workload draws new inputs per round
    round_ops: Callable[[int], list[Op]]
    # source run in a fresh interpreter to time import and warm-up
    setup_code: str
    in_process: bool
    input_files: list[Path] = field(default_factory=list)

    @property
    def ops_per_round(self) -> int:
        return len(self.round_ops(0))


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def _arg_tol(x: np.ndarray) -> float:
    return ref.ARG_REL * (1.0 + float(np.ptp(x)))


def _val_tol(d: float) -> float:
    return ref.VAL_REL * (1.0 + abs(d))


class SolveReference:
    """Reference figures for (rho, s) on one scenario set, computed once."""

    def __init__(self, rho: str, s: str, x: np.ndarray, p: np.ndarray) -> None:
        self.rho, self.s, self.x, self.p = rho, s, x, p
        self.span = float(np.ptp(x))
        self.delta = 1e-3 * (1.0 + self.span)
        self.arg_tol = _arg_tol(x)
        self._closed = None
        self._deviation = None
        self._lp = None

    def g(self, y: float) -> float:
        return ref.objective(self.rho, self.s, self.x, self.p, y)

    @property
    def closed(self):
        if self._closed is None:
            self._closed = ref.closed_form(self.rho, self.s, self.x, self.p) or ()
        return self._closed

    @property
    def deviation(self) -> float:
        if self._deviation is None:
            self._deviation = self.closed[2] if self.closed else ref.deviation(
                self.rho, self.s, self.x, self.p)[1]
        return self._deviation

    @property
    def es_lp(self):
        kind, alpha = ref.parse_spec(self.rho)
        if kind != "es" or ref.parse_spec(self.s)[0] not in ("pinball", "cost", "absolute"):
            return None
        if self._lp is None:
            self._lp = ref.es_deviation_lp(alpha, self.s, self.x, self.p)
        return self._lp

    def not_beaten(self, y: float, d: float) -> str | None:
        """g(y) equals d and neither neighbour y -+ delta is lower."""
        gy = self.g(y)
        if not _close(gy, d, _val_tol(d)):
            return f"g({y!r}) = {gy!r} but D = {d!r}"
        for yy in (y - self.delta, y + self.delta):
            if self.g(yy) < d - _val_tol(d):
                return f"g({yy!r}) = {self.g(yy)!r} is below D = {d!r}"
        return None

    def check_solve(self, lo: float, hi: float, d: float,
                    missed_endpoint_ok: bool = False) -> str | None:
        """With ``missed_endpoint_ok``, a closed-form interval may be
        reported with one endpoint missing; `missed_endpoint` names that."""
        if lo > hi + self.arg_tol:
            return f"argmin interval [{lo!r}, {hi!r}] is reversed"
        if self.closed:
            c_lo, c_hi, c_d = self.closed
            lo_ok, hi_ok = _close(lo, c_lo, self.arg_tol), _close(hi, c_hi, self.arg_tol)
            inside = c_lo - self.arg_tol <= lo and hi <= c_hi + self.arg_tol
            if not (lo_ok and hi_ok or missed_endpoint_ok and inside and (lo_ok or hi_ok)):
                return f"argmin [{lo!r}, {hi!r}], closed form [{c_lo!r}, {c_hi!r}]"
            if not _close(d, c_d, _val_tol(c_d)):
                return f"D = {d!r}, closed form {c_d!r}"
        if self.es_lp is not None and not _close(d, self.es_lp, _val_tol(self.es_lp)):
            return f"D = {d!r}, Rockafellar-Uryasev LP {self.es_lp!r}"
        return self.check_deviation(d) or self.not_beaten(lo, d) or self.not_beaten(hi, d)

    def missed_endpoint(self, lo: float, hi: float) -> str | None:
        c_lo, c_hi, _ = self.closed
        if _close(lo, c_lo, self.arg_tol) and _close(hi, c_hi, self.arg_tol):
            return None
        return f"argmin [{lo!r}, {hi!r}] misses an endpoint of [{c_lo!r}, {c_hi!r}]"

    def check_risk(self, r: float) -> str | None:
        y = -r
        if self.closed and not _close(y, self.closed[0], self.arg_tol):
            return f"R = {r!r}, closed form {-self.closed[0]!r}"
        return self.not_beaten(y, self.deviation)

    def check_deviation(self, d: float) -> str | None:
        if not _close(d, self.deviation, _val_tol(self.deviation)):
            return f"D = {d!r}, reference {self.deviation!r}"
        return None


# -- cli -------------------------------------------------------------------------


def _book(rng: np.random.Generator, n: int) -> dict[str, np.ndarray]:
    return {
        "pnl": rng.normal(0.05, 1.0, n),
        "ret": 0.8 * rng.standard_t(4, n),
        "fx": np.expm1(rng.normal(0.0, 0.5, n)),
    }


def _write_csv(path: Path, columns: dict[str, np.ndarray]) -> None:
    names = list(columns)
    table = np.column_stack([columns[k] for k in names])
    # 17 significant digits round-trip exactly, so the references see the
    # same numbers the program parses
    np.savetxt(path, table, delimiter=",", header=",".join(names), comments="", fmt="%.17g")


def cli_inputs(seed: int, directory: Path) -> dict[str, dict[str, np.ndarray]]:
    rng = _rng(seed, 1)
    u = rng.uniform(0.5, 1.5, 10_000)
    files = {
        "book_1e4.csv": _book(rng, 10_000),
        "weighted_1e4.csv": {"prob": u / u.sum(), "pos": rng.standard_t(5, 10_000)},
        "book_1e5.csv": _book(rng, 100_000),
        "oracle_2e3.csv": {"pnl": rng.normal(0.05, 1.0, 2_000)},
    }
    directory.mkdir(parents=True, exist_ok=True)
    for name, columns in files.items():
        _write_csv(directory / name, columns)
    return files


def cli_workload(seed: int, directory: Path, command: Callable[[list[str]], list[str]],
                 env: dict, cwd: Path, after_run=None) -> Workload:
    """``command`` turns scorerisk's arguments into the subprocess argv;
    ``after_run`` sees each finished process (the traced run reads its
    trace file there)."""
    files = cli_inputs(seed, directory)

    def variable(fname: str, column: str):
        cols = files[fname]
        x = cols[column]
        p = cols["prob"] / cols["prob"].sum() if "prob" in cols else np.full(x.size, 1.0 / x.size)
        return x, p

    def run_cli(args: list[str]):
        def run():
            proc = subprocess.run(command(args), env=env, cwd=cwd, capture_output=True,
                                  timeout=150)
            if after_run is not None:
                after_run(proc)
            return proc
        return run

    def failed(proc) -> str | None:
        if proc.returncode != 0:
            return f"exit {proc.returncode}: {proc.stderr.decode()[-300:]}"
        return None

    def make(cmd: str, fname: str, column: str, rho: str, s: str, extra=()) -> Op:
        x, p = variable(fname, column)
        reference = SolveReference(rho, s, x, p)
        args = [cmd, str(directory / fname), "--risk", rho, "--score", s,
                "--target", column, *extra]

        def check(proc) -> str | None:
            try:
                out = json.loads(proc.stdout)
            except json.JSONDecodeError as exc:
                return f"stdout is not JSON: {exc}"
            if (out.get("risk"), out.get("score"), out.get("target")) != (rho, s, column):
                return f"report header {out!r} does not echo the request"
            if cmd == "solve":
                if not _close(out["r_value"], -out["argmin_lo"], reference.arg_tol):
                    return "r_value is not -argmin_lo"
                return reference.check_solve(out["argmin_lo"], out["argmin_hi"], out["d_value"])
            if cmd == "risk":
                return reference.check_risk(out["r_value"])
            if cmd == "deviation":
                return reference.check_deviation(out["d_value"])
            step = float(extra[1])
            d, d_oracle = out["d_value"], out["d_value_oracle"]
            msg = reference.check_deviation(d) or reference.check_deviation(d_oracle)
            if msg:
                return msg
            if not _close(out["d_rel_err"], abs(d - d_oracle) / max(1.0, abs(d_oracle)), 1e-9):
                return f"d_rel_err {out['d_rel_err']!r} does not match the two values"
            if max(out["argmin_lo_err"], out["argmin_hi_err"]) > 2.0 * step + reference.arg_tol:
                return f"oracle argmin differs by more than two grid steps: {out!r}"
            return None

        return Op(f"{cmd} {fname}:{column} {rho} {s}", run_cli(args), check, failed)

    ops = []
    book_cols = ["pnl", "ret", "fx"]
    commands = ["solve", "risk", "deviation"]
    for i, (rho, s) in enumerate((r, s) for r in MEASURES for s in SMOOTH_SCORES):
        ops.append(make(commands[(i + i // 5) % 3], "book_1e4.csv",
                        book_cols[(i + 2 * (i // 5)) % 3], rho, s))
    for i, (rho, s) in enumerate((r, s) for r in MEASURES for s in SMOOTH_SCORES[:4]):
        ops.append(make(commands[(i + 1) % 3], "weighted_1e4.csv", "pos", rho, s))
    ops.append(make("solve", "book_1e5.csv", "pnl", "es:0.1", "huber:0.5"))
    ops.append(make("solve", "book_1e5.csv", "ret", "evar:0.2", "expectile:0.7"))
    oracle_x = files["oracle_2e3.csv"]["pnl"]
    step = repr(float(np.ptp(oracle_x)) / ORACLE_STEPS)
    for rho, s in [("el", "squared"), ("es:0.1", "huber:0.5"), ("msd:0.5", "barron:1")]:
        ops.append(make("oracle-check", "oracle_2e3.csv", "pnl", rho, s,
                        extra=("--grid-step", step)))
    return Workload("cli", lambda r: ops, "import scorerisk.cli", in_process=False,
                    input_files=[directory / f for f in files])


# -- kinked ------------------------------------------------------------------------


def kinked_inputs(seed: int) -> dict[str, np.ndarray]:
    # odd sizes: no cumulative mass k/n equals 0.1, 0.3 or 0.5, so every
    # expected-loss quantile is a single point; the tied case is TIE_SET
    rng = _rng(seed, 2)
    sets = {
        "normal_1e3": rng.normal(0.0, 1.0, 1001),
        "t4_3e3": 0.8 * rng.standard_t(4, 3001),
        "normal_1e3_tick": np.round(rng.normal(0.0, 1.0, 1001) / TICK) * TICK,
        "t4_3e3_tick": np.round(0.8 * rng.standard_t(4, 3001) / TICK) * TICK,
    }
    for name in ("normal_1e3", "t4_3e3"):
        if np.unique(sets[name]).size != sets[name].size:
            raise RuntimeError(f"continuous set {name} has repeated outcomes")
    return sets


# Fixed input, the same for every seed: 1000 distinct outcomes, so the
# median is the interval between the 500th and 501st. solve reports one
# endpoint for both ends (CHANGES.md, the flat-valley endpoint).
TIE_SET = ("tie_1e3", "el", "absolute")


KINKED_SETUP = """
import numpy as np
from scorerisk import CoherentRiskMeasure, FiniteScenarioSpace, ScenarioVariable, ScoreFunction, solve
X = ScenarioVariable(FiniteScenarioSpace.uniform(50), np.linspace(-1.0, 1.0, 50))
for rho in ("el", "es:0.1", "evar:0.2", "msd:0.5", "ml"):
    solve(CoherentRiskMeasure.parse(rho), ScoreFunction.parse("pinball:0.1"), X)
"""


def kinked_workload(seed: int) -> Workload:
    from scorerisk import (CoherentRiskMeasure, FiniteScenarioSpace, ScenarioVariable,
                           ScoreFunction, solver)

    ops = []
    for set_name, x in kinked_inputs(seed).items():
        p = np.full(x.size, 1.0 / x.size)
        X = ScenarioVariable(FiniteScenarioSpace(p), x)
        for rho in MEASURES:
            for s in KINKED_SCORES:
                reference = SolveReference(rho, s, x, p)
                rho_obj, s_obj = CoherentRiskMeasure.parse(rho), ScoreFunction.parse(s)

                def run(rho_obj=rho_obj, s_obj=s_obj, X=X):
                    return solver.solve(rho_obj, s_obj, X)

                def check(res, reference=reference):
                    if res.r_value != -res.argmin_lo:
                        return "r_value is not -argmin_lo"
                    return reference.check_solve(res.argmin_lo, res.argmin_hi, res.d_value)

                ops.append(Op(f"solve {set_name} {rho} {s}", run, check))
    set_name, rho, s = TIE_SET
    x = np.random.default_rng(0).normal(0.0, 1.0, 1000)
    p = np.full(x.size, 1.0 / x.size)
    X = ScenarioVariable(FiniteScenarioSpace(p), x)
    tie = SolveReference(rho, s, x, p)
    rho_obj, s_obj = CoherentRiskMeasure.parse(rho), ScoreFunction.parse(s)

    def check_tie(res):
        if res.r_value != -res.argmin_lo:
            return "r_value is not -argmin_lo"
        return tie.check_solve(res.argmin_lo, res.argmin_hi, res.d_value, missed_endpoint_ok=True)

    def missed(res):
        return tie.missed_endpoint(res.argmin_lo, res.argmin_hi)

    ops.append(Op(f"solve {set_name} {rho} {s}", lambda: solver.solve(rho_obj, s_obj, X),
                  check_tie, known_fault=missed))
    return Workload("kinked", lambda r: ops, KINKED_SETUP, in_process=True)


# -- fit ---------------------------------------------------------------------------


def fit_inputs(seed: int, round_index: int = 0) -> dict[str, dict[str, np.ndarray]]:
    # new draws every round: coordinate descent's sweep count depends on the
    # data, so one draw per run would make a run's time depend on the seed
    rng = np.random.default_rng([seed, 3, round_index])
    A = rng.standard_normal((1000, 3))
    ra = {"A": A, "y": 1.0 + A @ [1.0, 2.0, 3.0] + rng.standard_t(5, 1000)}
    B = rng.standard_normal((1000, 3)) @ np.array([[1.0, 0.4, 0.0], [0.0, 1.0, 0.3],
                                                    [0.0, 0.0, 1.0]])
    rb = {"A": B, "y": 0.5 + B @ [0.5, -1.0, 2.0] + (1.0 + 0.5 * np.abs(B[:, 0]))
          * rng.standard_normal(1000)}
    C = rng.standard_normal((3000, 3))
    rc = {"A": C, "y": 1.0 + C @ [1.0, 2.0, 3.0] + rng.standard_t(5, 3000)}
    mix = np.array([[1.0, 0.0, 0.0], [0.5, 1.0, 0.0], [0.3, 0.2, 0.8]])
    pa = {"V": 0.05 + (rng.standard_normal((1000, 3)) @ mix.T) * [0.1, 0.2, 0.15]}
    pb = {"V": 0.03 + 0.1 * rng.standard_t(5, (1000, 3)) @ mix.T}
    return {"reg_t5_1e3": ra, "reg_hetero_1e3": rb, "reg_t5_3e3": rc,
            "assets_normal_1e3": pa, "assets_t5_1e3": pb}


FIT_SETUP = """
import numpy as np
from scorerisk import (CoherentRiskMeasure, FiniteScenarioSpace, ScenarioVariable, ScoreFunction,
                       fit, min_deviation_portfolio, optimal_hedge)
space = FiniteScenarioSpace.uniform(40)
x = np.linspace(-1.0, 1.0, 40)
Y = ScenarioVariable(space, 1.0 + 2.0 * x + np.cos(7.0 * x))
X = [ScenarioVariable(space, x)]
el = CoherentRiskMeasure.el()
fit(el, ScoreFunction.pinball(0.5), Y, X)
optimal_hedge(el, ScoreFunction.squared(), Y, X)
min_deviation_portfolio(el, ScoreFunction.squared(), [Y, X[0]], method="regression")
"""


def _regression_objective(rho: str, s: str, y, A, p, theta) -> float:
    return ref.risk(rho, -ref.score(s, y - theta[0] - A @ theta[1:]), p)


# Fixed input, the same for every seed: an ml/squared fit, whose optimum is
# the Chebyshev (minimax) regression. conditional.fit stops above it on
# every draw tried (CHANGES.md, the ml fit).
ML_FIT = ("reg_t5_1e3", "ml", "squared")


def fit_workload(seed: int) -> Workload:
    set_name, rho, s = ML_FIT
    ml_data = fit_inputs(0)[set_name]
    ml_fit = _fit_op(f"{set_name}@seed0", rho, s, ml_data["y"], ml_data["A"], stall_is_fault=True)
    first = _fit_round(seed, 0) + [ml_fit]
    return Workload("fit", lambda r: first if r == 0 else _fit_round(seed, r) + [ml_fit],
                    FIT_SETUP, in_process=True)


def _variables(values: np.ndarray):
    from scorerisk import FiniteScenarioSpace, ScenarioVariable

    space = FiniteScenarioSpace.uniform(values.shape[0])
    return [ScenarioVariable(space, values[:, j]) for j in range(values.shape[1])]


def _fit_op(set_name: str, rho: str, s: str, y: np.ndarray, A: np.ndarray,
            stall_is_fault: bool = False) -> Op:
    """One ``conditional.fit``. With ``stall_is_fault``, an ml/squared fit
    that stops above the minimax optimum counts as failed, not wrong."""
    from scorerisk import (CoherentRiskMeasure, FiniteScenarioSpace, ScenarioVariable,
                           ScoreFunction, conditional)

    p = np.full(y.size, 1.0 / y.size)
    Y = ScenarioVariable(FiniteScenarioSpace(p), y)
    args = (CoherentRiskMeasure.parse(rho), ScoreFunction.parse(s), Y, _variables(A))
    ols = ref.weighted_lstsq(y, A, p)
    kind, alpha = ref.parse_spec(s)
    cache = {}

    def minimax() -> float:
        if "lp" not in cache:
            cache["lp"] = ref.chebyshev_regression_lp(y, A) ** 2
        return cache["lp"]

    def check(res) -> str | None:
        theta = np.concatenate([[res.mu_star], res.betas])
        obj = res.objective
        tol = _val_tol(obj)
        own = _regression_objective(rho, s, y, A, p, theta)
        if not _close(own, obj, tol):
            return f"objective {obj!r}, benchmark's rho/f give {own!r} at the fit"
        if (rho, kind) == ("el", "squared"):
            if np.max(np.abs(theta - ols)) > FIT_REL * (1.0 + np.max(np.abs(ols))):
                return f"coefficients {theta!r}, lstsq {ols!r}"
        if (rho, kind) == ("el", "pinball"):
            if "lp" not in cache:
                cache["lp"] = ref.quantile_regression_lp(alpha, y, A, p)
            if not _close(obj, cache["lp"], tol):
                return f"objective {obj!r}, quantile-regression LP {cache['lp']!r}"
            return None
        if (rho, kind) == ("ml", "squared"):
            best = minimax()
            if obj < best - tol or not stall_is_fault and obj > best + tol:
                return f"objective {obj!r}, squared Chebyshev-regression LP {best!r}"
            return None
        if _regression_objective(rho, s, y, A, p, ols) < obj - tol:
            return "the least-squares coefficients give a lower objective"
        for i in range(theta.size):
            for sign in (-1.0, 1.0):
                t = theta.copy()
                t[i] += sign * 1e-3 * (1.0 + abs(t[i]))
                if _regression_objective(rho, s, y, A, p, t) < obj - tol:
                    return f"perturbing coefficient {i} lowers the objective"
        return None

    def stalled(res) -> str | None:
        best = minimax()
        if res.objective > best + _val_tol(res.objective):
            return (f"fit stops above the minimax optimum: objective {res.objective!r}, "
                    f"squared Chebyshev-regression LP {best!r}")
        return None

    return Op(f"fit {set_name} {rho} {s}", lambda: conditional.fit(*args, tol=FIT_TOL), check,
              known_fault=stalled if stall_is_fault else None)


def _fit_round(seed: int, round_index: int) -> list[Op]:
    from scorerisk import (CoherentRiskMeasure, FiniteScenarioSpace, ScenarioVariable,
                           ScoreFunction, applications)

    data = fit_inputs(seed, round_index)
    ops: list[Op] = []
    latest: dict[str, object] = {}

    def add_fit(set_name: str, rho: str, s: str) -> None:
        ops.append(_fit_op(set_name, rho, s, data[set_name]["y"], data[set_name]["A"]))

    def add_portfolio(set_name: str, rho: str, s: str) -> None:
        V = data[set_name]["V"]
        p = np.full(V.shape[0], 1.0 / V.shape[0])
        assets = _variables(V)
        rho_obj, s_obj = CoherentRiskMeasure.parse(rho), ScoreFunction.parse(s)
        gmvp = ref.min_variance_weights(V, p) if (rho, s) == ("el", "squared") else None
        equal = ref.deviation(rho, s, V.mean(axis=1), p)[1]
        key = f"{set_name} {rho} {s}"
        for method in ("direct", "regression"):
            def run(method=method):
                return applications.min_deviation_portfolio(rho_obj, s_obj, assets, method=method,
                                                            tol=FIT_TOL)

            def check(out, method=method) -> str | None:
                weights, d = out
                w = weights.w
                if abs(float(w.sum()) - 1.0) > 1e-8:
                    return f"weights sum to {w.sum()!r}"
                own = ref.deviation(rho, s, V @ w, p)[1]
                if not _close(own, d, _val_tol(d)):
                    return f"deviation {d!r}, benchmark's minimum {own!r} at these weights"
                if d > equal + _val_tol(equal):
                    return f"deviation {d!r} above the equal-weight mix {equal!r}"
                if gmvp is not None and np.max(np.abs(w - gmvp)) > FIT_REL:
                    return f"weights {w!r}, minimum-variance weights {gmvp!r}"
                if method == "direct":
                    latest[key] = d
                    return None
                direct = latest.pop(key, None)
                if direct is not None and not _close(d, direct, PORTFOLIO_REL * (1.0 + abs(d))):
                    return f"direct deviation {direct!r}, regression deviation {d!r}"
                return None

            ops.append(Op(f"portfolio {method} {key}", run, check))

    def add_hedge(set_name: str, rho: str, s: str) -> None:
        y, A = data[set_name]["y"], data[set_name]["A"]
        p = np.full(y.size, 1.0 / y.size)
        Y = ScenarioVariable(FiniteScenarioSpace(p), y)
        args = (CoherentRiskMeasure.parse(rho), ScoreFunction.parse(s), Y, _variables(A))

        def check(res) -> str | None:
            resid = y - A @ res.w
            closed = ref.closed_form(rho, s, resid, p)
            cash = closed[0] if closed else ref.deviation(rho, s, resid, p)[0]
            if not _close(res.mu, cash, _arg_tol(resid)):
                return f"cash {res.mu!r}, -R of the residual is {cash!r}"
            own = ref.objective(rho, s, resid, p, res.mu)
            if not _close(own, res.residual_deviation, _val_tol(own)):
                return f"residual deviation {res.residual_deviation!r}, benchmark's {own!r}"
            return None

        ops.append(Op(f"hedge {set_name} {rho} {s}",
                      lambda: applications.optimal_hedge(*args, tol=FIT_TOL), check))

    for rho, s in [("el", "squared"), ("el", "pinball:0.3"), ("el", "expectile:0.7"),
                   ("el", "linex:0.5"), ("msd:0.5", "squared"), ("msd:0.5", "expectile:0.7")]:
        add_fit("reg_t5_1e3", rho, s)
    for rho, s in [("el", "squared"), ("el", "pinball:0.7"), ("el", "expectile:0.7"),
                   ("el", "linex:0.5"), ("msd:0.5", "linex:0.5")]:
        add_fit("reg_hetero_1e3", rho, s)
    add_fit("reg_t5_3e3", "el", "pinball:0.5")
    for rho, s in [("el", "squared"), ("el", "pinball:0.3"), ("msd:0.5", "squared")]:
        add_portfolio("assets_normal_1e3", rho, s)
    for rho, s in [("el", "squared"), ("el", "expectile:0.7"), ("msd:0.5", "squared")]:
        add_portfolio("assets_t5_1e3", rho, s)
    for rho, s in [("el", "squared"), ("el", "pinball:0.5"), ("msd:0.5", "linex:0.5")]:
        add_hedge("reg_t5_1e3", rho, s)
    for rho, s in [("el", "squared"), ("el", "linex:0.5")]:
        add_hedge("reg_hetero_1e3", rho, s)
    return ops


def main(argv) -> int:
    if len(argv) != 3 or argv[0] not in ("cli", "kinked", "fit"):
        print("usage: workloads.py cli|kinked|fit <seed> <dir>")
        return 2
    name, seed, directory = argv[0], int(argv[1]), Path(argv[2])
    if name == "cli":
        cli_inputs(seed, directory)
        return 0
    directory.mkdir(parents=True, exist_ok=True)
    sets = kinked_inputs(seed) if name == "kinked" else fit_inputs(seed)
    for set_name, arrays in sets.items():
        arrays = arrays if isinstance(arrays, dict) else {"x": arrays}
        np.savez(directory / f"{set_name}.npz", **arrays)
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main(sys.argv[1:]))
