"""Batch command-line front end.

Reads scenario CSVs, parses risk/score specification strings, runs the
requested computation, and prints a machine-readable report. Numeric
output is rounded to 12 significant digits with deterministic key order,
so identical inputs produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import applications, conditional, solver
from .errors import ContractError, DomainError, ScoreriskError
from .risk import CoherentRiskMeasure
from .scores import ScoreFunction
from .spaces import ScenarioVariable, load_csv

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CONTRACT = 2


def fmt_num(x) -> str:
    """12 significant digits; positional notation for |x| >= 1e-4."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if x == 0.0:
        return "0"
    if abs(x) >= 1e-4:
        s = np.format_float_positional(
            x, precision=12, unique=False, fractional=False, trim="-"
        )
        return s.rstrip(".")
    s = np.format_float_scientific(x, precision=11, unique=False, trim="-")
    return s.replace(".e", "e")  # "1.e-05" is not a JSON number


def render_json(obj) -> str:
    if isinstance(obj, dict):
        inner = ",".join(f"{render_json(k)}:{render_json(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ",".join(render_json(v) for v in obj) + "]"
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    return fmt_num(obj)


def render_plain(obj, prefix: str = "") -> str:
    lines = []
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for k, v in items:
        key = f"{prefix}{k}"
        if isinstance(v, (dict, list, tuple, np.ndarray)):
            lines.append(render_plain(v, key + "."))
        elif isinstance(v, str):
            lines.append(f"{key} {v}")
        else:
            lines.append(f"{key} {fmt_num(v)}")
    return "\n".join(lines)


def _check_finite(report: dict) -> None:
    """JSON has no spelling for inf or nan; name the field instead."""
    for key, value in report.items():
        if np.asarray(value).dtype.kind == "f" and not np.isfinite(value).all():
            raise DomainError(f"{key} is not finite: {value!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scorerisk",
        description="Scenario-based robust risk/deviation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "risk": "risk value (negated leftmost score minimizer)",
        "deviation": "deviation value (score minimum)",
        "solve": "full minimizer interval, risk, and deviation",
        "regress": "robust linear regression of a target on regressors",
        "portfolio": "minimum-deviation portfolio, direct and regression routes",
        "hedge": "optimal replication hedge of a target with instruments",
        "oracle-check": "solver vs grid-scan oracle discrepancies",
    }
    # each command takes only the options it reads, so argparse refuses the rest
    for name, help_text in commands.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("input", help="scenario CSV (optional 'prob' column)")
        cmd.add_argument("--risk", default="el", help=f"risk: {CoherentRiskMeasure.GRAMMAR}")
        cmd.add_argument("--score", default="squared", help=f"score: {ScoreFunction.GRAMMAR}")
        cmd.add_argument("--tol", type=float, default=1e-8)
        if name != "portfolio":
            cmd.add_argument("--target", default=None, help="target column name")
        if name in ("regress", "hedge", "portfolio"):
            cmd.add_argument("--regressors", default=None, help="comma-separated column names")
        cmd.add_argument("--format", choices=("json", "plain"), default="json")
        if name == "oracle-check":
            cmd.add_argument("--grid-step", type=float, default=1e-4)
    return parser


def _pick_target(variables: dict, name):
    if name is None:
        if not variables:
            raise ScoreriskError("input has no outcome column besides 'prob'")
        return next(iter(variables.items()))
    if name not in variables:
        raise ScoreriskError(
            f"column {name!r} not in input; available: {', '.join(variables)}"
        )
    return name, variables[name]


def _pick_regressors(variables: dict, spec, exclude: str) -> list[tuple[str, ScenarioVariable]]:
    if spec is None:
        chosen = [(k, v) for k, v in variables.items() if k != exclude]
    else:
        names = [n.strip() for n in spec.split(",") if n.strip()]
        missing = [n for n in names if n not in variables]
        if missing:
            raise ScoreriskError(
                f"columns {missing!r} not in input; available: {', '.join(variables)}"
            )
        chosen = [(n, variables[n]) for n in names]
    if not chosen:
        raise ScoreriskError("no regressor columns selected")
    return chosen


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # an overflow shows as inf or nan, which _check_finite refuses by name
        with np.errstate(all="ignore"):
            report = _dispatch(args)
        _check_finite(report)
    except ContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except (ScoreriskError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.format == "json":
        print(render_json(report))
    else:
        print(render_plain(report))
    return EXIT_OK


def _dispatch(args) -> dict:
    rho = CoherentRiskMeasure.parse(args.risk)
    score = ScoreFunction.parse(args.score)
    _, variables = load_csv(args.input)
    command = args.command

    if command in ("risk", "deviation", "solve", "oracle-check"):
        name, X = _pick_target(variables, args.target)
        header = {
            "command": command,
            "risk": rho.spec_string(),
            "score": score.spec_string(),
            "target": name,
        }
        if command == "oracle-check":
            res = solver.solve(rho, score, X, args.tol)
            ref = solver.brute_force_oracle(rho, score, X, args.grid_step)
            scale = max(1.0, abs(ref.d_value))
            return {
                **header,
                "d_value": res.d_value,
                "d_value_oracle": ref.d_value,
                "d_rel_err": abs(res.d_value - ref.d_value) / scale,
                "argmin_lo_err": abs(res.argmin_lo - ref.argmin_lo),
                "argmin_hi_err": abs(res.argmin_hi - ref.argmin_hi),
            }
        res = solver.solve(rho, score, X, args.tol)
        if command == "risk":
            return {**header, "r_value": res.r_value}
        if command == "deviation":
            return {**header, "d_value": res.d_value}
        return {
            **header,
            "r_value": res.r_value,
            "d_value": res.d_value,
            "argmin_lo": res.argmin_lo,
            "argmin_hi": res.argmin_hi,
            "evaluations": res.evaluations,
        }

    if command in ("regress", "hedge"):
        name, Y = _pick_target(variables, args.target)
        chosen = _pick_regressors(variables, args.regressors, exclude=name)
        columns = [c for c, _ in chosen]
        regs = [v for _, v in chosen]
        header = {
            "command": command,
            "risk": rho.spec_string(),
            "score": score.spec_string(),
            "target": name,
            "regressors": columns,
        }
        if command == "regress":
            fit_result = conditional.fit(rho, score, Y, regs, args.tol)
            return {
                **header,
                "mu": fit_result.mu_star,
                "betas": list(fit_result.betas),
                "objective": fit_result.objective,
                "cd": fit_result.cd,
                "foc_residual": fit_result.foc_residual,
            }
        hedge = applications.optimal_hedge(rho, score, Y, regs, args.tol)
        return {
            **header,
            "mu": hedge.mu,
            "w": list(hedge.w),
            "residual_deviation": hedge.residual_deviation,
        }

    # portfolio
    chosen = _pick_regressors(variables, args.regressors, exclude=None)
    columns = [c for c, _ in chosen]
    assets = [v for _, v in chosen]
    direct_w, direct_d = applications.min_deviation_portfolio(
        rho, score, assets, method="direct", tol=args.tol
    )
    reg_w, reg_d = applications.min_deviation_portfolio(
        rho, score, assets, method="regression", tol=args.tol
    )
    return {
        "command": "portfolio",
        "risk": rho.spec_string(),
        "score": score.spec_string(),
        "assets": columns,
        "direct_weights": list(direct_w.w),
        "direct_deviation": direct_d,
        "regression_weights": list(reg_w.w),
        "regression_deviation": reg_d,
        "max_weight_discrepancy": float(np.max(np.abs(direct_w.w - reg_w.w))),
        "deviation_discrepancy": abs(direct_d - reg_d),
    }


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
