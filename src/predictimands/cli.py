"""Command-line interface: fit, predict, simulate, validate, weights.

Every run writes a ``run.json`` config echo next to its outputs; re-running
the same subcommand with ``--config run.json`` reproduces the run exactly.
Exit codes: 0 success, 1 validation tolerance failure, 2 usage or scenario
config error, 3 data error, 4 numeric/convergence error. Failures print a
machine-readable JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import scenarios as scenarios_mod
from . import simulate as sim
from . import weights as weights_mod
from .cox import CoxModel
# infer_schema is unused here but stays importable: perfbench's tracer wraps
# it in this module
from .data import (CovariateSchema, infer_schema, ingest_csv,  # noqa: F401
                   reading, write_csv, write_rows)
from .errors import DataError, NumericError, ScenarioError
from .simulate import IntensitySpec
from .strategies import (
    HypotheticalMethod,
    Strategy,
    StrategyFit,
    StrategySpec,
    estimate_all,
    fit_strategy_models,
    predict_risk,
)

EXIT_OK = 0
EXIT_VALIDATION_FAILED = 1
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class UsageError(Exception):
    """An option value that argparse cannot check is invalid (exit 2)."""


class ConfigError(UsageError):
    """A ``--config`` file is unreadable or no run.json echo of the command."""


def _csv_list(raw: str | None) -> tuple:
    if not raw:
        return ()
    return tuple(s.strip() for s in raw.split(",") if s.strip())


def _float_list(raw: str | None) -> tuple:
    try:
        return tuple(float(s) for s in _csv_list(raw))
    except ValueError:
        raise DataError(f"cannot parse {raw!r} as a comma list of numbers") from None


def _parse_profile(raw: str | None, levels: dict | None = None) -> dict:
    levels = levels or {}
    schema = CovariateSchema(baseline=tuple(levels), levels=levels)
    profile = {}
    for item in _csv_list(raw):
        if "=" not in item:
            raise DataError(f"profile entry {item!r} is not name=value")
        name, value = (part.strip() for part in item.split("=", 1))
        profile[name] = schema.encode(name, value)
    return profile


def _parse_levels(raw: str | None) -> dict:
    levels = {}
    for item in _csv_list(raw):
        if "=" not in item:
            raise DataError(f"levels entry {item!r} is not name=LAB1|LAB2")
        name, labels = item.split("=", 1)
        levels[name.strip()] = tuple(s.strip() for s in labels.split("|"))
    return levels


def _load_dataset(args):
    """The command's dataset from one read of ``--data``."""
    levels = _parse_levels(args.levels)
    if args.baseline_cols or args.tv_cols:
        schema = CovariateSchema(baseline=_csv_list(args.baseline_cols),
                                 time_varying=_csv_list(args.tv_cols),
                                 levels=levels)
        return ingest_csv(args.data, schema, design=args.design)
    return ingest_csv(args.data, design=args.design, levels=levels)


def _load_scenario(ref: str) -> IntensitySpec:
    if ref in scenarios_mod.BUILTIN:
        return scenarios_mod.builtin(ref)
    path = Path(ref)
    if not path.exists():
        raise ScenarioError(f"scenario {ref!r} is neither a builtin name "
                            f"({sorted(scenarios_mod.BUILTIN)}) nor a file")
    return IntensitySpec.from_dict(_read_json(path, ScenarioError))


def _read_json(path, error):
    """The JSON value in the file at ``path``; ``error`` if it cannot be read."""
    try:
        with reading(path, error) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise error(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
                    f"{exc.msg}") from None


def _write_json(path, payload):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _echo(args, command: str, extra=None) -> dict:
    options = {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "config")}
    return {"command": command, **options, **(extra or {})}


def _echo_argv(echo: dict, parser) -> list:
    """``--flag=value`` tokens that give ``parser`` the options of a
    run.json echo: True gives the bare flag, None and False give nothing,
    and keys that are not options of ``parser`` are left out."""
    flags = {a.dest: a.option_strings[-1] for a in parser._actions
             if a.option_strings and a.dest != "help"}
    return [flags[key] if value is True else f"{flags[key]}={value}"
            for key, value in echo.items()
            if key in flags and value is not None and value is not False]


def _strategy_spec(args, horizon: float) -> StrategySpec:
    method = getattr(args, "method", None)
    return StrategySpec(
        strategy=Strategy(args.strategy),
        t_hor=horizon,
        hypothetical_method=(HypotheticalMethod(method)
                             if args.strategy == "hypothetical" else None),
        covariates=_csv_list(args.covariates),
        ties=args.tie,
        tv_cuts=_float_list(args.tv_cuts),
        weight_covariates=_csv_list(args.weight_covariates),
        truncation=_float_list(args.truncate_weights) or None,
    )


def cmd_fit(args) -> int:
    ds = _load_dataset(args)
    # end of follow-up; a file without rows takes 1.0 for the fit to reject
    horizon = (args.horizon if args.horizon is not None
               else float(ds.tstop.max()) if ds.n_rows else 1.0)
    spec = _strategy_spec(args, horizon)
    fit = fit_strategy_models(ds, spec)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model_files = {}
    for name, model in fit.models.items():
        fname = "model.json" if name == "main" else f"model_{name}.json"
        _write_json(out / fname, model.to_dict())
        model_files[name] = fname
    if fit.weight_table is not None:
        fit.weight_table.to_csv(out / "weights.csv")
        _write_json(out / "weights_diagnostics.json", fit.weight_table.diagnostics)
    _write_json(out / "run.json",
                _echo(args, "fit", {"horizon": horizon, "models": model_files}))
    summary = {name: {"n_events": m.n_events, "iterations": m.iterations,
                      "coefficients": m.coefficients}
               for name, m in fit.models.items()}
    print(json.dumps({"out": str(out), "models": summary}, indent=2))
    return EXIT_OK


def _load_fit(run_dir: Path) -> tuple:
    """The fit options of a fit output directory, parsed from its run.json
    by the ``fit`` subparser, and its models."""
    run_file = run_dir / "run.json"
    run = _read_json(run_file, DataError)
    if (not isinstance(run, dict) or run.get("command") != "fit"
            or not isinstance(run.get("models"), dict) or run.get("horizon") is None):
        raise DataError(f"{run_file} is not the run.json of a fit run")
    fit_parser = build_parser()[1]["fit"]
    fit_args = fit_parser.parse_args(_echo_argv(run, fit_parser))
    models = {}
    for name, fname in run["models"].items():
        try:
            models[name] = CoxModel.from_dict(_read_json(run_dir / fname, DataError))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise DataError(f"model file {fname!r} of {run_file} cannot be read "
                            f"({type(exc).__name__}: {exc})") from None
    return fit_args, models


def cmd_predict(args) -> int:
    run_dir = Path(args.run)
    fit_args, models = _load_fit(run_dir)
    horizon = args.horizon if args.horizon is not None else fit_args.horizon
    levels = next(iter(models.values())).schema_levels
    profile = _parse_profile(args.profile, levels)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    spec = _strategy_spec(fit_args, horizon)

    last_jump = max((float(m.baseline_times[-1]) for m in models.values()
                     if m.baseline_times.size), default=0.0)
    if horizon > last_jump:
        print(f"warning: horizon {horizon:g} lies beyond the last event time "
              f"{last_jump:g}; the curve is flat from there on",
              file=sys.stderr)

    report = {
        "strategy": spec.label,
        "spec": {"strategy": fit_args.strategy, "method": fit_args.method,
                 "covariates": fit_args.covariates,
                 "weight_covariates": fit_args.weight_covariates,
                 "tie": fit_args.tie, "tv_cuts": fit_args.tv_cuts},
        "profile": profile,
        "horizon": horizon,
        "diagnostics": {
            "models": {name: {"n_events": m.n_events,
                              "iterations": m.iterations,
                              "score_norm": m.score_norm,
                              "degenerate": m.degenerate}
                       for name, m in models.items()},
        },
    }
    weight_diag = run_dir / "weights_diagnostics.json"
    if weight_diag.exists():
        report["diagnostics"]["weights"] = _read_json(weight_diag, DataError)
    if args.all_strategies:
        results = estimate_all(_load_dataset(fit_args), spec, profile)
        write_rows(out / "overlay.csv", ("strategy", "time", "risk"),
                   ((strategy.value, repr(t), repr(r))
                    for strategy, curve in results.curves.items()
                    for t, r in zip(curve.times.tolist(), curve.risk.tolist())))
        report["curves"] = {s.value: c.to_dict() for s, c in results.curves.items()}
        report["failures"] = {s.value: msg for s, msg in results.failures.items()}
    else:
        curve = predict_risk(StrategyFit(spec, models), profile)
        write_rows(out / "curve.csv", ("time", "risk"),
                   zip(map(repr, curve.times.tolist()), map(repr, curve.risk.tolist())))
        report["curve"] = curve.to_dict()
        report["risk_at_horizon"] = curve.value_at(horizon)
    _write_json(out / "report.json", report)
    _write_json(out / "run.json", _echo(args, "predict", {"horizon": horizon}))
    print(json.dumps({"out": str(out)}, indent=2))
    return EXIT_OK


def _check_seed(args):
    # SeedSequence takes nonnegative integers only
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")


def cmd_simulate(args) -> int:
    _check_seed(args)
    spec = _load_scenario(args.scenario)
    ds = sim.simulate(spec, args.n, args.seed, workers=args.workers)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_csv(ds, out)
    _write_json(str(out) + ".run.json",
                _echo(args, "simulate", {"scenario_spec": spec.to_dict()}))
    print(json.dumps({"out": str(out), "subjects": ds.n_subjects,
                      "events": int((ds.status == 1).sum()),
                      "treatment_starts": int((ds.status == 2).sum())}))
    return EXIT_OK


def _parse_strategy_tokens(raw: str, args, horizon: float) -> list:
    specs = []
    strategies = [s.value for s in Strategy]
    methods = [m.value for m in HypotheticalMethod]
    for token in _csv_list(raw):
        name, colon, method = (part.strip() for part in token.partition(":"))
        method = method if colon else "censor"
        if name not in strategies:
            raise UsageError(f"unknown strategy {name!r} in --strategies; "
                             f"choose from {strategies}")
        # only the hypothetical strategy has a method; a suffix on any other
        # strategy is ignored, as in _strategy_spec
        if name == Strategy.HYPOTHETICAL.value and method not in methods:
            raise UsageError(f"unknown method {method!r} in --strategies "
                             f"token {token!r}; choose from {methods}")
        ns = argparse.Namespace(**{**vars(args), "strategy": name, "method": method})
        specs.append(_strategy_spec(ns, horizon))
    if not specs:
        raise UsageError(f"--strategies {raw!r} names no strategy")
    labels = [s.label for s in specs]
    twice = sorted({label for label in labels if labels.count(label) > 1})
    if twice:
        raise UsageError(f"--strategies {raw!r} names {twice} more than once")
    return specs


def cmd_validate(args) -> int:
    if not (math.isfinite(args.tolerance) and args.tolerance >= 0):
        raise UsageError(f"--tolerance must be finite and nonnegative, "
                         f"got {args.tolerance}")
    _check_seed(args)
    if args.seeds < 1:
        raise UsageError(f"--seeds must be >= 1, got {args.seeds}")
    spec = _load_scenario(args.scenario)
    seeds = list(range(args.seed, args.seed + args.seeds))
    strategy_specs = _parse_strategy_tokens(args.strategies, args, args.t_hor)
    profile = _parse_profile(args.profile)
    report = sim.validate(spec, n=args.n, seeds=seeds,
                          strategy_specs=strategy_specs, profile=profile,
                          t_hor=args.t_hor, tolerance=args.tolerance,
                          mc_reps=args.mc_reps, workers=args.workers)
    _write_json(args.out, report)
    _write_json(str(Path(args.out)) + ".run.json", _echo(args, "validate"))
    summary = {label: {"bias": entry.get("bias"), "passed": entry["passed"]}
               for label, entry in report["strategies"].items()}
    print(json.dumps({"out": args.out, "all_passed": report["all_passed"],
                      "strategies": summary}, indent=2))
    return EXIT_OK if report["all_passed"] else EXIT_VALIDATION_FAILED


def cmd_weights(args) -> int:
    ds = _load_dataset(args)
    numerator = weights_mod.fit_treatment_hazard(
        ds, _csv_list(args.numerator_covariates), ties=args.tie)
    denominator = weights_mod.fit_treatment_hazard(
        ds, _csv_list(args.weight_covariates), ties=args.tie)
    table = weights_mod.stabilized_weights(
        ds, numerator, denominator, mode=weights_mod.WeightMode(args.mode),
        truncation=_float_list(args.truncate_weights) or None)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    table.to_csv(out / "weights.csv")
    _write_json(out / "weights_diagnostics.json", table.diagnostics)
    _write_json(out / "run.json", _echo(args, "weights"))
    print(json.dumps({"out": str(out), "diagnostics": table.diagnostics},
                     indent=2))
    return EXIT_OK


def _add_data_options(p):
    p.add_argument("--data", required=True, help="counting-process CSV")
    p.add_argument("--baseline-cols", default=None,
                   help="comma list of baseline covariate columns "
                        "(default: infer, constant-per-subject = baseline)")
    p.add_argument("--tv-cols", default=None,
                   help="comma list of time-varying covariate columns")
    p.add_argument("--levels", default=None, metavar="NAME=LAB1|LAB2,...",
                   help="category labels for covariates coded as labels, "
                        "e.g. dialysis=HD|PD")
    p.add_argument("--design", default=None, choices=["stops", "continues"],
                   help="observation design (default: infer from the data)")


def _add_strategy_options(p, with_strategy=True):
    if with_strategy:
        p.add_argument("--strategy", required=True,
                       choices=[s.value for s in Strategy])
        p.add_argument("--method", default="censor",
                       choices=[m.value for m in HypotheticalMethod],
                       help="hypothetical estimation method")
    p.add_argument("--covariates", default=None,
                   help="comma list of outcome-model covariates")
    p.add_argument("--tie", default="efron", choices=["efron", "breslow"])
    p.add_argument("--tv-cuts", default=None,
                   help="comma list of cut times for the step-function "
                        "treatment coefficient, e.g. 3,8")
    p.add_argument("--weight-covariates", default=None,
                   help="comma list of treatment-model covariates for "
                        "IPCW/IPTW denominators")
    p.add_argument("--truncate-weights", default=None, metavar="LO,HI",
                   help="percentile clamp for stabilized weights, e.g. 1,99")


def build_parser() -> tuple:
    parser = argparse.ArgumentParser(
        prog="predictimands",
        description="Time-to-event risk prediction under four strategies for "
                    "treatment started after baseline.")
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}

    p = sub.add_parser("fit", help="fit the models behind one strategy")
    _add_data_options(p)
    _add_strategy_options(p)
    p.add_argument("--horizon", type=float, default=None,
                   help="prediction horizon (default: end of follow-up)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_fit)
    subparsers["fit"] = p

    p = sub.add_parser("predict", help="risk curve from a fit run")
    p.add_argument("--run", required=True, help="fit output directory")
    p.add_argument("--profile", default=None, help="e.g. age=50,dialysis=HD")
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--all-strategies", action="store_true",
                   help="re-estimate every strategy for a side-by-side export")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_predict)
    subparsers["predict"] = p

    p = sub.add_parser("simulate", help="draw a dataset from a scenario")
    p.add_argument("--scenario", required=True,
                   help="scenario JSON file or builtin name "
                        f"({sorted(scenarios_mod.BUILTIN)})")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_simulate)
    subparsers["simulate"] = p

    p = sub.add_parser("validate",
                       help="simulate, estimate and compare against truth")
    p.add_argument("--scenario", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seeds", type=int, required=True,
                   help="number of replications")
    p.add_argument("--seed", type=int, default=1, help="first seed")
    p.add_argument("--strategies",
                   default="ignore,composite,while-untreated,hypothetical",
                   help="comma list; hypothetical methods as "
                        "hypothetical:censor-ipcw etc.")
    _add_strategy_options(p, with_strategy=False)
    p.add_argument("--profile", default=None)
    p.add_argument("--t-hor", type=float, default=5.0)
    p.add_argument("--tolerance", type=float, default=0.02)
    p.add_argument("--mc-reps", type=int, default=200_000)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=cmd_validate)
    subparsers["validate"] = p

    p = sub.add_parser("weights", help="export stabilized weights")
    _add_data_options(p)
    p.add_argument("--weight-covariates", required=True,
                   help="denominator treatment-model covariates")
    p.add_argument("--numerator-covariates", default=None)
    p.add_argument("--mode", default="ipcw", choices=["ipcw", "iptw"])
    p.add_argument("--tie", default="efron", choices=["efron", "breslow"])
    p.add_argument("--truncate-weights", default=None, metavar="LO,HI")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_weights)
    subparsers["weights"] = p

    for name, sp in subparsers.items():
        sp.add_argument("--config", default=None,
                        help="JSON file of option values (a run.json echo); "
                             "explicit flags win")
    return parser, subparsers


def _config_argv(command, subparser, argv) -> list:
    """The option tokens of the ``--config`` file among the arguments
    ``argv`` of ``command``, as its ``subparser`` reads them; [] without one."""
    pre = argparse.ArgumentParser(prog=subparser.prog, add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return []
    cfg = _read_json(path, ConfigError)
    if not isinstance(cfg, dict) or cfg.get("command", command) != command:
        raise ConfigError(f"{path} is not a run.json echo of {command!r}")
    return _echo_argv(cfg, subparser)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = build_parser()
    try:
        if argv and argv[0] in subparsers:
            # explicit flags come later and win
            argv[1:1] = _config_argv(argv[0], subparsers[argv[0]], argv[1:])
        args = parser.parse_args(argv)
        return args.func(args)
    except (ScenarioError, UsageError, DataError, NumericError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        return (EXIT_DATA if isinstance(exc, DataError)
                else EXIT_NUMERIC if isinstance(exc, NumericError) else EXIT_USAGE)


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
