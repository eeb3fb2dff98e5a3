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
import sys
from pathlib import Path

from . import scenarios as scenarios_mod
from . import simulate as sim
from . import weights as weights_mod
from .cox import CoxModel
from .data import CovariateSchema, infer_schema, ingest_csv, write_csv
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


def _build_schema(args) -> CovariateSchema:
    levels = _parse_levels(getattr(args, "levels", None))
    if args.baseline_cols or args.tv_cols:
        return CovariateSchema(baseline=_csv_list(args.baseline_cols),
                               time_varying=_csv_list(args.tv_cols),
                               levels=levels)
    inferred = infer_schema(args.data)
    if levels:
        inferred = CovariateSchema(baseline=inferred.baseline,
                                   time_varying=inferred.time_varying, levels=levels)
    return inferred


def _load_dataset(args):
    return ingest_csv(args.data, _build_schema(args), design=args.design)


def _load_scenario(ref: str) -> IntensitySpec:
    if ref in scenarios_mod.BUILTIN:
        return scenarios_mod.builtin(ref)
    path = Path(ref)
    if not path.exists():
        raise ScenarioError(f"scenario {ref!r} is neither a builtin name "
                            f"({sorted(scenarios_mod.BUILTIN)}) nor a file")
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from None
    return IntensitySpec.from_dict(raw)


def _write_json(path, payload):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _echo(args, command: str, extra=None) -> dict:
    skip = {"func", "config"}
    echo = {"command": command}
    for key, value in sorted(vars(args).items()):
        if key in skip:
            continue
        echo[key] = value
    if extra:
        echo.update(extra)
    return echo


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
    horizon = (args.horizon if args.horizon is not None
               else float(ds.tstop.max()))
    spec = _strategy_spec(args, horizon)
    fit = fit_strategy_models(ds, spec)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model_files = {}
    for name, model in fit.models.items():
        fname = "model.json" if name == "main" else f"model_{name}.json"
        model.to_json(out / fname)
        model_files[name] = fname
    if fit.weight_table is not None:
        fit.weight_table.to_csv(out / "weights.csv")
        fit.weight_table.diagnostics_json(out / "weights_diagnostics.json")
    _write_json(out / "run.json",
                _echo(args, "fit", {"horizon": horizon, "models": model_files}))
    summary = {name: {"n_events": m.n_events, "iterations": m.iterations,
                      "coefficients": m.coefficients}
               for name, m in fit.models.items()}
    print(json.dumps({"out": str(out), "models": summary}, indent=2))
    return EXIT_OK


def _load_fit(run_dir: Path) -> tuple:
    run_file = run_dir / "run.json"
    if not run_file.exists():
        raise DataError(f"{run_file} not found; point --run at a fit output "
                        "directory")
    with open(run_file) as fh:
        run = json.load(fh)
    if run.get("command") != "fit":
        raise DataError(f"{run_file} did not come from a fit run")
    models = {name: CoxModel.from_json(run_dir / fname)
              for name, fname in run["models"].items()}
    return run, models


def cmd_predict(args) -> int:
    run_dir = Path(args.run)
    run, models = _load_fit(run_dir)
    horizon = args.horizon if args.horizon is not None else run["horizon"]
    levels = next(iter(models.values())).schema_levels
    profile = _parse_profile(args.profile, levels)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    ns = argparse.Namespace(**{**run, "horizon": horizon})
    spec = _strategy_spec(ns, horizon)

    last_jump = max((float(m.baseline_times[-1]) for m in models.values()
                     if m.baseline_times.size), default=0.0)
    if horizon > last_jump:
        print(f"warning: horizon {horizon:g} lies beyond the last event time "
              f"{last_jump:g}; the curve is flat from there on",
              file=sys.stderr)

    report = {
        "strategy": spec.label,
        "spec": {"strategy": run["strategy"], "method": run.get("method"),
                 "covariates": run.get("covariates"),
                 "weight_covariates": run.get("weight_covariates"),
                 "tie": run.get("tie"), "tv_cuts": run.get("tv_cuts")},
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
        with open(weight_diag) as fh:
            report["diagnostics"]["weights"] = json.load(fh)
    if args.all_strategies:
        data_path = Path(run["data"])
        if not data_path.exists():
            raise DataError(f"dataset {data_path} from the fit run is needed "
                            "for --all-strategies")
        ds = ingest_csv(data_path, _schema_from_run(run), design=run.get("design"))
        results = estimate_all(ds, spec, profile)
        rows = ["strategy,time,risk"]
        for strategy, curve in results.curves.items():
            for t, r in zip(curve.times, curve.risk):
                rows.append(f"{strategy.value},{float(t)!r},{float(r)!r}")
        (out / "overlay.csv").write_text("\n".join(rows) + "\n")
        report["curves"] = {s.value: c.to_dict() for s, c in results.curves.items()}
        report["failures"] = {s.value: msg for s, msg in results.failures.items()}
    else:
        curve = predict_risk(StrategyFit(spec, models), profile)
        curve.to_csv(out / "curve.csv")
        report["curve"] = curve.to_dict()
        report["risk_at_horizon"] = curve.value_at(horizon)
    _write_json(out / "report.json", report)
    _write_json(out / "run.json", _echo(args, "predict", {"horizon": horizon}))
    print(json.dumps({"out": str(out)}, indent=2))
    return EXIT_OK


def _schema_from_run(run: dict) -> CovariateSchema:
    ns = argparse.Namespace(data=run["data"],
                            baseline_cols=run.get("baseline_cols"),
                            tv_cols=run.get("tv_cols"),
                            levels=run.get("levels"))
    return _build_schema(ns)


def cmd_simulate(args) -> int:
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
        ns = argparse.Namespace(strategy=name, method=method,
                                covariates=args.covariates,
                                tie=args.tie, tv_cuts=args.tv_cuts,
                                weight_covariates=args.weight_covariates,
                                truncate_weights=args.truncate_weights)
        specs.append(_strategy_spec(ns, horizon))
    return specs


def cmd_validate(args) -> int:
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
    table.diagnostics_json(out / "weights_diagnostics.json")
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


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = build_parser()
    if argv and argv[0] in subparsers and "--config" in argv:
        idx = argv.index("--config")
        try:
            with open(argv[idx + 1]) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError, IndexError) as exc:
            print(json.dumps({"error": "ConfigError", "message": str(exc)}))
            return EXIT_USAGE
        command = cfg.pop("command", argv[0])
        if command != argv[0]:
            print(json.dumps({"error": "ConfigError",
                              "message": f"config echo is for {command!r}, "
                                         f"not {argv[0]!r}"}))
            return EXIT_USAGE
        known = {a.dest for a in subparsers[argv[0]]._actions}
        provided = {k: v for k, v in cfg.items() if k in known}
        subparsers[argv[0]].set_defaults(**provided)
        for action in subparsers[argv[0]]._actions:
            if action.dest in provided:
                action.required = False
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, UsageError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        return EXIT_USAGE
    except DataError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        return EXIT_DATA
    except NumericError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        return EXIT_NUMERIC


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
