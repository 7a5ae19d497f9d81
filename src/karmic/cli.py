"""Command-line front end.

Subcommands: ``gen`` (synthetic data to CSV/NPZ), ``threshold`` (fit a
decision threshold on a dataset), ``train`` (split/fit/threshold, emit a
classifier JSON), ``evaluate`` (population-regret report for a saved
classifier), ``rate`` (convergence-rate experiment from a config file),
``oracle`` (grid search or exhaustive discrete enumeration).

All results go to stdout as JSON (or to files where documented).  Failures
print one JSON object ``{"error": code, "message": ...}`` on stderr and
exit 1; bad flags or subcommands exit 2 with usage text.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .confusion import Dataset, ScoreProfile
from .dataio import load_dataset_csv, load_dataset_npz, save_dataset_csv, save_dataset_npz
from .errors import KarmicError
from .experiments import ExperimentConfig, estimator_from_config, model_from_config, run_rate_experiment
from .metrics import metric_value, parse_metric
from .pipeline import PluginClassifier, population_regret, train_plugin
from .scorers import scorer_from_dict
from .thresholds import ThresholdSearchConfig, binary_search_threshold, brute_force_discrete, grid_search_threshold

__all__ = ["main", "build_parser"]


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _fail(code: str, message: str) -> int:
    print(json.dumps({"error": code, "message": message}), file=sys.stderr)
    return 1


def _add_model_args(parser: argparse.ArgumentParser, required: bool) -> None:
    parser.add_argument("--model", choices=("gaussian", "holder"), required=required,
                        help="synthetic model family")
    parser.add_argument("--mu", help="gaussian mean separation, comma floats (e.g. 2,0)")
    parser.add_argument("--kappa", type=float, help="gaussian positive-class prior")
    parser.add_argument("--eta", choices=("sine", "flat"),
                        help="holder conditional-probability tag (default sine)")


def _add_scorer_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--estimator",
                        help="logistic | kernel | true-eta | constant:<p> "
                             "(true-eta needs model flags)")
    parser.add_argument("--kernel-beta", type=float, help="kernel smoothness (default 1)")
    parser.add_argument("--kernel-const", type=float, help="kernel bandwidth constant (default 1)")


#: flags whose ``dest`` is a config key; both go through one parser
_CONFIG_FLAGS = ("model", "mu", "kappa", "eta", "estimator", "kernel_beta", "kernel_const")


def _config_keys(args) -> dict[str, str]:
    """The set model and estimator flags as a config ``key -> string`` map."""
    return {key: str(getattr(args, key)) for key in _CONFIG_FLAGS
            if getattr(args, key, None) is not None}


def _resolve_scorer(args, data: Dataset):
    """In-sample scorer for threshold/oracle: a file wins over a fresh fit."""
    if args.scorer_json:
        with open(args.scorer_json, encoding="utf-8") as fh:
            return scorer_from_dict(json.load(fh))
    if args.estimator:
        return estimator_from_config(_config_keys(args)).build(data)
    raise ValueError("provide --scorer-json or --estimator")


def _load_data(path: str) -> Dataset:
    loader = load_dataset_npz if path.endswith(".npz") else load_dataset_csv
    data, _ = loader(path)
    return data


def _cmd_gen(args) -> int:
    model = model_from_config(_config_keys(args))
    data = model.sample(args.n, args.seed)
    meta = {**model.to_dict(), "n": args.n, "seed": args.seed}
    if args.out.endswith(".npz"):
        save_dataset_npz(data, args.out, meta)
    else:
        save_dataset_csv(data, args.out, meta)
    _emit({"written": args.out, "n": data.n, "dim": data.dim})
    return 0


def _cmd_threshold(args) -> int:
    metric = parse_metric(args.metric)
    data = _load_data(args.data)
    scorer = _resolve_scorer(args, data)
    result = binary_search_threshold(metric, scorer, data, ThresholdSearchConfig(args.tolerance))
    payload = result.to_dict()
    payload["metric"] = metric.name
    profile = ScoreProfile.from_scorer(scorer, data)
    payload["utility"] = metric_value(metric, profile.confusion(result.delta_hat))
    _emit(payload)
    return 0


def _cmd_train(args) -> int:
    metric = parse_metric(args.metric)
    data = _load_data(args.data)
    estimator = estimator_from_config({"estimator": "logistic", **_config_keys(args)})
    clf = train_plugin(metric, data, estimator, ThresholdSearchConfig(args.tolerance),
                       seed=args.seed)
    payload = clf.to_dict()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            # compact: a kernel scorer carries its training sample inline
            json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
        _emit({"written": args.out, "delta": clf.delta})
    else:
        _emit(payload)
    return 0


def _cmd_evaluate(args) -> int:
    metric = parse_metric(args.metric)
    model = model_from_config(_config_keys(args))
    with open(args.classifier, encoding="utf-8") as fh:
        clf = PluginClassifier.from_dict(json.load(fh))
    report = population_regret(metric, clf, model, mode=args.mode,
                               mc_samples=args.mc_samples, mc_seed=args.mc_seed)
    payload = report.to_dict()
    payload["metric"] = metric.name
    _emit(payload)
    return 0


def _cmd_rate(args) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    if args.workers is not None:
        cfg = dataclasses.replace(cfg, workers=args.workers)
    if args.out is not None:
        cfg = dataclasses.replace(cfg, out=args.out)
    if not cfg.out:
        raise ValueError("set 'out' in the config or pass --out for the CSV/JSON prefix")
    table = run_rate_experiment(cfg)
    table.write_csv(f"{cfg.out}.csv")
    summary = table.write_summary(f"{cfg.out}.json")
    _emit({**summary, "csv": f"{cfg.out}.csv", "summary": f"{cfg.out}.json"})
    return 0


def _parse_atoms(text: str) -> list[tuple[float, float]]:
    atoms = []
    for chunk in text.split(","):
        weight, sep, eta = chunk.partition(":")
        if not sep:
            raise ValueError(f"atom {chunk!r} is not 'weight:eta'")
        atoms.append((float(weight), float(eta)))
    return atoms


def _cmd_oracle(args) -> int:
    metric = parse_metric(args.metric)
    if args.discrete:
        best, argmax_set = brute_force_discrete(metric, _parse_atoms(args.discrete))
        _emit({
            "metric": metric.name,
            "best_utility": best,
            "argmax_set": [list(a) for a in argmax_set],
        })
        return 0
    if not args.data:
        raise ValueError("provide --discrete atoms or --data for a grid search")
    data = _load_data(args.data)
    scorer = _resolve_scorer(args, data)
    delta = grid_search_threshold(metric, scorer, data, args.step)
    utility = metric_value(metric, ScoreProfile.from_scorer(scorer, data).confusion(delta))
    _emit({"metric": metric.name, "delta": delta, "utility": utility, "step": args.step})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="karmic",
        description="Plug-in threshold classification for confusion-matrix utilities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a synthetic dataset (CSV or NPZ)")
    _add_model_args(p, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("threshold", help="bisection threshold fit on a dataset")
    p.add_argument("--metric", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--scorer-json", help="path to a serialized scorer (wins over --estimator)")
    _add_scorer_args(p)
    _add_model_args(p, required=False)
    p.add_argument("--tolerance", type=float, default=None)
    p.set_defaults(handler=_cmd_threshold)

    p = sub.add_parser("train", help="split/fit/threshold; emit classifier JSON")
    p.add_argument("--metric", required=True)
    p.add_argument("--data", required=True)
    _add_scorer_args(p)
    _add_model_args(p, required=False)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=None)
    p.add_argument("--out", help="classifier JSON path (default: stdout)")
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("evaluate", help="population-regret report for a classifier")
    p.add_argument("--classifier", required=True)
    p.add_argument("--metric", required=True)
    _add_model_args(p, required=True)
    p.add_argument("--mode", choices=("closed-form", "monte-carlo"),
                   default="closed-form")
    p.add_argument("--mc-samples", type=int, default=1_000_000)
    p.add_argument("--mc-seed", type=int, default=0)
    p.set_defaults(handler=_cmd_evaluate)

    p = sub.add_parser("rate", help="convergence-rate experiment from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--out", help="output prefix override")
    p.set_defaults(handler=_cmd_rate)

    p = sub.add_parser("oracle", help="grid search or exhaustive discrete optimum")
    p.add_argument("--metric", required=True)
    p.add_argument("--discrete", help="atoms as weight:eta,weight:eta,...")
    p.add_argument("--data")
    p.add_argument("--step", type=float, default=1e-4)
    p.add_argument("--scorer-json", help="path to a serialized scorer (wins over --estimator)")
    _add_scorer_args(p)
    _add_model_args(p, required=False)
    p.set_defaults(handler=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except KarmicError as exc:
        return _fail(exc.code, str(exc))
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        return _fail("invalid-argument", str(exc))


if __name__ == "__main__":
    sys.exit(main())
