"""Command-line front end.

Subcommands: ``gen`` (synthetic data to CSV), ``threshold`` (fit a
decision threshold on a dataset), ``train`` (split/fit/threshold, emit a
classifier JSON), ``evaluate`` (population-regret report for a saved
classifier), ``rate`` (convergence-rate experiment from a config file),
``oracle`` (grid search or exhaustive discrete enumeration).

All results go to stdout as JSON (or to files where documented).  Failures
print one JSON object ``{"error": code, "message": ...}`` on stderr and
exit 1; unknown or missing flags and subcommands exit 2 with usage text.
The model and estimator flags reach the config parser as text, so a bad
value exits 1 naming its key and flag.  A closed stdout ends the run with exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .confusion import Dataset, ScoreProfile
from .dataio import load_dataset_csv, save_dataset_csv
from .errors import KarmicError
from .experiments import (_FLAG_KEYS, _MODEL_FLAG_KEYS, ExperimentConfig, estimator_from_config,
                          model_from_config, run_rate_experiment)
from .metrics import metric_value, parse_metric
from .pipeline import EstimatorSpec, PluginClassifier, population_regret, train_plugin
from .thresholds import ThresholdSearchConfig, _bisect_profile, _grid_profile, brute_force_discrete

__all__ = ["main", "build_parser"]

#: the ``evaluate`` flags that only Monte-Carlo mode reads
_MC_FLAGS = ("mc_samples", "mc_seed")


class _StdoutClosed(Exception):
    """stdout's reader is gone before the result was written."""


def _emit(payload: dict) -> None:
    # flushed here, so a closed stdout is seen inside main and not at exit
    try:
        print(json.dumps(payload, indent=2, sort_keys=True), flush=True)
    except BrokenPipeError:
        raise _StdoutClosed from None


def _fail(code: str, message: str) -> int:
    print(json.dumps({"error": code, "message": message}), file=sys.stderr)
    return 1


def _add_model_args(parser: argparse.ArgumentParser, required: bool) -> None:
    parser.add_argument("--model", required=required, help="gaussian | holder")
    parser.add_argument("--mu", help="gaussian mean separation, comma floats (e.g. 2,0)")
    parser.add_argument("--kappa", help="gaussian positive-class prior")
    parser.add_argument("--eta", help="holder eta curve: sine | flat (default sine)")


def _add_scorer_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--estimator",
                        help="logistic | kernel (1-d data only) | true-eta | constant:<p> "
                             "(model flags go with true-eta alone)")
    parser.add_argument("--kernel-beta", help="kernel smoothness (default 1)")
    parser.add_argument("--kernel-const", help="kernel bandwidth constant (default 1)")


def _config_keys(args) -> dict[str, str]:
    """The set model and estimator flags as a config ``key -> text`` map
    (a flag's ``dest`` is its config key) for the config parser."""
    return {key: getattr(args, key) for key in _FLAG_KEYS
            if getattr(args, key, None) is not None}


def _refuse(args, dests, where: str) -> None:
    """A flag among ``dests`` that was given is refused, not ignored."""
    for dest in dests:
        if getattr(args, dest) is not None:
            raise ValueError(f"flag --{dest.replace('_', '-')} does not apply {where}")


def _estimator(args) -> EstimatorSpec:
    """The estimator the flags name, logistic by default.  The model flags
    name the model of ``true-eta`` and are refused beside another estimator
    (in a config file they name the study's model instead)."""
    spec = estimator_from_config({"estimator": "logistic", **_config_keys(args)})
    if spec.kind != "true-eta":
        _refuse(args, _MODEL_FLAG_KEYS, f"to the {spec.kind} estimator")
    return spec


def _resolve_scorer(args, data: Dataset):
    """In-sample scorer for threshold/oracle: the scorer of a saved
    classifier or a fresh fit.  A model or estimator flag beside a saved
    classifier is refused, not ignored."""
    if args.classifier:
        _refuse(args, _FLAG_KEYS, "beside --classifier")
        with open(args.classifier, encoding="utf-8") as fh:
            return PluginClassifier.from_dict(json.load(fh)).scorer
    if args.estimator:
        return _estimator(args).build(data)
    raise ValueError("provide --classifier or --estimator")


def _load_data(path: str) -> Dataset:
    data, _ = load_dataset_csv(path)
    return data


def _cmd_gen(args) -> int:
    model = model_from_config(_config_keys(args))
    data = model.sample(args.n, args.seed)
    meta = {**model.to_dict(), "n": args.n, "seed": args.seed}
    save_dataset_csv(data, args.out, meta)
    _emit({"written": args.out, "n": data.n, "dim": data.dim})
    return 0


def _cmd_threshold(args) -> int:
    metric = parse_metric(args.metric)
    data = _load_data(args.data)
    profile = ScoreProfile.from_scorer(_resolve_scorer(args, data), data)
    result = _bisect_profile(metric, profile, data.n, ThresholdSearchConfig(args.tolerance))
    payload = result.to_dict()
    payload["metric"] = metric.name
    payload["utility"] = metric_value(metric, profile.confusion(result.delta_hat))
    _emit(payload)
    return 0


def _cmd_train(args) -> int:
    metric = parse_metric(args.metric)
    estimator = _estimator(args)
    clf = train_plugin(metric, _load_data(args.data), estimator,
                       ThresholdSearchConfig(args.tolerance), seed=args.seed)
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
    if args.mode != "monte-carlo":
        _refuse(args, _MC_FLAGS, "without --mode monte-carlo")
    model = model_from_config(_config_keys(args))
    with open(args.classifier, encoding="utf-8") as fh:
        clf = PluginClassifier.from_dict(json.load(fh))
    # a draw flag not given keeps population_regret's default
    draws = {dest: getattr(args, dest) for dest in _MC_FLAGS if getattr(args, dest) is not None}
    report = population_regret(metric, clf, model, mode=args.mode, **draws)
    payload = report.to_dict()
    payload["metric"] = metric.name
    _emit(payload)
    return 0


def _cmd_rate(args) -> int:
    config = ExperimentConfig.from_file(args.config)
    folder = os.path.dirname(args.out) or "."  # checked before any row runs
    if not os.path.isdir(folder):
        raise ValueError(f"flag --out: directory {folder!r} does not exist")
    table = run_rate_experiment(config)
    table.write_csv(f"{args.out}.csv")
    summary = table.write_summary(f"{args.out}.json")
    _emit({**summary, "csv": f"{args.out}.csv", "summary": f"{args.out}.json"})
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
        _refuse(args, ("data", "step", "classifier", *_FLAG_KEYS), "beside --discrete")
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
    profile = ScoreProfile.from_scorer(_resolve_scorer(args, data), data)
    step = 1e-4 if args.step is None else args.step
    delta = _grid_profile(metric, profile, step)
    utility = metric_value(metric, profile.confusion(delta))
    _emit({"metric": metric.name, "delta": delta, "utility": utility, "step": step})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="karmic",
        description="Plug-in threshold classification for confusion-matrix utilities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a synthetic dataset CSV (a .gz path is compressed)")
    _add_model_args(p, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("threshold", help="bisection threshold fit on a dataset")
    p.add_argument("--metric", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--classifier", help="classifier JSON whose scorer replaces --estimator")
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
    p.add_argument("--mc-samples", type=int, help="monte-carlo draws (default 1e6)")
    p.add_argument("--mc-seed", type=int, help="monte-carlo stream seed (default 0)")
    p.set_defaults(handler=_cmd_evaluate)

    p = sub.add_parser("rate", help="convergence-rate experiment from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output prefix: writes <out>.csv and <out>.json")
    p.set_defaults(handler=_cmd_rate)

    p = sub.add_parser("oracle", help="grid search or exhaustive discrete optimum")
    p.add_argument("--metric", required=True)
    p.add_argument("--discrete", help="atoms as weight:eta,weight:eta,...")
    p.add_argument("--data")
    p.add_argument("--step", type=float, help="grid step (default 1e-4)")
    p.add_argument("--classifier", help="classifier JSON whose scorer replaces --estimator")
    _add_scorer_args(p)
    _add_model_args(p, required=False)
    p.set_defaults(handler=_cmd_oracle)

    return parser


def _refuse_negative_seeds(args) -> None:
    """numpy refuses a negative seed without naming the flag it came from."""
    for dest in ("seed", "mc_seed"):
        value = getattr(args, dest, None)
        if value is not None and value < 0:
            raise ValueError(f"flag --{dest.replace('_', '-')} must be >= 0, got {value}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _refuse_negative_seeds(args)
        return args.handler(args)
    except _StdoutClosed:
        # devnull takes the flush at exit (Python docs, SIGPIPE)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except KarmicError as exc:
        return _fail(exc.code, str(exc))
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        return _fail("invalid-argument", str(exc))


if __name__ == "__main__":
    sys.exit(main())
