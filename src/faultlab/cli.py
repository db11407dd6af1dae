"""Command-line driver.

Subcommands:
  corpus gen   build a seeded-fault corpus directory
  run          run scenarios over a corpus and write reports
  report       re-emit report files from a stored report.json

Hyperparameter flags mirror the main-parameter table: --steps --lr
--beta1 --betaT --alpha --gamma --sample-steps.  A config file of
``key = value`` lines can pre-set any flag; explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .corpus import generate_corpus, write_corpus
from .diffusion import TrainConfig
from .errors import FaultlabError, InvalidConfig, IoError
from .metrics import MetricsReport, ScenarioMetrics
from .pipeline import RunConfig, emit_report, run_pipeline

CONFIG_KEYS = {
    "steps": int, "lr": float, "op": str, "beta1": float, "betaT": float,
    "alpha": float, "gamma": float, "sample_steps": int, "sample_order": int,
    "epochs": int, "corpus": str, "scenarios": str, "methods": str,
    "seed": int, "eval_space": str, "output": str, "tie": str,
}


def _read_text(path: str, what: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(f"cannot read {what} {path}: {exc}") from exc


def load_config_file(path: str) -> dict:
    values = {}
    for line_no, raw in enumerate(_read_text(path, "config file").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidConfig(f"{path}:{line_no}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise InvalidConfig(f"{path}:{line_no}: unknown key {key!r}")
        kind = CONFIG_KEYS[key]
        try:
            values[key] = kind(value.strip())
        except ValueError:
            raise InvalidConfig(f"{path}:{line_no}: {key} needs a {kind.__name__} value, "
                                f"got {value.strip()!r}") from None
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="faultlab")
    sub = parser.add_subparsers(dest="command", required=True)

    corpus = sub.add_parser("corpus", help="corpus management")
    corpus_sub = corpus.add_subparsers(dest="corpus_command", required=True)
    gen = corpus_sub.add_parser("gen", help="generate a seeded-fault corpus")
    gen.add_argument("--out", required=True)
    gen.add_argument("--count", type=int, default=21)
    gen.add_argument("--seed", type=int, default=7)
    gen.add_argument("--no-golden", action="store_true",
                     help="skip the fixed illustrative version")

    run = sub.add_parser("run", help="run the localization scenarios")
    run.add_argument("--config", help="key = value config file")
    run.add_argument("--corpus")
    run.add_argument("--out", dest="output")
    run.add_argument("--scenarios")
    run.add_argument("--methods")
    run.add_argument("--seed", type=int)
    run.add_argument("--steps", type=int, help="diffusion steps")
    run.add_argument("--lr", type=float)
    run.add_argument("--op", choices=["adamw"])
    run.add_argument("--beta1", type=float)
    run.add_argument("--betaT", type=float)
    run.add_argument("--alpha", type=float, help="fusion ratio")
    run.add_argument("--gamma", type=float, help="guidance scale")
    run.add_argument("--sample-steps", type=int, dest="sample_steps")
    run.add_argument("--sample-order", type=int, dest="sample_order", choices=[1, 2])
    run.add_argument("--epochs", type=int)
    run.add_argument("--eval-space", dest="eval_space", choices=["full", "context"])
    run.add_argument("--tie", choices=["ordinal", "best"])
    run.add_argument("--reject-empty", action="store_true")
    run.add_argument("--fail-cap", type=int, dest="fail_cap")

    rep = sub.add_parser("report", help="re-emit files from report.json")
    rep.add_argument("--input", required=True, help="path to report.json")
    rep.add_argument("--out", required=True)
    rep.add_argument("--formats", default="json,txt,csv")
    return parser


def _merge_run_config(args) -> RunConfig:
    values = {}
    if args.config:
        values.update(load_config_file(args.config))
    for key in CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    train = TrainConfig()
    for key in ("steps", "lr", "beta1", "betaT", "alpha", "gamma",
                "sample_steps", "sample_order", "epochs", "eval_space"):
        if key in values:
            setattr(train, key, values[key])
    if getattr(args, "reject_empty", False):
        train.reject_empty = True
    if getattr(args, "fail_cap", None) is not None:
        train.fail_cap = args.fail_cap
    if "seed" in values:
        train.seed = values["seed"]
    cfg = RunConfig(train=train)
    if "corpus" in values:
        cfg.corpus = values["corpus"]
    if "output" in values:
        cfg.output = values["output"]
    if "seed" in values:
        cfg.seed = values["seed"]
    if "tie" in values:
        cfg.tie = values["tie"]
    if "scenarios" in values:
        cfg.scenarios = tuple(s.strip() for s in values["scenarios"].split(",") if s.strip())
    if "methods" in values:
        cfg.methods = tuple(m.strip() for m in values["methods"].split(",") if m.strip())
    return cfg


def _report_from_dict(payload: dict) -> MetricsReport:
    report = MetricsReport()
    report.config = payload.get("config", {})
    report.per_version = payload.get("per_version", [])
    report.errors = payload.get("errors", [])
    for scenario, methods in payload.get("results", {}).items():
        for method, vals in methods.items():
            report.add(scenario, method, ScenarioMetrics(
                top1=vals["top1"], top3=vals["top3"], top5=vals["top5"],
                mfr=vals["mfr"], mar=vals["mar"], versions=vals["versions"],
                rimp_mfr=vals.get("rimp_mfr"), rimp_mar=vals.get("rimp_mar"),
            ))
    return report


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "corpus" and args.corpus_command == "gen":
            versions = generate_corpus(args.count, seed=args.seed,
                                       include_golden=not args.no_golden)
            out = write_corpus(versions, args.out)
            print(f"wrote {len(versions)} versions to {out}")
            return 0
        if args.command == "run":
            cfg = _merge_run_config(args)
            report = run_pipeline(cfg)
            paths = emit_report(report, cfg.output)
            for p in paths:
                print(f"wrote {p}")
            if report.errors:
                for e in report.errors:
                    print(f"version {e['version']} failed: {e['error']}: {e['message']}",
                          file=sys.stderr)
                return 1
            return 0
        if args.command == "report":
            try:
                report = _report_from_dict(json.loads(_read_text(args.input, "report")))
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                raise IoError(f"{args.input} is not a faultlab report.json: {exc!r}") from exc
            formats = tuple(f.strip() for f in args.formats.split(","))
            for p in emit_report(report, args.out, formats):
                print(f"wrote {p}")
            return 0
    except IoError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except FaultlabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
