"""Command-line driver.

Subcommands:
  corpus gen   build a seeded-fault corpus directory
  run          run scenarios over a corpus and write reports
  report       re-emit report files from a stored report.json

The `run` flags are the run settings of `pipeline.KNOBS`, among them the
main-parameter table: --steps --lr --op --beta1 --betaT --alpha --gamma
--sample-steps.  A config file of ``key = value`` lines can pre-set any
of them, keyed by field name (``output`` for --out, ``reject_empty =
true|false``); explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import sys
import typing
from pathlib import Path

from .corpus import generate_corpus, write_corpus
from .diffusion import TrainConfig
from .errors import FaultlabError, InvalidConfig, IoError
from .metrics import MetricsReport
from .pipeline import KNOBS, RunConfig, emit_report, run_pipeline


def _read_text(path: str, what: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(f"cannot read {what} {path}: {exc}") from exc


def _knob_types() -> dict[str, type]:
    """Each knob's value type (int, float, str or bool) from its field's
    annotation: an optional field takes its value's type, and a comma list
    (tuple[str, ...]) is written as one str."""
    hints = {owner: typing.get_type_hints(owner) for owner in (RunConfig, TrainConfig)}
    types = {}
    for knob in KNOBS:
        hint = hints[knob.owner][knob.field]
        args = [a for a in typing.get_args(hint) if a is not type(None)]
        types[knob.field] = args[0] if args else hint
    return types


def _parse(kind: type, text: str):
    if kind is bool:
        if text not in ("true", "false"):
            raise ValueError(text)
        return text == "true"
    return kind(text)


def load_config_file(path: str) -> dict:
    kinds = _knob_types()
    values = {}
    for line_no, raw in enumerate(_read_text(path, "config file").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidConfig(f"{path}:{line_no}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, text = key.strip(), value.strip()
        if key not in kinds:
            raise InvalidConfig(f"{path}:{line_no}: unknown key {key!r}")
        kind = kinds[key]
        try:
            values[key] = _parse(kind, text)
        except ValueError:
            raise InvalidConfig(f"{path}:{line_no}: {key} needs a {kind.__name__} value, "
                                f"got {text!r}") from None
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
    run.add_argument("--config", help="key = value config file; keys: "
                     + ", ".join(knob.field for knob in KNOBS))
    kinds = _knob_types()
    for knob in KNOBS:
        kind = kinds[knob.field]
        # a bool flag is None when absent, so that a config file's value stands
        how = {"action": "store_true", "default": None} if kind is bool else {"type": kind}
        run.add_argument(knob.flag, dest=knob.field, help=knob.help, **how)

    rep = sub.add_parser("report", help="re-emit files from report.json")
    rep.add_argument("--input", required=True, help="path to report.json")
    rep.add_argument("--out", required=True)
    rep.add_argument("--formats", default="json,txt,csv")
    return parser


def _merge_run_config(args) -> RunConfig:
    """Each knob from its flag, else from the config file, else the default."""
    from_file = load_config_file(args.config) if args.config else {}
    cfg = RunConfig()
    for knob in KNOBS:
        value = getattr(args, knob.field)
        if value is None:
            value = from_file.get(knob.field)
        if value is None:
            continue
        target = knob.target(cfg)
        if isinstance(getattr(target, knob.field), tuple):
            value = tuple(s.strip() for s in value.split(",") if s.strip())
        setattr(target, knob.field, value)
    return cfg


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
                report = MetricsReport.from_dict(json.loads(_read_text(args.input, "report")))
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
