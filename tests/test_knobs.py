"""The run-knob table: flags, config-file keys and report.config from one list."""

import json
import re
from pathlib import Path

import pytest

from faultlab import cli
from faultlab.corpus import generate_corpus, write_corpus
from faultlab.diffusion import TrainConfig
from faultlab.errors import InvalidConfig
from faultlab.pipeline import KNOBS, RunConfig, emit_report, run_pipeline

README = Path(__file__).resolve().parent.parent / "README.md"

# A setting for each knob other than its default, as text and as parsed;
# op has a single legal value.
SETTINGS = {
    "corpus": ("other_corpus", "other_corpus"),
    "output": ("other_out", "other_out"),
    "scenarios": ("pcd,origin", ("pcd", "origin")),
    "methods": ("gp02,mlpfl", ("gp02", "mlpfl")),
    "seed": ("3", 3),
    "eval_space": ("context", "context"),
    "tie": ("best", "best"),
    "steps": ("50", 50),
    "lr": ("0.01", 0.01),
    "op": ("adamw", "adamw"),
    "beta1": ("0.001", 0.001),
    "betaT": ("0.05", 0.05),
    "alpha": ("0.5", 0.5),
    "gamma": ("1.5", 1.5),
    "sample_steps": ("10", 10),
    "epochs": ("7", 7),
    "sample_order": ("1", 1),
    "reject_empty": ("true", True),
    "fail_cap": ("1", 1),
}


@pytest.mark.parametrize("knob", KNOBS, ids=lambda knob: knob.field)
def test_knob_by_flag_equals_knob_by_file(tmp_path, monkeypatch, knob):
    text, value = SETTINGS[knob.field]
    monkeypatch.chdir(tmp_path)
    seen = []

    def over_no_versions(cfg):
        seen.append(cfg)
        return run_pipeline(cfg, versions=[])

    monkeypatch.setattr(cli, "run_pipeline", over_no_versions)
    flag = [knob.flag] if value is True else [knob.flag, text]
    assert cli.main(["run"] + flag) == 0
    (tmp_path / "run.cfg").write_text(f"{knob.field} = {text}\n")
    assert cli.main(["run", "--config", "run.cfg"]) == 0
    by_flag, by_file = seen
    assert by_flag == by_file
    assert getattr(knob.target(by_file), knob.field) == value
    if knob.field != "op":
        assert by_file != RunConfig()
    config = json.loads((tmp_path / by_file.output / "report.json").read_text())["config"]
    if knob.field == "output":
        assert "output" not in config
    else:
        assert config[knob.field] == json.loads(json.dumps(value))


@pytest.mark.parametrize("change", [{"sample_order": 1}, {"reject_empty": True},
                                    {"fail_cap": 1}], ids=lambda change: next(iter(change)))
def test_runs_differing_in_one_knob_write_different_reports(tmp_path, change):
    versions = generate_corpus(2, seed=4)
    for name, train in (("default", TrainConfig()), ("changed", TrainConfig(**change))):
        cfg = RunConfig(scenarios=("origin",), methods=("gp02",), seed=4, train=train)
        emit_report(run_pipeline(cfg, versions=versions), tmp_path / name, ("json",))
    default = (tmp_path / "default" / "report.json").read_bytes()
    assert (tmp_path / "changed" / "report.json").read_bytes() != default


@pytest.mark.parametrize("field", [field for field, kind in cli._knob_types().items()
                                   if kind is float])
def test_huge_float_knob_exits_2_or_writes_a_report(tmp_path, field):
    # 1e308 is finite, so only a bound can reject it.  A knob validate lets
    # through must run to a report, its version's error recorded there;
    # an exception escaping the per-version isolation fails this test.
    corpus = tmp_path / "corpus"
    write_corpus(generate_corpus(1, seed=4), corpus)
    out = tmp_path / "run"
    code = cli.main(["run", "--corpus", str(corpus), "--out", str(out),
                     "--scenarios", "origin,pcd", "--methods", "gp02", "--epochs", "3",
                     "--" + field, "1e308"])
    assert code == 2 or (out / "report.json").is_file()


def test_config_file_bad_bool_names_file_and_line(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("reject_empty = true\nreject_empty = maybe\n")
    with pytest.raises(InvalidConfig,
                       match=rf"{cfg_file}:2: reject_empty needs a bool value, got 'maybe'"):
        cli.load_config_file(cfg_file)


def test_absent_bool_flag_keeps_the_file_value(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("reject_empty = true\n")
    args = cli.build_parser().parse_args(["run", "--config", str(cfg_file)])
    assert cli._merge_run_config(args).train.reject_empty is True


def test_readme_and_help_name_every_config_key(capsys):
    readme = " ".join(README.read_text().split())
    listed = re.search(r"same keys as the flags: ([^)]*)\)", readme).group(1)
    keys = {knob.field for knob in KNOBS}
    assert {key.strip() for key in listed.split(",")} == keys
    with pytest.raises(SystemExit):
        cli.main(["run", "--help"])
    assert keys <= set(re.findall(r"\w+", capsys.readouterr().out))
