"""The run-knob table: flags, config-file keys and report.config from one list."""

import json
import re
import warnings
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


# Values every knob of a type must survive: exit 2 with one line, or a
# written report.  2**63 overflows an int64; a float is also tried at
# its non-finite values and at 1e308, which is finite but overflows once
# scaled.
BAD_VALUES = {
    int: ("0", "-1", str(2**63)),
    float: ("0", "-1", str(2**63), "nan", "inf", "-inf", "1e308"),
    str: ("", "nope"),
    bool: ("", "nope"),
}
# These pass validate and would only take long to run: 2**63 epochs, or a
# sampler grid as fine as the schedule.
ONLY_VALIDATED = {("epochs", str(2**63)), ("sample_steps", str(2**63))}
CASES = [(field, text) for field, kind in cli._knob_types().items()
         for text in BAD_VALUES[kind]] + [("unknown_key", "1")]


@pytest.fixture(scope="module")
def one_version_corpus(tmp_path_factory):
    corpus = tmp_path_factory.mktemp("knobs") / "corpus"
    write_corpus(generate_corpus(1, seed=4), corpus)
    return corpus


@pytest.mark.parametrize("field, text", CASES, ids=[f"{f}={t}" for f, t in CASES])
def test_bad_knob_value_exits_2_or_writes_a_report(tmp_path, monkeypatch, capsys,
                                                    one_version_corpus, field, text):
    # A config file carries the value, so "-inf" reaches validate rather
    # than argparse.  The run works in tmp_path, because `output = ` writes
    # into the working directory.  A value validate lets through must run
    # to a report, its version's error recorded there; an exception
    # escaping the per-version isolation fails this test.
    monkeypatch.chdir(tmp_path)
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"corpus = {one_version_corpus}\noutput = run\n"
                        "scenarios = origin,pcd\nmethods = gp02\nepochs = 3\n"
                        f"{field} = {text}\n")
    argv = ["run", "--config", str(cfg_file)]
    if (field, text) in ONLY_VALIDATED:
        cli._merge_run_config(cli.build_parser().parse_args(argv)).validate()
        return
    overflowing_update = (field, text) == ("lr", "1e308")
    if not overflowing_update:
        code = cli.main(argv)
    else:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(argv)
        # the update overflows inside AdamW, which raises with nothing printed
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert "Traceback" not in err
    report = Path(text if field == "output" else "run") / "report.json"
    if code == 2:
        assert len(err.splitlines()) == 1
        assert not report.exists()
    else:
        assert report.is_file()
    if overflowing_update:
        errors = json.loads(report.read_text())["errors"]
        assert [e["error"] for e in errors] == ["NonFiniteGradient"]


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
