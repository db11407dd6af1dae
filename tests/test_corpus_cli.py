import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from faultlab.cli import load_config_file, main
from faultlab.corpus import (
    generate_corpus,
    load_corpus,
    load_version,
    write_corpus,
)
from faultlab.diffusion import TrainConfig
from faultlab.errors import FaultlabError, InvalidConfig, TemplateError
from faultlab.minilang import Mutation, execute
from faultlab.pipeline import RunConfig, emit_report, run_pipeline


def _hash_tree(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def test_corpus_counts_and_layout(tmp_path):
    versions = generate_corpus(8, seed=3)
    out = write_corpus(versions, tmp_path / "corpus")
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["versions"]) == 8
    assert manifest["versions"][0] == "v000_illustrative"
    for vid in manifest["versions"]:
        vdir = out / vid
        for name in ("program.txt", "faulty.txt", "mutation.json",
                     "tests.json", "meta.json"):
            assert (vdir / name).exists()


def test_corpus_bytes_deterministic(tmp_path):
    a = write_corpus(generate_corpus(6, seed=11), tmp_path / "a")
    b = write_corpus(generate_corpus(6, seed=11), tmp_path / "b")
    assert _hash_tree(a) == _hash_tree(b)
    c = write_corpus(generate_corpus(6, seed=12), tmp_path / "c")
    assert _hash_tree(a) != _hash_tree(c)


def test_corpus_roundtrip_and_imbalance(tmp_path):
    out = write_corpus(generate_corpus(6, seed=5), tmp_path / "corpus")
    for version in load_corpus(out):
        records = [execute(version.faulty, t.inputs, t.oracle, f"t{i}")
                   for i, t in enumerate(version.suite)]
        n_fail = sum(r.failing for r in records)
        assert 0 < n_fail < len(records) - n_fail
        assert version.faulty_statements == {version.mutation.target}
        # the mutated statement differs between correct and faulty source
        assert version.program.source != version.faulty.source


def test_unsatisfiable_template_raises():
    from faultlab.corpus import TemplateInstance, build_suite
    from faultlab.minilang import Mutation, parse, seed_fault

    # the mutation never changes behavior, so no failing test exists
    inst = TemplateInstance(
        name="hopeless",
        source="a = x * 0\noutput(a)\n",
        mutation=Mutation(target=1, kind="constant-replacement", payload="0"),
        sample_inputs=lambda r: {"x": int(r.integers(0, 5))},
    )
    correct = parse(inst.source)
    with pytest.raises(TemplateError):
        build_suite(inst, correct, seed_fault(correct, inst.mutation),
                    np.random.default_rng(0), n_fail=1, n_pass=2)


def test_pipeline_reports_are_reproducible(tmp_path):
    versions = generate_corpus(3, seed=9)
    cfg = RunConfig(scenarios=("origin", "resample"), methods=("gp02", "dstar"),
                    seed=9, train=TrainConfig(epochs=50))
    r1 = run_pipeline(cfg, versions=versions)
    r2 = run_pipeline(cfg, versions=versions)
    emit_report(r1, tmp_path / "r1")
    emit_report(r2, tmp_path / "r2")
    assert _hash_tree(tmp_path / "r1") == _hash_tree(tmp_path / "r2")


@pytest.mark.parametrize("eval_space, ranks, contexts", [
    ("context", {"v000_illustrative": 1}, ["v000_illustrative", "v001_moved"]),
    ("full", {"v000_illustrative": 5, "v001_moved": 1}, []),
])
def test_context_space_drops_a_fault_outside_the_context(golden_version, eval_space,
                                                         ranks, contexts):
    # The same faulty program, with its recorded fault moved to S10, which
    # lies outside the fused context [1, 3, 14, 15].
    moved = dataclasses.replace(golden_version, version_id="v001_moved",
                                mutation=Mutation(10, "constant-replacement", "0"))
    cfg = RunConfig(scenarios=("origin",), methods=("gp02",), seed=7,
                    train=TrainConfig(eval_space=eval_space))
    report = run_pipeline(cfg, versions=[golden_version, moved])
    assert {row["version"]: row["first_rank"] for row in report.per_version} == ranks
    assert sorted(report.config["contexts"]) == contexts


def test_pipeline_isolates_version_failures(tmp_path):
    versions = generate_corpus(3, seed=9)
    # break one version: make every test pass so slicing cannot start
    broken = versions[1]
    broken.faulty = broken.program
    cfg = RunConfig(scenarios=("origin", "pcd"), methods=("gp02",), seed=9,
                    train=TrainConfig(epochs=30))
    report = run_pipeline(cfg, versions=versions)
    assert len(report.errors) == 1
    assert report.errors[0]["version"] == broken.version_id
    done = {row["version"] for row in report.per_version}
    assert done == {versions[0].version_id, versions[2].version_id}


def test_cli_corpus_run_report_roundtrip(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    run_dir = tmp_path / "run"
    assert main(["corpus", "gen", "--out", str(corpus_dir),
                 "--count", "3", "--seed", "4"]) == 0
    code = main([
        "run", "--corpus", str(corpus_dir), "--out", str(run_dir),
        "--scenarios", "origin,undersample", "--methods", "gp02",
        "--seed", "4", "--epochs", "40",
    ])
    assert code == 0
    payload = json.loads((run_dir / "report.json").read_text())
    assert set(payload["results"]) == {"origin", "undersample"}
    assert payload["config"]["op"] == "adamw"
    # re-emit from the stored json
    out2 = tmp_path / "again"
    assert main(["report", "--input", str(run_dir / "report.json"),
                 "--out", str(out2), "--formats", "txt,csv"]) == 0
    assert (out2 / "report.txt").read_text() == (run_dir / "report.txt").read_text()


def test_cli_nonzero_exit_on_version_error(tmp_path):
    corpus_dir = tmp_path / "corpus"
    main(["corpus", "gen", "--out", str(corpus_dir), "--count", "2", "--seed", "4"])
    # sabotage one version: oracle that always matches (no failing tests)
    vdir = corpus_dir / "v001_masked_scale"
    program_src = (vdir / "program.txt").read_text()
    (vdir / "faulty.txt").write_text(program_src)
    code = main(["run", "--corpus", str(corpus_dir), "--out", str(tmp_path / "r"),
                 "--scenarios", "origin,pcd", "--methods", "gp02",
                 "--seed", "4", "--epochs", "30"])
    assert code == 1


def test_cli_missing_or_malformed_corpus_exits_2(tmp_path, capsys):
    args = ["run", "--out", str(tmp_path / "r"), "--scenarios", "origin",
            "--methods", "gp02"]
    assert main(args + ["--corpus", str(tmp_path / "missing")]) == 2
    corpus_dir = tmp_path / "corpus"
    main(["corpus", "gen", "--out", str(corpus_dir), "--count", "2", "--seed", "4"])
    for manifest in ("{}", '{"versions": 3}', '{"versions": "v000"}', "[{",
                     '{"versions": ["v000_illustrative", "v000_illustrative"]}'):
        (corpus_dir / "manifest.json").write_text(manifest)
        assert main(args + ["--corpus", str(corpus_dir)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def _run_with_broken_version(tmp_path, capsys, path, text):
    """Run a 3-version corpus after writing `text` to one file of v001."""
    corpus_dir = tmp_path / "corpus"
    main(["corpus", "gen", "--out", str(corpus_dir), "--count", "3", "--seed", "4"])
    (corpus_dir / "v001_masked_scale" / path).write_text(text)
    out = tmp_path / "r"
    capsys.readouterr()
    code = main(["run", "--corpus", str(corpus_dir), "--out", str(out),
                 "--scenarios", "origin", "--methods", "gp02", "--seed", "4"])
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    payload = json.loads((out / "report.json").read_text())
    assert [e["version"] for e in payload["errors"]] == ["v001_masked_scale"]
    assert [row["version"] for row in payload["per_version"]] == [
        "v000_illustrative", "v002_branch_flip"]
    return payload["errors"][0], err


@pytest.mark.parametrize("path, text, error", [
    ("faulty.txt", "x = = 3\n", "ParseError"),
    ("program.txt", "if 1 {\n", "ParseError"),
    ("tests.json", "[{", "IoError"),
    ("meta.json", "{}", "IoError"),
])
def test_cli_run_isolates_a_version_that_does_not_load(tmp_path, capsys, path, text, error):
    recorded, err = _run_with_broken_version(tmp_path, capsys, path, text)
    assert recorded["error"] == error
    assert f"version v001_masked_scale failed: {error}" in err


def test_cli_run_reports_too_deep_blocks_as_a_version_error(tmp_path, capsys):
    source = "x = 0\n" + "if 1 {\n" * 600 + "x = 7\n" + "}\n" * 600 + "output(x)\n"
    recorded, _ = _run_with_broken_version(tmp_path, capsys, "faulty.txt", source)
    assert recorded["error"] == "ParseError"
    assert "blocks nested deeper than 100 levels (line 102" in recorded["message"]


def test_non_integer_input_fails_only_its_version(tmp_path):
    corpus_dir = tmp_path / "corpus"
    main(["corpus", "gen", "--out", str(corpus_dir), "--count", "2", "--seed", "4"])
    tests_file = corpus_dir / "v001_masked_scale" / "tests.json"
    suite = json.loads(tests_file.read_text())
    first = next(iter(suite[0]["inputs"]))
    suite[0]["inputs"][first] = "abc"
    tests_file.write_text(json.dumps(suite))
    out = tmp_path / "r"
    code = main(["run", "--corpus", str(corpus_dir), "--out", str(out),
                 "--scenarios", "origin", "--methods", "gp02"])
    assert code == 1
    payload = json.loads((out / "report.json").read_text())
    assert [(e["version"], e["error"]) for e in payload["errors"]] == [
        ("v001_masked_scale", "InvalidInput")]
    assert [row["version"] for row in payload["per_version"]] == ["v000_illustrative"]


def test_config_file_parsing(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "steps = 500\n"
        "lr = 0.001\n"
        "op = adamw\n"
        "beta1 = 0.0002\n"
        "betaT = 0.03\n"
        "alpha = 0.5\n"
        "gamma = 1.5\n"
        "# a comment\n"
        "scenarios = origin\n"
        "seed = 13\n"
    )
    values = load_config_file(cfg_file)
    assert values["steps"] == 500
    assert values["lr"] == 0.001
    assert values["alpha"] == 0.5
    assert values["scenarios"] == "origin"
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense = 1\n")
    with pytest.raises(FaultlabError):
        load_config_file(bad)


def test_cli_flags_override_config(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    corpus_dir = tmp_path / "corpus"
    main(["corpus", "gen", "--out", str(corpus_dir), "--count", "2", "--seed", "6"])
    cfg_file.write_text(f"corpus = {corpus_dir}\nscenarios = origin\nseed = 6\n")
    out = tmp_path / "out"
    code = main(["run", "--config", str(cfg_file), "--out", str(out),
                 "--methods", "ochiai", "--epochs", "30"])
    assert code == 0
    payload = json.loads((out / "report.json").read_text())
    assert list(payload["results"]["origin"].keys()) == ["ochiai"]
    assert payload["config"]["seed"] == 6


def test_version_dir_loads_back(tmp_path):
    out = write_corpus(generate_corpus(2, seed=2), tmp_path / "c")
    v = load_version(out / "v000_illustrative")
    assert v.program.size == 16
    assert v.mutation.target == 3
    assert len(v.suite) == 6


@pytest.mark.parametrize("flags, message", [
    (["--alpha", "-1"], "alpha must be >= 0"),
    (["--sample-steps", "0"], "sample_steps must be >= 1"),
    (["--scenarios", "bogus"], "unknown scenario 'bogus'"),
    (["--methods", "gp02,nope"], "unknown method 'nope'"),
    (["--steps", "1"], "steps must be >= 2"),
    (["--epochs", "0"], "epochs must be >= 1"),
    (["--beta1", "0.5", "--betaT", "0.1"], "need 0 < beta1 <= betaT < 1"),
    (["--fail-cap", "-1"], "fail_cap must be >= 1"),
    (["--fail-cap", "0"], "fail_cap must be >= 1"),
    (["--op", "sgd"], "op must be 'adamw', got 'sgd'"),
    (["--seed", "-1"], "seed must be >= 0, got -1"),
    (["--methods", ""], "method set must be non-empty"),
])
def test_cli_rejects_bad_knob_before_any_version(tmp_path, capsys, flags, message):
    # the corpus does not exist: validation has to fire before it is read
    code = main(["run", "--corpus", str(tmp_path / "missing"),
                 "--out", str(tmp_path / "r")] + flags)
    lines = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("error: InvalidConfig: ")
    assert message in lines[0]
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("flags, message", [
    (["--seed", "-1"], "seed must be >= 0, got -1"),
    (["--count", "-1"], "count must be >= 0, got -1"),
])
def test_cli_corpus_gen_rejects_negative_settings(tmp_path, capsys, flags, message):
    out = tmp_path / "corpus"
    assert main(["corpus", "gen", "--out", str(out)] + flags) == 2
    assert capsys.readouterr().err == f"error: InvalidRange: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("line, message", [
    ("sample_order = 3", "sample_order must be 1 or 2, got 3"),
    ("eval_space = everywhere", "eval_space must be 'full' or 'context'"),
    ("tie = worst", "tie must be 'ordinal' or 'best'"),
    ("op = sgd", "op must be 'adamw', got 'sgd'"),
])
def test_config_file_knobs_are_validated(tmp_path, capsys, line, message):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"corpus = {tmp_path / 'missing'}\n{line}\n")
    assert main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "r")]) == 2
    assert capsys.readouterr().err == f"error: InvalidConfig: {message}\n"


def test_config_file_bad_value_names_file_and_line(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("# steps below\nsteps = abc\n")
    with pytest.raises(InvalidConfig, match=rf"{cfg_file}:2: steps needs a int value"):
        load_config_file(cfg_file)
    assert main(["run", "--config", str(cfg_file)]) == 2
    assert main(["run", "--config", str(tmp_path / "absent.cfg")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 2


@pytest.mark.parametrize("content", [None, "not json {", "[1, 2]", '{"results": {"pcd": 1}}'])
def test_cli_report_bad_input_exits_2(tmp_path, capsys, content):
    path = tmp_path / "report.json"
    if content is not None:
        path.write_text(content)
    assert main(["report", "--input", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("io error: ") and len(err.splitlines()) == 1


def test_cli_run_reports_too_deep_expression_as_parse_error(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    main(["corpus", "gen", "--out", str(corpus_dir), "--count", "2", "--seed", "4"])
    faulty = corpus_dir / "v001_masked_scale" / "faulty.txt"
    lines = faulty.read_text().splitlines()
    lines.insert(1, "zz = " + " + ".join(["1"] * 20_000))
    faulty.write_text("\n".join(lines) + "\n")
    code = main(["run", "--corpus", str(corpus_dir), "--out", str(tmp_path / "r"),
                 "--scenarios", "origin", "--methods", "gp02", "--seed", "4"])
    err = capsys.readouterr().err
    assert code == 1
    assert "version v001_masked_scale failed: ParseError" in err and "(line 2)" in err
    assert "Traceback" not in err


def test_report_bytes_do_not_depend_on_blas_threads(tmp_path):
    corpus_dir = tmp_path / "corpus"
    assert main(["corpus", "gen", "--out", str(corpus_dir), "--count", "3", "--seed", "4"]) == 0
    root = Path(__file__).resolve().parent.parent
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"),
                                                            os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from faultlab.cli import main; sys.exit(main())",
             "run", "--corpus", str(corpus_dir), "--out", str(out), "--scenarios", "pcd",
             "--methods", "gp02,mlpfl", "--seed", "4", "--epochs", "20"],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]
