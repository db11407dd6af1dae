"""Report bytes for a fixed seed, pinned.

A small run over all four scenarios with a spectrum formula and the MLP
localizer, in both evaluation spaces, must write the same `report.json`
as it always has.  A change that means to alter the bytes updates the
digests below and says why.
"""

import hashlib

import pytest

from faultlab.corpus import generate_corpus
from faultlab.diffusion import TrainConfig
from faultlab.pipeline import RunConfig, emit_report, run_pipeline

REPORT_SHA256 = {
    "full": "e8dd1f328deb51061f6a462253de57dc5fa3ece3f7d460157ffd0487065f1af9",
    "context": "760c965aa4c91f8b3204cdb70bdfadb427d8a994814b6c5fc3320eeb053c124b",
}


@pytest.mark.parametrize("eval_space", sorted(REPORT_SHA256))
def test_report_bytes_are_pinned(tmp_path, eval_space):
    cfg = RunConfig(scenarios=("origin", "pcd", "undersample", "resample"),
                    methods=("gp02", "mlpfl"), seed=7,
                    train=TrainConfig(epochs=20, eval_space=eval_space))
    report = run_pipeline(cfg, versions=generate_corpus(3, seed=7))
    (path,) = emit_report(report, tmp_path, ("json",))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == REPORT_SHA256[eval_space]
