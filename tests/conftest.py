"""Shared fixtures: the illustrative version and a trained generator for it."""

import numpy as np
import pytest

from faultlab.context import fuse
from faultlab.corpus import golden_template, make_version
from faultlab.diffusion import TrainConfig, train
from faultlab.minilang import execute
from faultlab.slicing import default_criterion, fault_context
from faultlab.spectra import build_spectra

# The illustrative example's published statistical ordering, used as the
# fixture input for the documented fusion walkthrough.
REFERENCE_PCA_ORDER = [14, 15, 10, 11, 6, 1, 2, 3, 13, 4, 5, 16, 8, 7, 9, 12]

GOLDEN_TRAIN_CONFIG = TrainConfig(lr=3e-4, epochs=2000)


@pytest.fixture(scope="session")
def golden_version():
    return make_version("v000_illustrative", golden_template(), None)


@pytest.fixture(scope="session")
def golden_records(golden_version):
    return [
        execute(golden_version.faulty, t.inputs, t.oracle, test_id=f"t{i + 1}")
        for i, t in enumerate(golden_version.suite)
    ]


@pytest.fixture(scope="session")
def golden_dataset(golden_records):
    return build_spectra(golden_records)


@pytest.fixture(scope="session")
def golden_semantic(golden_records):
    failing = [r for r in golden_records if r.failing]
    return fault_context([(r, default_criterion(r)) for r in failing])


@pytest.fixture(scope="session")
def golden_fused(golden_semantic):
    return fuse(golden_semantic.stm_sc, REFERENCE_PCA_ORDER, alpha=1.0)


@pytest.fixture(scope="session")
def golden_bundle(golden_dataset, golden_fused):
    """Diffusion generator trained on the illustrative fused context."""
    cols = [s - 1 for s in golden_fused.stm_fusion]
    rows = golden_dataset.matrix[:, cols]
    return train(rows, golden_dataset.errors, GOLDEN_TRAIN_CONFIG,
                 rng=np.random.default_rng(7))
