import numpy as np
import pytest

from faultlab.augment import binarize, generate_until_balanced, resample, undersample
from faultlab.errors import NoFailingTests, NonFinite
from faultlab.spectra import CoverageDataset
from conftest import GOLDEN_TRAIN_CONFIG


def _dataset(matrix, errors):
    matrix = np.asarray(matrix, dtype=np.int8)
    return CoverageDataset(
        matrix=matrix,
        errors=np.asarray(errors, dtype=np.int8),
    )


def test_binarize_sign_rule():
    assert binarize(np.array([-0.9, 0.3, -0.1, 2.0])).tolist() == [0, 1, 0, 1]
    assert binarize(np.array([-1.0, -1.0])).tolist() == [0, 0]
    assert binarize(np.array([0.0, 1e-12])).tolist() == [0, 1]


def test_binarize_rejects_nonfinite():
    with pytest.raises(NonFinite):
        binarize(np.array([0.1, float("nan")]))
    with pytest.raises(NonFinite):
        binarize(np.array([float("inf")]))


def test_generate_until_balanced_golden(golden_bundle, golden_dataset, golden_fused):
    rng = np.random.default_rng(np.random.SeedSequence(entropy=7, spawn_key=(1,)))
    aug = generate_until_balanced(golden_bundle, golden_dataset, golden_fused,
                                  GOLDEN_TRAIN_CONFIG, rng)
    assert len(aug.synthetic_rows) == 2
    ds = aug.dataset
    assert ds.num_failing == ds.num_passing == 4
    # original rows untouched
    assert np.array_equal(ds.matrix[:6], golden_dataset.matrix)
    assert ds.test_ids == golden_dataset.test_ids + ["g1", "g2"]
    # synthetic coverage confined to the fused context columns
    outside = [j for j in range(ds.num_statements)
               if (j + 1) not in golden_fused.stm_fusion]
    assert np.all(aug.synthetic_rows[:, outside] == 0)
    assert np.all(ds.errors[6:] == 1)


def test_generate_balanced_input_is_noop(golden_bundle, golden_fused):
    ds = _dataset([[1, 0, 1, 1], [0, 1, 0, 1]], [1, 0])
    aug = generate_until_balanced(golden_bundle, ds, golden_fused,
                                  GOLDEN_TRAIN_CONFIG, np.random.default_rng(0))
    assert len(aug.synthetic_rows) == 0
    assert np.array_equal(aug.dataset.matrix, ds.matrix)


def test_generate_requires_failures(golden_bundle, golden_fused):
    ds = _dataset([[1, 0, 1, 1], [0, 1, 0, 1]], [0, 0])
    with pytest.raises(NoFailingTests):
        generate_until_balanced(golden_bundle, ds, golden_fused,
                                GOLDEN_TRAIN_CONFIG, np.random.default_rng(0))


def test_undersample_counts_and_determinism():
    ds = _dataset(np.eye(6, 4, dtype=np.int8), [1, 0, 0, 1, 0, 0])
    a = undersample(ds, np.random.default_rng(3)).dataset
    b = undersample(ds, np.random.default_rng(3)).dataset
    assert a.num_failing == a.num_passing == 2
    assert np.array_equal(a.matrix, b.matrix)
    assert a.test_ids == b.test_ids
    # failing rows are untouched
    kept_fail = [tid for tid, e in zip(a.test_ids, a.errors) if e == 1]
    assert kept_fail == ["t1", "t4"]


def test_undersample_balanced_is_identity():
    ds = _dataset([[1, 0], [0, 1]], [1, 0])
    out = undersample(ds, np.random.default_rng(0)).dataset
    assert np.array_equal(out.matrix, ds.matrix)


def test_undersample_requires_failures():
    ds = _dataset([[1, 0]], [0])
    with pytest.raises(NoFailingTests):
        undersample(ds, np.random.default_rng(0))


def test_resample_duplicates_failing_rows():
    ds = _dataset([[1, 1, 0], [0, 1, 1], [1, 0, 0],
                   [0, 0, 1], [1, 1, 1], [0, 1, 0]],
                  [1, 0, 1, 0, 0, 0])
    out = resample(ds, np.random.default_rng(1))
    assert out.dataset.num_failing == out.dataset.num_passing == 4
    assert len(out.synthetic_rows) == 2
    fail_rows = ds.matrix[ds.errors == 1]
    for row in out.synthetic_rows:
        assert any(np.array_equal(row, fr) for fr in fail_rows)
    assert out.dataset.test_ids == ds.test_ids + ["r1", "r2"]
    assert np.array_equal(out.dataset.matrix[:6], ds.matrix)


def test_resample_single_failure_copies_it():
    ds = _dataset([[1, 0], [0, 1], [1, 1], [0, 0], [1, 0], [0, 1]],
                  [1, 0, 0, 0, 0, 0])
    out = resample(ds, np.random.default_rng(5))
    assert len(out.synthetic_rows) == 4
    assert all(np.array_equal(r, ds.matrix[0]) for r in out.synthetic_rows)


def test_resample_requires_failures():
    ds = _dataset([[1, 0]], [0])
    with pytest.raises(NoFailingTests):
        resample(ds, np.random.default_rng(0))


def test_reject_empty_knob(golden_dataset, golden_fused):
    from dataclasses import replace

    from faultlab.diffusion import DiffusionBundle, make_schedule

    class NegativeStub:
        """Drives every generated value negative -> all-zero rows."""

        def predict(self, x, t, c):
            return np.asarray(x, dtype=np.float64) + 3.0

    sched = make_schedule(40, 1e-3, 0.05)
    bundle = DiffusionBundle(model=NegativeStub(), sched=sched, gamma=0.0,
                             width=len(golden_fused.stm_fusion))
    keep_cfg = replace(GOLDEN_TRAIN_CONFIG, reject_empty=False, sample_steps=10)
    aug = generate_until_balanced(bundle, golden_dataset, golden_fused,
                                  keep_cfg, np.random.default_rng(0))
    # degenerate all-zero rows are kept by default
    assert len(aug.synthetic_rows) == 2
    assert np.all(aug.synthetic_rows == 0)
    # with rejection enabled the retry loop still terminates on hopeless models
    retry_cfg = replace(GOLDEN_TRAIN_CONFIG, reject_empty=True, sample_steps=10)
    aug2 = generate_until_balanced(bundle, golden_dataset, golden_fused,
                                   retry_cfg, np.random.default_rng(0))
    assert len(aug2.synthetic_rows) == 2
