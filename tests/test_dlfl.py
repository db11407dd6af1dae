import numpy as np
import pytest

from faultlab.dlfl import (
    HIDDEN,
    LR,
    WEIGHT_DECAY,
    MlpFlConfig,
    MlpFlModel,
    train_mlpfl,
    virtual_suspiciousness,
)
from faultlab.errors import SingleClassDataset
from faultlab.neural import AdamW, Tensor
from faultlab.spectra import CoverageDataset, rank
from tape_oracle import mlp_logits, softplus


def final_loss(model: MlpFlModel, dataset: CoverageDataset) -> float:
    """Mean binary cross-entropy with logits, mean(softplus(z) - y*z)."""
    z = model.logits(dataset.matrix.astype(np.float64))
    y = dataset.errors.astype(np.float64).reshape(-1, 1)
    return float((np.logaddexp(0.0, z) - y * z).mean())


def _toy_separable(n_pass=18, n_fail=6, n_stmts=8, fault_col=2, seed=0):
    """Failures occur iff the fault column is covered."""
    rng = np.random.default_rng(seed)
    rows, errs = [], []
    for _ in range(n_fail):
        row = rng.integers(0, 2, n_stmts)
        row[fault_col] = 1
        rows.append(row)
        errs.append(1)
    for _ in range(n_pass):
        row = rng.integers(0, 2, n_stmts)
        row[fault_col] = 0
        rows.append(row)
        errs.append(0)
    return CoverageDataset(
        matrix=np.array(rows, dtype=np.int8),
        errors=np.array(errs, dtype=np.int8),
    )


def test_separable_training_converges():
    ds = _toy_separable()
    model = train_mlpfl(ds, MlpFlConfig(steps=2000, seed=1))
    assert final_loss(model, ds) < 0.05


def test_single_class_rejected():
    ds = _toy_separable(n_fail=0)
    with pytest.raises(SingleClassDataset):
        train_mlpfl(ds)


def test_training_is_deterministic():
    ds = _toy_separable()
    m1 = train_mlpfl(ds, MlpFlConfig(steps=400, seed=3))
    m2 = train_mlpfl(ds, MlpFlConfig(steps=400, seed=3))
    assert final_loss(m1, ds) == final_loss(m2, ds)
    assert np.array_equal(virtual_suspiciousness(m1), virtual_suspiciousness(m2))


def test_virtual_scores_in_unit_interval_and_rankable():
    ds = _toy_separable()
    model = train_mlpfl(ds, MlpFlConfig(steps=1500, seed=2))
    scores = virtual_suspiciousness(model)
    assert scores.shape == (8,)
    assert np.all((scores > 0.0) & (scores < 1.0))
    ranked = rank(scores)
    assert sorted(ranked.order) == list(range(1, 9))


def test_separable_fault_ranked_first():
    ds = _toy_separable(fault_col=2)
    model = train_mlpfl(ds, MlpFlConfig(steps=2000, seed=1))
    ranked = rank(virtual_suspiciousness(model))
    assert ranked.order[0] == 3


def _toy_masked(n_pass, n_fail, n_stmts=12, fault_col=4, trigger_col=9, seed=0):
    """Failures need fault + trigger; half the passes cover the fault too.

    The masked coverage is what makes a 10:1 minority genuinely hard: the
    fault column alone no longer separates the classes.
    """
    rng = np.random.default_rng(seed)
    rows, errs = [], []
    for _ in range(n_fail):
        row = rng.integers(0, 2, n_stmts)
        row[fault_col] = 1
        row[trigger_col] = 1
        rows.append(row)
        errs.append(1)
    for _ in range(n_pass):
        row = rng.integers(0, 2, n_stmts)
        if rng.random() < 0.5:
            row[fault_col] = 1
            row[trigger_col] = 0
        else:
            row[fault_col] = 0
        rows.append(row)
        errs.append(0)
    return CoverageDataset(
        matrix=np.array(rows, dtype=np.int8),
        errors=np.array(errs, dtype=np.int8),
    )


def test_balanced_training_beats_imbalanced_majority_of_seeds():
    # 10:1 imbalance vs balanced data over 20 seeds: the deciding
    # statement must rank strictly higher under balance in the majority
    wins = 0
    seeds = range(20)
    for seed in seeds:
        bal = _toy_masked(n_pass=10, n_fail=10, seed=seed)
        imb = _toy_masked(n_pass=20, n_fail=2, seed=seed)
        r_bal = rank(virtual_suspiciousness(
            train_mlpfl(bal, MlpFlConfig(steps=400, seed=seed))))
        r_imb = rank(virtual_suspiciousness(
            train_mlpfl(imb, MlpFlConfig(steps=400, seed=seed))))
        if r_bal.rank_of(5) < r_imb.rank_of(5):
            wins += 1
    assert wins > len(seeds) / 2


def _tape_train_mlpfl(dataset, cfg):
    """The autodiff-tape training loop that the closed-form step replaced."""
    y = dataset.errors.astype(np.float64)
    rng = np.random.default_rng(cfg.seed)
    model = MlpFlModel(rng, dataset.num_statements, HIDDEN)
    opt = AdamW(model.named_params(), lr=LR, weight_decay=WEIGHT_DECAY)
    x = Tensor(dataset.matrix.astype(np.float64))
    targets = Tensor(y.reshape(-1, 1))
    for _ in range(cfg.steps):
        z = mlp_logits(model, x)
        loss = (softplus(z) - targets * z).mean()
        opt.zero_grad()
        loss.backward()
        opt.step()
    return model


@pytest.mark.parametrize("dataset, cfg", [
    (_toy_separable(seed=0), MlpFlConfig(steps=300, seed=1)),
    (_toy_masked(n_pass=40, n_fail=3, seed=5), MlpFlConfig(steps=300, seed=2)),
    # a rebalanced set on a 4-column fused context
    (_toy_masked(n_pass=40, n_fail=40, n_stmts=4, fault_col=1, trigger_col=3, seed=7),
     MlpFlConfig(steps=300, seed=3)),
])
def test_closed_form_step_is_bit_identical_to_tape(dataset, cfg):
    fast = train_mlpfl(dataset, cfg).named_params()
    tape = _tape_train_mlpfl(dataset, cfg).named_params()
    assert list(fast) == list(tape)
    for name in fast:
        assert np.array_equal(fast[name].data, tape[name].data), name
