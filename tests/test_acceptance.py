"""Acceptance suite: one test per exit criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.
"""

import math
import time

import numpy as np
import pytest

from faultlab import augment
from faultlab.augment import binarize, generate_until_balanced
from faultlab.context import contribution_select, eigen_sym, fuse
from faultlab.corpus import generate_corpus
from faultlab.diffusion import (
    DiffusionBundle,
    TrainConfig,
    ancestral_sample,
    dpm_solve,
    make_schedule,
    q_sample,
    train,
)
from faultlab.metrics import rimp
from faultlab.minilang import execute, parse
from faultlab.neural import (
    Attention,
    Conv1d,
    Dense,
    Denoiser,
    Embedding,
    GroupNorm,
    ResidualBlock,
    Tensor,
)
from faultlab.pipeline import RunConfig, run_pipeline
from faultlab.slicing import SliceCriterion, default_criterion, dynamic_slice, fault_context
from faultlab.spectra import SpectrumTally, build_spectra, rank, score, tally
from conftest import GOLDEN_TRAIN_CONFIG, REFERENCE_PCA_ORDER
from gradcheck import grad_check
from randprog import gen_random_program, oracle_output_slices
from tape_oracle import node


def _verdict(tag: str, ok: bool, detail: str = ""):
    print(f"\n[{tag}] {'PASS' if ok else 'FAIL'}{(' - ' + detail) if detail else ''}")
    assert ok, f"{tag} failed: {detail}"


# ---------------------------------------------------------------------------
# Criterion 1: the illustrative 16-statement walkthrough

def test_criterion_1_golden_example(golden_version, golden_records, golden_dataset,
                                    golden_semantic, golden_fused):
    start = time.time()
    assert golden_dataset.matrix.shape == (6, 16)
    assert golden_dataset.errors.tolist() == [0, 0, 1, 0, 0, 1]

    assert golden_semantic.stm_sc == [1, 3, 7, 8, 14, 15]
    assert golden_fused.stm_fusion == [1, 3, 14, 15]

    bundle = train(
        golden_dataset.matrix[:, [s - 1 for s in golden_fused.stm_fusion]],
        golden_dataset.errors, GOLDEN_TRAIN_CONFIG, rng=np.random.default_rng(7))
    rng = np.random.default_rng(np.random.SeedSequence(entropy=7, spawn_key=(1,)))
    augmented = generate_until_balanced(bundle, golden_dataset, golden_fused,
                                        GOLDEN_TRAIN_CONFIG, rng)
    assert len(augmented.synthetic_rows) == 2
    assert augmented.dataset.num_failing == augmented.dataset.num_passing == 4

    fault = golden_version.mutation.target
    rank_origin = rank(score("gp02", tally(golden_dataset))).rank_of(fault)
    rank_pcd = rank(score("gp02", tally(augmented.dataset))).rank_of(fault)
    elapsed = time.time() - start
    assert rank_origin == 5
    assert rank_pcd < rank_origin
    assert elapsed < 60.0
    _verdict("criterion-1 golden example",
             True, f"gp02 rank {rank_origin} -> {rank_pcd}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 2: diffusion mathematics

def test_criterion_2_diffusion_math():
    start = time.time()
    sched = make_schedule(1000, 1e-4, 0.02)

    # cumulative-product identities, exact to 1e-12
    assert np.max(np.abs(sched.alpha_bar[1:]
                         - sched.alpha_bar[:-1] * sched.alpha[1:])) < 1e-12
    direct = np.prod(1.0 - np.linspace(1e-4, 0.02, 1000))
    assert abs(sched.alpha_bar[-1] - direct) < 1e-12
    assert sched.sigma2[0] == 0.0

    # closed form with eps = 0 is exact
    x0 = np.array([[1.0, -1.0, 1.0, -1.0]])
    for t in (1, 123, 1000):
        xt = q_sample(x0, t, np.zeros_like(x0), sched)
        assert np.array_equal(xt, np.sqrt(sched.alpha_bar[t - 1]) * x0)

    # iterative one-step kernel vs closed form: moments over 10k draws, 3 s.e.
    rng = np.random.default_rng(3)
    n, t_stop = 10_000, 250
    x = np.tile(x0, (n, 1))
    for s in range(1, t_stop + 1):
        beta = sched.beta[s - 1]
        x = np.sqrt(1 - beta) * x + np.sqrt(beta) * rng.standard_normal(x.shape)
    abar = sched.alpha_bar[t_stop - 1]
    se_mean = np.sqrt((1 - abar) / n)
    se_var = (1 - abar) * np.sqrt(2.0 / (n - 1))
    assert np.all(np.abs(x.mean(axis=0) - np.sqrt(abar) * x0[0]) < 3 * se_mean)
    assert np.all(np.abs(x.var(axis=0) - (1 - abar)) < 3 * se_var)

    # order-1 ODE stepping on the full grid == deterministic ancestral chain
    small = make_schedule(200, 1e-4, 0.02)
    model = Denoiser(seed=5, base=4, groups=2, emb_dim=8)
    prng = np.random.default_rng(9)
    for p in model.named_params().values():
        p.data = p.data + 0.05 * prng.standard_normal(p.data.shape)
    bundle = DiffusionBundle(model=model, sched=small, gamma=2.0, width=4)
    anc = ancestral_sample(bundle, 2, np.random.default_rng(3), eta=0.0)
    ode = dpm_solve(bundle, 2, np.random.default_rng(3), steps=200, order=1)
    assert np.max(np.abs(anc - ode)) < 1e-6

    # linear model eps(x) = x against a fine Runge-Kutta oracle
    class _Linear:
        def predict(self, x, t, c):
            return np.asarray(x, dtype=np.float64)

    lin = DiffusionBundle(model=_Linear(), sched=sched, gamma=0.0, width=4)
    x_T = np.random.default_rng(12).standard_normal((2, 4))
    got = dpm_solve(lin, 2, np.random.default_rng(0), steps=300, order=2, x_init=x_T)
    lam_T = float(sched.lambda_at(sched.T))
    lam_1 = float(sched.lambda_at(1))
    alpha_of = lambda lam: 1.0 / np.sqrt(1.0 + np.exp(-2.0 * lam))
    deriv = lambda lam, y: -np.exp(-lam) * alpha_of(lam) * y
    steps = 20_000
    h = (lam_1 - lam_T) / steps
    y, lam = x_T / alpha_of(lam_T), lam_T
    for _ in range(steps):
        k1 = deriv(lam, y)
        k2 = deriv(lam + h / 2, y + h / 2 * k1)
        k3 = deriv(lam + h / 2, y + h / 2 * k2)
        k4 = deriv(lam + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        lam += h
    x1 = alpha_of(lam_1) * y
    abar1 = sched.alpha_bar[0]
    want = (x1 - np.sqrt(1 - abar1) * x1) / np.sqrt(abar1)
    assert np.max(np.abs(got - want)) < 1e-3

    elapsed = time.time() - start
    assert elapsed < 120.0
    _verdict("criterion-2 diffusion math", True, f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 3: gradients

def test_criterion_3_gradient_suite():
    # A single layer reaches the tape through `tape_oracle.node`.
    start = time.time()
    rng = np.random.default_rng(0)
    worst = 0.0

    dense = Dense(rng, 5, 3)
    x = Tensor(rng.normal(size=(4, 5)))
    worst = max(worst, grad_check(lambda: (node(dense, x) * node(dense, x)).sum(),
                                  dense.named_params()))

    conv = Conv1d(rng, 3, 4, kernel=3)
    xc = Tensor(rng.normal(size=(2, 3, 6)), requires_grad=True)
    worst = max(worst, grad_check(lambda: (node(conv, xc) * node(conv, xc)).sum(),
                                  dict(conv.named_params(), x=xc)))

    gn = GroupNorm(4, groups=2)
    xg = Tensor(rng.normal(size=(3, 4, 5)), requires_grad=True)
    worst = max(worst, grad_check(lambda: (node(gn, xg) * node(gn, xg)).sum(),
                                  dict(gn.named_params(), x=xg)))

    attn = Attention(rng, 4, groups=2)
    xa = Tensor(rng.normal(size=(2, 4, 6)), requires_grad=True)
    worst = max(worst, grad_check(lambda: (node(attn, xa) * node(attn, xa)).sum(),
                                  dict(attn.named_params(), x=xa),
                                  limit_per_param=12, rng=np.random.default_rng(1)))

    emb = Embedding(rng, 3, 4)
    idx = np.array([0, 2, 1, 2])
    worst = max(worst, grad_check(lambda: (node(emb, idx) * node(emb, idx)).sum(),
                                  emb.named_params()))

    for c_in, c_out in ((4, 4), (2, 4), (6, 4)):
        block = ResidualBlock(rng, c_in, c_out, emb_dim=6, groups=2)
        xb = Tensor(rng.normal(size=(2, c_in, 4)), requires_grad=True)
        eb = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
        worst = max(worst, grad_check(
            lambda: (node(block, xb, eb) * node(block, xb, eb)).sum(),
            dict(block.named_params(), x=xb, emb=eb),
            limit_per_param=10, rng=np.random.default_rng(2)))

    model = Denoiser(seed=3, base=4, groups=2, emb_dim=8)
    xm = rng.normal(size=(2, 8))
    tm = np.array([3, 17])
    cm = np.array([1, 0])
    target = Tensor(rng.normal(size=(2, 1, 8)))
    worst = max(worst, grad_check(
        lambda: ((model(xm, tm, cm) - target) * (model(xm, tm, cm) - target)).sum(),
        model.named_params(), limit_per_param=8, rng=np.random.default_rng(3)))

    elapsed = time.time() - start
    assert worst < 1e-4
    assert elapsed < 120.0
    _verdict("criterion-3 gradients", True,
             f"max relative error {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 4: revised-PCA and fusion algorithms

def test_criterion_4_selection_algorithms(golden_semantic):
    # characteristic-polynomial oracles
    vals, _ = eigen_sym(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(vals, [3.0, 1.0], atol=1e-8)
    vals3, vecs3 = eigen_sym(np.array([[2.0, 0.0, 0.0],
                                       [0.0, 3.0, 4.0],
                                       [0.0, 4.0, 9.0]]))
    assert np.allclose(vals3, [11.0, 2.0, 1.0], atol=1e-8)
    assert np.allclose(vecs3.T @ vecs3, np.eye(3), atol=1e-8)

    # contribution ranking vs an independent eigendecomposition, 100 seeds
    rng = np.random.default_rng(99)
    accepted = 0
    while accepted < 100:
        x = rng.integers(0, 2, size=(6, 5)).astype(float)
        centered = x - x.mean(axis=0)
        cov = centered.T @ centered / 5.0
        w, v = np.linalg.eigh(cov)
        w, v = w[::-1], v[:, ::-1]
        m = 2
        if np.min(w[:m] - w[1:m + 1]) < 1e-6:
            continue
        contrib = np.abs(v[:, :m]).sum(axis=1)
        gaps = np.diff(np.sort(contrib))
        if np.any((gaps > 0) & (gaps < 1e-7)):
            continue
        want = sorted(range(5), key=lambda i: (-np.round(contrib[i], 9), i))
        got = contribution_select(x, m=2)
        assert got.stm_pca == [i + 1 for i in want]
        accepted += 1

    # fusion walkthrough, exact set equality
    fused = fuse(golden_semantic.stm_sc, REFERENCE_PCA_ORDER, alpha=1.0, target_dim=4)
    assert fused.stm_fusion == [1, 3, 14, 15]
    _verdict("criterion-4 selection algorithms", True)


# ---------------------------------------------------------------------------
# Criterion 5: slicing against an independent oracle

def test_criterion_5_slicing_oracle():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 100:
        src, inputs = gen_random_program(rng, max_stmts=50)
        try:
            expected = oracle_output_slices(src, inputs)
        except RuntimeError:
            continue
        program = parse(src)
        record = execute(program, inputs, {})
        if record.fault is not None:
            continue
        for stmt, var, want in expected:
            got = dynamic_slice(record, SliceCriterion(
                output_stm=stmt, output_vars=frozenset({var}), test_id="t"))
            assert got == set(want)
        checked += 1
    _verdict("criterion-5 slicing oracle", True, "100 programs, exact equality")


# ---------------------------------------------------------------------------
# Criterion 6: suspiciousness formulas

def test_criterion_6_formulas():
    t = SpectrumTally(a_ef=np.array([2.0]), a_ep=np.array([1.0]),
                      a_nf=np.array([0.0]), a_np=np.array([3.0]))
    assert abs(score("ochiai", t)[0] - 2.0 / math.sqrt(6.0)) < 1e-12
    assert abs(score("dstar", t)[0] - 4.0) < 1e-12
    assert abs(score("barinel", t)[0] - (1.0 - 1.0 / 3.0)) < 1e-12
    assert abs(score("gp02", t)[0] - (2.0 * (2.0 + math.sqrt(3.0)) + 1.0)) < 1e-12
    degenerate = SpectrumTally(a_ef=np.array([0.0]), a_ep=np.array([0.0]),
                               a_nf=np.array([2.0]), a_np=np.array([3.0]))
    for formula in ("dstar", "ochiai", "barinel", "gp02"):
        assert score(formula, degenerate)[0] == 0.0
    _verdict("criterion-6 formulas", True)


# ---------------------------------------------------------------------------
# Criterion 7: metric fixtures

def test_criterion_7_metrics():
    from faultlab.metrics import VersionResult, rank_metrics, topk

    r1 = VersionResult("v1", rank(np.array([0.5, 0.9, 0.1, 0.0, 0.0, 0.0, 0.0])), {1})
    r2 = VersionResult("v2", rank(np.array([0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3])), {7})
    assert (topk([r1, r2], 1), topk([r1, r2], 3), topk([r1, r2], 5)) == (0, 1, 1)
    one = VersionResult("v", rank(np.array([0.9, 0.8, 0.7, 0.6])), {2, 4})
    assert rank_metrics([one]) == (2.0, 3.0)
    assert rimp(50.0, 100.0) == 50.0
    rng = np.random.default_rng(1)
    for _ in range(25):
        a, b = float(rng.uniform(0.1, 9)), float(rng.uniform(0.1, 9))
        assert abs(rimp(a, b) * rimp(b, a) - 10_000.0) < 1e-8
    _verdict("criterion-7 metrics", True)


# ---------------------------------------------------------------------------
# Criteria 8 and 9: corpus-wide balance invariants and the directional claim

@pytest.fixture(scope="module")
def e2e_run():
    versions = generate_corpus(21, seed=7)
    cfg = RunConfig(
        scenarios=("origin", "pcd", "undersample", "resample"),
        methods=("dstar", "ochiai", "barinel", "gp02"),
        seed=7,
        train=TrainConfig(lr=3e-4, epochs=2000),
    )
    # Each rebalanced set the run builds, with the arguments it was built from.
    balanced = {"pcd": [], "undersample": [], "resample": []}

    def capture(scenario, fn):
        def wrapped(*args):
            out = fn(*args)
            balanced[scenario].append((out, args))
            return out
        return wrapped

    with pytest.MonkeyPatch.context() as mp:
        for scenario, name in (("pcd", "generate_until_balanced"),
                               ("undersample", "undersample"), ("resample", "resample")):
            mp.setattr(augment, name, capture(scenario, getattr(augment, name)))
        start = time.time()
        report = run_pipeline(cfg, versions=versions)
        elapsed = time.time() - start
    return versions, report, balanced, elapsed


def test_criterion_8_balance_invariants(e2e_run):
    versions, report, balanced, _ = e2e_run
    assert not report.errors
    for scenario, built in balanced.items():
        assert len(built) == len(versions), scenario
        for out, _ in built:
            assert out.dataset.num_failing == out.dataset.num_passing, scenario
    for out, (_, _, fused, *_) in balanced["pcd"]:
        outside = [j for j in range(out.synthetic_rows.shape[1])
                   if (j + 1) not in fused.stm_fusion]
        assert np.all(out.synthetic_rows[:, outside] == 0)
    _verdict("criterion-8 balance invariants", True,
             f"{len(versions)} versions balanced, synthetic rows confined")


def test_criterion_9_directional_claim(e2e_run):
    versions, report, _, elapsed = e2e_run
    assert len(versions) >= 20

    improving = [
        method for method in ("dstar", "ochiai", "barinel", "gp02")
        if report.cells["pcd"][method].rimp_mfr < 100.0
    ]
    assert len(improving) >= 2, f"only {improving} improved"

    per = {}
    for row in report.per_version:
        per.setdefault(row["version"], {})[(row["scenario"], row["method"])] = \
            row["first_rank"]
    gp02_improved = sum(
        cells[("pcd", "gp02")] < cells[("origin", "gp02")] for cells in per.values())
    frac = gp02_improved / len(per)
    assert frac >= 0.60
    assert elapsed < 1800.0
    _verdict("criterion-9 directional claim", True,
             f"RImp<100% for {improving}; gp02 improved on "
             f"{gp02_improved}/{len(per)} versions; {elapsed:.0f}s")
