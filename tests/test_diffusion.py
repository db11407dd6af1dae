import numpy as np
import pytest

from faultlab.diffusion import (
    DiffusionBundle,
    ancestral_sample,
    apply_label_dropout,
    dpm_solve,
    dpm_timesteps,
    encode_bits,
    guided_eps,
    make_schedule,
    q_sample,
    train_step,
)
from faultlab.errors import (
    EmptyBatch,
    InvalidOrder,
    InvalidRange,
    TimestepOutOfRange,
)
from faultlab.neural import AdamW, Denoiser, Tensor
from faultlab.augment import binarize


class StubModel:
    """Plugs an arbitrary eps-prediction function into the samplers."""

    def __init__(self, fn):
        self.fn = fn

    def predict(self, x, t, c):
        return self.fn(np.asarray(x, dtype=np.float64), t, c)

    def __call__(self, x, t, c):
        out = self.fn(np.asarray(x, dtype=np.float64), t, c)
        return Tensor(out[:, None, :])


def stub_bundle(fn, sched, width):
    return DiffusionBundle(model=StubModel(fn), sched=sched, width=width)


# -- schedule ------------------------------------------------------------------

def test_schedule_endpoints_and_identities():
    sched = make_schedule(1000, 1e-4, 0.02)
    assert sched.alpha_bar[0] == 1.0 - 1e-4
    direct = np.prod(1.0 - np.linspace(1e-4, 0.02, 1000))
    assert abs(sched.alpha_bar[-1] - direct) < 1e-12
    # exact recurrence and monotonicity
    assert np.all(sched.alpha_bar[1:] == sched.alpha_bar[:-1] * sched.alpha[1:])
    assert np.all(np.diff(sched.alpha_bar) < 0)
    # sigma_1^2 uses abar_0 = 1, hence vanishes
    assert sched.sigma2[0] == 0.0
    assert np.all(sched.sigma2 >= 0)


def test_schedule_rejects_bad_ranges():
    with pytest.raises(InvalidRange):
        make_schedule(1, 1e-4, 0.02)
    with pytest.raises(InvalidRange):
        make_schedule(100, 0.02, 1e-4)
    with pytest.raises(InvalidRange):
        make_schedule(100, 0.0, 0.02)


def test_schedule_rejects_an_underflowing_alpha_bar():
    # abar_T = 2.6e-308 is still a normal float; one more thousand steps
    # takes it to 1.05e-312, a subnormal with a flat log-SNR tail
    assert make_schedule(70_000, 1e-4, 0.02).alpha_bar[-1] >= np.finfo(np.float64).tiny
    with pytest.raises(InvalidRange, match="alpha_bar underflows"):
        make_schedule(71_000, 1e-4, 0.02)
    with pytest.raises(InvalidRange, match="alpha_bar underflows"):
        make_schedule(5000, 1e-4, 0.5)


# -- forward sampling ------------------------------------------------------------

def test_q_sample_noiseless():
    sched = make_schedule(100, 1e-3, 0.05)
    x0 = np.array([[1.0, -1.0, 1.0, 1.0]])
    for t in (1, 37, 100):
        xt = q_sample(x0, t, np.zeros_like(x0), sched)
        assert np.allclose(xt, np.sqrt(sched.alpha_bar[t - 1]) * x0, atol=0.0)


def test_q_sample_terminal_is_noise_dominated():
    sched = make_schedule(1000, 1e-4, 0.02)
    x0 = np.ones((1, 4))
    eps = np.random.default_rng(0).standard_normal((1, 4))
    xt = q_sample(x0, 1000, eps, sched)
    assert np.allclose(xt, eps, atol=0.02)


def test_q_sample_rejects_bad_timestep():
    sched = make_schedule(10, 1e-3, 0.05)
    with pytest.raises(TimestepOutOfRange):
        q_sample(np.ones((1, 2)), 0, np.zeros((1, 2)), sched)
    with pytest.raises(TimestepOutOfRange):
        q_sample(np.ones((1, 2)), 11, np.zeros((1, 2)), sched)


def test_q_sample_monte_carlo_moments():
    sched = make_schedule(1000, 1e-4, 0.02)
    rng = np.random.default_rng(7)
    x0 = np.array([1.0, -1.0, 1.0, -1.0])
    t = 600
    n = 10_000
    eps = rng.standard_normal((n, 4))
    xt = q_sample(np.tile(x0, (n, 1)), np.full(n, t), eps, sched)
    abar = sched.alpha_bar[t - 1]
    want_mean = np.sqrt(abar) * x0
    want_var = 1.0 - abar
    se_mean = np.sqrt(want_var / n)
    se_var = want_var * np.sqrt(2.0 / (n - 1))
    assert np.all(np.abs(xt.mean(axis=0) - want_mean) < 3 * se_mean)
    assert np.all(np.abs(xt.var(axis=0) - want_var) < 3 * se_var)


def test_iterative_kernel_matches_closed_form_in_distribution():
    # applying the one-step kernel t times agrees with the closed form
    sched = make_schedule(200, 1e-4, 0.02)
    rng = np.random.default_rng(3)
    n, t = 10_000, 200
    x0 = np.array([1.0, -1.0])
    x = np.tile(x0, (n, 1))
    for s in range(1, t + 1):
        beta = sched.beta[s - 1]
        x = np.sqrt(1.0 - beta) * x + np.sqrt(beta) * rng.standard_normal((n, 2))
    abar = sched.alpha_bar[t - 1]
    want_mean = np.sqrt(abar) * x0
    want_var = 1.0 - abar
    se_mean = np.sqrt(want_var / n)
    se_var = want_var * np.sqrt(2.0 / (n - 1))
    assert np.all(np.abs(x.mean(axis=0) - want_mean) < 3 * se_mean)
    assert np.all(np.abs(x.var(axis=0) - want_var) < 3 * se_var)


# -- training ---------------------------------------------------------------------

def test_train_step_loss_zero_for_exact_noise_oracle():
    sched = make_schedule(50, 1e-3, 0.05)
    x0 = encode_bits(np.array([[1, 0, 1, 1]]))

    def exact_eps(x_t, t, c):
        abar = sched.alpha_bar[np.asarray(t, dtype=int) - 1][:, None]
        return (x_t - np.sqrt(abar) * x0) / np.sqrt(1.0 - abar)

    loss = train_step(StubModel(exact_eps), AdamW({}), x0, np.array([1]),
                      sched, np.random.default_rng(0))
    assert loss < 1e-20


def test_train_step_zero_model_loss_near_width():
    # a zero predictor's expected loss is the squared norm of the noise: K
    sched = make_schedule(100, 1e-4, 0.02)
    model = Denoiser(seed=0, base=4, groups=2, emb_dim=8)  # zero head
    opt = AdamW(model.named_params(), lr=0.0, weight_decay=0.0)
    rows = encode_bits(np.random.default_rng(0).integers(0, 2, size=(8, 4)))
    labels = np.random.default_rng(1).integers(0, 2, size=8)
    rng = np.random.default_rng(2)
    losses = [train_step(model, opt, rows, labels, sched, rng)
              for _ in range(1000)]
    assert abs(np.mean(losses) - 4.0) < 0.15


def test_train_step_rejects_empty_batch():
    sched = make_schedule(10, 1e-3, 0.05)
    with pytest.raises(EmptyBatch):
        train_step(StubModel(lambda x, t, c: x), AdamW({}),
                   np.zeros((0, 4)), np.zeros(0), sched, np.random.default_rng(0))


def test_label_dropout_rate():
    rng = np.random.default_rng(0)
    labels = np.ones(10_000, dtype=np.intp)
    dropped = apply_label_dropout(labels, 0.1, rng)
    frac = np.mean(dropped == 2)
    assert abs(frac - 0.1) < 0.01
    assert set(np.unique(dropped)) <= {1, 2}


def test_training_loss_moving_average_decreases(golden_bundle):
    losses = np.array(golden_bundle.losses)
    ma = np.convolve(losses, np.ones(100) / 100, mode="valid")
    diffs = np.diff(ma)
    assert np.all(diffs <= 0.02 * ma[0])
    assert ma[-1] < 0.5 * ma[0]


# -- guidance -----------------------------------------------------------------------

def test_guided_eps_gamma_zero_is_conditional():
    model = StubModel(lambda x, t, c: x * np.asarray(c, dtype=float).reshape(-1, 1))
    x = np.ones((2, 4))
    out = guided_eps(model, x, np.ones(2), np.array([1, 1]), 0.0)
    assert np.array_equal(out, x)


def test_guided_eps_gamma_one_blend():
    # eps_c = 2x for class 1, eps_u = 0 for the null class (index 2 -> 0 here)
    def fn(x, t, c):
        scale = (np.asarray(c) == 1).astype(float) * 2.0
        return x * scale.reshape(-1, 1)

    x = np.ones((3, 4))
    out = guided_eps(StubModel(fn), x, np.ones(3), np.ones(3, dtype=int), 1.0)
    assert np.allclose(out, 2 * (2 * x) - 0.0)


def test_guided_eps_cancels_when_branches_agree():
    model = StubModel(lambda x, t, c: 0.25 * x)
    x = np.random.default_rng(0).normal(size=(2, 4))
    for gamma in (0.0, 1.0, 3.5):
        out = guided_eps(model, x, np.ones(2), np.ones(2, dtype=int), gamma)
        assert np.allclose(out, 0.25 * x, atol=1e-12)


# -- ancestral sampling ---------------------------------------------------------------

def test_ancestral_zero_model_closed_form():
    sched = make_schedule(60, 1e-3, 0.05)
    bundle = stub_bundle(lambda x, t, c: np.zeros_like(x), sched, width=4)
    out = ancestral_sample(bundle, 2, np.random.default_rng(8), gamma=0.0, eta=0.0)
    x_T = np.random.default_rng(8).standard_normal((2, 4))
    assert np.allclose(out, x_T / np.sqrt(sched.alpha_bar[-1]), atol=1e-9)


def test_ancestral_exact_oracle_recovers_x0():
    sched = make_schedule(200, 1e-4, 0.02)
    x0 = encode_bits(np.array([[1, 0, 1, 1]]))

    def exact_eps(x_t, t, c):
        tt = np.asarray(t, dtype=float).ravel()
        abar = sched.alpha_bar[tt.astype(int) - 1][:, None]
        return (x_t - np.sqrt(abar) * x0) / np.sqrt(1.0 - abar)

    bundle = stub_bundle(exact_eps, sched, width=4)
    out = ancestral_sample(bundle, 1, np.random.default_rng(0), gamma=0.0, eta=0.0)
    assert np.allclose(out, x0, atol=1e-3)
    # the stochastic chain contracts to x0 as well
    out2 = ancestral_sample(bundle, 1, np.random.default_rng(1), gamma=0.0, eta=1.0)
    assert np.allclose(out2, x0, atol=1e-3)


def test_ancestral_determinism_under_seed():
    sched = make_schedule(50, 1e-3, 0.05)
    bundle = stub_bundle(lambda x, t, c: 0.1 * x, sched, width=4)
    a = ancestral_sample(bundle, 3, np.random.default_rng(5), gamma=0.0)
    b = ancestral_sample(bundle, 3, np.random.default_rng(5), gamma=0.0)
    assert np.array_equal(a, b)


def _posterior_mean(x_t, eps_hat, t, sched):
    """Reverse-step mean (x_t - beta_t/sqrt(1-abar_t) eps)/sqrt(alpha_t)."""
    beta = sched.beta[t - 1]
    abar = sched.alpha_bar[t - 1]
    return (x_t - beta / np.sqrt(1.0 - abar) * eps_hat) / np.sqrt(sched.alpha[t - 1])


def test_generalized_step_matches_posterior_mean_form():
    # at eta=1 the update equals (x_t - beta/sqrt(1-abar) eps)/sqrt(alpha)
    sched = make_schedule(80, 1e-3, 0.06)
    rng = np.random.default_rng(2)
    for t in (2, 17, 55, 80):
        x_t = rng.normal(size=(3, 4))
        eps = rng.normal(size=(3, 4))
        abar = sched.alpha_bar[t - 1]
        abar_prev = sched.alpha_bar_prev(t)
        x0_hat = (x_t - np.sqrt(1 - abar) * eps) / np.sqrt(abar)
        sig = np.sqrt(sched.sigma2[t - 1])
        general = (np.sqrt(abar_prev) * x0_hat
                   + np.sqrt(1 - abar_prev - sig ** 2) * eps)
        assert np.allclose(general, _posterior_mean(x_t, eps, t, sched), atol=1e-12)


# -- fast sampler ------------------------------------------------------------------------

def test_dpm_rejects_bad_order():
    sched = make_schedule(10, 1e-3, 0.05)
    bundle = stub_bundle(lambda x, t, c: x, sched, width=4)
    with pytest.raises(InvalidOrder):
        dpm_solve(bundle, 1, np.random.default_rng(0), gamma=0.0, order=3)


def test_dpm_timesteps_grid():
    sched = make_schedule(1000, 1e-4, 0.02)
    ts = dpm_timesteps(sched, 25)
    assert ts[0] == 1000 and ts[-1] == 1
    assert all(a > b for a, b in zip(ts, ts[1:]))
    assert len(ts) <= 25
    assert dpm_timesteps(sched, 1000) == list(range(1000, 0, -1))
    assert dpm_timesteps(sched, 1) == [1000, 1]


def _dpm_timesteps_by_loop(sched, steps):
    """The grid with repeats removed by a strict-descent loop, as the
    sampler once built it: the reference for `dpm_timesteps`."""
    if steps < 2:
        return [sched.T, 1]
    if steps >= sched.T:
        return list(range(sched.T, 0, -1))
    targets = np.linspace(float(sched.lambda_at(sched.T)), float(sched.lambda_at(1)), steps)
    ts = np.clip(np.rint(sched.t_of_lambda(targets)).astype(int), 1, sched.T)
    ts[0] = sched.T
    ts[-1] = 1
    out = []
    for t in ts:
        if not out or t < out[-1]:
            out.append(int(t))
    if out[-1] != 1:
        out.append(1)
    return out


@pytest.mark.parametrize("betas", [(1e-4, 0.02), (1e-3, 0.05), (0.3, 0.9)])
def test_dpm_timesteps_match_the_strict_descent_loop(betas):
    cases = [(T, steps) for T in range(2, 61) for steps in range(1, 61)]
    if betas == (1e-4, 0.02):
        cases += [(1000, steps) for steps in (1, 25, 999, 1000, 1001)]
    for T, steps in cases:
        sched = make_schedule(T, *betas)
        got = dpm_timesteps(sched, steps)
        assert got == _dpm_timesteps_by_loop(sched, steps), (T, steps)
        assert all(type(t) is int for t in got)


def test_dpm_zero_model_is_pure_rescaling():
    sched = make_schedule(400, 1e-4, 0.02)
    bundle = stub_bundle(lambda x, t, c: np.zeros_like(x), sched, width=4)
    out = dpm_solve(bundle, 2, np.random.default_rng(4), gamma=0.0, steps=25, order=2)
    x_T = np.random.default_rng(4).standard_normal((2, 4))
    assert np.allclose(out, x_T / np.sqrt(sched.alpha_bar[-1]), atol=1e-9)


def test_dpm_order1_full_grid_matches_deterministic_ancestral():
    # exact stepwise agreement with the eta=0 chain, for an arbitrary model
    sched = make_schedule(40, 1e-3, 0.08)
    model = Denoiser(seed=5, base=4, groups=2, emb_dim=8)
    rng = np.random.default_rng(9)
    for p in model.named_params().values():
        p.data = p.data + 0.05 * rng.standard_normal(p.data.shape)
    bundle = DiffusionBundle(model=model, sched=sched, width=4)
    anc = ancestral_sample(bundle, 3, np.random.default_rng(3), gamma=1.5, eta=0.0)
    ode = dpm_solve(bundle, 3, np.random.default_rng(3), gamma=1.5, steps=40, order=1)
    assert np.max(np.abs(anc - ode)) < 1e-6


def test_dpm_linear_model_matches_rk4_oracle():
    # eps(x) = x gives dy/dlam = -exp(-lam) * alpha(lam) * y with x = alpha*y
    # and alpha(lam) = 1/sqrt(1 + exp(-2 lam)); integrate with RK4 at high
    # resolution, then apply the same final denoise step.
    sched = make_schedule(1000, 1e-4, 0.02)
    bundle = stub_bundle(lambda x, t, c: x, sched, width=4)
    x_T = np.random.default_rng(12).standard_normal((2, 4))
    got = dpm_solve(bundle, 2, np.random.default_rng(0), gamma=0.0, steps=300, order=2,
                    x_init=x_T)

    lam_T = float(sched.lambda_at(sched.T))
    lam_1 = float(sched.lambda_at(1))

    def alpha_of(lam):
        return 1.0 / np.sqrt(1.0 + np.exp(-2.0 * lam))

    def deriv(lam, y):
        return -np.exp(-lam) * alpha_of(lam) * y

    steps = 20_000
    h = (lam_1 - lam_T) / steps
    y = x_T / alpha_of(lam_T)
    lam = lam_T
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


def test_dpm_deterministic_after_initial_draw():
    sched = make_schedule(100, 1e-3, 0.05)
    bundle = stub_bundle(lambda x, t, c: 0.3 * x, sched, width=6)
    x_T = np.random.default_rng(1).standard_normal((2, 6))
    a = dpm_solve(bundle, 2, np.random.default_rng(10), gamma=0.0, x_init=x_T)
    b = dpm_solve(bundle, 2, np.random.default_rng(99), gamma=0.0, x_init=x_T)
    assert np.array_equal(a, b)


def test_dpm_quality_tracks_ancestral_on_trained_model(golden_bundle, golden_dataset,
                                                       golden_fused):
    # binarized 25-step outputs sit within 10% of the full chain's mean
    # Hamming distance to the real failing rows
    cols = [s - 1 for s in golden_fused.stm_fusion]
    fail_rows = golden_dataset.matrix[golden_dataset.errors == 1][:, cols]

    def mean_hamming(bits):
        return float(np.mean([min(np.sum(np.abs(b - fr)) for fr in fail_rows)
                              for b in bits]))

    gamma = 4.0
    fast = binarize(dpm_solve(golden_bundle, 250, np.random.default_rng(5),
                              gamma=gamma, steps=25, order=2))
    slow = binarize(ancestral_sample(golden_bundle, 250, np.random.default_rng(5),
                                     gamma=gamma))
    d_fast = mean_hamming(fast)
    d_slow = mean_hamming(slow)
    assert abs(d_fast - d_slow) <= 0.10 * d_slow
