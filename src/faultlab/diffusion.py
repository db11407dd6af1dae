"""Gaussian diffusion over coverage rows: schedules, training, sampling.

Rows enter as bits, are encoded to {-1,+1}, and are generated back through
either ancestral sampling or a fast log-SNR ODE integrator.  Conditioning
is classifier-free: training drops the class label with probability
P_UNCOND, and generation blends conditional and unconditional noise
predictions as (1+gamma)*eps_c - gamma*eps_u.

The ancestral update is implemented in the generalized-variance form

    x_{t-1} = sqrt(abar_{t-1}) * x0_hat + sqrt(1 - abar_{t-1} - s^2) * eps_hat + s*z,
    s = eta * sigma_t

which at eta=1 is algebraically identical to the posterior-mean update
mu = (x_t - beta_t/sqrt(1-abar_t) * eps_hat)/sqrt(alpha_t) plus sigma_t*z,
and at eta=0 is the deterministic chain that the order-1 ODE solver
reproduces step for step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyBatch, InvalidOrder, InvalidRange, TimestepOutOfRange
from .neural import AdamW, Denoiser, FAIL_CLASS, NULL_CLASS


@dataclass
class NoiseSchedule:
    T: int
    beta: np.ndarray           # (T,) beta_1..beta_T
    alpha: np.ndarray          # 1 - beta
    alpha_bar: np.ndarray      # cumulative product
    sigma2: np.ndarray         # posterior variances, sigma2[0] uses abar_0 = 1

    def alpha_bar_prev(self, t: int) -> float:
        return 1.0 if t <= 1 else float(self.alpha_bar[t - 2])

    def log_alpha_bar_at(self, t) -> np.ndarray:
        """log(abar) at possibly fractional t, linear between grid points."""
        t = np.asarray(t, dtype=np.float64)
        grid_t = np.arange(0, self.T + 1, dtype=np.float64)
        grid_la = np.concatenate([[0.0], np.log(self.alpha_bar)])
        return np.interp(t, grid_t, grid_la)

    def lambda_at(self, t) -> np.ndarray:
        """Half log-SNR: log(sqrt(abar) / sqrt(1 - abar))."""
        la = self.log_alpha_bar_at(t)
        abar = np.exp(la)
        return 0.5 * (la - np.log(1.0 - abar))

    def t_of_lambda(self, lam) -> np.ndarray:
        """Inverse of lambda_at on [1, T] by interpolation on a dense grid."""
        ts = np.linspace(1.0, float(self.T), 4 * self.T)
        lams = self.lambda_at(ts)
        # lambda decreases with t; np.interp wants ascending x
        return np.interp(lam, lams[::-1], ts[::-1])


def make_schedule(T: int, beta1: float, betaT: float) -> NoiseSchedule:
    if T < 2:
        raise InvalidRange("need at least 2 diffusion steps")
    if not (0.0 < beta1 <= betaT < 1.0):
        raise InvalidRange(f"require 0 < beta1 <= betaT < 1, got {beta1}, {betaT}")
    beta = np.linspace(beta1, betaT, T, dtype=np.float64)
    alpha = 1.0 - beta
    alpha_bar = np.cumprod(alpha)
    tiny = np.finfo(np.float64).tiny
    if alpha_bar[-1] < tiny:
        raise InvalidRange(f"alpha_bar underflows: {T} steps over beta {beta1}..{betaT} "
                           f"take it to {alpha_bar[-1]:.3g}, below {tiny:.3g}")
    abar_prev = np.concatenate([[1.0], alpha_bar[:-1]])
    sigma2 = (1.0 - abar_prev) / (1.0 - alpha_bar) * beta
    return NoiseSchedule(T=T, beta=beta, alpha=alpha, alpha_bar=alpha_bar, sigma2=sigma2)


def _check_t(t, T):
    t = np.asarray(t)
    if np.any(t < 1) or np.any(t > T):
        raise TimestepOutOfRange(f"timestep outside 1..{T}")
    return t


def q_sample(x0: np.ndarray, t, eps: np.ndarray, sched: NoiseSchedule) -> np.ndarray:
    """Closed-form forward noising: sqrt(abar_t) x0 + sqrt(1-abar_t) eps."""
    t = _check_t(t, sched.T)
    abar = sched.alpha_bar[t - 1]
    if abar.ndim == 1 and np.asarray(x0).ndim == 2:
        abar = abar[:, None]
    return np.sqrt(abar) * x0 + np.sqrt(1.0 - abar) * eps


P_UNCOND = 0.1                   # probability of training on the null label
PATIENCE = 50                    # stale epochs that end training on a plateau
MAX_STEPS = 100_000              # most diffusion steps a run accepts (the paper: 1,000)


@dataclass
class TrainConfig:
    steps: int = 1000            # diffusion steps T
    lr: float = 3e-4
    op: str = "adamw"            # optimizer; AdamW is the only one
    beta1: float = 1e-4
    betaT: float = 0.02
    alpha: float = 1.0           # fusion ratio, passed to context.fuse
    gamma: float = 2.0           # guidance scale
    epochs: int = 400
    sample_steps: int = 25
    sample_order: int = 2
    reject_empty: bool = False
    eval_space: str = "full"
    fail_cap: int | None = None  # max failing tests used for slicing


@dataclass
class DiffusionBundle:
    """Trained generator: schedule + denoiser over `width` columns."""
    model: Denoiser
    sched: NoiseSchedule
    width: int
    losses: list[float] = field(default_factory=list)


def encode_bits(rows: np.ndarray) -> np.ndarray:
    """{0,1} -> {-1,+1} in float64."""
    return np.asarray(rows, dtype=np.float64) * 2.0 - 1.0


def apply_label_dropout(labels: np.ndarray, p_uncond: float,
                        rng: np.random.Generator) -> np.ndarray:
    """Replace each label by the null token with probability p_uncond."""
    labels = np.asarray(labels, dtype=np.intp).copy()
    drop = rng.random(labels.shape) < p_uncond
    labels[drop] = NULL_CLASS
    return labels


def train_step(model: Denoiser, opt: AdamW, batch_x: np.ndarray,
               labels: np.ndarray, sched: NoiseSchedule,
               rng: np.random.Generator) -> float:
    """One noise-prediction step; loss is mean over rows of ||eps - pred||^2."""
    batch_x = np.asarray(batch_x, dtype=np.float64)
    if batch_x.size == 0:
        raise EmptyBatch("empty training batch")
    n, width = batch_x.shape
    t = rng.integers(1, sched.T + 1, size=n)
    eps = rng.standard_normal((n, width))
    cond = apply_label_dropout(labels, P_UNCOND, rng)
    x_t = q_sample(batch_x, t, eps, sched)
    pred = model(x_t, t, cond)
    # The loss and its gradient in the order the autodiff tape took them:
    # d loss / d diff reaches `diff` once per factor of the square.
    diff = pred.data.reshape(n, width) - eps
    loss = (diff * diff).sum(axis=1).sum() * (1.0 / n)
    term = (1.0 / n) * diff
    grad = term + term
    opt.zero_grad()
    pred.backward(grad.reshape(pred.shape))
    opt.step()
    return float(loss)


def train(rows01: np.ndarray, labels: np.ndarray, cfg: TrainConfig,
          rng: np.random.Generator) -> DiffusionBundle:
    """Train a denoiser on bit rows with pass/fail labels, one full-batch
    step per epoch."""
    rows01 = np.asarray(rows01)
    if rows01.size == 0:
        raise EmptyBatch("no rows to train on")
    width = rows01.shape[1]
    sched = make_schedule(cfg.steps, cfg.beta1, cfg.betaT)
    init_seed = int(rng.integers(0, 2**31 - 1))
    model = Denoiser(seed=init_seed)
    opt = AdamW(model.named_params(), lr=cfg.lr)
    x = encode_bits(rows01)
    labels = np.asarray(labels, dtype=np.intp)

    losses: list[float] = []
    best = np.inf
    stale = 0
    window = 100
    for epoch in range(cfg.epochs):
        losses.append(train_step(model, opt, x, labels, sched, rng))
        # Per-step losses are noisy (random t and noise draws), so the
        # plateau check tracks a trailing moving average.
        if epoch >= window:
            avg = float(np.mean(losses[-window:]))
            if avg < best - 1e-4:
                best = avg
                stale = 0
            else:
                stale += 1
                if stale >= PATIENCE:
                    break
    return DiffusionBundle(model=model, sched=sched, width=width, losses=losses)


def guided_eps(model: Denoiser, x_t: np.ndarray, t, c, gamma: float) -> np.ndarray:
    """Classifier-free guided prediction (1+g)*eps_cond - g*eps_uncond."""
    x_t = np.asarray(x_t, dtype=np.float64)
    n = x_t.shape[0]
    t = np.broadcast_to(np.asarray(t, dtype=np.float64).ravel(), (n,))
    c = np.broadcast_to(np.asarray(c, dtype=np.intp).ravel(), (n,))
    if gamma == 0.0:
        return model.predict(x_t, t, c)
    # conditional and unconditional branches share one batched forward
    both = model.predict(
        np.concatenate([x_t, x_t]),
        np.concatenate([t, t]),
        np.concatenate([c, np.full(n, NULL_CLASS, dtype=np.intp)]),
    )
    eps_c, eps_u = both[:n], both[n:]
    return (1.0 + gamma) * eps_c - gamma * eps_u


def ancestral_sample(bundle: DiffusionBundle, n_samples: int,
                     rng: np.random.Generator, label: int = FAIL_CLASS, *,
                     gamma: float, eta: float = 1.0) -> np.ndarray:
    """Full-length reverse chain from pure noise; (n_samples, width) output."""
    sched = bundle.sched
    x = rng.standard_normal((n_samples, bundle.width))
    for t in range(sched.T, 0, -1):
        eps_hat = guided_eps(bundle.model, x, t, label, gamma)
        abar = sched.alpha_bar[t - 1]
        abar_prev = sched.alpha_bar_prev(t)
        x0_hat = (x - np.sqrt(1.0 - abar) * eps_hat) / np.sqrt(abar)
        sigma = eta * np.sqrt(sched.sigma2[t - 1])
        coef = np.sqrt(max(1.0 - abar_prev - sigma * sigma, 0.0))
        x = np.sqrt(abar_prev) * x0_hat + coef * eps_hat
        if t > 1 and sigma > 0.0:
            x = x + sigma * rng.standard_normal(x.shape)
    return x


def dpm_timesteps(sched: NoiseSchedule, steps: int) -> list[int]:
    """Integer timesteps T..1, approximately uniform in half log-SNR.  Fewer
    than two steps still spans one ODE interval, T to 1."""
    if steps < 2:
        return [sched.T, 1]
    if steps >= sched.T:
        return list(range(sched.T, 0, -1))
    lam_T = float(sched.lambda_at(sched.T))
    lam_1 = float(sched.lambda_at(1))
    targets = np.linspace(lam_T, lam_1, steps)
    ts = np.rint(sched.t_of_lambda(targets)).astype(int)
    ts = np.clip(ts, 1, sched.T)
    ts[0] = sched.T
    ts[-1] = 1
    # The grid falls monotonically from T to 1; keep each timestep once.
    # (np.unique would give the same list, but imports numpy.ma, 1.6 MB.)
    return sorted(set(ts.tolist()), reverse=True)


def dpm_solve(bundle: DiffusionBundle, n_samples: int, rng: np.random.Generator,
              label: int = FAIL_CLASS, *, gamma: float,
              steps: int = 25, order: int = 2,
              x_init: np.ndarray | None = None) -> np.ndarray:
    """Deterministic fast sampler for the diffusion ODE in log-SNR time.

    Each interval predicts the noise at its left end, t_cur.  Order 2 then
    moves to the log-SNR midpoint and predicts again there; either way one
    update carries x to t_next.  After reaching t=1 the final
    x0-prediction denoise is applied.  Apart from the initial draw the
    trajectory is deterministic.
    """
    if order not in (1, 2):
        raise InvalidOrder(f"order must be 1 or 2, got {order}")
    sched = bundle.sched
    if x_init is None:
        x = rng.standard_normal((n_samples, bundle.width))
    else:
        x = np.array(x_init, dtype=np.float64)

    def alpha_sigma(t):
        la = float(sched.log_alpha_bar_at(t))
        a = np.exp(0.5 * la)
        return a, np.sqrt(1.0 - a * a)

    ts = dpm_timesteps(sched, steps)
    for t_cur, t_next in zip(ts[:-1], ts[1:]):
        lam_c = float(sched.lambda_at(t_cur))
        lam_n = float(sched.lambda_at(t_next))
        h = lam_n - lam_c
        a_c, _ = alpha_sigma(t_cur)
        a_n, s_n = alpha_sigma(t_next)
        eps = guided_eps(bundle.model, x, t_cur, label, gamma)
        if order == 2:
            t_mid = float(sched.t_of_lambda(0.5 * (lam_c + lam_n)))
            a_m, s_m = alpha_sigma(t_mid)
            u = (a_m / a_c) * x - s_m * np.expm1(h / 2.0) * eps
            eps = guided_eps(bundle.model, u, t_mid, label, gamma)
        x = (a_n / a_c) * x - s_n * np.expm1(h) * eps

    eps = guided_eps(bundle.model, x, 1, label, gamma)
    abar1 = sched.alpha_bar[0]
    return (x - np.sqrt(1.0 - abar1) * eps) / np.sqrt(abar1)
