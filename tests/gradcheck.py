"""Finite-difference verification of analytic gradients."""

from __future__ import annotations

import numpy as np

from faultlab.neural import Tensor


def grad_check(loss_fn, params: dict[str, Tensor], step: float = 1e-5,
               limit_per_param: int | None = None,
               rng: np.random.Generator | None = None) -> float:
    """Max relative error between analytic and central-difference gradients.

    loss_fn() must rebuild the scalar loss from the current parameter
    values.  When limit_per_param is set, that many coordinates are
    sampled per parameter instead of sweeping all of them.
    """
    for p in params.values():
        p.grad = None
    loss = loss_fn()
    loss.backward()
    analytic = {k: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for k, p in params.items()}

    worst = 0.0
    for name, p in params.items():
        flat = p.data.reshape(-1)
        idxs = range(flat.size)
        if limit_per_param is not None and flat.size > limit_per_param:
            gen = rng if rng is not None else np.random.default_rng(0)
            idxs = gen.choice(flat.size, size=limit_per_param, replace=False)
        for i in idxs:
            keep = flat[i]
            flat[i] = keep + step
            up = float(loss_fn().data)
            flat[i] = keep - step
            down = float(loss_fn().data)
            flat[i] = keep
            numeric = (up - down) / (2.0 * step)
            exact = analytic[name].reshape(-1)[i]
            denom = max(abs(numeric), abs(exact), 1.0)
            worst = max(worst, abs(numeric - exact) / denom)
    return worst
