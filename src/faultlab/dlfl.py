"""A minimal learned localizer (feed-forward, coverage row -> P(fail)).

After training, statement suspiciousness is the model's output on the
one-hot virtual test that covers exactly that statement.

Training minimizes the mean binary cross-entropy with logits,
mean(softplus(z) - y*z), by full-batch AdamW.  Each step writes the
forward and backward pass of the three sigmoid layers out in closed form
with plain numpy instead of recording an autodiff tape, and writes the
six gradients straight into the optimizer's flat gradient buffer.  It uses
the same array operations in the same order as the tape would, so the
trained weights are bit-identical to tape-driven training, at a fraction
of the interpreter cost.  Scoring runs the `Dense` layers on plain arrays
and builds no tape either.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingleClassDataset
from .neural import AdamW, Dense
from .neural.layers import Module, _sigmoid
from .spectra import CoverageDataset


HIDDEN = 64                     # width of both hidden layers
LR = 3e-3                       # AdamW learning rate
WEIGHT_DECAY = 0.0              # AdamW decoupled weight decay


@dataclass
class MlpFlConfig:
    steps: int = 2000
    seed: int = 0


class MlpFlModel(Module):
    def __init__(self, rng, width: int, hidden: int = HIDDEN):
        self.width = width
        self.fc1 = Dense(rng, width, hidden)
        self.fc2 = Dense(rng, hidden, hidden)
        self.fc3 = Dense(rng, hidden, 1)

    def logits(self, x: np.ndarray) -> np.ndarray:
        h, _ = self.fc1(x)
        h, _ = self.fc2(_sigmoid(h))
        z, _ = self.fc3(_sigmoid(h))
        return z

    def predict_proba(self, rows: np.ndarray) -> np.ndarray:
        return _sigmoid(self.logits(np.asarray(rows, dtype=np.float64))).reshape(-1)


def _one_plus_exp_neg_(a: np.ndarray) -> np.ndarray:
    """1 + exp(-a), computed in a's own buffer."""
    np.negative(a, out=a)
    np.exp(a, out=a)
    a += 1.0
    return a


def _sigmoid_(a: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-a)), computed in a's own buffer."""
    return np.divide(1.0, _one_plus_exp_neg_(a), out=a)


def train_mlpfl(dataset: CoverageDataset, cfg: MlpFlConfig | None = None) -> MlpFlModel:
    """Fit failure probability by binary cross-entropy over coverage rows."""
    cfg = cfg or MlpFlConfig()
    y = dataset.errors.astype(np.float64)
    if y.min() == y.max():
        raise SingleClassDataset("training data holds a single class")
    rng = np.random.default_rng(cfg.seed)
    model = MlpFlModel(rng, dataset.num_statements)
    opt = AdamW(model.named_params(), lr=LR, weight_decay=WEIGHT_DECAY)
    x = dataset.matrix.astype(np.float64)
    y = y.reshape(-1, 1)
    # d(mean)/d(row loss), as the tape's backward of `.mean()` produces it
    g = np.broadcast_to(1.0 * (1.0 / y.size), y.shape).copy()
    # fc1.w, fc1.b, ..., fc3.b: views into the optimizer's parameter buffer,
    # updated in place, and into its gradient buffer, written in place.
    w1, b1, w2, b2, w3, b3 = (p.data for p in opt.params.values())
    gw1, gb1, gw2, gb2, gw3, gb3 = opt.grad_views().values()
    gy = (-g) * y          # the y*z node's share of d/dz, the same every step
    for _ in range(cfg.steps):
        h1 = _sigmoid_(x @ w1 + b1)
        h2 = _sigmoid_(h1 @ w2 + b2)
        z = h2 @ w3 + b3
        # d/dz of softplus(z) - y*z: one term from each of the tape's nodes
        g3 = g / _one_plus_exp_neg_(z)
        g3 += gy
        g2 = g3 @ w3.T
        g2 *= h2
        g2 *= 1.0 - h2
        g1 = g2 @ w2.T
        g1 *= h1
        g1 *= 1.0 - h1
        np.matmul(x.T, g1, out=gw1)
        np.add.reduce(g1, axis=0, out=gb1)
        np.matmul(h1.T, g2, out=gw2)
        np.add.reduce(g2, axis=0, out=gb2)
        np.matmul(h2.T, g3, out=gw3)
        np.add.reduce(g3, axis=0, out=gb3)
        opt.step(flat_grad=True)
    return model


def virtual_suspiciousness(model: MlpFlModel) -> np.ndarray:
    """Score statement j as the model's output on the one-hot row e_j."""
    eye = np.eye(model.width, dtype=np.float64)
    return model.predict_proba(eye)
