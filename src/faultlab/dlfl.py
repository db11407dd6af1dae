"""A minimal learned localizer (feed-forward, coverage row -> P(fail)).

After training, statement suspiciousness is the model's output on the
one-hot virtual test that covers exactly that statement.

Training minimizes the mean binary cross-entropy with logits,
mean(softplus(z) - y*z), by full-batch AdamW.  The forward pass of the
three sigmoid layers is written once, `MlpFlModel.forward`, and serves
both a training step and scoring.  Each step writes the backward pass out
in closed form with plain numpy and writes the six gradients straight
into the optimizer's flat gradient buffer.  It uses the same array
operations in the same order as an autodiff tape would, so the trained
weights are bit-identical to tape-driven training, at a fraction of the
interpreter cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingleClassDataset
from .neural import AdamW, Dense
from .neural.layers import Module
from .spectra import CoverageDataset


HIDDEN = 64                     # width of both hidden layers
LR = 3e-3                       # AdamW learning rate
WEIGHT_DECAY = 0.0              # AdamW decoupled weight decay


@dataclass
class MlpFlConfig:
    steps: int = 2000
    seed: int = 0


def _one_plus_exp_neg_(a: np.ndarray) -> np.ndarray:
    """1 + exp(-a), computed in a's own buffer."""
    np.negative(a, out=a)
    np.exp(a, out=a)
    a += 1.0
    return a


def _sigmoid_(a: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-a)), computed in a's own buffer."""
    return np.divide(1.0, _one_plus_exp_neg_(a), out=a)


class MlpFlModel(Module):
    def __init__(self, rng, width: int, hidden: int = HIDDEN):
        self.width = width
        self.fc1 = Dense(rng, width, hidden)
        self.fc2 = Dense(rng, hidden, hidden)
        self.fc3 = Dense(rng, hidden, 1)

    def forward(self, x: np.ndarray):
        """(h1, h2, z): both hidden layers' activations and the logits."""
        h1 = _sigmoid_(self.fc1(x)[0])
        h2 = _sigmoid_(self.fc2(h1)[0])
        return h1, h2, self.fc3(h2)[0]

    def logits(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)[2]

    def predict_proba(self, rows: np.ndarray) -> np.ndarray:
        return _sigmoid_(self.logits(np.asarray(rows, dtype=np.float64))).reshape(-1)


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
    # The weights are views into the optimizer's parameter buffer, updated
    # in place, and the gradients of fc1.w, fc1.b, ..., fc3.b views into
    # its gradient buffer, written in place.
    w2, w3 = model.fc2.w.data, model.fc3.w.data
    gw1, gb1, gw2, gb2, gw3, gb3 = opt.grad_views().values()
    gy = (-g) * y          # the y*z node's share of d/dz, the same every step
    for _ in range(cfg.steps):
        h1, h2, z = model.forward(x)
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
