"""A minimal learned localizer (feed-forward, coverage row -> P(fail)).

After training, statement suspiciousness is the model's output on the
one-hot virtual test that covers exactly that statement.

Training minimizes the mean binary cross-entropy with logits,
mean(softplus(z) - y*z), by full-batch AdamW.  Each step writes the
forward and backward pass of the three sigmoid layers out in closed form
with plain numpy instead of recording an autodiff tape.  It uses the same
array operations in the same order as the tape would, so the trained
weights are bit-identical to tape-driven training, at a fraction of the
interpreter cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingleClassDataset
from .neural import AdamW, Dense, Tensor
from .neural.layers import Module
from .spectra import CoverageDataset


@dataclass
class MlpFlConfig:
    hidden: int = 64
    lr: float = 3e-3
    steps: int = 2000
    weight_decay: float = 0.0
    seed: int = 0


class MlpFlModel(Module):
    checkpoint_args = ("width", "hidden")

    def __init__(self, rng, width: int, hidden: int = 64):
        self.width = width
        self.hidden = hidden
        self.fc1 = Dense(rng, width, hidden)
        self.fc2 = Dense(rng, hidden, hidden)
        self.fc3 = Dense(rng, hidden, 1)

    def logits(self, x: Tensor) -> Tensor:
        h = self.fc1(x).sigmoid()
        h = self.fc2(h).sigmoid()
        return self.fc3(h)

    def predict_proba(self, rows: np.ndarray) -> np.ndarray:
        x = Tensor(np.asarray(rows, dtype=np.float64))
        out = self.logits(x).sigmoid()
        return out.data.reshape(-1)

    @classmethod
    def _blank(cls, **args):
        return cls(np.random.default_rng(0), **args)


def train_mlpfl(dataset: CoverageDataset, cfg: MlpFlConfig | None = None) -> MlpFlModel:
    """Fit failure probability by binary cross-entropy over coverage rows."""
    cfg = cfg or MlpFlConfig()
    y = dataset.errors.astype(np.float64)
    if y.min() == y.max():
        raise SingleClassDataset("training data holds a single class")
    rng = np.random.default_rng(cfg.seed)
    model = MlpFlModel(rng, dataset.num_statements, cfg.hidden)
    opt = AdamW(model.named_params(), lr=cfg.lr, weight_decay=cfg.weight_decay)
    x = dataset.matrix.astype(np.float64)
    y = y.reshape(-1, 1)
    # d(mean)/d(row loss), as the tape's backward of `.mean()` produces it
    g = np.broadcast_to(1.0 * (1.0 / y.size), y.shape).copy()
    fc1, fc2, fc3 = model.fc1, model.fc2, model.fc3
    for _ in range(cfg.steps):
        h1 = 1.0 / (1.0 + np.exp(-(x @ fc1.w.data + fc1.b.data)))
        h2 = 1.0 / (1.0 + np.exp(-(h1 @ fc2.w.data + fc2.b.data)))
        z = h2 @ fc3.w.data + fc3.b.data
        # d/dz of softplus(z) - y*z: one term from each of the tape's nodes
        g3 = g / (1.0 + np.exp(-z)) + (-g) * y
        g2 = (g3 @ np.swapaxes(fc3.w.data, -1, -2)) * h2 * (1.0 - h2)
        g1 = (g2 @ np.swapaxes(fc2.w.data, -1, -2)) * h1 * (1.0 - h1)
        for fc, h, grad in ((fc1, x, g1), (fc2, h1, g2), (fc3, h2, g3)):
            fc.w.grad = np.swapaxes(h, -1, -2) @ grad
            fc.b.grad = grad.sum(axis=0)
        opt.step()
    return model


def final_loss(model: MlpFlModel, dataset: CoverageDataset) -> float:
    z = model.logits(Tensor(dataset.matrix.astype(np.float64)))
    y = Tensor(dataset.errors.astype(np.float64).reshape(-1, 1))
    return float((z.softplus() - y * z).mean().data)


def virtual_suspiciousness(model: MlpFlModel) -> np.ndarray:
    """Score statement j as the model's output on the one-hot row e_j."""
    eye = np.eye(model.width, dtype=np.float64)
    return model.predict_proba(eye)
