"""Workload `pcd-imbalanced`: severe imbalance, 1:20.

Inputs: one version each of the shipped `masked_scale` and `chain`
templates, each with 2 failing and 40 passing tests, drawn from
substreams of the seed.  Both give a fused width of 4 on every seed
tried (`branch_flip` gives 4 or 6 by seed, which moved peak memory by
10% and run time with it).  Scenario `pcd` with empty-row rejection, 60
epochs, methods `gp02,mlpfl`.  Training runs at a batch of 42 rows,
sampling draws tens of rows per version without gradients, and the MLP
localizer is fitted on each rebalanced set.
"""

import numpy as np

from faultlab import corpus
from faultlab.diffusion import TrainConfig
from faultlab.errors import TemplateError
from faultlab.pipeline import RunConfig

NAME = "pcd-imbalanced"
CHECKS = ("coverage", "scores", "slicing", "eigenvalues", "fusion", "balance",
          "training", "report_cells", "mlp_scores", "reproducible")
TEMPLATE_NAMES = ("masked_scale", "chain")
N_FAIL, N_PASS = 2, 40
MAX_ATTEMPTS = 20


def prepare(seed: int, smoke: bool):
    return TEMPLATE_NAMES[:1] if smoke else TEMPLATE_NAMES


def setup(names, seed: int, corpus_dir: str):
    makers = {m.__name__.lstrip("_"): m for m in corpus.TEMPLATES}
    versions = []
    for i, name in enumerate(names):
        # Some draws of a template cannot supply 40 distinct passing inputs
        # (TemplateError); like generate_corpus, move on to the next substream.
        for attempt in range(MAX_ATTEMPTS):
            rng = np.random.default_rng([seed, i, attempt])
            try:
                versions.append(corpus.make_version(f"v{i:03d}_{name}", makers[name](rng),
                                                    rng, N_FAIL, N_PASS))
                break
            except TemplateError:
                if attempt == MAX_ATTEMPTS - 1:
                    raise
    corpus.write_corpus(versions, corpus_dir)
    return corpus.load_corpus(corpus_dir)


def config(corpus_dir: str, seed: int, smoke: bool) -> RunConfig:
    return RunConfig(corpus=corpus_dir, scenarios=("pcd",), methods=("gp02", "mlpfl"),
                     seed=seed,
                     train=TrainConfig(epochs=20 if smoke else 60, reject_empty=True))
