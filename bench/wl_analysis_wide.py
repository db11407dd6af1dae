"""Workload `analysis-wide`: wide programs, large suites, no diffusion.

Inputs: programs generated by widegen.py from the seed, one per entry of
`sizes()` (48-64 statements), each with one seeded single-token fault and
a suite of 4 failing and 100 passing tests drawn by the program's own
suite builder.  Scenarios `origin,undersample,resample` with
`eval_space=context`, so slicing and the principal context run for every
version, and the four formulas.  No neural code runs.
"""

from faultlab.corpus import load_corpus, write_corpus
from faultlab.diffusion import TrainConfig
from faultlab.minilang import parse
from faultlab.pipeline import SPECTRUM_METHODS, RunConfig

import widegen

NAME = "analysis-wide"
CHECKS = ("coverage", "scores", "slicing", "eigenvalues", "fusion", "balance",
          "report_cells", "reproducible")


def sizes(smoke: bool) -> tuple[int, ...]:
    # A fixed size mix: the eigensolver's cost grows steeply with width, so
    # drawing sizes from the seed would make run time depend on the seed.
    return (48, 56) if smoke else tuple(range(48, 65))


def prepare(seed: int, smoke: bool):
    return [widegen.make_spec(seed, i, n, parse) for i, n in enumerate(sizes(smoke))]


def setup(specs, seed: int, corpus_dir: str):
    write_corpus(widegen.build_versions(specs), corpus_dir)
    return load_corpus(corpus_dir)


def config(corpus_dir: str, seed: int, smoke: bool) -> RunConfig:
    return RunConfig(corpus=corpus_dir, scenarios=("origin", "undersample", "resample"),
                     methods=SPECTRUM_METHODS, seed=seed,
                     train=TrainConfig(eval_space="context"))
