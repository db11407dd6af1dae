"""Wide programs for the `analysis-wide` workload.

Each program has a fixed statement count between 48 and 64: six input
copies, nested input-dependent branches (some with else arms) and bounded
loops whose trip count depends on an input, then four outputs.  Many
branches split the suite differently, so most coverage columns vary and
the covariance the principal context decomposes is dense.

One assignment inside a branch carries a single-token fault (off-by-one
or constant replacement of its only integer literal).  A fault is kept
only if the benchmark's own interpreter (oracle.py) shows that it fails
on 5-20% of random inputs, that the program's own suite builder fills its
quota of failing and passing tests, and that the failing tests' slices,
recomputed by oracle.py, cover at least six statements.

Regenerate the programs and suites of one seed as a corpus directory:

    python3 bench/widegen.py --seed 1 --out bench/out/wide-corpus
"""

from __future__ import annotations

import argparse
import copy
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle

INPUTS = tuple(f"a{i}" for i in range(6))
VARS = tuple(f"v{i}" for i in range(6))
N_FAIL, N_PASS = 4, 100
SCREEN_DRAWS = 80
MIN_SLICE = 6
# The eigensolver's cost grows with the number of varying coverage columns,
# so each program is held to a fixed share of them, within one column.
VARYING_SHARE = 0.62


def sample_inputs(r: np.random.Generator) -> dict[str, int]:
    return {name: int(r.integers(0, 10)) for name in INPUTS}


@dataclass
class WideSpec:
    version_id: str
    source: str
    target: int                   # statement index of the fault
    kind: str                     # off-by-one | constant-replacement
    payload: str
    suite_rng: np.random.Generator  # state the suite builder must start from


class _Writer:
    def __init__(self, rng: np.random.Generator, size: int):
        self.rng = rng
        self.size = size - len(VARS) - 4     # body statements after inits, before outputs
        self.lines: list[str] = []
        self.count = 0
        self.candidates: list[tuple[int, int]] = []   # (statement index, line number)
        self.loops = 0

    def pick(self, seq):
        return seq[int(self.rng.integers(0, len(seq)))]

    def assign(self, indent: str, conditional: bool) -> None:
        target, other, inp = self.pick(VARS), self.pick(VARS), self.pick(INPUTS)
        k = int(self.rng.integers(1, 4))
        form = int(self.rng.integers(0, 3))
        expr = (f"{other} + {inp} * {k}", f"{other} - {inp} + {k}",
                f"{inp} * {k} - {other}")[form]
        self.count += 1
        self.lines.append(f"{indent}{target} = {expr}")
        if conditional:
            self.candidates.append((len(VARS) + self.count, len(VARS) + len(self.lines)))

    def block(self, depth: int, budget: int) -> None:
        """Emit exactly `budget` statements at nesting `depth`."""
        indent = "  " * depth
        while budget > 0:
            # Top-level statements run in every test and give constant
            # coverage columns, so the top level is mostly branches.
            roll = self.rng.random() * (1.0 if depth == 0 else 1.4)
            if budget >= 4 and roll < 0.15 and depth < 2:
                ctr = f"c{self.loops}"
                self.loops += 1
                self.lines.append(f"{indent}{ctr} = {self.pick(INPUTS)} % 4")
                self.lines.append(f"{indent}while {ctr} > 0 {{")
                self.count += 2
                self.assign(indent + "  ", conditional=False)
                self.lines.append(f"{indent}  {ctr} = {ctr} - 1")
                self.lines.append(f"{indent}}}")
                self.count += 1
                budget -= 4
            elif budget >= 2 and roll < 0.95 and depth < 3:
                inner = int(self.rng.integers(1, min(budget - 1, 10) + 1))
                other = inner - 1 if inner >= 3 and self.rng.random() < 0.4 else 0
                inner -= other
                subject = self.pick(INPUTS) if self.rng.random() < 0.85 else self.pick(VARS)
                self.lines.append(f"{indent}if {subject} > {int(self.rng.integers(2, 7))} {{")
                self.count += 1
                self.block(depth + 1, inner)
                if other:
                    self.lines.append(f"{indent}}} else {{")
                    self.block(depth + 1, other)
                self.lines.append(f"{indent}}}")
                budget -= 1 + inner + other
            else:
                self.assign(indent, conditional=depth > 0)
                budget -= 1

    def source(self) -> str:
        inits = [f"{v} = {a} + {int(self.rng.integers(1, 6))}" for v, a in zip(VARS, INPUTS)]
        self.block(0, self.size)
        outs = [f"output({v})" for v in VARS[:4]]
        return "\n".join(inits + self.lines + outs) + "\n"


def _mutate(source: str, line_no: int, kind: str, payload: str) -> str:
    lines = source.splitlines()
    head, literal, tail = re.split(r"\b(\d+)\b", lines[line_no - 1], maxsplit=1)
    value = int(literal)
    new = value + int(payload) if kind == "off-by-one" else int(payload)
    lines[line_no - 1] = f"{head}{new}{tail}"
    return "\n".join(lines) + "\n"


def _coverage(size: int, runs) -> np.ndarray:
    matrix = np.zeros((len(runs), size), dtype=np.int8)
    for i, r in enumerate(runs):
        matrix[i, [s - 1 for s in r.covered]] = 1
    return matrix


def _varying(matrix: np.ndarray) -> int:
    """Coverage columns that differ across tests (those the PCA works on)."""
    return int((matrix.min(axis=0) != matrix.max(axis=0)).sum())


def make_spec(seed: int, index: int, size: int, parse) -> WideSpec:
    """One validated wide program; `parse` is the library's parser."""
    from faultlab.errors import TemplateError
    varying = round(VARYING_SHARE * size)
    for attempt in range(1000):
        rng = np.random.default_rng([seed, index, attempt])
        writer = _Writer(rng, size)
        source = writer.source()
        program = parse(source)
        if program.size != size:
            raise AssertionError(f"generator produced {program.size} statements, wanted {size}")
        screen = [sample_inputs(rng) for _ in range(SCREEN_DRAWS)]
        refs = [oracle.run(program, x) for x in screen]
        if (any(r.fault is not None for r in refs)
                or abs(_varying(_coverage(program.size, refs)) - varying) > 3):
            continue
        order = rng.permutation(len(writer.candidates))
        for c in order[:6]:
            target, line_no = writer.candidates[int(c)]
            if rng.random() < 0.5:
                kind, payload = "off-by-one", str(rng.choice(["+1", "-1"]))
            else:
                kind, payload = "constant-replacement", str(int(rng.integers(4, 9)))
            faulty_source = _mutate(source, line_no, kind, payload)
            if faulty_source == source:
                continue
            faulty = parse(faulty_source)
            rate = np.mean([oracle.failing(oracle.run(faulty, x), r.outputs)
                            for x, r in zip(screen, refs)])
            if not 0.05 <= rate <= 0.2:
                continue
            spec = WideSpec(f"w{index:02d}_n{size}", source, target, kind, payload,
                            np.random.default_rng([seed, index, attempt, 1]))
            try:
                (version,) = build_versions([spec])
            except TemplateError:       # the suite builder could not fill its quotas
                continue
            suite = oracle.suite_oracle(version)
            if (len(frozenset().union(*suite.slices)) >= MIN_SLICE
                    and abs(_varying(suite.matrix) - varying) <= 1):
                return spec
    raise RuntimeError(f"no usable wide program for seed {seed}, index {index}")


def build_versions(specs: list[WideSpec]):
    """The program's own set-up: parse, seed the fault, draw the suite."""
    # Looked up at call time, so the tracer's wrapper is the one called.
    from faultlab.corpus import TemplateInstance, make_version
    from faultlab.minilang import Mutation
    versions = []
    for spec in specs:
        instance = TemplateInstance(
            name="wide", source=spec.source,
            mutation=Mutation(spec.target, spec.kind, spec.payload),
            sample_inputs=sample_inputs)
        versions.append(make_version(spec.version_id, instance,
                                     copy.deepcopy(spec.suite_rng), N_FAIL, N_PASS))
    return versions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    from faultlab.corpus import write_corpus
    from faultlab.minilang import parse
    import wl_analysis_wide
    sizes = wl_analysis_wide.sizes(False)
    specs = [make_spec(args.seed, i, n, parse) for i, n in enumerate(sizes)]
    out = write_corpus(build_versions(specs), args.out)
    print(f"wrote {len(specs)} versions to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
