"""Reference computations the benchmark checks the program against.

Nothing here calls into faultlab's interpreter, spectra, slicing or
eigensolver.  The interpreter below walks the parsed statement tree and
carries, for every value and every control scope, the set of statements
that influenced it (forward set propagation).  That yields coverage,
outputs, verdicts and per-output dynamic slices in one pass, by a
different algorithm from the library's backward closure over recorded
dependence edges.  Formulas and ranking are re-derived with plain numpy.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
        "==": operator.eq, "!=": operator.ne, "<": operator.lt,
        "<=": operator.le, ">": operator.gt, ">=": operator.ge}
LOOP_CAP = 10_000
STEP_CAP = 200_000


class OracleFault(Exception):
    """Runtime fault of the interpreted program (division by zero, ...)."""


@dataclass
class OracleRun:
    covered: set[int]                          # statements executed
    outputs: dict[str, int]                    # last value per output variable
    events: list[tuple[int, str, int, frozenset]]  # (stmt, var, value, slice)
    fault: str | None


class _Interp:
    def __init__(self, inputs: dict[str, int]):
        self.env = {name: (int(v), frozenset()) for name, v in inputs.items()}
        self.scope: list[frozenset] = []
        self.covered: set[int] = set()
        self.outputs: dict[str, int] = {}
        self.events: list[tuple[int, str, int, frozenset]] = []
        self.steps = 0

    def visit(self, stmt) -> frozenset:
        self.steps += 1
        if self.steps > STEP_CAP:
            raise OracleFault("step cap")
        self.covered.add(stmt.index)
        return (self.scope[-1] if self.scope else frozenset()) | {stmt.index}

    def eval(self, e):
        if e.op == "const":
            return e.value, frozenset()
        if e.op == "var":
            if e.value not in self.env:
                raise OracleFault("undefined variable")
            return self.env[e.value]
        if e.op == "neg":
            v, s = self.eval(e.args[0])
            return -v, s
        a, sa = self.eval(e.args[0])
        b, sb = self.eval(e.args[1])
        s = sa | sb
        if e.op in ("/", "%"):
            if b == 0:
                raise OracleFault("division by zero")
            q = abs(a) // abs(b) * (-1 if (a < 0) != (b < 0) else 1)
            return (q if e.op == "/" else a - q * b), s
        return int(_OPS[e.op](a, b)), s

    def block(self, stmts):
        for s in stmts:
            self.stmt(s)

    def stmt(self, s):
        if s.kind == "assign":
            here = self.visit(s)
            value, dep = self.eval(s.expr)
            self.env[s.var] = (value, dep | here)
        elif s.kind == "output":
            here = self.visit(s)
            if s.var not in self.env:
                raise OracleFault("undefined variable")
            value, dep = self.env[s.var]
            self.outputs[s.var] = value
            self.events.append((s.index, s.var, value, dep | here))
        elif s.kind == "if":
            here = self.visit(s)
            cond, dep = self.eval(s.expr)
            self.scope.append(dep | here)
            try:
                self.block(s.body if cond != 0 else s.orelse)
            finally:
                self.scope.pop()
        elif s.kind == "while":
            turns = 0
            while True:
                here = self.visit(s)
                cond, dep = self.eval(s.expr)
                if cond == 0:
                    break
                turns += 1
                if turns > LOOP_CAP:
                    raise OracleFault("loop cap")
                self.scope.append(dep | here)
                try:
                    self.block(s.body)
                finally:
                    self.scope.pop()
        else:
            raise ValueError(f"unknown statement kind {s.kind!r}")


def run(program, inputs: dict[str, int]) -> OracleRun:
    """Interpret `program` (a parsed faultlab Program) on one input."""
    interp = _Interp(inputs)
    fault = None
    try:
        interp.block(program.body)
    except OracleFault as exc:
        fault = str(exc)
    return OracleRun(interp.covered, interp.outputs, interp.events, fault)


def failing(result: OracleRun, expected: dict[str, int]) -> bool:
    return result.fault is not None or result.outputs != dict(expected)


def criterion_slice(result: OracleRun, expected: dict[str, int]) -> frozenset:
    """Slice at the first wrong output event, else at the last output event."""
    for stmt, var, value, deps in result.events:
        if expected.get(var, object()) != value:
            return deps
    return result.events[-1][3]


@dataclass
class SuiteOracle:
    """Coverage matrix, verdicts and criterion slices of one version's suite."""
    matrix: np.ndarray          # (M, N) 0/1
    errors: np.ndarray          # (M,) 1 = failing
    slices: list[frozenset]     # one per failing test, suite order
    oracle_ok: bool             # stored oracles equal the correct program's outputs


def suite_oracle(version) -> SuiteOracle:
    n = version.faulty.size
    rows, errors, slices = [], [], []
    oracle_ok = True
    for case in version.suite:
        expected = run(version.program, case.inputs)
        oracle_ok &= expected.fault is None and expected.outputs == dict(case.oracle)
        res = run(version.faulty, case.inputs)
        row = np.zeros(n, dtype=np.int8)
        row[[s - 1 for s in res.covered]] = 1
        rows.append(row)
        bad = failing(res, case.oracle)
        errors.append(int(bad))
        if bad:
            slices.append(criterion_slice(res, case.oracle))
    return SuiteOracle(np.array(rows), np.array(errors, dtype=np.int8), slices, oracle_ok)


# ---------------------------------------------------------------------------
# Suspiciousness formulas and ranking, written from their definitions

def formula_scores(method: str, matrix: np.ndarray, errors: np.ndarray) -> np.ndarray:
    cov = np.asarray(matrix, dtype=bool)
    fail = np.asarray(errors, dtype=bool)
    ef = cov[fail].sum(axis=0).astype(float)
    ep = cov[~fail].sum(axis=0).astype(float)
    nf = fail.sum() - ef
    np_ = (~fail).sum() - ep
    with np.errstate(divide="ignore", invalid="ignore"):
        if method == "dstar":
            s = np.where(ep + nf > 0, ef ** 2 / (ep + nf), 0.0)
        elif method == "ochiai":
            den = np.sqrt((ef + nf) * (ef + ep))
            s = np.where(den > 0, ef / den, 0.0)
        elif method == "barinel":
            s = np.where(ep + ef > 0, 1.0 - ep / (ep + ef), 0.0)
        elif method == "gp02":
            s = 2.0 * (ef + np.sqrt(np_)) + np.sqrt(ep)
        else:
            raise ValueError(method)
    s[(ef == 0) & (ep == 0)] = 0.0
    return s


def first_rank(scores: np.ndarray, faults: set[int]) -> int:
    """Best 1-based position of a fault (statement index) in descending order,
    ties broken by ascending statement index."""
    order = np.lexsort((np.arange(len(scores)), -scores))
    position = {int(j) + 1: pos for pos, j in enumerate(order, start=1)}
    return min(position[f] for f in faults)
