"""The tree-walking interpreter: the bit-exactness oracle for `minilang.execute`.

`execute` used to walk the parsed statement tree on every run, dispatching
each node on its `kind` or `op` string.  `parse` now compiles each program
once into closures, and `execute` runs those.  Both must produce the same
`ExecutionRecord` field for field: trace, data and control edges in order,
outputs, output events, verdict and fault text, also when a fault stops a
run partway through an expression.  The old walker is kept here verbatim
as the reference.
"""

from __future__ import annotations

import numbers

import numpy as np

from faultlab.errors import InvalidInput
from faultlab.minilang import VALUE_LIMIT, ExecutionRecord, Expr, OutputEvent, Program, Stmt


class _Fault(Exception):
    def __init__(self, note):
        self.note = note


class _Interp:
    def __init__(self, program, inputs, loop_cap, step_cap):
        self.program = program
        self.loop_cap = loop_cap
        self.step_cap = step_cap
        self.env: dict[str, tuple[int, int | None]] = {}
        for v, val in inputs.items():
            # int() would truncate 1.7 and parse "12"; a bool is no integer here
            if type(val) is not int and (isinstance(val, bool)
                                         or not isinstance(val, numbers.Integral)):
                raise InvalidInput(f"test input {v!r} is not an integer: {val!r}")
            self.env[v] = (int(val), None)
        self.trace: list[int] = []
        self.data_edges: list[tuple[int, int]] = []
        self.control_edges: list[tuple[int, int]] = []
        self.ctrl_stack: list[int] = []
        self.outputs: dict[str, int] = {}
        self.events: list[OutputEvent] = []

    def occurrence(self, stmt: Stmt) -> int:
        if len(self.trace) >= self.step_cap:
            raise _Fault("non_termination: step cap exceeded")
        occ = len(self.trace)
        self.trace.append(stmt.index)
        if self.ctrl_stack:
            self.control_edges.append((occ, self.ctrl_stack[-1]))
        return occ

    def read(self, name: str, occ: int) -> int:
        if name not in self.env:
            raise _Fault(f"runtime: undefined variable {name!r}")
        value, def_occ = self.env[name]
        if def_occ is not None:
            self.data_edges.append((occ, def_occ))
        return value

    def eval(self, e: Expr, occ: int) -> int:
        if e.op == "const":
            return e.value
        if e.op == "var":
            return self.read(e.value, occ)
        if e.op == "neg":
            return -self.eval(e.args[0], occ)
        a = self.eval(e.args[0], occ)
        b = self.eval(e.args[1], occ)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op in ("/", "%"):
            if b == 0:
                raise _Fault("runtime: division by zero")
            q = abs(a) // abs(b)
            if (a < 0) != (b < 0):
                q = -q
            return q if e.op == "/" else a - q * b
        if e.op == "==":
            return int(a == b)
        if e.op == "!=":
            return int(a != b)
        if e.op == "<":
            return int(a < b)
        if e.op == "<=":
            return int(a <= b)
        if e.op == ">":
            return int(a > b)
        if e.op == ">=":
            return int(a >= b)
        raise AssertionError(f"unknown op {e.op}")

    def run_block(self, stmts: list[Stmt]) -> None:
        for s in stmts:
            self.run_stmt(s)

    def run_stmt(self, s: Stmt) -> None:
        if s.kind == "assign":
            occ = self.occurrence(s)
            value = self.eval(s.expr, occ)
            # Bounding every stored value bounds each expression's
            # intermediates too, so a squaring loop faults instead of growing.
            if abs(value) >= VALUE_LIMIT:
                raise _Fault("runtime: overflow")
            self.env[s.var] = (value, occ)
        elif s.kind == "output":
            occ = self.occurrence(s)
            value = self.read(s.var, occ)
            self.outputs[s.var] = value
            self.events.append(OutputEvent(occ=occ, stmt=s.index, var=s.var, value=value))
        elif s.kind == "if":
            occ = self.occurrence(s)
            taken = self.eval(s.expr, occ) != 0
            branch = s.body if taken else s.orelse
            self.ctrl_stack.append(occ)
            try:
                self.run_block(branch)
            finally:
                self.ctrl_stack.pop()
        elif s.kind == "while":
            iterations = 0
            while True:
                occ = self.occurrence(s)
                if self.eval(s.expr, occ) == 0:
                    break
                iterations += 1
                if iterations > self.loop_cap:
                    raise _Fault("non_termination: loop cap exceeded")
                self.ctrl_stack.append(occ)
                try:
                    self.run_block(s.body)
                finally:
                    self.ctrl_stack.pop()
        else:
            raise AssertionError(f"unknown statement kind {s.kind}")


def execute(
    program: Program,
    inputs: dict[str, int],
    oracle: dict[str, int],
    test_id: str = "",
    loop_cap: int = 10_000,
    step_cap: int = 200_000,
) -> ExecutionRecord:
    """Run one test and return its instrumented record.

    The verdict is "fail" iff a runtime fault occurred, the loop cap was
    exceeded, or the final output map differs from the oracle.
    """
    interp = _Interp(program, inputs, loop_cap, step_cap)
    fault = None
    try:
        interp.run_block(program.body)
    except _Fault as f:
        fault = f.note
    coverage = np.zeros(program.size, dtype=np.int8)
    for idx in interp.trace:
        coverage[idx - 1] = 1
    verdict = "fail" if (fault is not None or interp.outputs != dict(oracle)) else "pass"
    return ExecutionRecord(
        test_id=test_id,
        coverage_row=coverage,
        trace=interp.trace,
        data_edges=interp.data_edges,
        control_edges=interp.control_edges,
        outputs=interp.outputs,
        output_events=interp.events,
        verdict=verdict,
        fault=fault,
        oracle=dict(oracle),
    )
