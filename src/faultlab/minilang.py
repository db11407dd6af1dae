"""A tiny imperative language with coverage and dependence instrumentation.

Grammar (one statement per line, ``#`` comments, braces delimit blocks)::

    stmt := NAME '=' expr
          | 'if' expr '{'        ... '}' [ 'else' '{' ... '}' ]
          | 'while' expr '{'     ... '}'
          | 'output' '(' NAME ')'
    expr := additive (('=='|'!='|'<'|'<='|'>'|'>=') additive)?
    additive := term (('+'|'-') term)*
    term := unary (('*'|'/'|'%') unary)*
    unary := '-' unary | INT | NAME | '(' expr ')'

All values are integers; a condition is true iff nonzero; ``/`` and ``%``
truncate toward zero; assigning a value of magnitude 2**63 or more is a
runtime fault (overflow).  Statements (assignment, if-header, while-header,
output) are numbered 1..N in source order; closing braces and ``else``
lines are not statements.

execute() interprets a program against an input binding and an oracle,
recording a full occurrence-level trace with dynamic data and control
dependence edges.  Runtime faults (division by zero, undefined variable,
overflow, loop-cap overrun) mark the test failing; they never raise out
of the harness.  A test input that is not an integer (a float, a string,
a bool) raises InvalidInput.
"""

from __future__ import annotations

import json
import numbers
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InvalidInput, InvalidTarget, ParseError

VALUE_LIMIT = 2**63             # an assigned value must stay below this in magnitude
# The deepest expression tree, and the deepest nesting of '(' and unary '-',
# that parse accepts: evaluation and the parser recurse once per level, so a
# deeper expression is a ParseError rather than a RecursionError.
MAX_EXPR_DEPTH = 100
# The deepest nesting of if/while blocks that parse accepts: execution
# recurses once per block, so a deeper program is a ParseError as well.
MAX_BLOCK_DEPTH = 100

# ---------------------------------------------------------------------------
# Lexer

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>==|!=|<=|>=|[+\-*/%<>=(){}])|(?P<bad>\S))"
)

KEYWORDS = {"if", "else", "while", "output"}
COMPARISONS = {"==", "!=", "<", "<=", ">", ">="}
BINARY_OPS = {"+", "-", "*", "/", "%"} | COMPARISONS


def tokenize_line(text: str, line_no: int) -> list[tuple[str, str, int]]:
    """Return (kind, value, col) triples for one source line."""
    tokens = []
    pos = 0
    stripped = text.split("#", 1)[0]
    while pos < len(stripped):
        m = _TOKEN_RE.match(stripped, pos)
        if m is None or m.end() == pos:
            break
        if m.group("bad"):
            raise ParseError(f"unexpected character {m.group('bad')!r}", line_no, m.start("bad") + 1)
        if m.group("int"):
            tokens.append(("int", m.group("int"), m.start("int") + 1))
        elif m.group("name"):
            name = m.group("name")
            kind = "kw" if name in KEYWORDS else "name"
            tokens.append((kind, name, m.start("name") + 1))
        else:
            tokens.append(("op", m.group("op"), m.start("op") + 1))
        pos = m.end()
    return tokens

# ---------------------------------------------------------------------------
# AST

@dataclass
class Expr:
    op: str                      # "const" | "var" | binary operator | "neg"
    value: int | str | None = None
    args: tuple["Expr", ...] = ()

    def variables(self) -> list[str]:
        if self.op == "var":
            return [self.value]
        out = []
        for a in self.args:
            out.extend(a.variables())
        return out


@dataclass
class Stmt:
    kind: str                    # "assign" | "if" | "while" | "output"
    index: int                   # 1-based statement number
    line_no: int
    var: str | None = None       # assign target / output variable
    expr: Expr | None = None     # assign RHS / if/while condition
    body: list["Stmt"] = field(default_factory=list)
    orelse: list["Stmt"] = field(default_factory=list)


@dataclass
class Program:
    source: str
    body: list[Stmt]
    statements: list[Stmt]       # position j holds S_{j+1}

    @property
    def size(self) -> int:
        return len(self.statements)

    def statement(self, index: int) -> Stmt:
        if not 1 <= index <= len(self.statements):
            raise InvalidTarget(f"statement S_{index} out of range 1..{len(self.statements)}")
        return self.statements[index - 1]


# ---------------------------------------------------------------------------
# Parser

def _tree_depth(e: "Expr") -> int:
    deepest, stack = 0, [(e, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        stack.extend((a, depth + 1) for a in node.args)
    return deepest


class _ExprParser:
    def __init__(self, tokens, line_no):
        self.tokens = tokens
        self.line_no = line_no
        self.pos = 0
        self.nesting = 0

    def too_deep(self) -> ParseError:
        return ParseError(f"expression nested deeper than {MAX_EXPR_DEPTH} levels",
                          self.line_no)

    def nested(self, parse_inner) -> Expr:
        """parse_inner() one level deeper inside '(' or after unary '-'."""
        self.nesting += 1
        if self.nesting > MAX_EXPR_DEPTH:
            raise self.too_deep()
        e = parse_inner()
        self.nesting -= 1
        return e

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression", self.line_no)
        self.pos += 1
        return tok

    def expect_op(self, op):
        tok = self.take()
        if tok[0] != "op" or tok[1] != op:
            raise ParseError(f"expected {op!r}, got {tok[1]!r}", self.line_no, tok[2])

    def parse(self) -> Expr:
        e = self.comparison()
        if self.peek() is not None:
            tok = self.peek()
            raise ParseError(f"trailing input {tok[1]!r}", self.line_no, tok[2])
        # A long chain such as 1 + 1 + ... nests without recursing here; a
        # tree is never deeper than its token count, so short lines skip the walk.
        if len(self.tokens) > MAX_EXPR_DEPTH and _tree_depth(e) > MAX_EXPR_DEPTH:
            raise self.too_deep()
        return e

    def comparison(self) -> Expr:
        left = self.additive()
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] in COMPARISONS:
            self.take()
            right = self.additive()
            return Expr(tok[1], args=(left, right))
        return left

    def additive(self) -> Expr:
        e = self.term()
        while (tok := self.peek()) and tok[0] == "op" and tok[1] in "+-":
            self.take()
            e = Expr(tok[1], args=(e, self.term()))
        return e

    def term(self) -> Expr:
        e = self.unary()
        while (tok := self.peek()) and tok[0] == "op" and tok[1] in "*/%":
            self.take()
            e = Expr(tok[1], args=(e, self.unary()))
        return e

    def unary(self) -> Expr:
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "-":
            self.take()
            return Expr("neg", args=(self.nested(self.unary),))
        return self.atom()

    def atom(self) -> Expr:
        tok = self.take()
        if tok[0] == "int":
            return Expr("const", value=int(tok[1]))
        if tok[0] == "name":
            return Expr("var", value=tok[1])
        if tok[0] == "op" and tok[1] == "(":
            e = self.nested(self.comparison)
            self.expect_op(")")
            return e
        raise ParseError(f"unexpected token {tok[1]!r}", self.line_no, tok[2])


def parse(source: str) -> Program:
    """Parse mini-language source text into a Program."""
    counter = [0]
    statements: list[Stmt] = []

    def new_stmt(kind, line_no, **kw) -> Stmt:
        counter[0] += 1
        stmt = Stmt(kind=kind, index=counter[0], line_no=line_no, **kw)
        statements.append(stmt)
        return stmt

    lines = source.splitlines()
    # Each stack frame is the statement list currently being filled.
    stack: list[list[Stmt]] = [[]]
    # Tracks the if-statement a future `} else {` would attach to, one per depth.
    open_ifs: list[Stmt | None] = [None]

    for line_no, raw in enumerate(lines, start=1):
        tokens = tokenize_line(raw, line_no)
        if not tokens:
            continue
        kind, value, col = tokens[0]

        if kind == "op" and value == "}":
            # `}` closes a block; `} else {` reopens the matching if's else arm.
            if len(stack) == 1:
                raise ParseError("unbalanced '}'", line_no, col)
            rest = tokens[1:]
            stack.pop()
            owner = open_ifs.pop()
            if rest:
                if (len(rest) == 2 and rest[0][:2] == ("kw", "else")
                        and rest[1][:2] == ("op", "{")):
                    if owner is None or owner.kind != "if":
                        raise ParseError("'else' without matching 'if'", line_no, col)
                    stack.append(owner.orelse)
                    open_ifs.append(None)
                else:
                    raise ParseError("unexpected input after '}'", line_no, rest[0][2])
            continue

        if kind == "kw" and value in ("if", "while"):
            if tokens[-1][:2] != ("op", "{"):
                raise ParseError(f"'{value}' line must end with '{{'", line_no, col)
            if len(stack) > MAX_BLOCK_DEPTH:
                raise ParseError(f"blocks nested deeper than {MAX_BLOCK_DEPTH} levels",
                                 line_no, col)
            cond = _ExprParser(tokens[1:-1], line_no).parse()
            stmt = new_stmt(value, line_no, expr=cond)
            stack[-1].append(stmt)
            stack.append(stmt.body)
            open_ifs.append(stmt if value == "if" else None)
            continue

        if kind == "kw" and value == "output":
            p = _ExprParser(tokens[1:], line_no)
            p.expect_op("(")
            tok = p.take()
            if tok[0] != "name":
                raise ParseError("output() takes a variable name", line_no, tok[2])
            p.expect_op(")")
            if p.peek() is not None:
                raise ParseError("trailing input after output()", line_no)
            stack[-1].append(new_stmt("output", line_no, var=tok[1]))
            continue

        if kind == "name" and len(tokens) >= 2 and tokens[1][:2] == ("op", "="):
            rhs = _ExprParser(tokens[2:], line_no).parse()
            stack[-1].append(new_stmt("assign", line_no, var=value, expr=rhs))
            continue

        raise ParseError(f"cannot parse statement starting with {value!r}", line_no, col)

    if len(stack) != 1:
        raise ParseError("unbalanced '{': block never closed", len(lines))
    return Program(source=source, body=stack[0], statements=statements)


# ---------------------------------------------------------------------------
# Execution

@dataclass
class OutputEvent:
    occ: int
    stmt: int
    var: str
    value: int


@dataclass
class ExecutionRecord:
    """Full instrumentation of one test execution (against the program run)."""

    test_id: str
    coverage_row: np.ndarray          # (N,) int8, 1 iff statement executed
    trace: list[int]                  # statement index per occurrence
    data_edges: list[tuple[int, int]]     # (use occurrence, def occurrence)
    control_edges: list[tuple[int, int]]  # (occurrence, governing predicate occurrence)
    outputs: dict[str, int]
    output_events: list[OutputEvent]
    verdict: str                      # "pass" | "fail"
    fault: str | None                 # runtime fault / non-termination note
    oracle: dict[str, int]

    @property
    def failing(self) -> bool:
        return self.verdict == "fail"

    def first_wrong_output(self) -> OutputEvent | None:
        """First output event whose value disagrees with (or is absent from) the oracle."""
        for ev in self.output_events:
            if ev.var not in self.oracle or self.oracle[ev.var] != ev.value:
                return ev
        return None


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


class ReferenceRunError(Exception):
    """The reference (correct) program itself faulted on an input."""


def run_reference(program: Program, inputs: dict[str, int], **kw) -> dict[str, int]:
    """Outputs of a (correct) program on one input; used to build oracles."""
    rec = execute(program, inputs, oracle={}, **kw)
    if rec.fault is not None:
        raise ReferenceRunError(rec.fault)
    return rec.outputs


# ---------------------------------------------------------------------------
# Mutations

@dataclass(frozen=True)
class Mutation:
    target: int              # statement index
    kind: str                # constant-replacement | operator-flip | off-by-one
    payload: str             # replacement token ("+1"/"-1" for off-by-one)

    def to_dict(self):
        return {"target": self.target, "kind": self.kind, "payload": self.payload}

    @staticmethod
    def from_dict(d):
        return Mutation(target=int(d["target"]), kind=d["kind"], payload=str(d["payload"]))


_FLIPPABLE = {"+", "-", "*", "/", "%", "<", "<=", ">", ">=", "==", "!="}


def _mutate_tokens(tokens, mutation, line_no):
    out = []
    done = False
    for kind, value, col in tokens:
        if not done and mutation.kind == "constant-replacement" and kind == "int":
            int(mutation.payload)  # payload must itself be an integer literal
            out.append((kind, mutation.payload, col))
            done = True
        elif not done and mutation.kind == "off-by-one" and kind == "int":
            delta = {"+1": 1, "-1": -1}.get(mutation.payload)
            if delta is None:
                raise InvalidTarget(f"off-by-one payload must be +1 or -1, got {mutation.payload!r}")
            out.append((kind, str(int(value) + delta), col))
            done = True
        elif (not done and mutation.kind == "operator-flip" and kind == "op"
              and value in _FLIPPABLE):
            if mutation.payload not in _FLIPPABLE:
                raise InvalidTarget(f"operator-flip payload {mutation.payload!r} is not an operator")
            out.append((kind, mutation.payload, col))
            done = True
        else:
            out.append((kind, value, col))
    if not done:
        raise InvalidTarget(
            f"statement at line {line_no} has no token mutable by {mutation.kind}"
        )
    return out


def seed_fault(program: Program, mutation: Mutation) -> Program:
    """Return a new Program with one statement's token stream mutated."""
    if mutation.kind not in ("constant-replacement", "operator-flip", "off-by-one"):
        raise InvalidTarget(f"unknown mutation kind {mutation.kind!r}")
    stmt = program.statement(mutation.target)
    lines = program.source.splitlines()
    line = lines[stmt.line_no - 1]
    code = line.split("#", 1)[0]
    comment = line[len(code):]
    tokens = tokenize_line(code, stmt.line_no)
    mutated = _mutate_tokens(tokens, mutation, stmt.line_no)
    indent = code[: len(code) - len(code.lstrip())]
    rebuilt = indent + " ".join(v for _, v, _ in mutated)
    lines[stmt.line_no - 1] = rebuilt + (" " + comment if comment else "")
    return parse("\n".join(lines) + ("\n" if program.source.endswith("\n") else ""))


# ---------------------------------------------------------------------------
# Test-suite files

@dataclass(frozen=True)
class TestCase:
    inputs: dict[str, int]
    oracle: dict[str, int]


def load_suite(path: str | Path) -> list[TestCase]:
    data = json.loads(Path(path).read_text())
    return [TestCase(inputs=dict(d["inputs"]), oracle=dict(d["oracle"])) for d in data]


def save_suite(path: str | Path, suite: list[TestCase]) -> None:
    payload = [{"inputs": t.inputs, "oracle": t.oracle} for t in suite]
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
