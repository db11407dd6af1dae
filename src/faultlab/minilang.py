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

Each program is compiled once, on its first execute(), into one closure
per statement and per operator; execute() runs those closures against an
input binding and an oracle, recording a full occurrence-level trace with
dynamic data and control dependence edges.  The tree-walking interpreter
they replaced is kept in tests/minilang_oracle.py as the reference they
must match bit for bit.  Runtime faults (division by zero, undefined
variable, overflow, loop-cap overrun) mark the test failing; they never
raise out of the harness.  A test input that is not an integer (a float,
a string, a bool) raises InvalidInput.
"""

from __future__ import annotations

import functools
import json
import numbers
import operator
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InvalidInput, InvalidTarget, ParseError

VALUE_LIMIT = 2**63             # an assigned value must stay below this in magnitude
# The deepest expression tree, and the deepest nesting of '(' and unary '-',
# that parse accepts: the parser, the compiler and evaluation recurse once per
# level, so a deeper expression is a ParseError rather than a RecursionError.
MAX_EXPR_DEPTH = 100
# The deepest nesting of if/while blocks that parse accepts: compilation and
# execution recurse once per block, so a deeper program is a ParseError as well.
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
    # Every character but whitespace matches one group, so the matches tile the line.
    for m in _TOKEN_RE.finditer(text.split("#", 1)[0]):
        kind = m.lastgroup
        value, col = m[kind], m.start(kind) + 1
        if kind == "bad":
            raise ParseError(f"unexpected character {value!r}", line_no, col)
        if kind == "name" and value in KEYWORDS:
            kind = "kw"
        tokens.append((kind, value, col))
    return tokens

# ---------------------------------------------------------------------------
# AST

@dataclass(slots=True)
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


@dataclass(slots=True)
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

    @functools.cached_property
    def code(self) -> tuple:
        """The top-level block compiled to statement closures, built on the
        first execute; a program that never runs is never compiled."""
        return _compile_block(self.body)

    def __reduce__(self):
        # Closures do not pickle: ship the source and parse it again.
        return parse, (self.source,)

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


def _undefined(name: str) -> _Fault:
    return _Fault(f"runtime: undefined variable {name!r}")


def _div(a: int, b: int) -> int:
    if b == 0:
        raise _Fault("runtime: division by zero")
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _mod(a: int, b: int) -> int:
    if b == 0:
        raise _Fault("runtime: division by zero")
    q = abs(a) // abs(b)
    return a - (-q if (a < 0) != (b < 0) else q) * b


# What each binary operator computes in a value; a comparison yields 0 or 1.
_VALUE_OPS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": _div, "%": _mod,
    "==": lambda a, b: 1 if a == b else 0, "!=": lambda a, b: 1 if a != b else 0,
    "<": lambda a, b: 1 if a < b else 0, "<=": lambda a, b: 1 if a <= b else 0,
    ">": lambda a, b: 1 if a > b else 0, ">=": lambda a, b: 1 if a >= b else 0,
}
# At the top of an if/while condition only truth counts, so a bool will do.
_TEST_OPS = {**_VALUE_OPS, "==": operator.eq, "!=": operator.ne, "<": operator.lt,
             "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_NEG_LIMIT = -VALUE_LIMIT
_STEP_CAP_FAULT = "non_termination: step cap exceeded"

# A program is compiled once, into one closure per statement and per
# operator, so that a run dispatches on no strings.  An expression closure
# is called as ev(env, data, occ) and returns the value:
#   env   name -> (value, defining occurrence, or None for a test input)
#   data  the data edges (use occurrence, def occurrence), appended in order
#   occ   the occurrence the expression is evaluated for
# For `var op const` and `var op var`, the commonest shapes, the reads are
# written out inside the operator's closure, so a read and its data edge
# cost no call of their own.  What a closure was compiled with (operand
# names, constants, inner closures) it takes as default arguments: those
# load as plain locals and need no cell objects.


def _compile_expr(e: Expr, ops: dict = _VALUE_OPS):
    if e.op == "const":
        return lambda env, data, occ, c=e.value: c
    if e.op == "var":
        def ev(env, data, occ, x=e.value):
            try:
                a, d = env[x]
            except KeyError:
                raise _undefined(x)
            if d is not None:
                data.append((occ, d))
            return a
        return ev
    if e.op == "neg":
        return lambda env, data, occ, inner=_compile_expr(e.args[0]): -inner(env, data, occ)
    f = ops[e.op]
    left, right = e.args
    if left.op == "var" and right.op == "const":
        def ev(env, data, occ, x=left.value, c=right.value, f=f):
            try:
                a, d = env[x]
            except KeyError:
                raise _undefined(x)
            if d is not None:
                data.append((occ, d))
            return f(a, c)
    elif left.op == "var" and right.op == "var":
        def ev(env, data, occ, x=left.value, y=right.value, f=f):
            try:
                a, d = env[x]
            except KeyError:
                raise _undefined(x)
            if d is not None:
                data.append((occ, d))
            try:
                b, d = env[y]
            except KeyError:
                raise _undefined(y)
            if d is not None:
                data.append((occ, d))
            return f(a, b)
    else:
        def ev(env, data, occ, lv=_compile_expr(left), rv=_compile_expr(right), f=f):
            return f(lv(env, data, occ), rv(env, data, occ))
    return ev


# A statement closure is called as
#   run(env, data, trace, cedges, events, ctl, step_cap, loop_cap)
# with env and data as above and
#   trace   the statement index per occurrence; its length is the next occurrence
#   cedges  the control edges (occurrence, governing predicate occurrence)
#   events  (occurrence, statement, variable, value) per output
#   ctl     the occurrence of the predicate governing the block, None at top level
# Each closure opens its own occurrence: step-cap check, trace, control edge.


def _compile_block(stmts: list[Stmt]) -> tuple:
    return tuple(_compile_stmt(s) for s in stmts)


def _compile_stmt(s: Stmt):
    if s.kind == "assign":
        def run(env, data, trace, cedges, events, ctl, step_cap, loop_cap,
                index=s.index, var=s.var, ev=_compile_expr(s.expr)):
            occ = len(trace)
            if occ >= step_cap:
                raise _Fault(_STEP_CAP_FAULT)
            trace.append(index)
            if ctl is not None:
                cedges.append((occ, ctl))
            value = ev(env, data, occ)
            # Bounding every stored value bounds each expression's
            # intermediates too, so a squaring loop faults instead of growing.
            if not _NEG_LIMIT < value < VALUE_LIMIT:
                raise _Fault("runtime: overflow")
            env[var] = (value, occ)
    elif s.kind == "output":
        def run(env, data, trace, cedges, events, ctl, step_cap, loop_cap,
                index=s.index, var=s.var):
            occ = len(trace)
            if occ >= step_cap:
                raise _Fault(_STEP_CAP_FAULT)
            trace.append(index)
            if ctl is not None:
                cedges.append((occ, ctl))
            try:
                value, d = env[var]
            except KeyError:
                raise _undefined(var)
            if d is not None:
                data.append((occ, d))
            events.append((occ, index, var, value))
    elif s.kind == "if":
        def run(env, data, trace, cedges, events, ctl, step_cap, loop_cap,
                index=s.index, test=_compile_expr(s.expr, _TEST_OPS),
                body=_compile_block(s.body), orelse=_compile_block(s.orelse)):
            occ = len(trace)
            if occ >= step_cap:
                raise _Fault(_STEP_CAP_FAULT)
            trace.append(index)
            if ctl is not None:
                cedges.append((occ, ctl))
            for inner in body if test(env, data, occ) else orelse:
                inner(env, data, trace, cedges, events, occ, step_cap, loop_cap)
    elif s.kind == "while":
        def run(env, data, trace, cedges, events, ctl, step_cap, loop_cap,
                index=s.index, test=_compile_expr(s.expr, _TEST_OPS),
                body=_compile_block(s.body)):
            iterations = 0
            while True:
                occ = len(trace)
                if occ >= step_cap:
                    raise _Fault(_STEP_CAP_FAULT)
                trace.append(index)
                if ctl is not None:
                    cedges.append((occ, ctl))
                if not test(env, data, occ):
                    return
                iterations += 1
                if iterations > loop_cap:
                    raise _Fault("non_termination: loop cap exceeded")
                for inner in body:
                    inner(env, data, trace, cedges, events, occ, step_cap, loop_cap)
    else:
        raise AssertionError(f"unknown statement kind {s.kind}")
    return run


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
    env: dict[str, tuple[int, int | None]] = {}
    for v, val in inputs.items():
        # int() would truncate 1.7 and parse "12"; a bool is no integer here
        if type(val) is not int and (isinstance(val, bool)
                                     or not isinstance(val, numbers.Integral)):
            raise InvalidInput(f"test input {v!r} is not an integer: {val!r}")
        env[v] = (int(val), None)
    trace: list[int] = []
    data: list[tuple[int, int]] = []
    cedges: list[tuple[int, int]] = []
    events: list[tuple[int, int, str, int]] = []
    fault = None
    try:
        for run in program.code:
            run(env, data, trace, cedges, events, None, step_cap, loop_cap)
    except _Fault as f:
        fault = f.note
    coverage = np.zeros(program.size, dtype=np.int8)
    coverage[np.fromiter(set(trace), np.intp) - 1] = 1
    outputs = {var: value for _, _, var, value in events}
    oracle = dict(oracle)
    return ExecutionRecord(
        test_id=test_id,
        coverage_row=coverage,
        trace=trace,
        data_edges=data,
        control_edges=cedges,
        outputs=outputs,
        output_events=[OutputEvent(*e) for e in events],
        verdict="fail" if (fault is not None or outputs != oracle) else "pass",
        fault=fault,
        oracle=oracle,
    )


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
    Path(path).write_text(json.dumps(payload) + "\n")
