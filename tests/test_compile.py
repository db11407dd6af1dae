"""Compiled programs against the tree-walking oracle, field by field.

`parse` compiles each program to closures once; `execute` runs them.
`minilang_oracle.execute` walks the statement tree instead.  Every record
field must agree: the trace, both edge lists in order, outputs, output
events, verdict and fault text, also when a fault stops the run partway
through an expression or a block.
"""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minilang_oracle
from faultlab.corpus import generate_corpus
from faultlab.errors import InvalidTarget, ParseError
from faultlab.minilang import (
    MAX_EXPR_DEPTH,
    Mutation,
    execute,
    parse,
    seed_fault,
)
from randprog import gen_random_program

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)
# Default caps, then caps small enough that randprog programs hit them.
CAPS = ({}, {"step_cap": 25}, {"loop_cap": 1})
PAYLOADS = {
    "constant-replacement": ["0", "1", "7", "9223372036854775807"],
    "operator-flip": ["+", "-", "*", "/", "%", "<", "<=", ">", ">=", "==", "!="],
    "off-by-one": ["+1", "-1"],
}


def assert_same_run(program, inputs, oracle=None, **caps):
    """execute and the oracle give equal records; returns the fault text."""
    oracle = {} if oracle is None else oracle
    got = execute(program, inputs, oracle, test_id="t", **caps)
    want = minilang_oracle.execute(program, inputs, oracle, test_id="t", **caps)
    assert got.coverage_row.dtype == want.coverage_row.dtype
    assert np.array_equal(got.coverage_row, want.coverage_row)
    # repr also tells an int output from a bool one, which == would not
    assert (repr(dataclasses.replace(got, coverage_row=None))
            == repr(dataclasses.replace(want, coverage_row=None)))
    return got.fault


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_compiled_runs_match_the_tree_walker(seed, data):
    source, inputs = gen_random_program(np.random.default_rng(seed))
    program = parse(source)
    kind = data.draw(st.sampled_from(sorted(PAYLOADS)))
    mutation = Mutation(target=data.draw(st.integers(1, program.size)), kind=kind,
                        payload=data.draw(st.sampled_from(PAYLOADS[kind])))
    try:
        faulty = seed_fault(program, mutation)
    except (InvalidTarget, ParseError):
        faulty = program
    negated = {name: -value for name, value in inputs.items()}
    for prog in (program, faulty):
        for binding in (inputs, negated, {}):
            for caps in CAPS:
                assert_same_run(prog, binding, **caps)


@pytest.mark.parametrize("source, inputs, caps, fault", [
    # faults partway through an expression keep the edges read before them
    ("a = 1\nx = a + ghost\noutput(x)\n", {}, {}, "runtime: undefined variable 'ghost'"),
    ("a = 1\nb = 2\nx = a * b / (a - a) + b\n", {}, {}, "runtime: division by zero"),
    ("a = 5\nx = -a % (a - 5)\n", {}, {}, "runtime: division by zero"),
    ("a = 3037000500\nx = a * a\n", {}, {}, "runtime: overflow"),
    ("x = 1\nwhile x > 0 {\n  if x < 3 {\n    x = x + 1\n  }\n}\n", {}, {"loop_cap": 4},
     "non_termination: loop cap exceeded"),
    ("x = 1\nwhile x > 0 {\n  x = x + 1\n}\n", {}, {"step_cap": 10},
     "non_termination: step cap exceeded"),
    # no fault: comparisons as values, truncating / and %, else arms, inputs
    ("x = (a < b) + (a == b) * 2 - (a >= b)\ny = -a / 3\nz = -a % 3\nw = a < b\n"
     "if x {\n  output(x)\n} else {\n  output(y)\n}\noutput(z)\noutput(w)\n",
     {"a": 7, "b": 2}, {}, None),
])
def test_every_fault_kind_matches_the_tree_walker(source, inputs, caps, fault):
    assert assert_same_run(parse(source), inputs, **caps) == fault


def test_corpus_suites_match_the_tree_walker():
    for version in generate_corpus(7, seed=5):
        for case in version.suite:
            for program in (version.program, version.faulty):
                assert_same_run(program, case.inputs, case.oracle)


def test_program_pickles_after_it_has_run():
    program = parse("a = 2\nwhile a < 9 {\n  a = a * a\n}\noutput(a)\n")
    before = execute(program, {}, {"a": 16})
    clone = pickle.loads(pickle.dumps(program))
    assert clone == program and repr(clone) == repr(program)
    after = execute(clone, {}, {"a": 16})
    assert after.trace == before.trace and after.data_edges == before.data_edges
    version = generate_corpus(1, seed=0)[0]
    assert pickle.loads(pickle.dumps(version)) == version


@pytest.mark.parametrize("expr", [
    "-" * (MAX_EXPR_DEPTH - 1) + "x",                              # unary chain
    "(x + " * (MAX_EXPR_DEPTH - 1) + "x" + ")" * (MAX_EXPR_DEPTH - 1),  # right-deep
])
def test_deepest_expression_compiles_and_runs(expr):
    # test_minilang.py runs a left-deep chain and the deepest blocks
    source = f"x = 1\ny = {expr}\noutput(y)\n"
    assert assert_same_run(parse(source), {}) is None
    with pytest.raises(ParseError):
        parse(f"x = 1\ny = -({expr})\n")

