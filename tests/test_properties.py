"""Property tests: mutated programs never hang or raise, token soup only fails to parse."""

import time

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from faultlab.errors import ParseError
from faultlab.minilang import MAX_BLOCK_DEPTH, MAX_EXPR_DEPTH, execute, parse, tokenize_line
from randprog import gen_random_program

LOOP_CAP = 500
STEP_CAP = 5_000
# Every token kind the language knows, plus names the generator uses.
TOKENS = ["0", "1", "2", "7", "9223372036854775807", "+", "-", "*", "/", "%",
          "==", "!=", "<", "<=", ">", ">=", "=", "(", ")", "{", "}",
          "if", "else", "while", "output", "v0", "v1", "c0", "in0", "zz"]
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_one_token_mutation_executes_within_budget(seed, data):
    rng = np.random.default_rng(seed)
    source, inputs = gen_random_program(rng)
    lines = source.splitlines()
    spots = [(i, j) for i, line in enumerate(lines)
             for j in range(len(tokenize_line(line, i + 1)))]
    i, j = data.draw(st.sampled_from(spots))
    tokens = [value for _, value, _ in tokenize_line(lines[i], i + 1)]
    tokens[j] = data.draw(st.sampled_from(TOKENS))
    lines[i] = " ".join(tokens)
    try:
        program = parse("\n".join(lines) + "\n")
    except ParseError:
        return
    start = time.perf_counter()
    record = execute(program, inputs, {}, loop_cap=LOOP_CAP, step_cap=STEP_CAP)
    assert time.perf_counter() - start < 10.0
    assert len(record.trace) <= STEP_CAP
    assert record.coverage_row.shape == (program.size,)
    if record.fault is not None:
        assert record.verdict == "fail"
        assert record.fault.startswith(("runtime: ", "non_termination: "))


@PROPERTY
@given(st.lists(st.lists(st.sampled_from(TOKENS + ["#", "@", "$", "3.5", "\t"]), max_size=14),
                max_size=14))
def test_token_soup_parses_or_raises_parse_error(lines):
    try:
        parse("\n".join(" ".join(line) for line in lines))
    except ParseError:
        pass


@PROPERTY
@given(st.text(max_size=300))
def test_any_text_parses_or_raises_parse_error(text):
    try:
        parse(text)
    except ParseError:
        pass


@PROPERTY
@given(opens=st.integers(0, 3 * max(MAX_BLOCK_DEPTH, MAX_EXPR_DEPTH)),
       kind=st.sampled_from(["(", "-", "if 1 {", "while 0 {", "} else {"]))
def test_deep_nesting_parses_or_raises_parse_error(opens, kind):
    if kind in ("(", "-"):
        source = "x = " + kind * opens + "1" + (")" * opens if kind == "(" else "") + "\n"
    else:
        source = (kind + "\n") * opens + "x = 1\n" + "}\n" * opens
    try:
        parse(source)
    except ParseError:
        pass
