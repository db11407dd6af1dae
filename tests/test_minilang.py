import time

import numpy as np
import pytest

from faultlab.errors import InvalidInput, InvalidTarget, ParseError
from faultlab.minilang import (
    MAX_BLOCK_DEPTH,
    MAX_EXPR_DEPTH,
    Mutation,
    execute,
    parse,
    seed_fault,
    tokenize_line,
)
from randprog import gen_random_program


def test_parse_straight_line():
    p = parse("a = 1\nb = a + 2\noutput(b)\n")
    assert p.size == 3
    assert [s.kind for s in p.statements] == ["assign", "assign", "output"]
    assert [s.index for s in p.statements] == [1, 2, 3]


def test_parse_illustrative_structure(golden_version):
    assert golden_version.program.size == 16


def test_parse_unbalanced_braces():
    with pytest.raises(ParseError):
        parse("if x > 0 {\n  y = 1\n")
    with pytest.raises(ParseError):
        parse("}\n")


def test_parse_errors_carry_location():
    with pytest.raises(ParseError) as exc:
        parse("a = 1\nb = $\n")
    assert exc.value.line == 2


def test_execute_pass_and_coverage():
    p = parse("a = 2\nb = 3\nout = a * b\noutput(out)\n")
    rec = execute(p, {}, {"out": 6})
    assert rec.verdict == "pass"
    assert rec.coverage_row.tolist() == [1, 1, 1, 1]
    assert rec.trace == [1, 2, 3, 4]


def test_execute_oracle_mismatch_fails():
    p = parse("a = 2\nb = 3\nout = a * b\noutput(out)\n")
    assert execute(p, {}, {"out": 7}).verdict == "fail"


def test_execute_division_by_zero_is_failing_verdict():
    p = parse("out = 1 / x\noutput(out)\n")
    rec = execute(p, {"x": 0}, {"out": 1})
    assert rec.verdict == "fail"
    assert "division by zero" in rec.fault


def test_execute_undefined_variable_is_failing_verdict():
    p = parse("out = ghost + 1\noutput(out)\n")
    rec = execute(p, {}, {"out": 1})
    assert rec.verdict == "fail"
    assert "undefined" in rec.fault


def test_execute_loop_cap():
    p = parse("x = 1\nwhile x > 0 {\n  x = x + 1\n}\noutput(x)\n")
    rec = execute(p, {}, {"x": 0}, loop_cap=100)
    assert rec.verdict == "fail"
    assert "non_termination" in rec.fault


def test_execute_overflow_ends_squaring_loop():
    p = parse("x = 2\nwhile (x > 0) {\n  x = x * x\n}\noutput(x)\n")
    start = time.perf_counter()
    rec = execute(p, {}, {"x": 0})
    assert time.perf_counter() - start < 1.0
    assert rec.verdict == "fail"
    assert rec.fault == "runtime: overflow"
    # 2**32 is stored; its square, 2**64, is not
    assert rec.trace.count(3) == 6


def test_execute_rejects_non_integer_input():
    p = parse("out = gate + 1\noutput(out)\n")
    with pytest.raises(InvalidInput):
        execute(p, {"gate": "abc"}, {"out": 1})


@pytest.mark.parametrize("value", [1.7, 2.0, True, "12"])
def test_execute_rejects_inputs_int_would_convert(value):
    p = parse("out = gate * 2\noutput(out)\n")
    with pytest.raises(InvalidInput):
        execute(p, {"gate": value}, {"out": 2})


def test_execute_accepts_numpy_integers():
    p = parse("out = gate * 2\noutput(out)\n")
    assert not execute(p, {"gate": np.int64(3)}, {"out": 6}).failing


def test_execute_determinism():
    p = parse("a = 2\nif a > 1 {\n  b = a * 3\n} else {\n  b = 0\n}\noutput(b)\n")
    r1 = execute(p, {}, {"b": 6})
    r2 = execute(p, {}, {"b": 6})
    assert r1.trace == r2.trace
    assert r1.data_edges == r2.data_edges
    assert r1.control_edges == r2.control_edges
    assert np.array_equal(r1.coverage_row, r2.coverage_row)


def test_coverage_trace_consistency_random():
    rng = np.random.default_rng(42)
    for _ in range(30):
        src, inputs = gen_random_program(rng, max_stmts=30)
        p = parse(src)
        rec = execute(p, inputs, {})
        covered = {j + 1 for j in range(p.size) if rec.coverage_row[j]}
        assert covered == set(rec.trace)


def test_data_edges_point_to_most_recent_definition():
    # replay the trace with a last-definition map; the recorded edge
    # multiset must match exactly (one edge per read of a defined variable)
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 30:
        src, inputs = gen_random_program(rng, max_stmts=40)
        p = parse(src)
        rec = execute(p, inputs, {})
        if rec.fault:
            continue
        expected = []
        last_def = {}
        for occ, stmt_idx in enumerate(rec.trace):
            stmt = p.statement(stmt_idx)
            reads = stmt.expr.variables() if stmt.expr is not None else []
            if stmt.kind == "output":
                reads = [stmt.var]
            for var in reads:
                if var in last_def:
                    expected.append((occ, last_def[var]))
            if stmt.kind == "assign":
                last_def[stmt.var] = occ
        assert sorted(expected) == sorted(rec.data_edges)
        checked += 1


def test_seed_fault_constant_replacement(golden_version):
    faulty = golden_version.faulty
    assert "scale = 0" in faulty.source
    assert "scale = 6" in golden_version.program.source


def test_seed_fault_locality():
    p = parse("a = 1\nb = a + 2\nc = b * 3\noutput(c)\n")
    m = Mutation(target=2, kind="operator-flip", payload="-")
    p2 = seed_fault(p, m)
    diffs = [
        (l1, l2)
        for l1, l2 in zip(p.source.splitlines(), p2.source.splitlines())
        if tokenize_line(l1, 0) != tokenize_line(l2, 0)
    ]
    assert len(diffs) == 1
    assert p2.size == p.size


def test_seed_fault_off_by_one():
    p = parse("lim = 5\noutput(lim)\n")
    up = seed_fault(p, Mutation(target=1, kind="off-by-one", payload="+1"))
    down = seed_fault(p, Mutation(target=1, kind="off-by-one", payload="-1"))
    assert "lim = 6" in up.source
    assert "lim = 4" in down.source


def test_seed_fault_out_of_range():
    p = parse("a = 1\noutput(a)\n")
    with pytest.raises(InvalidTarget):
        seed_fault(p, Mutation(target=99, kind="constant-replacement", payload="0"))


def test_seed_fault_no_mutable_token():
    p = parse("a = b\noutput(a)\n")
    with pytest.raises(InvalidTarget):
        seed_fault(p, Mutation(target=1, kind="constant-replacement", payload="0"))


def test_output_events_record_statement_and_value():
    p = parse("a = 4\noutput(a)\na = 5\noutput(a)\n")
    rec = execute(p, {}, {"a": 5})
    assert [(e.stmt, e.value) for e in rec.output_events] == [(2, 4), (4, 5)]
    assert rec.outputs == {"a": 5}
    assert rec.verdict == "pass"


def test_deeply_nested_parentheses_are_a_parse_error():
    src = "a = 1\nx = " + "(" * 3000 + "1" + ")" * 3000 + "\n"
    with pytest.raises(ParseError, match=f"deeper than {MAX_EXPR_DEPTH}") as exc:
        parse(src)
    assert exc.value.line == 2
    with pytest.raises(ParseError):
        parse("x = " + "-" * 3000 + "1\n")


def test_long_operator_chain_is_a_parse_error():
    # a left-deep tree: the parser loops, but evaluation would recurse per term
    src = "zz = " + " + ".join(["1"] * 20_000) + "\noutput(zz)\n"
    with pytest.raises(ParseError) as exc:
        parse(src)
    assert exc.value.line == 1


def test_expression_at_the_depth_cap_runs():
    n = MAX_EXPR_DEPTH
    src = ("x = " + "(" * n + "2" + ")" * n + "\n"
           "y = " + " + ".join(["x"] * n) + "\n"
           "output(y)\n")
    assert execute(parse(src), {}, {"y": 2 * n}).verdict == "pass"


def test_deeply_nested_blocks_are_a_parse_error():
    src = "x = 0\n" + "if 1 {\n" * 600 + "x = 7\n" + "}\n" * 600 + "output(x)\n"
    with pytest.raises(ParseError, match=f"deeper than {MAX_BLOCK_DEPTH}") as exc:
        parse(src)
    assert exc.value.line == MAX_BLOCK_DEPTH + 2    # the first block past the cap


def test_blocks_at_the_depth_cap_run():
    # if and while blocks alternate, and else arms reopen at the same depth;
    # the innermost expression is at both of its caps too: m - 1 negations
    # and one '(' nest m deep and make a tree m nodes deep.
    n, m = MAX_BLOCK_DEPTH, MAX_EXPR_DEPTH
    def nested(depth):
        lines = ["x = 0", "w = 1"]
        for d in range(depth):
            lines.append("while w > 0 {" if d % 2 else "if 0 {\n} else {")
        lines.append("x = " + "-" * (m - 1) + "(7)")
        for d in reversed(range(depth)):
            lines.append("w = 0\n}" if d % 2 else "}")
        return "\n".join(lines) + "\noutput(x)\n"

    assert execute(parse(nested(n)), {}, {"x": 7 * (-1) ** (m - 1)}).verdict == "pass"
    with pytest.raises(ParseError, match=f"deeper than {MAX_BLOCK_DEPTH}"):
        parse(nested(n + 1))
