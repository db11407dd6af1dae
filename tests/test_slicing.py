import json

import numpy as np
import pytest

from faultlab.context import context_dump, contribution_select
from faultlab.errors import CriterionNotExecuted, NoFailingTests
from faultlab.minilang import execute, parse
from faultlab.slicing import (
    SliceCriterion,
    default_criterion,
    dynamic_slice,
    fault_context,
)
from faultlab.spectra import build_spectra
from randprog import gen_random_program, oracle_output_slices


def test_illustrative_failing_slices(golden_records):
    t3 = golden_records[2]
    t6 = golden_records[5]
    c3 = default_criterion(t3)
    c6 = default_criterion(t6)
    assert (c3.output_stm, set(c3.output_vars)) == (14, {"d1"})
    assert (c6.output_stm, set(c6.output_vars)) == (15, {"d2"})
    assert dynamic_slice(t3, c3) == {1, 3, 7, 14}
    assert dynamic_slice(t6, c6) == {1, 3, 8, 15}


def test_slice_of_independent_statement_is_singleton():
    p = parse("x = 5\noutput(x)\n")
    rec = execute(p, {}, {"x": 5})
    crit = SliceCriterion(output_stm=1, output_vars=frozenset({"x"}), test_id="t")
    assert dynamic_slice(rec, crit) == {1}


def test_criterion_not_executed():
    p = parse("if x > 0 {\n  y = 1\n  output(y)\n}\noutput(x)\n")
    rec = execute(p, {"x": 0}, {"x": 0})
    crit = SliceCriterion(output_stm=3, output_vars=frozenset({"y"}), test_id="t")
    with pytest.raises(CriterionNotExecuted):
        dynamic_slice(rec, crit)


def test_slice_matches_forward_propagation_oracle():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 100:
        src, inputs = gen_random_program(rng, max_stmts=50)
        try:
            expected = oracle_output_slices(src, inputs)
        except RuntimeError:
            continue
        p = parse(src)
        rec = execute(p, inputs, {})
        assert rec.fault is None
        for stmt, var, want in expected[-3:]:
            crit = SliceCriterion(output_stm=stmt, output_vars=frozenset({var}),
                                  test_id="t")
            got = dynamic_slice(rec, crit)
            assert got == set(want), f"slice mismatch on:\n{src}"
        checked += 1


def test_fault_context_union(golden_semantic):
    assert golden_semantic == [1, 3, 7, 8, 14, 15]


def test_fault_context_single_test(golden_records):
    t3 = golden_records[2]
    assert fault_context([(t3, default_criterion(t3))]) == [1, 3, 7, 14]


def test_fault_context_duplicate_tests_dedup(golden_records):
    t3 = golden_records[2]
    pair = [(t3, default_criterion(t3)), (t3, default_criterion(t3))]
    assert fault_context(pair) == [1, 3, 7, 14]


def test_fault_context_requires_failures():
    with pytest.raises(NoFailingTests):
        fault_context([])


def test_monotonicity_adding_tests_never_shrinks(golden_records):
    t3 = golden_records[2]
    t6 = golden_records[5]
    small = fault_context([(t3, default_criterion(t3))])
    big = fault_context([(t3, default_criterion(t3)), (t6, default_criterion(t6))])
    assert set(small) <= set(big)


def test_fault_statement_lands_in_context(golden_version, golden_semantic):
    assert golden_version.mutation.target in golden_semantic


def test_context_export_json(golden_dataset, golden_semantic, golden_fused):
    statistical = contribution_select(golden_dataset.matrix)
    dump = json.loads(context_dump(golden_semantic, statistical, golden_fused, 1.0))
    assert dump == {"stm_sc": [1, 3, 7, 8, 14, 15], "stm_pca": statistical.stm_pca,
                    "stm_fusion": [1, 3, 14, 15], "alpha": 1.0, "m": statistical.m,
                    "k": 4}
