"""`build_suite` against a loop that runs both programs on every draw.

`build_suite` runs the faulty program only on a draw whose reference run
reaches the mutated statement, since before that statement runs the two
programs run the same code.  The loop below runs both programs on every
draw, so the suites, and the counts named when a suite falls short, must
come out the same, for every template and for random programs with one
seeded fault.
"""

import numpy as np
import pytest

from faultlab.corpus import TEMPLATES, TemplateInstance, build_suite
from faultlab.errors import InvalidTarget, TemplateError
from faultlab.minilang import Mutation, execute, parse, seed_fault
from faultlab.minilang import TestCase as Case
from randprog import gen_random_program

PAYLOADS = {
    "constant-replacement": ["0", "1", "7"],
    "operator-flip": ["+", "-", "*", "<", ">="],
    "off-by-one": ["+1", "-1"],
}


def reference_suite(instance, correct, faulty, rng, n_fail, n_pass, attempts=600):
    """(suite, failing count, passing count, draws that never reached the
    mutated statement), running the faulty program on every draw."""
    fails, passes, ordered = [], [], []
    seen = set()
    unreached = 0
    for _ in range(attempts):
        if len(fails) >= n_fail and len(passes) >= n_pass:
            break
        inputs = instance.sample_inputs(rng)
        key = tuple(sorted(inputs.items()))
        if key in seen:
            continue
        seen.add(key)
        ref = execute(correct, inputs, {})
        if ref.fault is not None:
            continue
        unreached += instance.mutation.target not in ref.trace
        failing = execute(faulty, inputs, ref.outputs).failing
        case = Case(inputs=inputs, oracle=ref.outputs)
        if failing and len(fails) < n_fail:
            fails.append(case)
            ordered.append(case)
        elif not failing and len(passes) < n_pass:
            passes.append(case)
            ordered.append(case)
    return ordered, len(fails), len(passes), unreached


def assert_same_suite(instance, seed, n_fail, n_pass):
    """Returns (whether the suite was complete, draws that never reached
    the mutated statement)."""
    correct = parse(instance.source)
    faulty = seed_fault(correct, instance.mutation)
    want, got_fail, got_pass, unreached = reference_suite(
        instance, correct, faulty, np.random.default_rng(seed), n_fail, n_pass)
    if got_fail < n_fail or got_pass < n_pass:
        with pytest.raises(TemplateError, match=rf"\(got {got_fail}/{got_pass}\)"):
            build_suite(instance, correct, faulty, np.random.default_rng(seed),
                        n_fail, n_pass)
        return False, unreached
    got = build_suite(instance, correct, faulty, np.random.default_rng(seed),
                      n_fail, n_pass)
    assert got == want
    return True, unreached


def test_template_suites_equal_both_programs_on_every_draw():
    unreached = 0
    for maker in TEMPLATES:
        for seed in range(6):
            instance = maker(np.random.default_rng(seed))
            complete, skipped = assert_same_suite(instance, seed + 100, 3, 9)
            assert complete, (maker.__name__, seed)
            unreached += skipped
    assert unreached > 0


def _random_instance(rng):
    """A random program with one seeded fault; None when the drawn
    statement has no token the drawn mutation can change."""
    source, inputs = gen_random_program(rng, max_stmts=30)
    program = parse(source)
    kind = str(rng.choice(sorted(PAYLOADS)))
    mutation = Mutation(target=int(rng.integers(1, program.size + 1)), kind=kind,
                        payload=str(rng.choice(PAYLOADS[kind])))
    try:
        seed_fault(program, mutation)
    except InvalidTarget:
        return None
    names = sorted(inputs)
    return TemplateInstance(
        name="random", source=source, mutation=mutation,
        sample_inputs=lambda r: {v: int(r.integers(-3, 8)) for v in names})


def test_random_program_suites_equal_both_programs_on_every_draw():
    rng = np.random.default_rng(2024)
    complete = unreached = tried = 0
    while tried < 40:
        instance = _random_instance(rng)
        if instance is None:
            continue
        tried += 1
        done, skipped = assert_same_suite(instance, tried, 2, 5)
        complete += done
        unreached += skipped
    assert complete > 0 and unreached > 0
