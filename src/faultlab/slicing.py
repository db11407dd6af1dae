"""Dynamic slicing and fault semantic context construction.

A slice is the set of statements whose executed occurrences reach a chosen
output occurrence through the transitive closure of dynamic data and
control dependence edges.  The fault semantic context is the sorted union
of the slices of several failing tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CriterionNotExecuted, NoFailingTests
from .minilang import ExecutionRecord


@dataclass(frozen=True)
class SliceCriterion:
    output_stm: int                  # statement index of the point of interest
    output_vars: frozenset[str]      # variables used there
    test_id: str                     # which test this criterion belongs to
    occurrence: int | None = None    # trace position; None = last occurrence


def default_criterion(record: ExecutionRecord) -> SliceCriterion:
    """Criterion for a failing record: its first wrong output statement.

    Falls back to the last executed output when the failure was a runtime
    fault that produced no wrong output event.
    """
    if not record.failing:
        raise NoFailingTests(f"test {record.test_id!r} passed; no criterion to derive")
    ev = record.first_wrong_output()
    if ev is None:
        if not record.output_events:
            raise CriterionNotExecuted(
                f"failing test {record.test_id!r} produced no output events"
            )
        ev = record.output_events[-1]
    return SliceCriterion(
        output_stm=ev.stmt,
        output_vars=frozenset([ev.var]),
        test_id=record.test_id,
        occurrence=ev.occ,
    )


def dynamic_slice(record: ExecutionRecord, criterion: SliceCriterion) -> set[int]:
    """Statements influencing the criterion occurrence, criterion included."""
    if criterion.occurrence is not None:
        occ0 = criterion.occurrence
        if not (0 <= occ0 < len(record.trace)) or record.trace[occ0] != criterion.output_stm:
            raise CriterionNotExecuted(
                f"occurrence {criterion.occurrence} is not an execution of "
                f"S_{criterion.output_stm}"
            )
    else:
        hits = [i for i, s in enumerate(record.trace) if s == criterion.output_stm]
        if not hits:
            raise CriterionNotExecuted(
                f"S_{criterion.output_stm} was not executed by test {criterion.test_id!r}"
            )
        occ0 = hits[-1]

    preds: dict[int, list[int]] = {}
    for a, b in record.data_edges:
        preds.setdefault(a, []).append(b)
    for a, b in record.control_edges:
        preds.setdefault(a, []).append(b)

    seen = {occ0}
    frontier = [occ0]
    while frontier:
        occ = frontier.pop()
        for dep in preds.get(occ, ()):
            if dep not in seen:
                seen.add(dep)
                frontier.append(dep)
    return {record.trace[occ] for occ in seen}


def fault_context(failing: list[tuple[ExecutionRecord, SliceCriterion]]) -> list[int]:
    """StmSC: the sorted union of the per-test slices."""
    if not failing:
        raise NoFailingTests("fault context needs at least one failing record")
    union: set[int] = set()
    for record, criterion in failing:
        union |= dynamic_slice(record, criterion)
    return sorted(union)
