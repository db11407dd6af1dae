"""Seeded-fault benchmark corpus: program templates, mutation, test suites.

Every version directory holds the correct source, the mutated source, the
mutation record, and a JSON test suite whose oracles come from running
the correct program.  Suites are deliberately imbalanced (more passing
than failing tests).  The first version is a fixed 16-statement program
whose failure anatomy is known exactly; it doubles as the golden fixture
for the walkthrough tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InvalidRange, IoError, TemplateError
from .minilang import (
    Mutation,
    Program,
    TestCase,
    execute,
    load_suite,
    parse,
    save_suite,
    seed_fault,
)

# ---------------------------------------------------------------------------
# The fixed illustrative version: 16 statements, fault at S_3 (6 -> 0),
# four passing and two failing tests.  Wrong values flow 3 -> {7,8} -> {14,15};
# the p/q inputs mask one consumer at a time, so t3 fails first at S_14 and
# t6 first at S_15.  Statements 10-12 execute only when a test fails, which
# makes them the top-ranked red herrings before augmentation.

GOLDEN_SOURCE = """\
if enabled > 0 {
  base = tick + 2
  scale = 6
  span = base * 2
  if mode > 0 {
    span = span + base
  }
  d1 = scale * p
  d2 = scale * q
  if p + q > 0 {
    flag = p + q
    extra = flag * 2
    noise = extra - flag
  }
  output(span)
  output(d1)
  output(d2)
}
output(tick)
"""

GOLDEN_MUTATION = Mutation(target=3, kind="constant-replacement", payload="0")

GOLDEN_INPUTS = [
    {"enabled": 1, "mode": 1, "p": 0, "q": 0, "tick": 3},
    {"enabled": 0, "mode": 0, "p": 0, "q": 0, "tick": 5},
    {"enabled": 1, "mode": 0, "p": 2, "q": 0, "tick": 4},
    {"enabled": 1, "mode": 1, "p": 0, "q": 0, "tick": 7},
    {"enabled": 1, "mode": 0, "p": 0, "q": 0, "tick": 2},
    {"enabled": 1, "mode": 1, "p": 0, "q": 3, "tick": 6},
]


@dataclass
class TemplateInstance:
    name: str
    source: str
    mutation: Mutation
    sample_inputs: callable          # rng -> dict of input values
    fixed_suite: list[TestCase] | None = None


@dataclass
class Version:
    version_id: str
    template: str
    program: Program                 # correct program
    faulty: Program
    mutation: Mutation
    suite: list[TestCase]

    @property
    def faulty_statements(self) -> set[int]:
        return {self.mutation.target}


def golden_template(_rng=None) -> TemplateInstance:
    program = parse(GOLDEN_SOURCE)
    suite = [TestCase(inputs=d, oracle=execute(program, d, {}).outputs) for d in GOLDEN_INPUTS]
    return TemplateInstance(
        name="illustrative",
        source=GOLDEN_SOURCE,
        mutation=GOLDEN_MUTATION,
        sample_inputs=None,
        fixed_suite=suite,
    )


# ---------------------------------------------------------------------------
# Procedural templates.  All follow the same failure anatomy as the golden
# program: a guarded region with a faulty statement, two consumers masked
# by independent inputs, and a data-flow-dead block that executes exactly
# when the masks are active.

def _masked_scale(rng: np.random.Generator) -> TemplateInstance:
    good = int(rng.integers(3, 9))
    bad = int(rng.integers(0, 3))
    if bad >= good:
        bad = good - 2
    pad = int(rng.integers(1, 5))
    source = f"""\
if gate > 0 {{
  left = seed + {pad}
  width = {good}
  area = left * 2
  if trim > 0 {{
    area = area - left
  }}
  m1 = width * u
  m2 = width * v
  if u + v > 0 {{
    mark = u + v
    shade = mark * 2
    ghost = shade - mark
  }}
  output(area)
  output(m1)
  output(m2)
}}
output(seed)
"""

    def sample(r):
        failing = r.random() < 0.32
        u = int(r.integers(1, 4)) if failing and r.random() < 0.5 else 0
        v = int(r.integers(1, 4)) if failing and u == 0 else 0
        return {
            "gate": int(r.random() < 0.85),
            "trim": int(r.random() < 0.5),
            "u": u,
            "v": v,
            "seed": int(r.integers(0, 10)),
        }

    return TemplateInstance(
        name="masked_scale",
        source=source,
        mutation=Mutation(target=3, kind="constant-replacement", payload=str(bad)),
        sample_inputs=sample,
    )


def _branch_flip(rng: np.random.Generator) -> TemplateInstance:
    cut = int(rng.integers(4, 9))
    bump = int(rng.integers(1, 4))
    source = f"""\
if run > 0 {{
  level = sensor + {bump}
  cut = {cut}
  if level > cut {{
    state = 2
  }} else {{
    state = 1
  }}
  mix = state * boost
  if boost > 0 {{
    aux = boost + level
    spin = aux * 2
  }}
  output(mix)
  report = level - sensor
  output(report)
}}
output(run)
"""

    def sample(r):
        return {
            "run": int(r.random() < 0.9),
            "sensor": int(r.integers(0, 14)),
            "boost": int(r.integers(1, 4)) if r.random() < 0.3 else 0,
        }

    return TemplateInstance(
        name="branch_flip",
        source=source,
        mutation=Mutation(target=4, kind="operator-flip", payload="<"),
        sample_inputs=sample,
    )


def _loop_pay(rng: np.random.Generator) -> TemplateInstance:
    rate = int(rng.integers(4, 9))
    source = f"""\
total = 0
i = rounds
while i > 0 {{
  total = total + gain
  i = i - 1
}}
base = {rate}
rate = base + 2
pay1 = rate * hours
pay2 = rate * extra
if hours + extra > 0 {{
  probe = hours + extra
  trace = probe * 3
}}
output(total)
output(pay1)
output(pay2)
"""

    def sample(r):
        failing = r.random() < 0.3
        hours = int(r.integers(1, 5)) if failing and r.random() < 0.5 else 0
        extra = int(r.integers(1, 5)) if failing and hours == 0 else 0
        return {
            "rounds": int(r.integers(0, 4)),
            "gain": int(r.integers(1, 5)),
            "hours": hours,
            "extra": extra,
        }

    return TemplateInstance(
        name="loop_pay",
        source=source,
        mutation=Mutation(target=6, kind="off-by-one", payload="-1"),
        sample_inputs=sample,
    )


def _chain(rng: np.random.Generator) -> TemplateInstance:
    k0 = int(rng.integers(2, 6))
    k1 = int(rng.integers(5, 11))
    source = f"""\
if active > 0 {{
  src = feed + {k0}
  coef = {k1}
  step1 = src * 2
  step2 = step1 + src
  out1 = coef * dial
  out2 = coef * knob + 1
  if dial + knob > 0 {{
    echo = dial + knob
    twin = echo + echo
  }}
  output(step2)
  output(out1)
  output(out2)
}}
blank = feed - feed
output(blank)
"""

    def sample(r):
        failing = r.random() < 0.34
        dial = int(r.integers(1, 4)) if failing and r.random() < 0.5 else 0
        knob = int(r.integers(1, 4)) if failing and dial == 0 else 0
        return {
            "active": int(r.random() < 0.82),
            "feed": int(r.integers(0, 9)),
            "dial": dial,
            "knob": knob,
        }

    return TemplateInstance(
        name="chain",
        source=source,
        mutation=Mutation(target=3, kind="constant-replacement",
                          payload=str(int(rng.integers(0, 3)))),
        sample_inputs=sample,
    )


def _dual_gate(rng: np.random.Generator) -> TemplateInstance:
    base = int(rng.integers(5, 10))
    source = f"""\
ticks = 0
j = laps
while j > 0 {{
  ticks = ticks + 2
  j = j - 1
}}
if arm > 0 {{
  core = {base}
  load1 = core * amp
  load2 = core * vol
  if amp + vol > 0 {{
    resid = amp + vol
    shadow = resid * resid
  }}
  output(load1)
  output(load2)
}}
output(ticks)
"""

    def sample(r):
        failing = r.random() < 0.3
        amp = int(r.integers(1, 4)) if failing and r.random() < 0.5 else 0
        vol = int(r.integers(1, 4)) if failing and amp == 0 else 0
        return {
            "laps": int(r.integers(0, 4)),
            "arm": int(r.random() < 0.85),
            "amp": amp,
            "vol": vol,
        }

    return TemplateInstance(
        name="dual_gate",
        source=source,
        mutation=Mutation(target=7, kind="constant-replacement",
                          payload=str(int(rng.integers(0, 4)))),
        sample_inputs=sample,
    )


def _offset_sum(rng: np.random.Generator) -> TemplateInstance:
    off = int(rng.integers(3, 8))
    source = f"""\
if live > 0 {{
  lead = pulse + 1
  bias = {off}
  sum1 = bias + lead * wa
  sum2 = bias + lead * wb
  if wa + wb > 0 {{
    drift = wa + wb
    haze = drift * 2
    fog = haze - drift
  }}
  gap = lead - pulse
  output(sum1)
  output(sum2)
  output(gap)
}}
output(pulse)
"""

    def sample(r):
        failing = r.random() < 0.32
        wa = int(r.integers(1, 4)) if failing and r.random() < 0.5 else 0
        wb = int(r.integers(1, 4)) if failing and wa == 0 else 0
        return {
            "live": int(r.random() < 0.88),
            "pulse": int(r.integers(0, 8)),
            "wa": wa,
            "wb": wb,
        }

    # the fault sits on the shared bias, so both sums drift when covered
    return TemplateInstance(
        name="offset_sum",
        source=source,
        mutation=Mutation(target=3, kind="off-by-one", payload="+1"),
        sample_inputs=sample,
    )


TEMPLATES = [_masked_scale, _branch_flip, _loop_pay, _chain, _dual_gate, _offset_sum]


# ---------------------------------------------------------------------------
# Suite construction and corpus generation

def build_suite(instance: TemplateInstance, correct: Program, faulty: Program,
                rng: np.random.Generator, n_fail: int, n_pass: int,
                attempts: int = 600) -> list[TestCase]:
    """Draw an imbalanced suite: n_fail failing + n_pass passing tests.

    `correct` is the instance's parsed source and `faulty` that program
    with the instance's mutation seeded.  A draw on which the correct
    program faults is skipped.  The faulty program runs the same code
    until the mutated statement runs, so it runs only on a draw whose
    reference run reaches that statement; any other draw passes.
    """
    if instance.fixed_suite is not None:
        return list(instance.fixed_suite)
    fails: list[TestCase] = []
    passes: list[TestCase] = []
    seen: set[tuple] = set()
    ordered: list[tuple[str, TestCase]] = []
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
        case = TestCase(inputs=inputs, oracle=ref.outputs)
        failing = (bool(ref.coverage_row[instance.mutation.target - 1])
                   and execute(faulty, inputs, ref.outputs).failing)
        if failing and len(fails) < n_fail:
            fails.append(case)
            ordered.append(("f", case))
        elif not failing and len(passes) < n_pass:
            passes.append(case)
            ordered.append(("p", case))
    if len(fails) < n_fail or len(passes) < n_pass:
        raise TemplateError(
            f"template {instance.name!r}: could not reach {n_fail} failing / "
            f"{n_pass} passing tests (got {len(fails)}/{len(passes)})"
        )
    return [case for _, case in ordered]


def make_version(version_id: str, instance: TemplateInstance,
                 rng: np.random.Generator,
                 n_fail: int | None = None, n_pass: int | None = None) -> Version:
    program = parse(instance.source)
    faulty = seed_fault(program, instance.mutation)
    if instance.fixed_suite is None:
        n_fail = n_fail if n_fail is not None else int(rng.integers(2, 4))
        n_pass = n_pass if n_pass is not None else int(rng.integers(6, 10))
    suite = build_suite(instance, program, faulty, rng, n_fail or 0, n_pass or 0)
    return Version(
        version_id=version_id,
        template=instance.name,
        program=program,
        faulty=faulty,
        mutation=instance.mutation,
        suite=suite,
    )


def generate_corpus(count: int, seed: int,
                    include_golden: bool = True) -> list[Version]:
    """Build `count` seeded-fault versions in memory (golden first)."""
    for name, value in (("count", count), ("seed", seed)):
        if value < 0:
            raise InvalidRange(f"{name} must be >= 0, got {value}")
    versions: list[Version] = []
    if include_golden and count > 0:
        versions.append(make_version("v000_illustrative", golden_template(), None))
    cursor = 0
    attempt = 0
    while len(versions) < count:
        maker = TEMPLATES[cursor % len(TEMPLATES)]
        sub = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(1, attempt)))
        attempt += 1
        cursor += 1
        try:
            instance = maker(sub)
            vid = f"v{len(versions):03d}_{instance.name}"
            versions.append(make_version(vid, instance, sub))
        except TemplateError:
            if attempt > count * 20:
                raise
            continue
    return versions


def write_corpus(versions: list[Version], out_dir: str | Path) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = []
    for v in versions:
        vdir = out / v.version_id
        vdir.mkdir(parents=True, exist_ok=True)
        (vdir / "program.txt").write_text(v.program.source)
        (vdir / "faulty.txt").write_text(v.faulty.source)
        (vdir / "mutation.json").write_text(json.dumps(v.mutation.to_dict(), indent=2) + "\n")
        save_suite(vdir / "tests.json", v.suite)
        (vdir / "meta.json").write_text(json.dumps({
            "version_id": v.version_id,
            "template": v.template,
            "faulty_statements": sorted(v.faulty_statements),
        }, indent=2) + "\n")
        manifest.append(v.version_id)
    (out / "manifest.json").write_text(json.dumps({"versions": manifest}, indent=2) + "\n")
    return out


# What reading a missing, unreadable or malformed corpus file raises:
# OSError, ValueError (bad JSON, UTF-8 or integer), KeyError, TypeError.
_READ_ERRORS = (OSError, ValueError, KeyError, TypeError)


def load_version(vdir: str | Path) -> Version:
    vdir = Path(vdir)
    try:
        meta = json.loads((vdir / "meta.json").read_text())
        version_id, template = meta["version_id"], meta["template"]
        mutation = Mutation.from_dict(json.loads((vdir / "mutation.json").read_text()))
        program_src = (vdir / "program.txt").read_text()
        faulty_src = (vdir / "faulty.txt").read_text()
        suite = load_suite(vdir / "tests.json")
    except _READ_ERRORS as exc:
        raise IoError(f"cannot load version {vdir}: {type(exc).__name__}: {exc}") from exc
    return Version(
        version_id=version_id,
        template=template,
        program=parse(program_src),
        faulty=parse(faulty_src),
        mutation=mutation,
        suite=suite,
    )


def read_manifest(corpus_dir: str | Path) -> list[str]:
    """The corpus's version ids, in manifest order."""
    corpus_dir = Path(corpus_dir)
    try:
        version_ids = json.loads((corpus_dir / "manifest.json").read_text())["versions"]
    except _READ_ERRORS as exc:
        raise IoError(f"cannot load corpus {corpus_dir}: {type(exc).__name__}: {exc}") from exc
    if not isinstance(version_ids, list) or not all(isinstance(v, str) for v in version_ids):
        raise IoError(f"cannot load corpus {corpus_dir}: 'versions' is not a list of ids")
    if len(set(version_ids)) < len(version_ids):
        twice = next(v for i, v in enumerate(version_ids) if v in version_ids[:i])
        raise IoError(f"cannot load corpus {corpus_dir}: version {twice!r} is listed twice")
    return version_ids


def load_corpus(corpus_dir: str | Path) -> list[Version]:
    return [load_version(Path(corpus_dir) / vid) for vid in read_manifest(corpus_dir)]
