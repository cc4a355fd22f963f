"""Verification gates: exact detector recovery and enumeration soundness.

Two checks anchor the whole package, and like every gate check they
return ``(passed, detail)``.  ``verify_detector`` demands that detection
on a planted instance returns exactly the planted record (scope,
parameters and evidence, order-insensitive).  ``verify_propagation``
enumerates the true feasible set over a record's scope and checks that the
propagator's reduced box keeps every feasible point and cuts off only when
the set is empty.  ``run_gate_ladder`` chains these into the deterministic
CI ladder used before any family is allowed into a benchmark: one loop runs
the gate checks of ``_CHECKS`` in order, times each against its
``GATE_TIME_CAPS`` budget, fails a gate whose check raises, and stops at the
first failed gate.  That loop is the only place a ``GateResult`` is built.
The checks judge the family's spec in ``families.FAMILIES``: they call its
detector, and run its rule and planter through ``propagate_record`` and
``reverse_sample``, which read the same entry.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from .families import FAMILIES, FamilySpec
from .model import DomainBox, MipModel, is_valid_reduction
from .propagate import propagate_block_fixpoint, propagate_record
from .records import Family, SemanticRecord, _codec
from .rowview import ModelView
from .search import propagate_node
from .synth import ObfuscationConfig, PlantedInstance, obfuscate, reverse_sample

log = logging.getLogger(__name__)

__all__ = [
    "ENUMERATION_CAP",
    "EnumerationResult",
    "GATES",
    "GATE_TIME_CAPS",
    "GateResult",
    "enumerate_feasible",
    "ladder_to_json",
    "run_gate_ladder",
    "verify_detector",
    "verify_propagation",
]

# wall-clock budgets per gate, seconds; generous for CI boxes.  A gate's
# time is checked only after it returns, so a slow gate fails loudly but a
# hung one is not stopped: the CI job's own timeout covers that
GATE_TIME_CAPS: dict[str, float] = {
    "load": 30.0,
    "detector_verification": 120.0,
    "propagator_soundness": 120.0,
    "smoke": 90.0,
}

ENUMERATION_CAP = 1_000_000

DETECTOR_SUITE_SIZE = 50
SOUNDNESS_SUITE_SIZE = 100


@dataclass(frozen=True)
class GateResult:
    gate: str
    passed: bool
    detail: str = ""
    elapsed: float = 0.0

    def __post_init__(self) -> None:
        if self.gate not in GATES:
            raise ValueError(f"unknown gate {self.gate!r}")


@dataclass(frozen=True)
class EnumerationResult:
    """Every integer-feasible assignment over an enumeration scope.

    ``feasible_points`` are tuples aligned with ``scope_vars`` (the integer
    subset of the requested scope, in request order).  When ``truncated`` is
    set the point set is a subset of the truth and must not be used to pass
    any gate.
    """

    feasible_points: frozenset[tuple[int, ...]]
    truncated: bool
    nodes_visited: int
    scope_vars: tuple[int, ...]

    def mappings(self) -> list[dict[int, float]]:
        return [
            dict(zip(self.scope_vars, point)) for point in sorted(self.feasible_points)
        ]


def enumerate_feasible(
    model: MipModel,
    scope: Sequence[int],
    cap: int = ENUMERATION_CAP,
) -> EnumerationResult:
    """Depth-first enumeration of integer scope assignments.

    Each node fixes one scope variable and re-tightens the box against all
    model rows; a node whose box empties is pruned with its whole subtree.
    Continuous variables (in or out of scope) are never enumerated, only
    interval-tightened, so a surviving leaf means the integer assignment is
    interval-consistent with every row.  Continuous scope variables are
    left out of ``scope_vars``.  An integer scope variable whose domain is
    still infinite where it is split raises ``ValueError``.
    """
    ints = [v for v in scope if model.variables[v].is_integer]

    rows = model.rows
    nodes = 0
    truncated = False
    feasible: set[tuple[int, ...]] = set()

    def consistent(box: DomainBox) -> bool:
        return not propagate_block_fixpoint(rows, box).cutoff

    stack: list[tuple[int, DomainBox]] = []
    root = DomainBox.from_model(model)
    if not root.is_empty() and consistent(root):
        stack.append((0, root))
    while stack:
        depth, box = stack.pop()
        if nodes >= cap:
            truncated = True
            break
        nodes += 1
        if depth == len(ints):
            feasible.add(tuple(int(round(box.lower[v])) for v in ints))
            continue
        var = ints[depth]
        lo, hi = box.lower[var], box.upper[var]
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"scope variable {var} has an infinite integer domain")
        last = int(round(hi))
        for value in range(int(round(lo)), last + 1):
            # the node is never read again, so its own box takes the last value
            child = box if value == last else box.copy()
            child.fix(var, float(value))
            if consistent(child):
                stack.append((depth + 1, child))
    return EnumerationResult(
        feasible_points=frozenset(feasible),
        truncated=truncated,
        nodes_visited=nodes,
        scope_vars=tuple(ints),
    )


def verify_detector(
    instance: PlantedInstance, detected: Sequence[SemanticRecord]
) -> tuple[bool, str]:
    """Pass iff exactly one record matches the planted family, scope, params
    and evidence (scope and evidence as sets); returns (passed, detail)."""
    truth = instance.ground_truth
    if not detected:
        return False, "no records"
    same = [r for r in detected if r.family is truth.family]
    if not same:
        return False, f"no {truth.family.value} record among {len(detected)} detected"
    if len(same) > 1:
        return False, f"{len(same)} {truth.family.value} records, expected one"
    # key() is (family, scope, params, evidence); the family already matches
    parts = zip(("scope", "params", "evidence"), same[0].key()[1:], truth.key()[1:])
    for part, got, want in parts:
        if got != want:
            return False, f"{part} mismatch"
    return True, "exact recovery"


def verify_propagation(model: MipModel, record: SemanticRecord) -> tuple[bool, str]:
    """Check the record's propagator against the enumerated feasible set.

    Returns (passed, detail).  Passes iff the reduced box contains every
    feasible point, stays inside the original box, and any reported cutoff
    coincides with an empty feasible set.  An enumeration truncated at
    ``ENUMERATION_CAP`` nodes is inconclusive and never passes.
    """
    enum = enumerate_feasible(model, record.scope, ENUMERATION_CAP)
    if enum.truncated:
        return False, f"inconclusive: enumeration truncated at {enum.nodes_visited} nodes"
    original = DomainBox.from_model(model)
    reduced = original.copy()
    outcome = propagate_record(model, record, reduced)
    points = enum.mappings()
    if outcome.cutoff and points:
        return False, f"cutoff despite {len(points)} feasible assignments"
    if not is_valid_reduction(original, reduced, points):
        return False, "reduced box excluded a feasible point"
    return True, (
        f"{len(outcome.bound_changes)} bound changes kept "
        f"all {len(points)} feasible assignments"
    )


def _artifact_completeness(spec: FamilySpec, suite_seed: int) -> tuple[bool, str]:
    """The spec names a detector, a params class the codec can walk, and a
    rule or None."""
    missing: list[str] = []
    if not callable(spec.detect):
        missing.append("detector")
    if spec.params is None:
        missing.append("record schema")
    else:
        try:
            _codec(spec.params)
        except TypeError:
            missing.append("serializer")
    if missing:
        return False, "missing: " + ", ".join(missing)
    propagator = "detect-only" if spec.rule is None else "propagator"
    return True, f"detector, record schema, {propagator}, serializer registered"


def _load(spec: FamilySpec, suite_seed: int) -> tuple[bool, str]:
    """The detector and search's node step run on an empty model and find nothing."""
    empty = MipModel(variables=(), rows=())
    found = spec.detect(ModelView(empty), None)
    propagate_node(empty, found, DomainBox.from_model(empty))
    return not found, f"empty model: {len(found)} records, fixpoint ran"


def _detector_verification(spec: FamilySpec, suite_seed: int) -> tuple[bool, str]:
    """The detector recovers the planted record of every obfuscated suite instance."""
    for seed in range(suite_seed, suite_seed + DETECTOR_SUITE_SIZE):
        instance = obfuscate(
            reverse_sample(spec.family, seed=seed), ObfuscationConfig(seed=seed)
        )
        records = spec.detect(ModelView(instance.model), None)
        passed, detail = verify_detector(instance, records)
        if not passed:
            return False, f"seed {seed}: {detail}"
    size = DETECTOR_SUITE_SIZE
    return True, f"{size}/{size} exactly recovered"


def _propagator_soundness(spec: FamilySpec, suite_seed: int) -> tuple[bool, str]:
    """The rule keeps every enumerated feasible point of each suite instance."""
    if spec.rule is None:
        # without a rule there is nothing to enumerate against: one record
        # must make no call and leave its box as declared
        instance = reverse_sample(spec.family, seed=suite_seed)
        declared = DomainBox.from_model(instance.model)
        box = declared.copy()
        out = propagate_record(instance.model, instance.ground_truth, box)
        unchanged = (box.lower, box.upper) == (declared.lower, declared.upper)
        if out.calls == 0 and unchanged:
            return True, "detect-only: no rule"
        return False, "detect-only record ran a rule"
    for seed in range(suite_seed, suite_seed + SOUNDNESS_SUITE_SIZE):
        instance = reverse_sample(spec.family, seed=seed)
        passed, detail = verify_propagation(instance.model, instance.ground_truth)
        if not passed:
            return False, f"seed {seed}: {detail}"
    size = SOUNDNESS_SUITE_SIZE
    return True, f"{size}/{size} sound against enumeration"


def _smoke(spec: FamilySpec, suite_seed: int) -> tuple[bool, str]:
    """Search's node step runs on one planted instance and does not cut it off."""
    instance = reverse_sample(spec.family, seed=suite_seed)
    records = spec.detect(ModelView(instance.model), None)
    box = DomainBox.from_model(instance.model)
    rows, by_records = propagate_node(instance.model, records, box)
    # the instance is planted feasible, so a cutoff is a soundness fault
    cutoff = rows.cutoff or by_records.cutoff
    return not cutoff, (
        f"{len(records)} records, {rows.domain_reductions} row and "
        f"{by_records.domain_reductions} record reductions, cutoff={cutoff}"
    )


# the ladder in gate order; each check takes the family's spec and the
# suite's first seed and returns (passed, detail)
_CHECKS = (
    ("artifact_completeness", _artifact_completeness),
    ("load", _load),
    ("detector_verification", _detector_verification),
    ("propagator_soundness", _propagator_soundness),
    ("smoke", _smoke),
)

GATES = tuple(gate for gate, _ in _CHECKS) + ("benchmark_ready",)


def run_gate_ladder(family: Family, suite_seed: int = 0) -> list[GateResult]:
    """Run the per-family CI ladder; a failing gate skips the rest.

    The returned list holds one result per executed gate plus a final
    ``benchmark_ready`` conjunction, so ``results[-1].passed`` is the single
    go/no-go flag.  Each gate's check runs once, timed; an exception it
    raises fails the gate with detail ``crashed: <repr>``, and a gate that
    passes over its ``GATE_TIME_CAPS`` budget fails too.  The suites run
    ``DETECTOR_SUITE_SIZE``/``SOUNDNESS_SUITE_SIZE`` seeds from
    ``suite_seed`` on.
    """
    spec = FAMILIES[family]
    results: list[GateResult] = []
    for gate, check in _CHECKS:
        started = time.perf_counter()
        try:
            passed, detail = check(spec, suite_seed)
        except Exception as exc:
            log.warning("%s: %s crashed", family.value, gate, exc_info=True)
            passed, detail = False, f"crashed: {exc!r}"
        elapsed = time.perf_counter() - started
        limit = GATE_TIME_CAPS.get(gate)
        if passed and limit is not None and elapsed > limit:
            passed = False
            detail = f"timeout: {elapsed:.1f}s over the {limit:.0f}s cap ({detail})"
        results.append(GateResult(gate, passed, detail, elapsed))
        if not passed:
            results.append(GateResult("benchmark_ready", False, f"blocked by {gate}"))
            return results
    results.append(GateResult("benchmark_ready", True, "all gates passed"))
    return results


def ladder_to_json(family: Family, results: Iterable[GateResult]) -> dict:
    rows = list(results)
    return {
        "family": family.value,
        "gates": [
            {
                "gate": r.gate,
                "passed": r.passed,
                "detail": r.detail,
                "elapsed_s": round(r.elapsed, 6),
                "limit_s": GATE_TIME_CAPS.get(r.gate),
            }
            for r in rows
        ],
        "benchmark_ready": bool(rows) and rows[-1].gate == "benchmark_ready" and rows[-1].passed,
    }
