"""Verification gates: exact detector recovery and enumeration soundness.

Two checks anchor the whole package.  ``verify_detector`` demands that
detection on a planted instance returns exactly the planted record (scope
and parameters, order-insensitive).  ``verify_propagation`` enumerates the
true feasible set over a record's scope and checks that the propagator's
reduced box keeps every feasible point and cuts off only when the set is
empty.  ``run_gate_ladder`` chains these into the deterministic CI ladder
used before any family is allowed into a benchmark.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .detect import DETECTORS, detect_all
from .model import DomainBox, MipModel, is_valid_reduction
from .propagate import (
    DETECT_ONLY,
    HANDLED_FAMILIES,
    propagate_block_fixpoint,
    propagate_record,
)
from .records import PARAMS_CLASSES, Family, SemanticRecord, _codec, params_key
from .search import propagate_node
from .synth import ObfuscationConfig, PlantedInstance, obfuscate, reverse_sample

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

GATES = (
    "artifact_completeness",
    "load",
    "detector_verification",
    "propagator_soundness",
    "smoke",
    "benchmark_ready",
)

# wall-clock budgets per gate, seconds; generous for CI boxes, enforced
# post-hoc so a slow gate fails loudly instead of hanging a runner
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
    left out of ``scope_vars``.
    """
    ints: list[int] = []
    for v in scope:
        var = model.variables[v]
        if not var.is_integer:
            continue
        if not (math.isfinite(var.lower) and math.isfinite(var.upper)):
            raise ValueError(f"scope variable {v} has an infinite integer domain")
        ints.append(v)

    rows = model.rows
    nodes = 0
    truncated = False
    feasible: set[tuple[int, ...]] = set()

    def consistent(box: DomainBox) -> bool:
        return not propagate_block_fixpoint(rows, box).cutoff

    stack: list[tuple[int, DomainBox]] = []
    root = DomainBox.from_model(model)
    if consistent(root):
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
        lo = int(round(box.lower[var]))
        hi = int(round(box.upper[var]))
        for value in range(lo, hi + 1):
            child = box.copy()
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
) -> GateResult:
    """Pass iff exactly one record matches the planted family, scope, params."""
    started = time.perf_counter()
    truth = instance.ground_truth

    def done(passed: bool, detail: str) -> GateResult:
        return GateResult(
            "detector_verification", passed, detail, time.perf_counter() - started
        )

    if not detected:
        return done(False, "no records")
    same = [r for r in detected if r.family is truth.family]
    if not same:
        return done(
            False, f"no {truth.family.value} record among {len(detected)} detected"
        )
    if len(same) > 1:
        return done(False, f"{len(same)} {truth.family.value} records, expected one")
    found = same[0]
    if set(found.scope) != set(truth.scope):
        return done(False, "scope mismatch")
    if params_key(found.params) != params_key(truth.params):
        return done(False, "params mismatch")
    return done(True, "exact recovery")


def verify_propagation(
    model: MipModel,
    record: SemanticRecord,
    cap: int = ENUMERATION_CAP,
) -> GateResult:
    """Check the record's propagator against the enumerated feasible set.

    Passes iff the reduced box contains every feasible point, stays inside
    the original box, and any reported cutoff coincides with an empty
    feasible set.  A truncated enumeration is inconclusive and never passes.
    """
    started = time.perf_counter()
    enum = enumerate_feasible(model, record.scope, cap)

    def done(passed: bool, detail: str) -> GateResult:
        return GateResult(
            "propagator_soundness", passed, detail, time.perf_counter() - started
        )

    if enum.truncated:
        return done(
            False, f"inconclusive: enumeration truncated at {enum.nodes_visited} nodes"
        )
    original = DomainBox.from_model(model)
    reduced = original.copy()
    outcome = propagate_record(model, record, reduced)
    points = enum.mappings()
    if outcome.cutoff and points:
        return done(False, f"cutoff despite {len(points)} feasible assignments")
    if not is_valid_reduction(original, reduced, points):
        return done(False, "reduced box excluded a feasible point")
    return done(
        True,
        f"{len(outcome.bound_changes)} bound changes kept "
        f"all {len(points)} feasible assignments",
    )


Detector = Callable[[MipModel], list[SemanticRecord]]


def _default_detector(model: MipModel) -> list[SemanticRecord]:
    return list(detect_all(model).records)


def _artifact_completeness(family: Family) -> tuple[bool, str]:
    missing: list[str] = []
    if not callable(DETECTORS.get(family)):
        missing.append("detector")
    params_class = PARAMS_CLASSES.get(family)
    if params_class is None:
        missing.append("record schema")
    else:
        try:
            _codec(params_class)
        except TypeError:
            missing.append("serializer")
    if family in DETECT_ONLY:
        propagator = "detect-only"
    elif family in HANDLED_FAMILIES:
        propagator = "propagator"
    else:
        missing.append("propagator")
    if missing:
        return False, "missing: " + ", ".join(missing)
    return True, f"detector, record schema, {propagator}, serializer registered"


def run_gate_ladder(
    family: Family,
    suite_seed: int = 0,
    *,
    detector: Detector | None = None,
) -> list[GateResult]:
    """Run the per-family CI ladder; a failing gate skips the rest.

    The returned list holds one result per executed gate plus a final
    ``benchmark_ready`` conjunction, so ``results[-1].passed`` is the single
    go/no-go flag.  ``detector`` substitutes the detection entry point (the
    ladder's own regression tests stub it).  The suites run
    ``DETECTOR_SUITE_SIZE``/``SOUNDNESS_SUITE_SIZE`` seeds from ``suite_seed``
    on; ``load`` and ``smoke`` run search's node step, ``propagate_node``.
    Each gate is held to its ``GATE_TIME_CAPS`` budget.
    """
    detect_fn = detector or _default_detector
    results: list[GateResult] = []

    def finish(gate: str, passed: bool, detail: str, started: float) -> bool:
        elapsed = time.perf_counter() - started
        limit = GATE_TIME_CAPS.get(gate)
        if passed and limit is not None and elapsed > limit:
            passed = False
            detail = f"timeout: {elapsed:.1f}s over the {limit:.0f}s cap ({detail})"
        results.append(GateResult(gate, passed, detail, elapsed))
        return passed

    def ready() -> list[GateResult]:
        blocked = [r.gate for r in results if not r.passed]
        if blocked:
            results.append(
                GateResult("benchmark_ready", False, f"blocked by {blocked[0]}")
            )
        else:
            results.append(GateResult("benchmark_ready", True, "all gates passed"))
        return results

    started = time.perf_counter()
    ok, detail = _artifact_completeness(family)
    if not finish("artifact_completeness", ok, detail, started):
        return ready()

    started = time.perf_counter()
    try:
        empty = MipModel(variables=(), rows=())
        found = detect_fn(empty)
        propagate_node(empty, found, DomainBox.from_model(empty))
        ok, detail = not found, f"empty model: {len(found)} records, fixpoint ran"
    except Exception as exc:
        ok, detail = False, f"crashed on empty model: {exc!r}"
    if not finish("load", ok, detail, started):
        return ready()

    started = time.perf_counter()
    size = DETECTOR_SUITE_SIZE
    ok, detail = True, f"{size}/{size} exactly recovered"
    for i in range(size):
        seed = suite_seed + i
        instance = obfuscate(
            reverse_sample(family, seed=seed), ObfuscationConfig(seed=seed)
        )
        step = verify_detector(instance, detect_fn(instance.model))
        if not step.passed:
            ok = False
            detail = f"seed {seed}: {step.detail}"
            break
    if not finish("detector_verification", ok, detail, started):
        return ready()

    started = time.perf_counter()
    ok = True
    size = SOUNDNESS_SUITE_SIZE
    detail = f"{size}/{size} sound against enumeration"
    for i in range(size):
        seed = suite_seed + i
        instance = reverse_sample(family, seed=seed)
        step = verify_propagation(instance.model, instance.ground_truth)
        if not step.passed:
            ok = False
            detail = f"seed {seed}: {step.detail}"
            break
    if not finish("propagator_soundness", ok, detail, started):
        return ready()

    started = time.perf_counter()
    try:
        instance = reverse_sample(family, seed=suite_seed)
        records = detect_fn(instance.model)
        box = DomainBox.from_model(instance.model)
        rows, by_records = propagate_node(instance.model, records, box)
        # the instance is planted feasible, so a cutoff is a soundness fault
        cutoff = rows.cutoff or by_records.cutoff
        ok = not cutoff
        detail = (
            f"{len(records)} records, {rows.domain_reductions} row and "
            f"{by_records.domain_reductions} record reductions, cutoff={cutoff}"
        )
    except Exception as exc:
        ok, detail = False, f"crashed: {exc!r}"
    finish("smoke", ok, detail, started)
    return ready()


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
