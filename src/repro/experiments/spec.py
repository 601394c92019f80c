"""Experiment specs: parsing, validation, and deterministic expansion.

A spec is a TOML or JSON document with five parts::

    [experiment]            # identity
    name = "ci_smoke"
    title = "CI smoke sweep"
    seed = 0                # base seed for operand generation

    [axes]                  # the matrix dimensions (lists of values)
    device = ["quadro6000"]
    op = ["qr", "lu"]
    size = [4, 8]
    precision = ["float32"]
    approach = ["runtime", "per_thread"]
    fault_plan = ["none"]   # optional; default ["none"]

    [policy]                # per-cell execution policy (all optional)
    batch = 64              # problems per cell
    repeats = 1             # timing repeats (wall = min over repeats)
    budget_s = 0.0          # per-cell wall budget; 0 disables

    [[policy.override]]     # later overrides win
    match = { approach = "runtime" }
    batch = 128

    [[exclude]]             # drop matching cells (list values = any-of)
    approach = "per_thread"
    size = [16, 24]

    [[include]]             # explicit extra cells (full axis bindings)
    device = "quadro6000"
    op = "qr"
    size = 56
    precision = "float32"
    approach = "runtime"

    [gates]                 # defaults for ``run --strict`` / ``diff``
    tolerance = 0.10
    baseline = "../baselines/ci_smoke.json"   # relative to the spec file

Expansion is **deterministic and order-free**: cells are the cartesian
product of the axes (minus excludes, plus includes, deduplicated),
sorted by the canonical axis order :data:`AXES` -- so reordering the
axis tables *or* the values inside an axis yields the identical plan,
and the same spec always produces the identical cell sequence (the
property tests pin both).  ``fault_plan`` values other than ``"none"``
only combine with the ``runtime`` approach (fault injection happens
inside :class:`~repro.runtime.BatchRuntime` workers); other combinations
are pruned at expansion and reported by ``plan``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Mapping, Optional, Sequence, get_args

from ..approaches.base import Kind
from ..gpu.device import G80, GTX480, QUADRO_6000
from ..kernels.device.registry import RUNTIME_KERNELS
from ..observe.export import load_document, require_keys
from ..resilience.faults import parse_faults

__all__ = [
    "AXES",
    "DEVICES",
    "OPS",
    "PRECISIONS",
    "SPEC_SCHEMA",
    "Cell",
    "CellPolicy",
    "Constraint",
    "ExperimentSpec",
    "SpecError",
    "expand_cells",
    "load_spec",
    "plan_fingerprint",
    "spec_from_dict",
]

#: Bump when the spec layout or expansion semantics change.
SPEC_SCHEMA = 1

#: Canonical axis order: expansion, cell ids, and sorting all use this
#: fixed order, never the order the spec file happens to declare.
AXES = ("device", "op", "size", "precision", "approach", "fault_plan")

#: Simulated devices a spec may target.
DEVICES = {
    "quadro6000": QUADRO_6000,
    "gtx480": GTX480,
    "g80": G80,
}

#: Union of runtime kernel names and approach-layer workload kinds; the
#: per-approach support matrix lives in :mod:`repro.experiments.runner`.
OPS = tuple(sorted({*RUNTIME_KERNELS, *get_args(Kind)}))

PRECISIONS = ("complex64", "float32", "float64")

_TOP_LEVEL_KEYS = {"experiment", "axes", "policy", "exclude", "include", "gates"}
_EXPERIMENT_KEYS = {"name", "title", "seed"}
_POLICY_KEYS = {"batch", "repeats", "budget_s"}
_GATES_KEYS = {"tolerance", "baseline"}


class SpecError(ValueError):
    """A spec that fails validation (unknown axis, bad value, ...)."""


@dataclasses.dataclass(frozen=True)
class Constraint:
    """One include/exclude clause: axis -> allowed values (any-of)."""

    clauses: tuple[tuple[str, tuple], ...]

    @classmethod
    def from_mapping(cls, mapping: Mapping, where: str) -> "Constraint":
        clauses = []
        for axis in sorted(mapping):
            if axis not in AXES:
                raise SpecError(
                    f"{where}: unknown axis {axis!r}; axes are {', '.join(AXES)}"
                )
            value = mapping[axis]
            values = tuple(value) if isinstance(value, (list, tuple)) else (value,)
            if not values:
                raise SpecError(f"{where}: empty value list for axis {axis!r}")
            clauses.append((axis, tuple(_check_axis_value(axis, v) for v in values)))
        if not clauses:
            raise SpecError(f"{where}: constraint binds no axis")
        return cls(clauses=tuple(clauses))

    def matches(self, point: Mapping) -> bool:
        return all(point[axis] in values for axis, values in self.clauses)

    def to_dict(self) -> dict:
        return {
            axis: (list(values) if len(values) > 1 else values[0])
            for axis, values in self.clauses
        }


@dataclasses.dataclass(frozen=True)
class CellPolicy:
    """Execution policy attached to every expanded cell."""

    batch: int = 64
    repeats: int = 1
    #: Per-cell wall budget in seconds; 0 disables the budget check.
    budget_s: float = 0.0

    def __post_init__(self) -> None:
        if self.batch < 1:
            raise SpecError("policy.batch must be >= 1")
        if self.repeats < 1:
            raise SpecError("policy.repeats must be >= 1")
        if self.budget_s < 0:
            raise SpecError("policy.budget_s must be >= 0")

    def replace(self, overrides: Mapping) -> "CellPolicy":
        return dataclasses.replace(self, **dict(overrides))

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class Cell:
    """One fully-bound point of the matrix, ready to execute."""

    device: str
    op: str
    size: int
    precision: str
    approach: str
    fault_plan: str
    policy: CellPolicy

    @property
    def id(self) -> str:
        """Stable identifier: ``device/op/n{size}/precision/approach/fault``."""
        return (
            f"{self.device}/{self.op}/n{self.size}/"
            f"{self.precision}/{self.approach}/{self.fault_plan}"
        )

    def point(self) -> dict:
        return {axis: getattr(self, axis) for axis in AXES}

    def sort_key(self) -> tuple:
        return (
            self.device,
            self.op,
            self.size,
            self.precision,
            self.approach,
            self.fault_plan,
        )


@dataclasses.dataclass(frozen=True)
class ExperimentSpec:
    """A parsed, validated spec (see the module docstring for grammar)."""

    name: str
    axes: dict[str, tuple]
    title: str = ""
    seed: int = 0
    policy: CellPolicy = CellPolicy()
    overrides: tuple[tuple[Constraint, dict], ...] = ()
    excludes: tuple[Constraint, ...] = ()
    includes: tuple[dict, ...] = ()
    tolerance: float = 0.10
    #: Baseline artifact path for ``run --strict`` / ``diff`` (resolved
    #: against the spec file's directory at load time; may be ``None``).
    baseline: Optional[Path] = None

    def to_dict(self) -> dict:
        """Round-trippable plain-dict form (:func:`spec_from_dict` inverse)."""
        doc: dict = {
            "experiment": {"name": self.name, "title": self.title, "seed": self.seed},
            "axes": {axis: list(self.axes[axis]) for axis in AXES},
            "policy": self.policy.to_dict(),
        }
        if self.overrides:
            doc["policy"]["override"] = [
                {"match": constraint.to_dict(), **changes}
                for constraint, changes in self.overrides
            ]
        if self.excludes:
            doc["exclude"] = [c.to_dict() for c in self.excludes]
        if self.includes:
            doc["include"] = [dict(point) for point in self.includes]
        gates: dict = {"tolerance": self.tolerance}
        if self.baseline is not None:
            gates["baseline"] = str(self.baseline)
        doc["gates"] = gates
        return doc


def _check_axis_value(axis: str, value):
    """Validate one axis value; returns it normalized."""
    if axis == "size":
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise SpecError(f"axis size: values must be positive ints, got {value!r}")
        return value
    if not isinstance(value, str):
        raise SpecError(f"axis {axis}: values must be strings, got {value!r}")
    if axis == "device" and value not in DEVICES:
        raise SpecError(
            f"axis device: unknown device {value!r}; known: {sorted(DEVICES)}"
        )
    if axis == "op" and value not in OPS:
        raise SpecError(f"axis op: unknown op {value!r}; known: {list(OPS)}")
    if axis == "precision" and value not in PRECISIONS:
        raise SpecError(
            f"axis precision: unknown precision {value!r}; known: {list(PRECISIONS)}"
        )
    if axis == "approach":
        from .runner import APPROACHES

        if value not in APPROACHES:
            raise SpecError(
                f"axis approach: unknown approach {value!r}; "
                f"known: {list(APPROACHES)}"
            )
    if axis == "fault_plan" and value != "none":
        try:
            parse_faults(value)
        except ValueError as exc:
            raise SpecError(f"axis fault_plan: bad spec {value!r}: {exc}") from exc
    return value


def spec_from_dict(doc: Mapping, base_dir: Optional[Path] = None) -> ExperimentSpec:
    """Validate a plain dict (parsed TOML/JSON) into an :class:`ExperimentSpec`.

    ``base_dir`` resolves a relative ``gates.baseline`` path (the
    directory of the spec file, when loaded from disk).
    """
    if not isinstance(doc, Mapping):
        raise SpecError(f"spec must be a table/object, got {type(doc).__name__}")
    require_keys(doc, _TOP_LEVEL_KEYS, "spec", SpecError)

    experiment = doc.get("experiment")
    if not isinstance(experiment, Mapping) or "name" not in experiment:
        raise SpecError("spec needs an [experiment] table with a name")
    require_keys(experiment, _EXPERIMENT_KEYS, "[experiment]", SpecError)
    name = experiment["name"]
    if not isinstance(name, str) or not name:
        raise SpecError("experiment.name must be a non-empty string")
    title = experiment.get("title", "")
    seed = experiment.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise SpecError("experiment.seed must be an int")

    raw_axes = doc.get("axes")
    if not isinstance(raw_axes, Mapping) or not raw_axes:
        raise SpecError("spec needs a non-empty [axes] table")
    axes: dict[str, tuple] = {}
    for axis, values in raw_axes.items():
        if axis not in AXES:
            raise SpecError(
                f"unknown axis {axis!r}; axes are {', '.join(AXES)}"
            )
        if not isinstance(values, (list, tuple)) or not values:
            raise SpecError(f"axis {axis}: must be a non-empty list")
        checked = tuple(_check_axis_value(axis, v) for v in values)
        if len(set(checked)) != len(checked):
            raise SpecError(f"axis {axis}: duplicate values in {list(values)}")
        axes[axis] = checked
    for required in ("device", "op", "size", "precision", "approach"):
        if required not in axes:
            raise SpecError(f"axis {required!r} is required")
    axes.setdefault("fault_plan", ("none",))

    raw_policy = dict(doc.get("policy") or {})
    raw_overrides = raw_policy.pop("override", [])
    require_keys(raw_policy, _POLICY_KEYS, "[policy]", SpecError)
    policy = CellPolicy(**raw_policy)
    overrides = []
    if not isinstance(raw_overrides, Sequence) or isinstance(raw_overrides, str):
        raise SpecError("[[policy.override]] must be an array of tables")
    for i, entry in enumerate(raw_overrides):
        where = f"policy.override[{i}]"
        if not isinstance(entry, Mapping) or "match" not in entry:
            raise SpecError(f"{where}: needs a match table")
        changes = {k: v for k, v in entry.items() if k != "match"}
        require_keys(changes, _POLICY_KEYS, where, SpecError)
        if not changes:
            raise SpecError(f"{where}: overrides nothing")
        policy.replace(changes)  # validate values eagerly
        overrides.append((Constraint.from_mapping(entry["match"], where), changes))

    excludes = tuple(
        Constraint.from_mapping(entry, f"exclude[{i}]")
        for i, entry in enumerate(doc.get("exclude") or [])
    )

    includes = []
    for i, entry in enumerate(doc.get("include") or []):
        where = f"include[{i}]"
        if not isinstance(entry, Mapping):
            raise SpecError(f"{where}: must be a table")
        require_keys(entry, set(AXES), where, SpecError)
        point = {"fault_plan": "none", **entry}
        missing = [axis for axis in AXES if axis not in point]
        if missing:
            raise SpecError(f"{where}: missing axis binding(s) {missing}")
        includes.append(
            {axis: _check_axis_value(axis, point[axis]) for axis in AXES}
        )

    gates = doc.get("gates") or {}
    require_keys(gates, _GATES_KEYS, "[gates]", SpecError)
    tolerance = float(gates.get("tolerance", 0.10))
    if not 0.0 <= tolerance < 1.0:
        raise SpecError("gates.tolerance must be in [0, 1)")
    baseline = gates.get("baseline")
    if baseline is not None:
        baseline = Path(baseline)
        if base_dir is not None and not baseline.is_absolute():
            baseline = (Path(base_dir) / baseline).resolve()

    return ExperimentSpec(
        name=name,
        title=title,
        seed=seed,
        axes=axes,
        policy=policy,
        overrides=tuple(overrides),
        excludes=excludes,
        includes=tuple(includes),
        tolerance=tolerance,
        baseline=baseline,
    )


def load_spec(path: Path | str) -> ExperimentSpec:
    """Parse a ``.toml`` or ``.json`` spec file.

    TOML needs Python 3.11+ (stdlib ``tomllib``); JSON specs work
    everywhere and carry the identical structure.
    """
    path = Path(path)
    return spec_from_dict(load_document(path, SpecError), base_dir=path.parent)


def _cell_policy(spec: ExperimentSpec, point: Mapping) -> CellPolicy:
    policy = spec.policy
    for constraint, changes in spec.overrides:
        if constraint.matches(point):
            policy = policy.replace(changes)
    return policy


def expand_cells(spec: ExperimentSpec) -> tuple[list[Cell], int]:
    """The deterministic cell plan: ``(cells, pruned)``.

    ``pruned`` counts product combinations dropped by the implicit rule
    that fault plans only apply to the ``runtime`` approach -- reported
    by ``plan`` so a spec never silently loses coverage.
    """
    import itertools

    points: dict[tuple, dict] = {}
    pruned = 0
    for combo in itertools.product(*(spec.axes[axis] for axis in AXES)):
        point = dict(zip(AXES, combo))
        if point["fault_plan"] != "none" and point["approach"] != "runtime":
            pruned += 1
            continue
        if any(c.matches(point) for c in spec.excludes):
            continue
        points[combo] = point
    for point in spec.includes:
        if point["fault_plan"] != "none" and point["approach"] != "runtime":
            raise SpecError(
                f"include {point}: fault plans require the runtime approach"
            )
        points[tuple(point[axis] for axis in AXES)] = dict(point)

    cells = [
        Cell(policy=_cell_policy(spec, point), **point)
        for point in points.values()
    ]
    cells.sort(key=Cell.sort_key)
    return cells, pruned


def plan_fingerprint(spec: ExperimentSpec, cells: Sequence[Cell]) -> str:
    """Content hash of the *expanded* plan (not the spec's surface form).

    Cosmetic spec edits (axis/value reordering, comments) keep the
    fingerprint, so a journaled sweep still resumes after them; anything
    that changes a cell, a policy, or the seed invalidates it.
    """
    payload = {
        "schema": SPEC_SCHEMA,
        "name": spec.name,
        "seed": spec.seed,
        "cells": [
            {**cell.point(), "policy": cell.policy.to_dict()} for cell in cells
        ],
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()
