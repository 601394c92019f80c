"""Spec parsing, validation, and deterministic expansion."""

import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import (
    AXES,
    SpecError,
    expand_cells,
    load_spec,
    plan_fingerprint,
    spec_from_dict,
)


def base_doc(**overrides):
    doc = {
        "experiment": {"name": "unit", "title": "unit spec", "seed": 3},
        "axes": {
            "device": ["quadro6000"],
            "op": ["qr", "lu"],
            "size": [4, 8],
            "precision": ["float32"],
            "approach": ["cpu", "runtime"],
        },
        "policy": {"batch": 16},
    }
    doc.update(overrides)
    return doc


class TestValidation:
    def test_unknown_axis_rejected(self):
        doc = base_doc()
        doc["axes"]["frobnicate"] = ["yes"]
        with pytest.raises(SpecError, match="unknown axis"):
            spec_from_dict(doc)

    def test_unknown_axis_value_rejected(self):
        doc = base_doc()
        doc["axes"]["op"] = ["qr", "eigensolve"]
        with pytest.raises(SpecError, match="eigensolve"):
            spec_from_dict(doc)

    def test_unknown_device_rejected(self):
        doc = base_doc()
        doc["axes"]["device"] = ["tpu_v9"]
        with pytest.raises(SpecError, match="tpu_v9"):
            spec_from_dict(doc)

    def test_missing_required_axis_rejected(self):
        doc = base_doc()
        del doc["axes"]["precision"]
        with pytest.raises(SpecError, match="precision"):
            spec_from_dict(doc)

    def test_duplicate_axis_values_rejected(self):
        doc = base_doc()
        doc["axes"]["size"] = [4, 4]
        with pytest.raises(SpecError, match="duplicate"):
            spec_from_dict(doc)

    def test_unknown_top_level_table_rejected(self):
        doc = base_doc(extras={"x": 1})
        with pytest.raises(SpecError):
            spec_from_dict(doc)

    def test_bad_tolerance_rejected(self):
        doc = base_doc(gates={"tolerance": 1.5})
        with pytest.raises(SpecError, match="tolerance"):
            spec_from_dict(doc)

    def test_bad_fault_plan_rejected(self):
        doc = base_doc()
        doc["axes"]["fault_plan"] = ["explode@everywhere"]
        with pytest.raises(SpecError):
            spec_from_dict(doc)


class TestRoundTrip:
    def test_to_dict_round_trips(self):
        doc = base_doc(
            exclude=[{"approach": "runtime", "size": [8]}],
            include=[
                {
                    "device": "quadro6000",
                    "op": "qr",
                    "size": 16,
                    "precision": "float32",
                    "approach": "cpu",
                }
            ],
        )
        doc["policy"]["override"] = [{"match": {"approach": "runtime"}, "batch": 64}]
        spec = spec_from_dict(doc)
        again = spec_from_dict(spec.to_dict())
        assert again == spec
        assert [c.id for c in expand_cells(again)[0]] == [
            c.id for c in expand_cells(spec)[0]
        ]

    def test_json_spec_loads(self, tmp_path):
        path = tmp_path / "unit.json"
        path.write_text(json.dumps(base_doc()))
        spec = load_spec(path)
        assert spec.name == "unit"
        assert spec.axes["op"] == ("qr", "lu")

    @pytest.mark.skipif(
        sys.version_info < (3, 11), reason="stdlib tomllib needs Python 3.11+"
    )
    def test_checked_in_toml_specs_load(self):
        from pathlib import Path

        specs = sorted(
            path
            for path in (
                Path(__file__).parents[2] / "benchmarks" / "specs"
            ).glob("*.toml")
        )
        assert specs, "no checked-in specs found"
        for path in specs:
            spec = load_spec(path)
            cells, _pruned = expand_cells(spec)
            assert cells, f"{path.name} expands to an empty plan"


class TestExpansion:
    def test_expansion_is_deterministic(self):
        a = spec_from_dict(base_doc())
        b = spec_from_dict(base_doc())
        cells_a, pruned_a = expand_cells(a)
        cells_b, pruned_b = expand_cells(b)
        assert [c.id for c in cells_a] == [c.id for c in cells_b]
        assert pruned_a == pruned_b
        assert plan_fingerprint(a, cells_a) == plan_fingerprint(b, cells_b)

    def test_cells_sorted_by_canonical_axis_order(self):
        cells, _ = expand_cells(spec_from_dict(base_doc()))
        assert [c.sort_key() for c in cells] == sorted(c.sort_key() for c in cells)

    def test_exclude_drops_matching_cells(self):
        doc = base_doc(exclude=[{"approach": "runtime", "size": [8]}])
        ids = [c.id for c in expand_cells(spec_from_dict(doc))[0]]
        assert not any("n8" in i and "runtime" in i for i in ids)
        assert any("n8" in i and "cpu" in i for i in ids)

    def test_include_adds_and_deduplicates(self):
        extra = {
            "device": "quadro6000",
            "op": "qr",
            "size": 32,
            "precision": "float32",
            "approach": "cpu",
        }
        dup = dict(extra, size=4)  # already in the grid
        doc = base_doc(include=[extra, dup])
        ids = [c.id for c in expand_cells(spec_from_dict(doc))[0]]
        assert "quadro6000/qr/n32/float32/cpu/none" in ids
        assert len(ids) == len(set(ids))

    def test_fault_cells_pruned_off_runtime(self):
        doc = base_doc()
        doc["axes"]["fault_plan"] = ["none", "crash@0"]
        cells, pruned = expand_cells(spec_from_dict(doc))
        faulted = [c for c in cells if c.fault_plan != "none"]
        assert faulted and all(c.approach == "runtime" for c in faulted)
        assert pruned == 4  # crash@0 x cpu x {qr,lu} x {4,8}

    def test_policy_override_applies(self):
        doc = base_doc()
        doc["policy"]["override"] = [{"match": {"approach": "runtime"}, "batch": 64}]
        cells, _ = expand_cells(spec_from_dict(doc))
        batches = {c.approach: c.policy.batch for c in cells}
        assert batches == {"cpu": 16, "runtime": 64}


_AXIS_VALUES = {
    "device": ["quadro6000", "gtx480"],
    "op": ["qr", "lu", "cholesky"],
    "size": [4, 8, 16],
    "precision": ["float32", "float64"],
    "approach": ["runtime", "cpu"],
    "fault_plan": ["none", "crash@0"],
}


def _canonical_plan():
    doc = base_doc()
    doc["axes"] = {axis: list(_AXIS_VALUES[axis]) for axis in AXES}
    spec = spec_from_dict(doc)
    cells, _ = expand_cells(spec)
    return [c.id for c in cells], plan_fingerprint(spec, cells)


_CANONICAL_IDS, _CANONICAL_FP = _canonical_plan()


class TestPlanStability:
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_plan_stable_under_axis_and_value_reordering(self, data):
        doc = base_doc()
        axis_order = data.draw(st.permutations(list(_AXIS_VALUES)))
        doc["axes"] = {
            axis: data.draw(st.permutations(_AXIS_VALUES[axis]))
            for axis in axis_order
        }
        spec = spec_from_dict(doc)
        cells, _ = expand_cells(spec)
        assert [c.id for c in cells] == _CANONICAL_IDS
        assert plan_fingerprint(spec, cells) == _CANONICAL_FP
