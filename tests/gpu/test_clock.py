"""Cycle-clock accounting semantics."""

import builtins
import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.gpu import CycleBreakdown, CycleClock
from repro.gpu.clock import fold
from repro.reporting import run_experiment
from repro.reporting.export import _jsonable

BASELINES = Path(__file__).resolve().parents[2] / "benchmarks" / "baselines"


def compensated_sum(iterable, start=0):
    """Python 3.12's builtin ``sum()``: Neumaier-compensated over floats.

    A faithful emulation for int and float items (what cycle totals
    hold), so the 3.12 behaviour can be tested on any interpreter.
    """
    items = iter(iterable)
    result = start
    if type(result) is int:
        for item in items:
            if type(item) in (int, bool):
                result += item
                continue
            result = result + item
            break
        else:
            return result
    if type(result) is not float:
        for item in items:
            result = result + item
        return result
    total, comp = result, 0.0
    for item in items:
        if type(item) is float:
            t = total + item
            if abs(total) >= abs(item):
                comp += (total - t) + item
            else:
                comp += (item - t) + total
            total = t
        else:
            total += float(item)
    if comp and math.isfinite(comp):
        total += comp
    return total


class TestCharging:
    def test_starts_at_zero(self):
        assert CycleClock().now == 0.0

    def test_accumulates_by_category(self):
        clk = CycleClock()
        clk.charge(10, "compute")
        clk.charge(5, "compute")
        clk.charge(7, "shared")
        assert clk.category("compute") == 15
        assert clk.category("shared") == 7
        assert clk.now == 22

    def test_unknown_category_reads_zero(self):
        assert CycleClock().category("nonexistent") == 0.0

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            CycleClock().charge(-1, "compute")

    def test_reset(self):
        clk = CycleClock()
        clk.charge(10, "compute")
        clk.reset()
        assert clk.now == 0.0
        assert clk.breakdown() == {}


class TestPhases:
    def test_phase_tags_charges(self):
        clk = CycleClock()
        with clk.phase("panel0"):
            clk.charge(100, "compute")
            clk.charge(27, "shared")
        clk.charge(46, "sync")  # outside any phase
        assert clk.phase_breakdown("panel0").total == 127
        assert clk.phase_totals() == {"panel0": 127}
        assert clk.now == 173

    def test_nested_phases_charge_innermost(self):
        clk = CycleClock()
        with clk.phase("outer"):
            with clk.phase("inner"):
                clk.charge(10, "compute")
            clk.charge(1, "compute")
        assert clk.phase_breakdown("inner").total == 10
        assert clk.phase_breakdown("outer").total == 1

    def test_phase_stack_restored_after_exception(self):
        clk = CycleClock()
        with pytest.raises(RuntimeError):
            with clk.phase("p"):
                raise RuntimeError("boom")
        clk.charge(5, "compute")
        assert clk.phase_breakdown("p").total == 0

    def test_unknown_phase_is_empty(self):
        assert CycleClock().phase_breakdown("nope").total == 0.0


class TestBreakdown:
    def test_total(self):
        bd = CycleBreakdown({"compute": 10.0, "sync": 5.0})
        assert bd.total == 15.0

    def test_addition_merges_categories(self):
        a = CycleBreakdown({"compute": 10.0})
        b = CycleBreakdown({"compute": 5.0, "shared": 2.0})
        merged = a + b
        assert merged == {"compute": 15.0, "shared": 2.0}

    def test_scaled(self):
        bd = CycleBreakdown({"compute": 10.0}).scaled(2.5)
        assert bd["compute"] == 25.0

    def test_addition_does_not_mutate_operands(self):
        a = CycleBreakdown({"compute": 10.0})
        b = CycleBreakdown({"compute": 1.0})
        _ = a + b
        assert a["compute"] == 10.0
        assert b["compute"] == 1.0


class TestLeftFold:
    """Totals are left folds in charge order, not the builtin ``sum()``."""

    def test_emulation_is_compensated(self):
        assert compensated_sum([0.1, 0.2, 0.3]) == 0.6

    @pytest.mark.parametrize("py_sum", [builtins.sum, compensated_sum])
    def test_totals_are_left_folds(self, monkeypatch, py_sum):
        monkeypatch.setattr(builtins, "sum", py_sum)
        clk = CycleClock()
        with clk.phase("p"):
            clk.charge(0.1, "compute")
            clk.charge(0.2, "shared")
            clk.charge(0.3, "sync")
        assert clk.now == 0.6000000000000001
        assert clk.breakdown().total == 0.6000000000000001
        assert clk.phase_totals() == {"p": 0.6000000000000001}

    def test_numpy_cumsum_is_a_left_fold(self):
        """``fold_steps`` sums with ``np.cumsum``, which must add left to
        right like ``+=`` -- as a 1-D array and down the columns of a 2-D
        one -- while pairwise ``np.sum`` tells the two orders apart."""
        rng = np.random.default_rng(2026)
        pairwise_differs = False
        for _ in range(2000):
            size = int(rng.integers(1, 5001))
            x = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 9, size)
            expected = [fold(x.tolist()).hex(), fold(x[::-1].tolist()).hex()]
            assert float(np.cumsum(x)[-1]).hex() == expected[0]
            columns = np.cumsum(np.column_stack([x, x[::-1]]), axis=0)[-1]
            assert [float(total).hex() for total in columns] == expected
            pairwise_differs |= float(np.sum(x)).hex() != expected[0]
        assert pairwise_differs

    @pytest.mark.parametrize("eid", ["fig9", "fig10", "fig11", "fig12"])
    def test_artefacts_hold_under_compensated_sum(self, monkeypatch, eid):
        """Python 3.12's ``sum()`` must not move a simulated number."""
        golden = json.loads((BASELINES / "paper_artefacts.json").read_text())[eid]
        monkeypatch.setattr(builtins, "sum", compensated_sum)
        data = run_experiment(eid).data
        assert json.loads(json.dumps(_jsonable(data))) == golden
