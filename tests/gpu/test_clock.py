"""Cycle-clock accounting semantics."""

import builtins
import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.approaches import PerBlockApproach, Workload
from repro.gpu import CycleBreakdown, CycleClock
from repro.gpu.clock import Tape, fold, fold_steps
from repro.reporting import run_experiment
from repro.observe.export import jsonable

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
        """``fold_steps`` folds one column per sum down the rows: with
        ``np.add.reduce`` over two or more columns, and with an in-place
        ``np.cumsum`` over a single one.  Both must add left to right
        like ``+=``, while pairwise ``np.sum`` -- and ``np.add.reduce``
        over a single column -- tell the two orders apart."""
        rng = np.random.default_rng(2026)
        pairwise_differs = one_column_reduce_differs = False
        for _ in range(2000):
            size = int(rng.integers(1, 5001))
            x = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 9, size)
            expected = [fold(x.tolist()).hex(), fold(x[::-1].tolist()).hex()]
            assert float(np.cumsum(x)[-1]).hex() == expected[0]
            column = x[:, None].copy()
            np.cumsum(column, axis=0, out=column)
            assert float(column[-1, 0]).hex() == expected[0]
            columns = np.add.reduce(np.column_stack([x, x[::-1]]), axis=0)
            assert [float(total).hex() for total in columns] == expected
            pairwise_differs |= float(np.sum(x)).hex() != expected[0]
            one_column = np.add.reduce(x[:, None], axis=0)[0]
            one_column_reduce_differs |= float(one_column).hex() != expected[0]
        assert pairwise_differs and one_column_reduce_differs

    @pytest.mark.parametrize(
        "columns, most_rows", [(2, 3000), (3, 3000), (17, 3000), (3072, 60)]
    )
    def test_numpy_reduce_down_rows_is_a_left_fold(self, columns, most_rows):
        # A fold's panel-split group has up to 3072 columns (QR, n = 4096).
        rng = np.random.default_rng(columns)
        for _ in range(40):
            rows = int(rng.integers(1, most_rows + 1))
            x = rng.standard_normal((rows, columns))
            x *= 10.0 ** rng.integers(-8, 9, x.shape)
            totals = np.add.reduce(x, axis=0)
            assert [float(t).hex() for t in totals] == [
                fold(x[:, c].tolist()).hex() for c in range(columns)
            ]

    @pytest.mark.parametrize("eid", ["fig9", "fig10", "fig11", "fig12"])
    def test_artefacts_hold_under_compensated_sum(self, monkeypatch, eid):
        """Python 3.12's ``sum()`` must not move a simulated number."""
        golden = json.loads((BASELINES / "paper_artefacts.json").read_text())[eid]
        monkeypatch.setattr(builtins, "sum", compensated_sum)
        data = run_experiment(eid).data
        assert json.loads(json.dumps(jsonable(data))) == golden


class TestFoldSteps:
    """``fold_steps`` adds every sum left to right, like :func:`fold`."""

    @staticmethod
    def stepped(steps, tapes, starts, firsts):
        """The sums of a loop that adds each step's parts with ``+=``."""
        bounds = firsts + [steps]
        sums = []
        for tape in tapes:
            for lo, hi in zip(bounds, bounds[1:]):
                values = [float(starts[len(sums)])]
                for step in range(lo, hi):
                    values += [
                        float(part[step] if isinstance(part, np.ndarray) else part)
                        for part in tape.parts
                    ]
                sums.append(fold(values))
        return sums

    @staticmethod
    def tape(*parts):
        tape = Tape()
        for part in parts:
            tape += part
        return tape

    def check(self, steps, tapes, starts, firsts):
        got = fold_steps(steps, tapes, starts, firsts)
        want = self.stepped(steps, tapes, starts, firsts)
        assert [float(v).hex() for v in got] == [v.hex() for v in want]
        return got

    def test_one_tape_one_sum(self):
        # 2**53 + 1.0 rounds back to 2**53 (ties to even), so only a
        # left fold keeps the sum at 2**53; a pairwise or re-ordered sum
        # adds the ones first.
        ones = np.ones(4000)
        ones[0] = 2.0**53
        assert self.check(4000, [self.tape(ones, 1.0)], [0.0], [0]) == [2.0**53]

    def test_one_tape_over_panel_segments(self):
        ones = np.ones(600)
        ones[[0, 5, 250]] = 2.0**53
        starts = [2.0**53, 0.0, -0.0, 2.0**53]
        sums = self.check(600, [self.tape(1.0, ones)], starts, [0, 5, 17, 250])
        assert sums == [2.0**54, 2.0**53, 2 * 233.0, 2.0**54]

    @pytest.mark.parametrize("firsts", [[0], [0, 1, 7, 64, 299]])
    def test_many_tapes(self, firsts):
        rng = np.random.default_rng(len(firsts))
        steps, tapes = 300, []
        for _ in range(17):
            parts = []
            for _ in range(int(rng.integers(1, 9))):
                scale = 10.0 ** rng.integers(-8, 17)
                if rng.random() < 0.5:
                    parts.append(float(rng.standard_normal() * scale))
                else:
                    parts.append(rng.standard_normal(steps) * scale)
            tapes.append(self.tape(*parts))
        starts = (rng.standard_normal(17 * len(firsts)) * 1e16).tolist()
        self.check(steps, tapes, starts, firsts)

    def test_figure10_launch_holds_one_layout(self, traced_peak):
        # QR at n = 4096 folds 17 tapes of up to 22 parts over 4095
        # steps: one 11.7 MB layout.  A padded copy, a re-laid copy and a
        # full cumsum beside it read 24.4 MB.
        work = Workload.square("qr", 4096, 1)
        PerBlockApproach().launch(work)
        assert traced_peak(lambda: PerBlockApproach().launch(work)) <= 13.0
