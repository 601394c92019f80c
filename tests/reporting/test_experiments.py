"""Experiment registry: every artefact regenerates and hits its bands."""

import json
import math
from pathlib import Path

import pytest

from repro.observe import tracing
from repro.reporting import experiments, list_experiments, run_experiment
from repro.reporting.experiments import EXPERIMENTS
from repro.observe.export import jsonable

BASELINES = Path(__file__).resolve().parents[2] / "benchmarks" / "baselines"


@pytest.fixture(scope="module")
def golden():
    """Every artefact's data, written by ``scripts/regen_baseline.py``."""
    return json.loads((BASELINES / "paper_artefacts.json").read_text())


class TestRegistry:
    def test_all_sixteen_artefacts_registered(self):
        expected = {
            "table1", "table2", "table3", "table4", "table5", "table6", "table7",
            "fig1", "fig2", "fig4", "fig7", "fig8", "fig9", "fig10", "fig11",
            "fig12",
        }
        assert set(list_experiments()) == expected

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")

    @pytest.mark.parametrize("eid", sorted(EXPERIMENTS))
    def test_every_experiment_runs_and_reports(self, eid, golden):
        res = run_experiment(eid)
        assert res.experiment_id == eid
        assert len(res.report.splitlines()) >= 3
        assert res.data
        # The simulated fixed point: the data is bitwise the golden's.
        assert json.loads(json.dumps(jsonable(res.data))) == golden[eid]


class TestCalibration:
    def test_all_artefacts_calibrate_once(self):
        # Six artefacts use Table IV's parameters; like the paper, the
        # suite measures them once per device.  Each artefact gets its own
        # tracer so no calibrate span falls out of a full ring buffer.
        experiments._params.cache_clear()
        spans = 0
        for eid in list_experiments():
            with tracing() as tracer:
                run_experiment(eid)
            spans += sum(e.name == "calibrate" and e.ph == "X" for e in tracer.events)
        assert spans == 1
        info = experiments._params.cache_info()
        assert (info.misses, info.hits) == (1, 5)


class TestArtefactBands:
    """Spot checks that the regenerated artefacts keep the paper's shape."""

    def test_table4_within_5_percent(self):
        data = run_experiment("table4").data
        from repro.reporting.paper_values import TABLE_IV

        for key, ref in TABLE_IV.items():
            assert data[key] == pytest.approx(ref, rel=0.05), key

    def test_fig1_staircase(self):
        data = run_experiment("fig1").data
        lats = data["latency"]
        assert lats[0] < 160
        assert max(lats) > 550

    def test_fig2_anchor(self):
        data = run_experiment("fig2").data
        idx = data["threads"].index(64)
        assert data["latency"][idx] == 46

    def test_fig4_peak_and_collapse(self):
        data = run_experiment("fig4").data
        idx7 = data["n"].index(7)
        idx12 = data["n"].index(12)
        assert data["qr_measured"][idx7] == pytest.approx(126, rel=0.1)
        assert data["qr_measured"][idx12] < 0.5 * data["qr_predicted"][idx12]

    def test_fig7_2d_dominates(self):
        data = run_experiment("fig7").data
        for i, n in enumerate(data["n"]):
            if n <= 16:
                continue
            assert data["2D cyclic"][i] > data["1D column cyclic"][i], n
            assert data["1D column cyclic"][i] > data["1D row cyclic"][i], n

    def test_table5_within_20_percent(self):
        data = run_experiment("table5").data
        from repro.reporting.paper_values import TABLE_V

        for kind in ("lu", "qr"):
            for phase in ("load", "compute", "store"):
                ratio = data[kind][phase] / TABLE_V[kind][phase]
                assert 0.8 < ratio < 1.25, (kind, phase)

    def test_fig8_measured_tops_modeled(self):
        data = run_experiment("fig8").data
        measured = sum(sum(p.values()) for p in data["measured"])
        modeled = sum(sum(p.values()) for p in data["modeled"])
        assert measured > modeled

    def test_fig9_thread_switch_visible(self):
        data = run_experiment("fig9").data
        i64 = data["n"].index(64)
        i80 = data["n"].index(80)
        assert data["qr_measured"][i80] < data["qr_measured"][i64]

    def test_fig10_winners(self):
        data = run_experiment("fig10").data
        ns = data["n"]
        i8, i64, i8192 = ns.index(8), ns.index(64), ns.index(8192)
        assert data["qr_per_thread"][i8] > data["qr_per_block"][i8]
        assert data["qr_per_block"][i64] > data["qr_per_thread"][i64]
        assert data["qr_hybrid"][i8192] > 300
        assert math.isnan(data["qr_per_thread"][i8192])

    def test_fig10_on_g80_drops_per_thread_where_no_block_places(self):
        from repro.gpu import G80

        data = experiments.run_fig10(G80).data
        for kind in ("qr", "lu"):
            per_thread = dict(zip(data["n"], data[f"{kind}_per_thread"]))
            assert math.isfinite(per_thread[2]) and math.isfinite(per_thread[4])
            assert all(math.isnan(v) for n, v in per_thread.items() if n >= 8)

    def test_fig11_gpu_wins_everywhere(self):
        data = run_experiment("fig11").data
        for i in range(len(data["n"])):
            assert data["qr_per_block"][i] > data["qr_mkl"][i]
            assert data["qr_per_block"][i] > data["qr_magma_gpu_start"][i]

    def test_fig12_gpu_wins_everywhere(self):
        data = run_experiment("fig12").data
        for i in range(len(data["n"])):
            assert data["qr_solve_per_block"][i] > data["qr_solve_mkl"][i]
            assert data["gj_per_block"][i] > data["gj_mkl"][i]

    def test_table7_speedups(self):
        data = run_experiment("table7").data
        speedups = [row["speedup"] for row in data["rows"]]
        assert all(s > 1.5 for s in speedups)
        assert speedups[0] == max(speedups)  # 80x16 is the big win
