"""Static cost certifier tests: interpreter, checks, baselines, CLI."""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.analyze.costcheck import (
    COUNT_TERMS,
    AbstractionError,
    CostCase,
    Footprint,
    UnknownCaseError,
    certify_case,
    cost_cases,
    diff_terms,
    interpret,
    run_costcheck,
    select_cases,
)
from repro.gpu.device import QUADRO_6000
from repro.gpu.registers import RegisterAllocation
from repro.kernels.device.per_block_lu import per_block_lu
from repro.model.block_config import BlockConfig
from repro.observe.metrics import MetricsRegistry, set_default_registry

REPO = Path(__file__).resolve().parents[2]
BASELINE = REPO / "benchmarks" / "baselines" / "costcheck_footprints.json"


def _lu_case(m, n, run, name="per_block_lu", op="lu", family="per_block"):
    return CostCase(name=name, op=op, family=family, m=m, n=n, seed=7, run=run)


def _random_batch(batch, n, seed):
    import numpy as np

    rng = np.random.default_rng(seed)
    a = rng.standard_normal((batch, n, n)).astype(np.float32)
    return a + n * np.eye(n, dtype=np.float32)


class TestRegistry:
    def test_keys_are_unique(self):
        keys = [c.key for c in cost_cases()]
        assert len(keys) == len(set(keys)) == 27

    def test_select_by_name_and_key(self):
        assert len(select_cases(["per_block_lu"])) == 3
        assert len(select_cases(["per_block_lu[4x4]"])) == 1

    def test_unknown_case_is_a_spec_error(self):
        with pytest.raises(UnknownCaseError):
            select_cases(["per_block_nope"])


class TestInterpreter:
    def test_lu_4x4_golden_footprint(self):
        # n=4 at 64 threads: rdim=8, hreg=wreg=1, so every column step
        # has a one-row tile.  Per column: 1+1 flop, 1 div, 4+2 shared
        # (2 of them writes), 3 syncs; 3 columns; load+store 2*4*4*4 B.
        case = [c for c in cost_cases() if c.key == "per_block_lu[4x4]"][0]
        fp = interpret(case).footprint
        assert fp.flop_ops == 6.0
        assert fp.divs == 3.0
        assert fp.sqrts == 0.0
        assert fp.shared == 18.0
        assert fp.shared_writes == 6.0
        assert fp.syncs == 9.0
        assert fp.global_bytes == 128.0
        assert fp.threads == 64
        assert fp.registers == 15  # 8 baseline + 6 workspace + 1x1 tile
        assert fp.shared_bytes == 80.0  # (8 + 8 + 4) words * 4 B

    def test_cholesky_4x4_golden_footprint(self):
        case = [c for c in cost_cases() if c.key == "per_block_cholesky[4x4]"][0]
        fp = interpret(case).footprint
        assert fp.sqrts == 4.0
        assert fp.divs == 4.0
        assert fp.syncs == 12.0
        assert fp.flop_ops == 6.0  # 4 column ops + 4 half-updates of N=1
        assert fp.global_bytes == 128.0

    def test_tape_is_batch_invariant(self):
        case = [c for c in cost_cases() if c.key == "per_block_qr[8x4]"][0]
        interp = interpret(case)
        assert interp.tape  # non-empty ordered charge stream
        kinds = {event[0] for event in interp.tape}
        assert {"alloc", "flops", "shared", "sync", "global"} <= kinds

    def test_batch_dependent_kernel_fails_certification(self):
        # A per-block kernel whose launch geometry depends on the batch
        # size has no shape-only footprint; the witness tapes diverge.
        def run(batch, seed):
            cfg = BlockConfig(m=4, n=4, threads=64 if batch == 1 else 256)
            return per_block_lu(_random_batch(batch, 4, seed), config=cfg)

        with pytest.raises(AbstractionError):
            interpret(_lu_case(4, 4, run))

    def test_data_dependent_per_thread_fails_certification(self):
        def run(batch, seed):
            return SimpleNamespace(
                batch=batch,
                dram_bytes=128.0 * batch * batch,  # superlinear in batch
                flops_per_problem=100.0,
                registers=RegisterAllocation(QUADRO_6000, 20),
                spill_bytes=0.0,
            )

        case = _lu_case(4, 4, run, name="fake_thread", family="per_thread")
        with pytest.raises(AbstractionError):
            interpret(case)


class TestChecks:
    def test_small_sweep_is_fully_certified(self):
        reports = run_costcheck([c for c in cost_cases() if c.n == 4])
        assert len(reports) == 9
        for report in reports:
            assert report.ok, (report.footprint.key, report.model_mismatches,
                               report.dynamic_mismatches,
                               report.occupancy_violation)
            assert report.occupancy["blocks_per_sm"] >= 1

    def test_perturbed_kernel_is_caught_with_per_term_diffs(self):
        # The kernel silently factors 5x5 problems while the case (and
        # hence the model) says 4x4 -- exactly the drift the certifier
        # exists to catch.  Every major term must carry a diff.
        def run(batch, seed):
            return per_block_lu(_random_batch(batch, 5, seed))

        registry = MetricsRegistry()
        previous = set_default_registry(registry)
        try:
            report = certify_case(_lu_case(4, 4, run))
        finally:
            set_default_registry(previous)
        assert not report.ok
        for term in ("flop_ops", "global_bytes", "syncs", "divs", "shared"):
            assert term in report.model_mismatches, report.model_mismatches
        # drift is observable: one metric sample per mismatching term
        assert (
            registry.value(
                "repro_costcheck_mismatch_total",
                kernel="per_block_lu", term="flop_ops", check="model",
            )
            == 1.0
        )

    def test_report_dict_is_json_clean(self):
        case = [c for c in cost_cases() if c.key == "per_thread_qr[8x8]"][0]
        report = certify_case(case)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["ok"] is True
        assert payload["occupancy"]["spills"] is True  # n=8 spills
        assert payload["footprint"]["spill_bytes"] > 0


class TestFootprint:
    def test_terms_round_trip(self):
        fp = Footprint(
            kernel="k", op="lu", family="per_block", m=4, n=4,
            threads=64, registers=15, flop_ops=6.0, syncs=9.0,
        )
        clone = Footprint.from_dict(fp.to_dict())
        assert clone == fp
        assert set(fp.terms()) == set(COUNT_TERMS)

    def test_diff_terms_reports_both_sides(self):
        a = {"flop_ops": 6.0, "syncs": 9.0}
        b = {"flop_ops": 7.0, "syncs": 9.0}
        assert diff_terms(a, b) == {"flop_ops": (6.0, 7.0)}
        assert diff_terms(a, a) == {}
        # a missing term reads as zero, so it still surfaces
        assert diff_terms({"flop_ops": 6.0}, {}) == {"flop_ops": (6.0, 0.0)}


class TestBaseline:
    def test_checked_in_baseline_is_fresh(self):
        entries = json.loads(BASELINE.read_text())
        by_key = {e["footprint"]["kernel"] + "[" + e["shape"] + "]": e for e in entries}
        assert len(by_key) == 27
        for case in cost_cases():
            fp = interpret(case).footprint
            stored = Footprint.from_dict(by_key[fp.key]["footprint"])
            assert diff_terms(fp.terms(), stored.terms()) == {}, fp.key


class TestCli:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro.analyze", *args],
            capture_output=True,
            text=True,
            cwd=str(REPO),
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )

    def test_verify_strict_passes_on_subset(self):
        proc = self._run(
            "costcheck", "verify", "--strict",
            "--cases", "per_block_lu[4x4],per_thread_lu[4x4]",
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "certified" in proc.stdout

    def test_unknown_case_exits_2(self):
        proc = self._run("costcheck", "verify", "--cases", "per_block_nope")
        assert proc.returncode == 2
        assert "unknown case" in proc.stderr

    def test_diff_against_doctored_baseline_exits_1(self, tmp_path):
        entries = json.loads(BASELINE.read_text())
        entry = next(
            e for e in entries
            if e["footprint"]["kernel"] == "per_block_lu"
            and e["shape"] == "4x4"
        )
        entry["footprint"]["flop_ops"] += 7
        entry["footprint"]["global_bytes"] -= 32
        entry["footprint"]["syncs"] += 1
        doctored = tmp_path / "doctored.json"
        doctored.write_text(json.dumps(entries))
        proc = self._run(
            "costcheck", "diff", str(doctored), "--cases", "per_block_lu[4x4]"
        )
        assert proc.returncode == 1
        for term in ("flop_ops", "global_bytes", "syncs"):
            assert term in proc.stdout

    def test_diff_reports_baseline_cases_the_registry_dropped(
        self, tmp_path, capsys
    ):
        from repro.analyze.cli import main

        entries = json.loads(BASELINE.read_text())
        retired = json.loads(json.dumps(entries[0]))
        retired["footprint"]["kernel"] = "per_block_retired"
        padded = tmp_path / "padded.json"
        padded.write_text(json.dumps(entries + [retired]))
        registry = MetricsRegistry()
        previous = set_default_registry(registry)
        try:
            code = main(["costcheck", "diff", str(padded)])
        finally:
            set_default_registry(previous)
        assert code == 1
        assert capsys.readouterr().out.splitlines() == [
            f"per_block_retired[{retired['shape']}]: missing from registry",
            "27 case(s), 1 drift line(s)",
        ]
        assert registry.value(
            "repro_costcheck_mismatch_total",
            kernel="per_block_retired", term="case", check="baseline",
        ) == 1.0

    def test_diff_clean_exits_0(self):
        proc = self._run(
            "costcheck", "diff", str(BASELINE), "--cases", "per_block_lu[4x4]"
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_missing_baseline_exits_2(self, tmp_path):
        proc = self._run("costcheck", "diff", str(tmp_path / "nope.json"))
        assert proc.returncode == 2

    def test_table_json_has_every_term(self):
        proc = self._run(
            "costcheck", "table", "--json", "--cases", "per_block_cholesky[4x4]"
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        (entry,) = json.loads(proc.stdout)
        fields = {f.name for f in dataclasses.fields(Footprint)}
        assert set(COUNT_TERMS) <= fields | {"registers", "threads"}
        for term in COUNT_TERMS:
            assert term in entry["footprint"]
        assert entry["occupancy"]["limiter"]
