"""Block-engine cost accounting."""

import numpy as np
import pytest

from repro.errors import LaunchConfigurationError, RegisterFileOverflowError
from repro.gpu import QUADRO_6000, BlockEngine
from repro.gpu.simt import OVERHEAD_PER_EVENT


def make_engine(**kw):
    defaults = dict(
        device=QUADRO_6000,
        threads_per_block=64,
        registers_per_thread=56,
        batch=4,
        account_overhead=False,
    )
    defaults.update(kw)
    return BlockEngine(**defaults)


class TestChargeFlops:
    def test_flops_cost_gamma_each(self):
        eng = make_engine()
        eng.charge_flops(10)
        assert eng.clock.category("compute") == 10 * QUADRO_6000.pipeline_latency

    def test_useful_flops_default_counts_all_threads(self):
        eng = make_engine()
        eng.charge_flops(3)
        assert eng.result().flops_per_block == 3 * 64

    def test_useful_flops_override(self):
        eng = make_engine()
        eng.charge_flops(3, useful_flops=10)
        assert eng.result().flops_per_block == 10

    def test_negative_ops_rejected(self):
        with pytest.raises(ValueError):
            make_engine().charge_flops(-1)

    def test_spilling_kernel_pays_extra(self):
        fits = make_engine(registers_per_thread=60)
        spills = make_engine(registers_per_thread=90)
        fits.charge_flops(100)
        spills.charge_flops(100)
        assert spills.clock.now > fits.clock.now

    def test_allow_spill_false_raises(self):
        with pytest.raises(RegisterFileOverflowError):
            make_engine(registers_per_thread=90, allow_spill=False)


class TestSpecialOps:
    def test_fast_div_cheaper_than_precise(self):
        fast = make_engine(fast_math=True)
        precise = make_engine(fast_math=False)
        fast.charge_div()
        precise.charge_div()
        assert fast.clock.now < precise.clock.now

    def test_fast_sqrt_cheaper_than_precise(self):
        fast = make_engine(fast_math=True)
        precise = make_engine(fast_math=False)
        fast.charge_sqrt()
        precise.charge_sqrt()
        assert fast.clock.now < precise.clock.now


class TestSharedAndSync:
    def test_shared_access_cost(self):
        eng = make_engine()
        eng.charge_shared(4)
        assert eng.clock.category("shared") == 4 * QUADRO_6000.shared_latency

    def test_bank_conflicts_add_replays(self):
        a = make_engine()
        b = make_engine()
        a.charge_shared(4, degree=1)
        b.charge_shared(4, degree=8)
        assert b.clock.now == a.clock.now + 4 * 7

    def test_sync_uses_block_thread_count(self):
        eng = make_engine(threads_per_block=64)
        eng.sync()
        assert eng.clock.category("sync") == 46


class TestGlobalAndShared:
    def test_global_charge_uses_occupancy(self):
        eng = make_engine()
        eng.charge_global(12544)
        # 64 threads / 56 regs -> 8 blocks/SM -> 112 resident blocks.
        assert eng.occupancy.blocks_per_chip == 112
        assert 8000 < eng.clock.category("global") < 10000

    def test_allocate_shared_counts_bytes(self):
        eng = make_engine()
        eng.allocate_shared(100)
        assert eng.shared_bytes == 400

    def test_shared_allocation_lowers_occupancy(self):
        eng = make_engine(registers_per_thread=16)
        eng.allocate_shared(5 * 1024)  # 20 KB: only 2 blocks fit
        assert eng.occupancy.blocks_per_sm == 2

    def test_shared_arrays_are_functional(self):
        eng = make_engine(batch=2)
        mem = eng.allocate_shared(8)
        mem.write(3, [1.5, 2.5])
        np.testing.assert_array_equal(mem.read(3), [1.5, 2.5])


class TestOverheadAccounting:
    def test_overhead_charged_when_enabled(self):
        eng = make_engine(account_overhead=True)
        eng.charge_flops(1)
        assert eng.clock.category("overhead") == OVERHEAD_PER_EVENT

    def test_no_overhead_when_disabled(self):
        eng = make_engine(account_overhead=False)
        eng.charge_flops(1)
        eng.charge_shared(1)
        assert eng.clock.category("overhead") == 0

    def test_measurement_overhead(self):
        eng = make_engine(account_overhead=True)
        eng.charge_measurement()
        assert eng.clock.category("overhead") > 0


class TestRejections:
    """Charges that would subtract cycles raise before touching the clock."""

    @pytest.mark.parametrize(
        "charge",
        [
            lambda eng: eng.charge_div(-1),
            lambda eng: eng.charge_sqrt(-2),
            lambda eng: eng.charge_global(-4.0),
            lambda eng: eng.charge_shared(3, degree=-40),
        ],
        ids=["div", "sqrt", "global", "shared-degree"],
    )
    @pytest.mark.parametrize("overhead", [False, True])
    def test_negative_charge_rejected(self, charge, overhead):
        eng = make_engine(account_overhead=overhead)
        with eng.phase("p"):
            with pytest.raises(ValueError):
                charge(eng)
        assert eng.clock.now == 0.0
        assert eng.result().phase_totals == {}

    @pytest.mark.parametrize(
        "charge",
        [
            lambda eng, step: eng.charge_flops(step - 1),
            lambda eng, step: eng.charge_shared(step - 1),
        ],
        ids=["flops", "shared"],
    )
    def test_negative_step_in_a_fold_rejected(self, charge):
        """One negative step fails the fold before it touches the clock."""
        eng = make_engine(account_overhead=True)
        eng.charge_flops(1)
        before = eng.result()
        with pytest.raises(ValueError):
            with eng.fold(3):
                with eng.phase("p", np.arange(3)):
                    charge(eng, np.arange(3))
        after = eng.result()
        assert after.cycles == before.cycles
        assert after.phase_totals == before.phase_totals
        assert after.counters.snapshot() == before.counters.snapshot()


    def test_zero_threads_rejected(self):
        with pytest.raises(LaunchConfigurationError):
            make_engine(threads_per_block=0)


class TestLaunchResult:
    def test_phase_totals_recorded(self):
        eng = make_engine()
        with eng.phase("panel0"):
            eng.charge_flops(10)
        res = eng.result()
        assert "panel0" in res.phase_totals

    def test_phases_appear_on_their_first_charge(self):
        eng = make_engine()
        with eng.phase("empty"):
            pass
        with eng.phase("outer"):
            with eng.phase("inner"):
                eng.charge_flops(1)
            eng.charge_flops(2)
        assert list(eng.result().phase_totals) == ["inner", "outer"]

    def test_throughput_steady_state(self):
        eng = make_engine()
        eng.charge_flops(100)
        res = eng.result(flops_per_block=1000)
        expected = (
            1000 * 112 / QUADRO_6000.cycles_to_seconds(eng.clock.now) / 1e9
        )
        assert res.throughput_gflops() == pytest.approx(expected)

    def test_partial_wave_lowers_throughput(self):
        eng = make_engine()
        eng.charge_flops(100)
        res = eng.result(flops_per_block=1000)
        full = res.throughput_gflops(112 * 4)
        ragged = res.throughput_gflops(112 * 3 + 1)
        assert ragged < full

    def test_throughput_rejects_empty_batch(self):
        eng = make_engine()
        eng.charge_flops(1)
        with pytest.raises(ValueError):
            eng.result().throughput_gflops(0)
        with pytest.raises(ValueError):
            eng.result().batch_seconds(0)

    @pytest.mark.parametrize("waves, problems", [(1, 1), (1, 112), (2, 113), (3, 336)])
    def test_batch_seconds_counts_whole_waves(self, waves, problems):
        # 112 blocks are resident at 64 threads and 56 registers.
        eng = make_engine()
        eng.charge_flops(100)
        res = eng.result(flops_per_block=1000)
        assert res.occupancy.blocks_per_chip == 112
        assert res.batch_seconds(problems) == waves * res.seconds_per_block
