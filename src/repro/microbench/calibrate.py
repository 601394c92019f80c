"""Run the full microbenchmark suite and assemble Table IV.

This is the paper's Section II condensed into one call: bandwidths from
the copy loops, latencies from pointer chasing, ``alpha_sync`` from the
barrier sweep, and ``gamma`` from the dependent-FMA chain -- all measured
against the simulated device, then packed into
:class:`~repro.model.parameters.ModelParameters` for the model layer.
"""

from __future__ import annotations

import time

from ..gpu.device import DeviceSpec, QUADRO_6000
from ..gpu.instructions import costs_for
from ..model.parameters import ModelParameters
from ..observe.events import emit
from ..observe.tracer import span
from .global_bandwidth import measure_global_bandwidth
from .global_latency import plateau_latency
from .shared_bandwidth import measure_shared_bandwidth
from .shared_latency import measure_shared_latency
from .sync_latency import measure_sync_latency

__all__ = ["measure_fma_latency", "calibrate"]


def measure_fma_latency(device: DeviceSpec, chain: int = 256) -> float:
    """gamma: cycles per dependent FMA, from a serial accumulation chain.

    ``acc = acc * a + b`` repeated ``chain`` times has no ILP, so elapsed
    cycles divided by chain length is the pipeline depth.
    """
    if chain < 1:
        raise ValueError("need a non-empty chain")
    costs = costs_for(device)
    total = chain * costs.fma
    return total / chain


def calibrate(device: DeviceSpec = QUADRO_6000, cache=None) -> ModelParameters:
    """Measure every Table-IV parameter on ``device``.

    Pass a :class:`repro.runtime.CalibrationCache` (or ``True`` for the
    default one under ``~/.cache/repro``) to make calibration a
    once-per-device cost: on a warm cache the microbenchmark sweep -- and
    its ``calibrate`` trace span -- is skipped entirely and the stored
    parameters are returned, after a ``calibrate.cache_hit`` instant for
    attribution.  A miss runs the sweep and stores the result.
    """
    if cache is not None and cache is not False:
        if cache is True:
            from ..runtime.cache import CalibrationCache

            cache = CalibrationCache()
        cached = cache.load(device)
        if cached is not None:
            emit("calibrate.cache_hit", device=device.name)
            return cached
        params = _calibrate(device)
        cache.store(device, params)
        return params
    return _calibrate(device)


def _calibrate(device: DeviceSpec) -> ModelParameters:
    """The uncached Section-II sweep."""
    sweep_start = time.perf_counter()
    with span("calibrate", "microbench", device=device.name):
        with span("calibrate.shared_bandwidth", "microbench"):
            shared_bw = measure_shared_bandwidth(device)
        with span("calibrate.global_bandwidth", "microbench"):
            global_bw = measure_global_bandwidth(device)
        with span("calibrate.shared_latency", "microbench"):
            shared_lat = measure_shared_latency(device)
        with span("calibrate.global_latency", "microbench"):
            global_lat = plateau_latency(device)
        with span("calibrate.sync_latency", "microbench"):
            sync = measure_sync_latency(device, threads=64)
        with span("calibrate.fma_latency", "microbench"):
            gamma = measure_fma_latency(device)
        params = ModelParameters(
            device=device,
            alpha_glb=global_lat,
            global_bandwidth=global_bw.copy_bandwidth,
            alpha_sh=shared_lat.latency_cycles,
            shared_bandwidth=shared_bw.total_bandwidth,
            alpha_sync=sync,
            gamma=gamma,
        )
        emit(
            "calibrate.sweep",
            device=device.name,
            wall_s=time.perf_counter() - sweep_start,
            alpha_glb=params.alpha_glb,
            global_bandwidth=params.global_bandwidth,
            alpha_sh=params.alpha_sh,
            shared_bandwidth=params.shared_bandwidth,
            alpha_sync=params.alpha_sync,
            gamma=params.gamma,
        )
    return params
