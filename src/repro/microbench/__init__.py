"""Section-II microbenchmarks, run against the simulated device.

Each module reproduces one of the paper's measurement procedures:

* :mod:`.shared_bandwidth` -- Listing 1 (880 GB/s aggregate on Quadro 6000)
* :mod:`.global_bandwidth` -- Listing 2 (108 GB/s copy, 84 GB/s memcpy)
* :mod:`.shared_latency`   -- Listing 3 (27 cycles; 36 on G80 per Volkov)
* :mod:`.global_latency`   -- Figure 1 stride sweep (570-cycle plateau)
* :mod:`.sync_latency`     -- Figure 2 sweep (46 cycles at 64 threads)
* :mod:`.calibrate`        -- all of the above -> Table IV parameters
"""

from .calibrate import calibrate, measure_fma_latency
from .global_bandwidth import GlobalBandwidthResult, measure_global_bandwidth
from .global_latency import (
    GlobalLatencySweep,
    measure_global_latency,
    plateau_latency,
    sweep_global_latency,
)
from .shared_bandwidth import SharedBandwidthResult, measure_shared_bandwidth
from .shared_latency import SharedLatencyResult, measure_shared_latency
from .sync_latency import SyncLatencySweep, measure_sync_latency, sweep_sync_latency

__all__ = [
    "calibrate",
    "measure_fma_latency",
    "GlobalBandwidthResult",
    "measure_global_bandwidth",
    "GlobalLatencySweep",
    "measure_global_latency",
    "plateau_latency",
    "sweep_global_latency",
    "SharedBandwidthResult",
    "measure_shared_bandwidth",
    "SharedLatencyResult",
    "measure_shared_latency",
    "SyncLatencySweep",
    "measure_sync_latency",
    "sweep_sync_latency",
]
