"""Experiment registry: one runner per table/figure of the paper.

Each runner regenerates its artefact on the simulated substrate and
returns an :class:`ExperimentResult` carrying the raw data plus a
rendered plain-text report with the paper's numbers alongside.  The
``benchmarks/`` harness and EXPERIMENTS.md are generated from these.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable

import numpy as np

from ..approaches import (
    CpuLapackApproach,
    HybridBlockedApproach,
    PerBlockApproach,
    PerThreadApproach,
    Workload,
)
from ..gpu.device import QUADRO_6000, DeviceSpec
from ..kernels.batched import diagonally_dominant_batch, random_batch
from ..kernels.device import per_block_lu, per_block_qr
from ..layouts import compare_layouts
from ..microbench import (
    calibrate,
    measure_global_bandwidth,
    measure_shared_bandwidth,
    measure_shared_latency,
    plateau_latency,
    sweep_global_latency,
    sweep_sync_latency,
)
from ..model import (
    ModelParameters,
    panel_breakdown,
    predict_per_block,
    predict_per_thread,
)
from ..model.per_block_model import estimate_lu_column, estimate_qr_column
from ..model.block_config import block_config
from ..stap.benchmark import run_table7
from . import paper_values as paper
from .tables import format_comparison, format_series, format_table

__all__ = ["ExperimentResult", "EXPERIMENTS", "run_experiment", "list_experiments"]


@dataclasses.dataclass(frozen=True)
class ExperimentResult:
    experiment_id: str
    title: str
    report: str
    data: dict


@functools.cache
def _params(device: DeviceSpec) -> ModelParameters:
    """Table IV's parameters for ``device``, calibrated once per process.

    The paper measures them once per device in Section II and reuses
    them in every later section.  Six artefacts need them, and the
    sweep is deterministic for a frozen spec, so ``python -m repro all``
    runs it once instead of six times.  :func:`calibrate` itself still
    measures on every call.
    """
    return calibrate(device)


# ----------------------------------------------------------------------
# Tables I-IV: device characterization
# ----------------------------------------------------------------------
def run_table1(device: DeviceSpec = QUADRO_6000) -> ExperimentResult:
    """Table I: chip summary."""
    measured = {
        "Number of multiprocessors (SIMT unit)": device.num_sms,
        "Total number of FPUs": device.total_fpus,
        "Core clock rate (GHz)": device.clock_hz / 1e9,
        "Max registers per FPU": device.max_registers_per_thread,
        "Shared memory per SIMT unit (kB)": (
            (device.shared_mem_per_sm + device.l1_bytes) // 1024
        ),
        "Global memory bandwidth (GB/s)": device.global_bandwidth / 1e9,
        "Global memory size (GB)": device.global_mem_bytes / 1024**3,
        "Peak SP flops (TFlop/s)": device.peak_sp_flops / 1e12,
        "Peak SP per FPU (GFlop/s)": device.peak_sp_per_fpu / 1e9,
    }
    rows = [(k, paper.TABLE_I[k], measured[k]) for k in paper.TABLE_I]
    report = format_comparison(rows, title="Table I: device summary")
    return ExperimentResult("table1", "Device summary", report, {"rows": measured})


def run_table2(device: DeviceSpec = QUADRO_6000) -> ExperimentResult:
    """Table II: bandwidth of each level of the memory hierarchy."""
    shared = measure_shared_bandwidth(device)
    glbl = measure_global_bandwidth(device)
    measured = {
        "Shared memory (per core)": shared.per_sm_bandwidth / 1e9,
        "Shared memory (all cores)": shared.total_bandwidth / 1e9,
        "Global memory": glbl.copy_bandwidth / 1e9,
        "Global memory (cudaMemcpy)": glbl.memcpy_bandwidth / 1e9,
        "Theoretical shared peak": device.peak_shared_bandwidth / 1e9,
    }
    rows = [(k, paper.TABLE_II[k], measured[k]) for k in paper.TABLE_II]
    report = format_comparison(rows, title="Table II: bandwidths (GB/s)")
    return ExperimentResult("table2", "Memory bandwidths", report, measured)


def run_table3(device: DeviceSpec = QUADRO_6000) -> ExperimentResult:
    """Table III: latency of each level of the memory hierarchy."""
    from ..gpu.device import G80

    shared = measure_shared_latency(device)
    measured = {
        "Shared memory": shared.latency_cycles,
        "Global memory": plateau_latency(device),
        "Shared via generic LD penalty": shared.generic_ld_penalty,
        "Shift + shared load combination": shared.combined_cycles,
        "G80 shared (Volkov)": measure_shared_latency(G80).latency_cycles,
    }
    rows = [(k, paper.TABLE_III[k], measured[k]) for k in paper.TABLE_III]
    report = format_comparison(rows, title="Table III: latencies (cycles)")
    return ExperimentResult("table3", "Memory latencies", report, measured)


def run_table4(device: DeviceSpec = QUADRO_6000) -> ExperimentResult:
    """Table IV: the calibrated model parameters."""
    params = _params(device)
    measured = {
        "alpha_glb (cycles)": params.alpha_glb,
        "global bandwidth (GB/s)": params.global_bandwidth / 1e9,
        "alpha_sh (cycles)": params.alpha_sh,
        "shared bandwidth (GB/s)": params.shared_bandwidth / 1e9,
        "alpha_sync 64 threads (cycles)": params.alpha_sync,
        "gamma (cycles)": params.gamma,
    }
    rows = [(k, paper.TABLE_IV[k], measured[k]) for k in paper.TABLE_IV]
    report = format_comparison(rows, title="Table IV: model parameters")
    return ExperimentResult("table4", "Model parameters", report, measured)


# ----------------------------------------------------------------------
# Figures 1-2: microbenchmark sweeps
# ----------------------------------------------------------------------
def run_fig1(device: DeviceSpec = QUADRO_6000, hops: int = 512) -> ExperimentResult:
    """Figure 1: global latency vs log2(stride)."""
    sweep = sweep_global_latency(device, hops=hops)
    log2 = [s for s, _ in sweep.series()]
    lats = [lat for _, lat in sweep.series()]
    report = format_series(
        log2,
        {"latency (cycles)": lats},
        x_label="log2(stride)",
        title="Figure 1: global memory latency vs access stride",
    )
    return ExperimentResult(
        "fig1",
        "Global latency vs stride",
        report,
        {"log2_stride": log2, "latency": lats},
    )


def run_fig2(device: DeviceSpec = QUADRO_6000) -> ExperimentResult:
    """Figure 2: synchronization latency vs threads per SM."""
    sweep = sweep_sync_latency(device)
    threads = list(sweep.thread_counts)
    lats = list(sweep.latencies)
    report = format_series(
        threads,
        {"sync latency (cycles)": lats},
        x_label="threads/SM",
        title="Figure 2: synchronization latency",
    )
    return ExperimentResult(
        "fig2", "Sync latency vs threads", report, {"threads": threads, "latency": lats}
    )


# ----------------------------------------------------------------------
# Figure 4: one problem per thread
# ----------------------------------------------------------------------
def run_fig4(
    device: DeviceSpec = QUADRO_6000, batch: int = 256, sizes=range(3, 13)
) -> ExperimentResult:
    """Figure 4: per-thread QR/LU, measured vs predicted, n = 3..12."""
    from ..kernels.device import per_thread_factor

    params = _params(device)
    ns, data = list(sizes), {"qr_measured": [], "qr_predicted": [],
                             "lu_measured": [], "lu_predicted": []}
    for n in ns:
        a = random_batch(batch, n, n, dtype=np.float32, seed=n)
        data["qr_measured"].append(per_thread_factor(a, "qr", device).gflops)
        data["lu_measured"].append(per_thread_factor(a, "lu", device).gflops)
        data["qr_predicted"].append(predict_per_thread(params, "qr", n).gflops)
        data["lu_predicted"].append(predict_per_thread(params, "lu", n).gflops)
    report = format_series(
        ns,
        {k: v for k, v in data.items()},
        x_label="n",
        title="Figure 4: one-problem-per-thread GFLOPS (64000-problem batches)",
    )
    return ExperimentResult("fig4", "Per-thread performance", report, {"n": ns, **data})


# ----------------------------------------------------------------------
# Figure 7: layouts
# ----------------------------------------------------------------------
def run_fig7(
    device: DeviceSpec = QUADRO_6000, sizes=range(16, 97, 16)
) -> ExperimentResult:
    """Figure 7: 1D vs 2D layouts for the QR solver."""
    params = _params(device)
    ns = list(sizes)
    series = {"2D cyclic": [], "1D column cyclic": [], "1D row cyclic": []}
    for n in ns:
        res = compare_layouts(params, n)
        series["2D cyclic"].append(res["cyclic2d"].gflops)
        series["1D column cyclic"].append(res["column_cyclic"].gflops)
        series["1D row cyclic"].append(res["row_cyclic"].gflops)
    report = format_series(
        ns, series, x_label="n",
        title="Figure 7: QR solve GFLOPS under the three data layouts",
    )
    return ExperimentResult("fig7", "Layout comparison", report, {"n": ns, **series})


# ----------------------------------------------------------------------
# Table V / Figure 8: the 56x56 deep dive
# ----------------------------------------------------------------------
def run_table5(device: DeviceSpec = QUADRO_6000, batch: int = 2) -> ExperimentResult:
    """Table V: load/compute/store cycles for 56x56 LU and QR."""
    lu = per_block_lu(diagonally_dominant_batch(batch, 56, dtype=np.float32), device)
    qr = per_block_qr(random_batch(batch, 56, 56, dtype=np.float32), device)
    rows = []
    measured = {}
    for name, res in (("lu", lu), ("qr", qr)):
        load = res.phase_cycles("load")["load"]
        store = res.phase_cycles("store")["store"]
        compute = res.cycles - load - store
        measured[name] = {"load": load, "compute": compute, "store": store}
        for phase in ("load", "compute", "store"):
            rows.append(
                (f"{name.upper()} {phase}", paper.TABLE_V[name][phase],
                 round(measured[name][phase]))
            )
    report = format_comparison(rows, title="Table V: 56x56 cycle counts")
    return ExperimentResult("table5", "56x56 cycle counts", report, measured)


def run_fig8(device: DeviceSpec = QUADRO_6000, batch: int = 2) -> ExperimentResult:
    """Figure 8: per-panel cycles, measured (engine) and modeled."""
    qr = per_block_qr(random_batch(batch, 56, 56, dtype=np.float32), device)
    measured = qr.panel_breakdown()
    params = _params(device)
    modeled = panel_breakdown(predict_per_block(params, "qr", 56))
    ops = ["Form HH Vector", "Matrix-Vector Multiply", "Rank-1 Update"]
    rows = []
    for i, (mp, md) in enumerate(zip(measured, modeled), start=1):
        for op in ops:
            rows.append([i, op, round(mp.get(op, 0)), round(md.get(op, 0))])
    report = format_table(
        ["panel", "operation", "measured cycles", "modeled cycles"],
        rows,
        title="Figure 8: 56x56 QR per-panel breakdown",
    )
    return ExperimentResult(
        "fig8", "Per-panel breakdown", report,
        {"measured": measured, "modeled": modeled},
    )


def run_table6(device: DeviceSpec = QUADRO_6000) -> ExperimentResult:
    """Table VI: the per-column model estimates, evaluated at 56x56."""
    params = _params(device)
    cfg = block_config(56, 56)
    rows = []
    for kind, estimator in (("LU", estimate_lu_column), ("QR", estimate_qr_column)):
        est = estimator(params, cfg, 0)
        for op in est.ops:
            rows.append(
                [kind, op.name, round(op.flops_cycles), round(op.shared_cycles),
                 round(op.sync_cycles), round(op.total)]
            )
    report = format_table(
        ["kind", "operation", "flops cyc", "shared cyc", "sync cyc", "total"],
        rows,
        title="Table VI: per-column estimates at 56x56 (first column, N=7)",
    )
    return ExperimentResult("table6", "Model estimates", report, {"rows": rows})


# ----------------------------------------------------------------------
# Figure 9: one problem per block
# ----------------------------------------------------------------------
def run_fig9(
    device: DeviceSpec = QUADRO_6000, sizes=range(8, 145, 8)
) -> ExperimentResult:
    """Figure 9: per-block LU/QR, measured (replay) vs predicted."""
    params = _params(device)
    replay = PerBlockApproach(device)
    ns = list(sizes)
    data = {"qr_measured": [], "qr_predicted": [], "lu_measured": [],
            "lu_predicted": []}
    for n in ns:
        for kind in ("qr", "lu"):
            launch = replay.launch(Workload.square(kind, n, 8000))
            data[f"{kind}_measured"].append(launch.throughput_gflops(8000))
            data[f"{kind}_predicted"].append(
                predict_per_block(params, kind, n).gflops
            )
    report = format_series(
        ns, data, x_label="n",
        title="Figure 9: one-problem-per-block GFLOPS (8000 problems)",
    )
    return ExperimentResult("fig9", "Per-block performance", report, {"n": ns, **data})


# ----------------------------------------------------------------------
# Figures 10-12: approach comparisons
# ----------------------------------------------------------------------
def run_fig10(
    device: DeviceSpec = QUADRO_6000,
    sizes=(2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192),
) -> ExperimentResult:
    """Figure 10: the three approaches across the design space."""
    pt, pb, hy = (
        PerThreadApproach(device),
        PerBlockApproach(device),
        HybridBlockedApproach(),
    )
    ns = list(sizes)
    data = {}
    for kind in ("qr", "lu"):
        for name, approach in (("per_thread", pt), ("per_block", pb), ("hybrid", hy)):
            key = f"{kind}_{name}"
            data[key] = []
            for n in ns:
                batch = 8000 if n <= 256 else max(1, 2048 // n)
                work = Workload.square(kind, n, batch)
                data[key].append(
                    approach.gflops(work) if approach.supports(work) else float("nan")
                )
    report = format_series(
        ns, data, x_label="n",
        title="Figure 10: many QR/LU factorizations, three approaches",
    )
    return ExperimentResult("fig10", "Design space", report, {"n": ns, **data})


def run_fig11(
    device: DeviceSpec = QUADRO_6000, sizes=range(8, 145, 8), batch: int = 8000
) -> ExperimentResult:
    """Figure 11: per-block vs MKL and MAGMA (both starts), QR and LU."""
    pb, cpu = PerBlockApproach(device), CpuLapackApproach()
    magma_cpu = HybridBlockedApproach(gpu_start=False)
    magma_gpu = HybridBlockedApproach(gpu_start=True)
    ns = list(sizes)
    data = {}
    for kind in ("qr", "lu"):
        for name, approach in (
            ("per_block", pb), ("mkl", cpu),
            ("magma_cpu_start", magma_cpu), ("magma_gpu_start", magma_gpu),
        ):
            key = f"{kind}_{name}"
            data[key] = [
                approach.gflops(Workload.square(kind, n, batch)) for n in ns
            ]
    report = format_series(
        ns, data, x_label="n",
        title=f"Figure 11: {batch} LU/QR factorizations vs MKL and MAGMA",
    )
    return ExperimentResult("fig11", "MKL/MAGMA comparison", report, {"n": ns, **data})


def run_fig12(
    device: DeviceSpec = QUADRO_6000, sizes=range(8, 145, 8), batch: int = 8000
) -> ExperimentResult:
    """Figure 12: solving linear systems (QR solve, Gauss-Jordan) vs MKL."""
    pb, cpu = PerBlockApproach(device), CpuLapackApproach()
    ns = list(sizes)
    data = {
        "qr_solve_per_block": [], "qr_solve_mkl": [],
        "gj_per_block": [], "gj_mkl": [],
    }
    for n in ns:
        ls = Workload.square("least_squares", n, batch)
        gj = Workload.square("gauss_jordan", n, batch)
        data["qr_solve_per_block"].append(pb.gflops(ls))
        data["qr_solve_mkl"].append(cpu.gflops(ls))
        data["gj_per_block"].append(pb.gflops(gj))
        data["gj_mkl"].append(cpu.gflops(gj))
    report = format_series(
        ns, data, x_label="n",
        title=f"Figure 12: solving {batch} linear systems vs MKL",
    )
    return ExperimentResult("fig12", "Linear-system solves", report, {"n": ns, **data})


def run_table7_experiment(
    device: DeviceSpec = QUADRO_6000, numeric_batch: int = 2
) -> ExperimentResult:
    """Table VII: RT_STAP complex QR sizes."""
    results = run_table7(device, numeric_batch)
    rows = []
    for res, ref in zip(results, paper.TABLE_VII):
        rows.append([
            res.case.label, f"{res.case.rows}x{res.case.cols}",
            res.case.num_matrices,
            ref["gpu_gflops"], round(res.gpu_gflops, 1),
            ref["mkl_gflops"], round(res.mkl_gflops, 1),
            f'{ref["speedup"]}x', f"{res.speedup:.1f}x", res.method,
        ])
    report = format_table(
        ["case", "size", "# matrices", "paper GPU", "GPU", "paper MKL", "MKL",
         "paper speedup", "speedup", "method"],
        rows,
        title="Table VII: RT_STAP single-precision complex QR",
    )
    return ExperimentResult(
        "table7", "STAP benchmark", report,
        {"rows": [dataclasses.asdict(r.case) | {
            "gpu_gflops": r.gpu_gflops, "mkl_gflops": r.mkl_gflops,
            "speedup": r.speedup, "method": r.method} for r in results]},
    )


#: Registry: experiment id -> runner.
EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    "table1": run_table1,
    "table2": run_table2,
    "table3": run_table3,
    "table4": run_table4,
    "fig1": run_fig1,
    "fig2": run_fig2,
    "fig4": run_fig4,
    "fig7": run_fig7,
    "table5": run_table5,
    "fig8": run_fig8,
    "table6": run_table6,
    "fig9": run_fig9,
    "fig10": run_fig10,
    "fig11": run_fig11,
    "fig12": run_fig12,
    "table7": run_table7_experiment,
}


def list_experiments() -> list[str]:
    return list(EXPERIMENTS)


def run_experiment(experiment_id: str, **kwargs) -> ExperimentResult:
    try:
        runner = EXPERIMENTS[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {', '.join(EXPERIMENTS)}"
        ) from None
    return runner(**kwargs)
