"""The paper's analytical GPU performance model and baselines.

* :mod:`.parameters`      -- Table IV parameter set
* :mod:`.flops`           -- Section III FLOP conventions
* :mod:`.intensity`       -- arithmetic intensity + bandwidth roofline
* :mod:`.block_config`    -- launch-shape rule (64 vs 256 threads)
* :mod:`.per_thread_model`-- Section IV prediction (Figure 4 dashed lines)
* :mod:`.per_block_model` -- Table VI estimates (Figures 8/9 dashed lines)
* :mod:`.cpu_model`       -- MKL-on-i7-2600 baseline
* :mod:`.hybrid_model`    -- MAGMA-style hybrid CPU+GPU baseline
* :mod:`.streams_model`   -- CUBLAS + streams composition (Section VI-C)
"""

from .accuracy import AccuracyPoint, AccuracyReport, model_accuracy
from .block_config import BlockConfig, block_config
from .cpu_model import I7_2600, CpuModel, CpuSpec, MklKernelModel
from .flops import (
    gauss_jordan_flops,
    least_squares_flops,
    lu_flops,
    matmul_flops,
    matrix_bytes,
    matrix_words,
    qr_flops,
    qr_flops_complex,
    workload_flops,
)
from .hybrid_model import HybridConfig, HybridModel
from .intensity import arithmetic_intensity, factorization_intensity, roofline_gflops
from .parameters import ModelParameters
from .per_block_model import (
    ColumnEstimate,
    OpEstimate,
    PerBlockPrediction,
    estimate_lu_column,
    estimate_qr_column,
    panel_breakdown,
    predict_per_block,
)
from .per_thread_model import PerThreadPrediction, predict_per_thread
from .streams_model import StreamsConfig, StreamsModel
from .whatif import Sensitivity, scale_parameters, whatif

__all__ = [
    "AccuracyPoint",
    "AccuracyReport",
    "model_accuracy",
    "BlockConfig",
    "block_config",
    "CpuModel",
    "CpuSpec",
    "I7_2600",
    "MklKernelModel",
    "gauss_jordan_flops",
    "least_squares_flops",
    "lu_flops",
    "matmul_flops",
    "matrix_bytes",
    "matrix_words",
    "qr_flops",
    "qr_flops_complex",
    "workload_flops",
    "HybridConfig",
    "HybridModel",
    "arithmetic_intensity",
    "factorization_intensity",
    "roofline_gflops",
    "ModelParameters",
    "ColumnEstimate",
    "OpEstimate",
    "PerBlockPrediction",
    "estimate_lu_column",
    "estimate_qr_column",
    "panel_breakdown",
    "predict_per_block",
    "PerThreadPrediction",
    "predict_per_thread",
    "StreamsConfig",
    "StreamsModel",
    "Sensitivity",
    "scale_parameters",
    "whatif",
]
