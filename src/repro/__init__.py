"""NM-SpMM reproduction: N:M sparsity matrix multiplication with a
GPGPU performance model.

Reproduces "NM-SpMM: Accelerating Matrix Multiplication Using N:M
Sparsity with GPGPU" (IPDPS 2025).  The package has three layers:

* **functional** — numerically exact NumPy implementations of the
  vector-wise N:M format and the blocked/packed kernels of the paper's
  Listings 1-4 (:mod:`repro.sparsity`, :mod:`repro.kernels`);
* **performance** — an analytic GPU model (Table III hardware catalog,
  traffic/occupancy/pipeline simulation) that regenerates every figure
  and table of the evaluation (:mod:`repro.gpu`, :mod:`repro.model`,
  :mod:`repro.bench`);
* **serving** — a single-process serving runtime (request queue,
  dynamic batching, plan-cached execution, seeded load generation)
  that models the heavy-traffic scenario the offline/online split
  exists for (:mod:`repro.serve`).

Quickstart::

    import numpy as np
    from repro import NMPattern, NMSpMM

    rng = np.random.default_rng(0)
    a = rng.standard_normal((512, 1024), dtype=np.float32)
    b = rng.standard_normal((1024, 512), dtype=np.float32)

    op = NMSpMM(NMPattern(8, 32, vector_length=32))
    handle = op.prepare(b)            # offline: top-N per window -> (B', D)
    c = op.execute(a, handle)         # sparse product
    report = op.predict(a.shape[0], gpu="A100")   # modelled performance
"""

from repro._version import __version__
from repro.sparsity import NMCompressedMatrix, NMPattern, compress, decompress
from repro.backends import (
    AutoSelector,
    Backend,
    ExecutionRequest,
    ExecutionResult,
    available_backends,
    backend_names,
    get_backend,
    register_backend,
)
from repro.core.api import NMSpMM, SparseHandle, nm_spmm
from repro.core.plan import ExecutionPlan, build_plan
from repro.core.analysis import PerformanceAnalysis, analyze
from repro.gpu import GPUSpec, get_gpu, list_gpus
from repro.kernels import dense_gemm, nm_spmm_fast, nm_spmm_functional, nm_spmm_reference
from repro.model import KernelReport, simulate_nm_spmm
from repro.serve import BatchingPolicy, InferenceServer

__all__ = [
    "__version__",
    "NMPattern",
    "NMCompressedMatrix",
    "compress",
    "decompress",
    "NMSpMM",
    "SparseHandle",
    "nm_spmm",
    "Backend",
    "ExecutionRequest",
    "ExecutionResult",
    "AutoSelector",
    "register_backend",
    "get_backend",
    "available_backends",
    "backend_names",
    "ExecutionPlan",
    "build_plan",
    "PerformanceAnalysis",
    "analyze",
    "GPUSpec",
    "get_gpu",
    "list_gpus",
    "nm_spmm_fast",
    "nm_spmm_functional",
    "nm_spmm_reference",
    "dense_gemm",
    "KernelReport",
    "simulate_nm_spmm",
    "BatchingPolicy",
    "InferenceServer",
]
