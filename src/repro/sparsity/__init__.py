"""Vector-wise N:M sparsity format substrate.

This subpackage implements the paper's sparse representation end to
end: the ``(N, M, L)`` pattern definition (Fig. 1), vector-wise
magnitude pruning, compression of a dense weight matrix ``B`` into the
``(B', D)`` pair of Eq. 1, the offline pre-processing of Fig. 4
(``col_info`` extraction, index reordering, layout transform), the
online packing of A tiles, and the Eq. 2 quality metrics.
"""

from repro.sparsity.config import NMPattern, sparsity_ratio
from repro.sparsity.masks import (
    is_valid_nm_mask,
    mask_from_indices,
    random_nm_mask,
    vector_mask_to_element_mask,
    window_indices_from_mask,
)
from repro.sparsity.pruning import magnitude_prune, prune_dense
from repro.sparsity.compress import NMCompressedMatrix, compress, decompress
from repro.sparsity.index_matrix import (
    absolute_rows,
    index_bits,
    index_dtype_for,
    validate_index_matrix,
)
from repro.sparsity.colinfo import ColumnInfo, preprocess_offline, query_col_info
from repro.sparsity.gather import GatherLayout, build_gather_layout
from repro.sparsity.packing import pack_a_tile, packed_footprint_columns
from repro.sparsity.quality import (
    confusion_matrix,
    mean_abs_error,
    pruning_energy_kept,
    relative_frobenius_error,
)

__all__ = [
    "NMPattern",
    "sparsity_ratio",
    "random_nm_mask",
    "mask_from_indices",
    "vector_mask_to_element_mask",
    "is_valid_nm_mask",
    "window_indices_from_mask",
    "magnitude_prune",
    "prune_dense",
    "NMCompressedMatrix",
    "compress",
    "decompress",
    "index_dtype_for",
    "index_bits",
    "validate_index_matrix",
    "absolute_rows",
    "ColumnInfo",
    "preprocess_offline",
    "query_col_info",
    "GatherLayout",
    "build_gather_layout",
    "pack_a_tile",
    "packed_footprint_columns",
    "confusion_matrix",
    "mean_abs_error",
    "relative_frobenius_error",
    "pruning_energy_kept",
]
