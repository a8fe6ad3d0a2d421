"""Small dependency-free helpers shared across the library."""

from repro.utils.intmath import (
    bits_required,
    ceil_div,
    clamp,
    geomean,
    ilog2_ceil,
    is_power_of_two,
    round_down,
    round_up,
)
from repro.utils.validation import (
    check_choice,
    check_divides,
    check_float,
    check_int,
    check_matrix,
    check_multiple_of,
)
from repro.utils.arrays import as_f32, iter_tiles, pad_to_multiple, split_into_windows, tile_count
from repro.utils.tables import TextTable, format_float, format_si

__all__ = [
    "ceil_div",
    "round_up",
    "round_down",
    "is_power_of_two",
    "ilog2_ceil",
    "bits_required",
    "geomean",
    "clamp",
    "check_int",
    "check_float",
    "check_choice",
    "check_multiple_of",
    "check_divides",
    "check_matrix",
    "pad_to_multiple",
    "iter_tiles",
    "tile_count",
    "split_into_windows",
    "as_f32",
    "TextTable",
    "format_float",
    "format_si",
]
