"""Unit tests for repro.utils.validation."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError, FaultError, ServeError, ShapeError
from repro.utils.validation import (
    check_choice,
    check_divides,
    check_float,
    check_int,
    check_matrix,
    check_multiple_of,
    check_type,
)


class TestPositiveInt:
    def test_accepts_int(self):
        assert check_int("x", 3, 1) == 3

    def test_accepts_numpy_int(self):
        assert check_int("x", np.int64(3), 1) == 3

    def test_rejects_zero(self):
        with pytest.raises(ConfigurationError, match="x"):
            check_int("x", 0, 1)

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            check_int("x", -1, 1)

    def test_rejects_float(self):
        with pytest.raises(ConfigurationError):
            check_int("x", 3.0, 1)

    def test_rejects_bool(self):
        with pytest.raises(ConfigurationError):
            check_int("x", True, 1)


class TestNonNegativeInt:
    def test_accepts_zero(self):
        assert check_int("x", 0, 0) == 0

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            check_int("x", -1, 0)


class TestRanges:
    def test_in_range(self):
        assert check_float("x", 0.5, ge=0.0, le=1.0) == 0.5

    def test_boundaries_inclusive(self):
        assert check_float("x", 0.0, ge=0.0, le=1.0) == 0.0
        assert check_float("x", 1.0, ge=0.0, le=1.0) == 1.0

    def test_out_of_range(self):
        with pytest.raises(ConfigurationError, match="x"):
            check_float("x", 1.5, ge=0.0, le=1.0)

    def test_fraction(self):
        assert check_float("f", 0.7, ge=0, le=1) == 0.7
        with pytest.raises(ConfigurationError):
            check_float("f", 1.7, ge=0, le=1)


class TestMultiples:
    def test_multiple_ok(self):
        assert check_multiple_of("x", 64, 32) == 64

    def test_multiple_bad(self):
        with pytest.raises(ConfigurationError):
            check_multiple_of("x", 48, 32)

    def test_divides_ok(self):
        check_divides("a", 4, "b", 12)

    def test_divides_bad(self):
        with pytest.raises(ConfigurationError):
            check_divides("a", 5, "b", 12)

    def test_divides_rejects_non_positive(self):
        with pytest.raises(ConfigurationError):
            check_divides("a", 0, "b", 12)


class TestMatrix:
    def test_accepts_2d(self):
        arr = np.zeros((2, 3), dtype=np.float32)
        assert check_matrix("m", arr) is arr

    def test_rejects_1d(self):
        with pytest.raises(ShapeError):
            check_matrix("m", np.zeros(3))

    def test_rejects_3d(self):
        with pytest.raises(ShapeError):
            check_matrix("m", np.zeros((2, 2, 2)))

    def test_rejects_list(self):
        with pytest.raises(ShapeError):
            check_matrix("m", [[1, 2]])

    def test_dtype_enforced(self):
        with pytest.raises(ShapeError):
            check_matrix("m", np.zeros((2, 2), dtype=np.float64), dtype=np.float32)

    def test_dtype_match(self):
        arr = np.zeros((2, 2), dtype=np.float32)
        assert check_matrix("m", arr, dtype=np.float32) is arr


class TestIntRule:
    def test_upper_bound_inclusive(self):
        assert check_int("x", 4, 1, 4) == 4
        with pytest.raises(ConfigurationError, match=r"^x must be an integer >= 1 and <= 4, got 5$"):
            check_int("x", 5, 1, 4)

    @pytest.mark.parametrize("value", [True, False, 2.0, math.nan, math.inf, "2", None])
    def test_refuses_non_ints(self, value):
        with pytest.raises(ConfigurationError, match=r"^x must be an integer >= 0, got "):
            check_int("x", value, 0)

    def test_optional_passes_none_only(self):
        assert check_int("x", None, 1, optional=True) is None
        with pytest.raises(ConfigurationError, match="^x must be an integer >= 1 or None"):
            check_int("x", 0, 1, optional=True)

    def test_huge_int_accepted_without_overflow(self):
        assert check_int("x", 10**400, 1) == 10**400


class TestFloatRule:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float32("nan")])
    def test_refuses_non_finite(self, value):
        with pytest.raises(ConfigurationError, match="^x must be a finite number"):
            check_float("x", value)

    @pytest.mark.parametrize("value", [True, False, "1.0", None, [1.0], 1j])
    def test_refuses_bool_and_non_numbers(self, value):
        with pytest.raises(ConfigurationError, match="^x must be a finite number >= 0, got"):
            check_float("x", value, ge=0)

    def test_open_bounds_exclude_the_limit(self):
        assert check_float("x", 0.5, gt=0, lt=1) == 0.5
        for value in (0, 1):
            with pytest.raises(ConfigurationError, match=r"^x must be a finite number > 0 and < 1"):
                check_float("x", value, gt=0, lt=1)

    def test_accepts_numpy_and_int_values(self):
        assert check_float("x", np.float32(2.5), gt=0) == np.float32(2.5)
        assert check_float("x", np.int64(3), gt=0) == 3
        assert check_float("x", 10**400, gt=0) == 10**400

    def test_optional_passes_none_only(self):
        assert check_float("x", None, gt=0, optional=True) is None
        with pytest.raises(ConfigurationError, match="> 0 or None, got nan$"):
            check_float("x", math.nan, gt=0, optional=True)


class TestChoiceAndType:
    def test_choice(self):
        assert check_choice("mode", "row", ("row", "column")) == "row"
        with pytest.raises(
            ConfigurationError, match=r"^unknown mode 'diag'; expected one of \('row', 'column'\)$"
        ):
            check_choice("mode", "diag", ("row", "column"))

    @pytest.mark.parametrize("value", [[1], {"a": 1}, np.zeros(3), True, 1.0 + 1e-9])
    def test_choice_refuses_odd_values_with_one_line(self, value):
        with pytest.raises(ConfigurationError, match="^unknown width"):
            check_choice("width", value, {1: "a", 2: "b"})

    def test_type(self):
        assert check_type("n", 3, int) == 3
        assert check_type("n", None, int, optional=True) is None
        with pytest.raises(ConfigurationError, match="^n must be int or str, got 2.5$"):
            check_type("n", 2.5, (int, str))


class TestErrorClass:
    """Every rule raises the class its caller names, so each package
    keeps its own error type while sharing one rule and message."""

    @pytest.mark.parametrize("error", [ServeError, FaultError, ShapeError])
    def test_each_rule_raises_the_given_class(self, error):
        calls = [
            lambda: check_int("x", 0, 1, error=error),
            lambda: check_float("x", math.inf, error=error),
            lambda: check_choice("x", "?", ("a",), error=error),
            lambda: check_type("x", 1, str, error=error),
        ]
        for call in calls:
            with pytest.raises(error) as info:
                call()
            assert type(info.value) is error
            assert "\n" not in str(info.value)
