"""Domain-validation helper tests."""

import numpy as np
import pytest

from repro import validation as v
from repro.errors import DomainError


class TestCheckPositive:
    def test_accepts_positive(self):
        assert v.check_positive(3, "x") == 3.0

    def test_returns_float(self):
        assert isinstance(v.check_positive(3, "x"), float)

    def test_rejects_zero(self):
        with pytest.raises(DomainError, match="x must be > 0"):
            v.check_positive(0, "x")

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            v.check_positive(-1.5, "x")

    def test_rejects_nan(self):
        with pytest.raises(DomainError, match="finite"):
            v.check_positive(float("nan"), "x")

    def test_rejects_inf(self):
        with pytest.raises(DomainError):
            v.check_positive(float("inf"), "x")

    def test_rejects_string(self):
        with pytest.raises(DomainError, match="real number"):
            v.check_positive("abc", "x")

    def test_array_all_positive(self):
        out = v.check_positive(np.array([1.0, 2.0]), "x")
        np.testing.assert_array_equal(out, [1.0, 2.0])

    def test_array_with_zero_rejected(self):
        with pytest.raises(DomainError):
            v.check_positive(np.array([1.0, 0.0]), "x")

    def test_array_with_nan_rejected(self):
        with pytest.raises(DomainError):
            v.check_positive(np.array([1.0, np.nan]), "x")

    def test_error_names_the_argument(self):
        with pytest.raises(DomainError, match="yield_fraction"):
            v.check_positive(-1, "yield_fraction")


class TestCheckNonnegative:
    def test_accepts_zero(self):
        assert v.check_nonnegative(0, "x") == 0.0

    def test_rejects_negative(self):
        with pytest.raises(DomainError, match=">= 0"):
            v.check_nonnegative(-0.001, "x")


class TestCheckFraction:
    def test_accepts_one(self):
        assert v.check_fraction(1.0, "y") == 1.0

    def test_accepts_interior(self):
        assert v.check_fraction(0.4, "y") == 0.4

    def test_rejects_zero(self):
        with pytest.raises(DomainError, match=r"\(0, 1\]"):
            v.check_fraction(0.0, "y")

    def test_rejects_above_one(self):
        with pytest.raises(DomainError):
            v.check_fraction(1.0001, "y")

    def test_array(self):
        out = v.check_fraction(np.array([0.4, 0.9]), "y")
        np.testing.assert_array_equal(out, [0.4, 0.9])

    def test_array_rejects_bad_element(self):
        with pytest.raises(DomainError):
            v.check_fraction(np.array([0.4, 1.2]), "y")


class TestCheckOpenFraction:
    def test_accepts_zero(self):
        assert v.check_open_fraction(0.0, "x") == 0.0

    def test_rejects_one(self):
        with pytest.raises(DomainError, match=r"\[0, 1\)"):
            v.check_open_fraction(1.0, "x")


class TestCheckInRange:
    def test_inclusive_bounds(self):
        assert v.check_in_range(0.0, "x", 0.0, 1.0) == 0.0
        assert v.check_in_range(1.0, "x", 0.0, 1.0) == 1.0

    def test_exclusive_bounds_reject_edges(self):
        with pytest.raises(DomainError):
            v.check_in_range(0.0, "x", 0.0, 1.0, inclusive=False)
        with pytest.raises(DomainError):
            v.check_in_range(1.0, "x", 0.0, 1.0, inclusive=False)

    def test_outside_rejected(self):
        with pytest.raises(DomainError, match=r"\[0.*2"):
            v.check_in_range(3.0, "x", 0.0, 2.0)


class TestCheckPositiveInt:
    def test_accepts_int(self):
        assert v.check_positive_int(5, "n") == 5

    def test_accepts_integral_float(self):
        assert v.check_positive_int(5.0, "n") == 5

    def test_rejects_fractional(self):
        with pytest.raises(DomainError):
            v.check_positive_int(5.5, "n")

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            v.check_positive_int(0, "n")

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            v.check_positive_int(-3, "n")

    def test_rejects_bool(self):
        with pytest.raises(DomainError, match="bool"):
            v.check_positive_int(True, "n")

    def test_rejects_string(self):
        with pytest.raises(DomainError):
            v.check_positive_int("7", "n")


class TestCheckFinite:
    def test_passes_through(self):
        assert v.check_finite(-3.5, "x") == -3.5

    def test_rejects_nan_array(self):
        with pytest.raises(DomainError):
            v.check_finite(np.array([np.inf]), "x")


class TestFloatFastPath:
    """Plain floats skip numpy; every other input, and every failure, keeps
    the general path and its exact message."""

    @pytest.mark.parametrize("check", [v.check_positive, v.check_fraction,
                                       v.check_finite])
    def test_valid_float_is_returned_as_is(self, check):
        value = 0.25
        assert check(value, "x") is value

    @pytest.mark.parametrize("check, value, message", [
        (v.check_positive, float("nan"), "x must be finite; got nan"),
        (v.check_positive, float("inf"), "x must be finite; got inf"),
        (v.check_positive, float("-inf"), "x must be finite; got -inf"),
        (v.check_positive, -1.5, "x must be > 0; got -1.5"),
        (v.check_positive, 0.0, "x must be > 0; got 0.0"),
        (v.check_positive, -0.0, "x must be > 0; got -0.0"),
        (v.check_fraction, float("nan"), "x must be finite; got nan"),
        (v.check_fraction, float("inf"), "x must be finite; got inf"),
        (v.check_fraction, -0.5, "x must lie in (0, 1]; got -0.5"),
        (v.check_fraction, 0.0, "x must lie in (0, 1]; got 0.0"),
        (v.check_fraction, 1.5, "x must lie in (0, 1]; got 1.5"),
        (v.check_finite, float("nan"), "x must be finite; got nan"),
        (v.check_finite, float("-inf"), "x must be finite; got -inf"),
    ])
    def test_float_failure_messages(self, check, value, message):
        with pytest.raises(DomainError) as exc_info:
            check(value, "x")
        assert str(exc_info.value) == message

    @pytest.mark.parametrize("value, expected", [
        (3, 3.0), (True, 1.0), (np.float64(2.5), 2.5), ("4", 4.0),
    ])
    def test_non_float_scalars_coerce_to_float(self, value, expected):
        out = v.check_positive(value, "x")
        assert type(out) is float and out == expected

    @pytest.mark.parametrize("check, value, message", [
        (v.check_positive, 0, "x must be > 0; got 0"),
        (v.check_positive, -2, "x must be > 0; got -2"),
        (v.check_positive, False, "x must be > 0; got False"),
        (v.check_positive, np.float64(-1.0), "x must be > 0; got np.float64(-1.0)"),
        (v.check_positive, np.float64("nan"), "x must be finite; got nan"),
        (v.check_positive, "abc", "x must be a real number; got 'abc'"),
        (v.check_positive, None, "x must be a real number; got None"),
        (v.check_positive, np.array([1.0, 0.0]), "x must be > 0; got array([1., 0.])"),
        (v.check_positive, np.array([1.0, np.inf]),
         "x must be finite; got non-finite entries"),
        (v.check_fraction, 2, "x must lie in (0, 1]; got 2"),
        (v.check_fraction, np.float64(0.0), "x must lie in (0, 1]; got np.float64(0.0)"),
    ])
    def test_non_float_messages(self, check, value, message):
        with pytest.raises(DomainError) as exc_info:
            check(value, "x")
        assert str(exc_info.value) == message

    def test_arrays_keep_the_array_path(self):
        out = v.check_fraction([0.5, 1.0], "x")
        assert isinstance(out, np.ndarray)
        np.testing.assert_array_equal(out, [0.5, 1.0])
