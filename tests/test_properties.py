"""Property tests over generated inputs (hypothesis, a declared test dependency)."""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from flowids.sentencing import NUMERIC, FeatureSpec

finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(derandomize=True, database=None, max_examples=1000)
@given(finite, finite, finite)
def test_numeric_encoding_is_finite_and_in_unit_interval(a, b, value):
    """Any finite cell against any finite fitted range encodes into [0, 1],
    within 1e-15 of the exact rational min-max value."""
    lo, hi = min(a, b), max(a, b)
    out = FeatureSpec("f", NUMERIC, lo=lo, hi=hi).encode(repr(value))
    assert math.isfinite(out) and 0.0 <= out <= 1.0
    if lo != hi:
        exact = (Fraction(value) - Fraction(lo)) / (Fraction(hi) - Fraction(lo))
        assert abs(out - float(min(max(exact, Fraction(0)), Fraction(1)))) <= 1e-15
