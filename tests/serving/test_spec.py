"""`ServingSpec` rejects a scenario whose rate or timeout is not a number
the simulator can schedule, at construction rather than deep inside it."""

import math

import pytest

from repro.errors import ExperimentError
from repro.serving import ServingSpec


@pytest.mark.parametrize("field", ["load", "rate_rps", "timeout_us"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_values_raise(field, value):
    with pytest.raises(ExperimentError, match=f"{field} must be finite"):
        ServingSpec(**{field: value})


@pytest.mark.parametrize("field, value, message", [
    pytest.param("rate_rps", 0.0, "rate_rps must be positive", id="0.0"),
    pytest.param("rate_rps", -1.0, "rate_rps must be positive", id="-1.0"),
    pytest.param(
        "timeout_us", -5.0, "timeout_us must be >= 0", id="timeout_us=-5.0",
    ),
])
def test_non_positive_rate_raises(field, value, message):
    with pytest.raises(ExperimentError, match=message):
        ServingSpec(**{field: value})
