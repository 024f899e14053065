import numpy as np
import pytest

from tregsim.errors import greatest, least


@pytest.mark.parametrize("x", [
    np.array([]), np.array([np.nan]), np.array([np.nan, 3.0]), np.array([-3.0, np.nan]),
    np.array([[1.0, 5.0], [np.nan, 2.0]]), np.array([2, 7]), 4.0, np.array(np.nan),
    [np.inf, 1.0],
])
@pytest.mark.parametrize("bound", [-1.0, 2.0, 6.0])
def test_least_and_greatest_flag_what_np_any_flags(x, bound):
    # the range checks' one-reduction form of np.any(x < bound) and its
    # kin: a NaN element fails every comparison, an empty x has none
    a = np.asarray(x, dtype=float)
    assert (least(x) < bound) == np.any(a < bound)
    assert (least(x) <= bound) == np.any(a <= bound)
    assert (greatest(x) > bound) == np.any(a > bound)
    assert (greatest(x) >= bound) == np.any(a >= bound)
