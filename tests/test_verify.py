"""The verification module's tuple generator and suite table."""

import itertools

from aztecbridge.regions import ConstraintError, _check_dr_params
from aztecbridge.verify import SUITE_TUPLES, small_double_rectangles, suite_tuples


def _valid(tup):
    try:
        _check_dr_params(*tup)
    except ConstraintError:
        return False
    return True


def test_the_generator_yields_every_valid_tuple_in_a_box():
    for max_cells in (48, 60):
        # an m x n Aztec rectangle has at least 3n + 1 cells, so no side exceeds max_cells / 3
        side = range(max_cells // 3 + 1)
        brute = [
            (m1, n1, k, m2, n2)
            for m1, n1, m2, n2 in itertools.product(side, repeat=4)
            if 2 * m1 * n1 + m1 + n1 + 2 * m2 * n2 + m2 + n2 <= max_cells
            for k in side
            if _valid((m1, n1, k, m2, n2))
        ]
        assert small_double_rectangles(max_cells) == sorted(brute)
    assert len(small_double_rectangles(48)) == 80
    assert len(small_double_rectangles(60)) == 118


def test_suite_tuples_fall_back_to_the_fixed_tuples():
    assert suite_tuples(None) is SUITE_TUPLES
    assert suite_tuples(30) == small_double_rectangles(30)
