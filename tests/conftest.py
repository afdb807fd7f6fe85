import pytest

from schurdiv import schur_number


@pytest.fixture(scope="session")
def restricted_two_colors():
    """Exact restricted search result for 2 colors, shared across modules."""
    result = schur_number(2, restricted=True)
    assert result.status == "exact"
    return result


@pytest.fixture(scope="session")
def pentagon_color():
    """Edge colors of K_5: 0 on the 5-cycle 1-2-3-4-5-1, 1 on the diagonals.
    Up to relabelling, the one 2-coloring of K_5 with no monochromatic triangle."""
    return lambda i, j: 0 if j - i in (1, 4) else 1
