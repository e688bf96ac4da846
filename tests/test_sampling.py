import numpy as np
import pytest

from lindyn.linalg import L1, L2, LINF, array_norm
from lindyn.sampling import unit_dense_rows


def unit_rows_one_by_one(dim, tag, count, rng, real=False):
    """The row-by-row rejection loop that unit_dense_rows batches."""
    out = np.empty((max(count, 0), dim), dtype=complex)
    k = 0
    while k < count:
        v = rng.standard_normal(dim)
        if not real:
            v = v + 1j * rng.standard_normal(dim)
        v = np.asarray(v, dtype=complex)
        n = array_norm(v, tag)
        if n < 1e-12:
            continue
        out[k] = v / n
        k += 1
    return out


class ScriptedNormals:
    """Hands out a fixed stream of normals, as a Generator would."""

    def __init__(self, values):
        self.values, self.used = values, 0

    def standard_normal(self, size):
        n = int(np.prod(size))
        out = self.values[self.used : self.used + n]
        self.used += n
        return out.reshape(size)


@pytest.mark.parametrize("tag", [L1, L2, LINF])
@pytest.mark.parametrize("real", [False, True])
def test_unit_dense_rows_matches_the_row_by_row_loop(tag, real):
    for dim in (1, 3, 9, 32):
        for count in (0, 1, 50):
            a, b = np.random.default_rng(dim), np.random.default_rng(dim)
            got = unit_dense_rows(dim, tag, count, a, real)
            assert got.tobytes() == unit_rows_one_by_one(dim, tag, count, b, real).tobytes()
            # the generator is left where the loop leaves it
            assert a.random() == b.random()
    # rows whose norm is below 1e-12 are redrawn from the numbers that follow
    values = np.random.default_rng(0).standard_normal(1000)
    values[6:18] = 0.0
    values[40:52] = 1e-14
    a, b = ScriptedNormals(values), ScriptedNormals(values)
    got = unit_dense_rows(3, tag, 50, a, real)
    assert got.tobytes() == unit_rows_one_by_one(3, tag, 50, b, real).tobytes()
    assert a.used == b.used
