import numpy as np
import pytest

from keller import build_counterexample


@pytest.fixture(scope="session")
def s10():
    return build_counterexample(10)


@pytest.fixture(scope="session")
def s12():
    return build_counterexample(12)


def packed_rows(matrix):
    """A dense boolean adjacency as the search's packed rows: bit j of row i
    (``bitorder="little"``) is matrix[i, j]."""
    return np.packbits(np.asarray(matrix, dtype=bool), axis=1, bitorder="little")


def dense_rows(rows, ncols):
    """Packed rows back as a dense boolean matrix of ncols columns."""
    return np.unpackbits(rows, axis=1, count=ncols, bitorder="little").astype(bool)
