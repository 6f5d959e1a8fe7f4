import hashlib

import numpy as np
import pytest

from repro.advisor.featurize import MATRIX_FEATURE_NAMES, matrix_features
from repro.errors import AdvisorError
from repro.generators import stencil_2d
from repro.matrix import coo_from_arrays, csr_from_coo

#: SHA-256 over the float64 bytes of ``matrix_features`` for every
#: matrix of the tiny corpus (seed 0), first at 16 then at 64 threads.
#: Datasets, model artifacts and served answers are all built from
#: these values, so any change to them must be deliberate.
GOLDEN_DIGEST = (
    "8bce37a762cd74748e948203283923f568bc37591ed875d95c4e684336e71c3e")


def test_matrix_features_ranges():
    a = stencil_2d(10, seed=0)
    f = dict(zip(MATRIX_FEATURE_NAMES, matrix_features(a, nthreads=8)))
    assert len(f) == len(MATRIX_FEATURE_NAMES)
    assert 0 <= f["rel_bandwidth"] <= 1
    assert 0 <= f["rel_offdiag"] <= 1
    assert f["imbalance_1d"] >= 1.0
    assert f["density"] > 0


def test_matrix_features_empty_rejected():
    a = csr_from_coo(coo_from_arrays(0, 0, [], []))
    with pytest.raises(AdvisorError):
        matrix_features(a, nthreads=64)


def test_matrix_features_golden(corpus):
    h = hashlib.sha256()
    for nthreads in (16, 64):
        for entry in corpus:
            v = matrix_features(entry.matrix, nthreads)
            h.update(np.asarray(v, dtype=np.float64).tobytes())
    assert h.hexdigest() == GOLDEN_DIGEST
