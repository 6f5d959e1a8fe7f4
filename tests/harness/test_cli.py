import io

import numpy as np
import pytest

from repro.harness.cli import main
from repro.matrix import read_matrix_market, write_matrix_market


@pytest.fixture
def mtx_file(tmp_path, rng):
    from ..conftest import random_csr

    a = random_csr(30, 150, rng)
    path = tmp_path / "m.mtx"
    write_matrix_market(a, path)
    return str(path)


def test_corpus_command(capsys):
    assert main(["corpus", "--tier", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "stencil2d" in out
    assert "total nonzeros" in out


def test_archs_command(capsys):
    assert main(["archs"]) == 0
    out = capsys.readouterr().out
    assert "Milan B" in out and "ARMv8.2" in out


def test_reorder_command(mtx_file, tmp_path, capsys):
    out_file = str(tmp_path / "out.mtx")
    assert main(["reorder", mtx_file, "RCM", "--output", out_file]) == 0
    out = capsys.readouterr().out
    assert "bandwidth" in out
    b = read_matrix_market(out_file)
    assert b.nnz > 0


def test_reorder_rejects_unknown_ordering(mtx_file):
    with pytest.raises(SystemExit):
        main(["reorder", mtx_file, "QuickSort"])


def test_study_command(capsys, tmp_path):
    assert main(["study", "--tier", "tiny", "--archs", "Rome",
                 "--cache", str(tmp_path / "cache")]) == 0
    out = capsys.readouterr().out
    assert "Table 3" in out and "Table 4" in out


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        main([])
