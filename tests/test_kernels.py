"""The numpy elimination kernel against a reference Gauss-Jordan, and parity
between the compiled kernel and the numpy fallback."""

import importlib.util
import random
import shutil
import subprocess
import sysconfig
from pathlib import Path

import numpy as np
import pytest

from conftest import random_matrix, reference_rref
from linca import _kernels, _modp_py


@pytest.fixture(scope="session")
def modp_cy(tmp_path_factory):
    """The committed ``_modp_cy.c``, compiled into a temporary directory and
    loaded from there; skips only without a C compiler or Python headers."""
    include = sysconfig.get_paths()["include"]
    compiler = shutil.which("cc")
    if compiler is None or not Path(include, "Python.h").exists():
        pytest.skip("compiled kernel not built")
    source = Path(_modp_py.__file__).with_name("_modp_cy.c")
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    target = tmp_path_factory.mktemp("modp_cy") / f"_modp_cy{suffix}"
    subprocess.run(
        [compiler, "-O0", "-shared", "-fPIC", f"-I{include}", str(source), "-o", str(target)],
        check=True,
    )
    spec = importlib.util.spec_from_file_location("_modp_cy", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_backend_reports_name():
    assert _kernels.backend() in ("cy", "py")


def test_numpy_kernel_matches_reference():
    rng = random.Random(202)
    fixed = [(0, 0), (0, 4), (4, 0), (1, 1), (9, 3), (3, 9), (7, 7)]
    for p in (2, 3, 5, 1048573):
        shapes = fixed + [(rng.randrange(0, 9), rng.randrange(0, 9)) for _ in range(12)]
        for rows, cols in shapes:
            for low_rank in (False, True):
                if low_rank:
                    k = rng.randrange(0, 3)
                    m = random_matrix(rng, rows, k, p) @ random_matrix(rng, k, cols, p) % p
                else:
                    m = random_matrix(rng, rows, cols, p)
                a = m.copy()
                pivots = _modp_py.rref_inplace(a, p)
                expected, expected_pivots = reference_rref(m.tolist(), cols, p)
                assert list(pivots) == expected_pivots
                assert a.tolist() == expected


def test_backends_agree_on_random_matrices(modp_cy):
    rng = random.Random(101)
    for p in (2, 3, 5, 7):
        for _ in range(40):
            m = random_matrix(rng, rng.randrange(0, 9), rng.randrange(0, 9), p)
            a = np.ascontiguousarray(m.copy())
            b = np.ascontiguousarray(m.copy())
            piv_cy = modp_cy.rref_inplace(a, p)
            piv_py = _modp_py.rref_inplace(b, p)
            assert list(piv_cy) == list(piv_py)
            assert np.array_equal(a, b)


def test_backends_agree_on_structured_matrices(modp_cy):
    cases = [
        np.eye(5, dtype=np.int64),
        np.zeros((4, 6), dtype=np.int64),
        np.ones((3, 3), dtype=np.int64),
        np.arange(42, dtype=np.int64).reshape(6, 7),
    ]
    for p in (2, 3, 97):
        for m in cases:
            a = np.ascontiguousarray(m % p)
            b = a.copy()
            assert list(modp_cy.rref_inplace(a, p)) == list(
                _modp_py.rref_inplace(b, p)
            )
            assert np.array_equal(a, b)
