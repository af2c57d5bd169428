"""One BLAS thread per run: the pin, the caller's count given back, and the
OpenBLAS the pin reaches.

The caller's thread count is set here through numpy's own OpenBLAS, found
by its file in ``numpy.libs``, not through the lookup under test.
"""

import ctypes
from pathlib import Path

import numpy as np
import pytest

from circumproj import bench, compute_rates, numerics, parse_config, run_experiment
from helpers import demo_config, load_script


def _numpy_openblas():
    """numpy's bundled OpenBLAS, opened by its path in the wheel's
    ``numpy.libs``; None where numpy bundles none."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    paths = sorted(libs.glob("libscipy_openblas64_*"))
    return ctypes.CDLL(str(paths[0])) if paths else None


@pytest.fixture
def caller_threads():
    """Set the caller's OpenBLAS thread count, and give the count it had
    back after the test."""
    library = _numpy_openblas()
    if library is None:
        pytest.skip("numpy bundles no OpenBLAS here")
    get, set_ = (library.scipy_openblas_get_num_threads64_,
                 library.scipy_openblas_set_num_threads64_)
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    before = get()

    def threads(count=None):
        if count is not None:
            set_(count)
        return get()

    yield threads
    set_(before)


def _address(function) -> int:
    return ctypes.cast(function, ctypes.c_void_p).value


def test_the_lookup_reaches_numpys_openblas_while_scipys_is_loaded():
    """scipy's wheel loads a second OpenBLAS, ``scipy.libs/libscipy_openblas``,
    with thread functions of its own; the pin must set numpy's."""
    import scipy.linalg  # noqa: F401  loads scipy's OpenBLAS

    library = _numpy_openblas()
    if library is None:
        pytest.skip("numpy bundles no OpenBLAS here")
    maps = Path("/proc/self/maps")
    if maps.exists():
        assert "libscipy_openblas-" in maps.read_text()
    blas = numerics._openblas()
    assert blas is not None
    assert _address(blas.set_num_threads) == _address(library.scipy_openblas_set_num_threads64_)
    assert _address(blas.get_num_threads) == _address(library.scipy_openblas_get_num_threads64_)


def test_family_psi_bytes_do_not_depend_on_the_callers_thread_count(caller_threads):
    """Its symmetrized step's SVD of 341 x 60 offsets gives other bits on
    two threads than on one, so unpinned the digests differ."""
    digest = load_script("artifact_digest")
    _, config, fmt = load_script("pinned").operation("family-psi", 4242, 0)
    digests = []
    for count in (1, 2):
        assert caller_threads(count) == count
        digests.append(digest._digest(config, fmt))
    assert digests[0] == digests[1]


def _config():
    return parse_config(demo_config())


# (function, the bench name it calls while it runs, its arguments)
PINNED = [
    (parse_config, "_expect_mapping", lambda: (demo_config(),)),
    (run_experiment, "_resolve_instances", lambda: (_config(),)),
    (compute_rates, "_resolve_instances", lambda: (_config(),)),
]


@pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
@pytest.mark.parametrize("function, inner, args", PINNED,
                         ids=[f.__name__ for f, _, _ in PINNED])
def test_a_run_is_pinned_and_gives_the_callers_count_back(caller_threads, monkeypatch,
                                                          function, inner, args, raises):
    if numerics._openblas() is None:
        pytest.skip("no OpenBLAS thread setter here: nothing is pinned")
    arguments = args()
    seen = []
    real = getattr(bench, inner)

    def spy(*a, **k):
        seen.append(caller_threads())
        if raises:
            raise RuntimeError("raised inside")
        return real(*a, **k)

    monkeypatch.setattr(bench, inner, spy)
    assert caller_threads(2) == 2
    if raises:
        with pytest.raises(RuntimeError, match="raised inside"):
            function(*arguments)
    else:
        function(*arguments)
    assert seen and set(seen) == {1}
    assert caller_threads() == 2
