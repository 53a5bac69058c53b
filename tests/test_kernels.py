"""Backend flags the benchmark harness reads."""

from canoe import kernels


def test_backend_flag_consistency():
    assert kernels.BACKEND == "numpy"
    assert kernels.NUMBA_ENABLED is False
