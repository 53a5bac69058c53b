"""Oscillator recurrence kernel against a scalar reference loop."""

import numpy as np

from canoe import kernels


class TestOscillatorKernels:
    def test_numpy_forward_matches_scalar_recurrence(self, rng):
        s = rng.random((3, 4)) * 2
        e, i, ge, gi = kernels.oscillator_forward(s, 1.0, -1.0, 1.0, 1.0,
                                                  0.1, 0.2, 4)
        # reference scalar loop
        e_ref = np.zeros_like(s)
        i_ref = np.zeros_like(s)
        for _ in range(4):
            pe = 1.0 * e_ref - 1.0 * i_ref + s - 0.1
            pi = 1.0 * e_ref + 1.0 * i_ref - 0.2
            e_ref, i_ref = np.maximum(pe, 0), np.maximum(pi, 0)
        np.testing.assert_array_equal(e, e_ref)
        np.testing.assert_array_equal(i, i_ref)
        assert ge.shape == (4, 3, 4) and gi.shape == (4, 3, 4)


def test_backend_flag_consistency():
    assert kernels.BACKEND == "numpy"
    assert kernels.NUMBA_ENABLED is False
