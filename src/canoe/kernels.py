"""Backend flags read by the benchmark harness (perfbench).

numpy is the only backend; the oscillator recurrence lives in cnoa.py. The
harness records BACKEND and reads NUMBA_ENABLED to report its
backend-equality check as skipped.
"""

__all__ = ["BACKEND", "NUMBA_ENABLED"]

BACKEND = "numpy"
NUMBA_ENABLED = False
