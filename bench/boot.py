"""Process set-up shared by the benchmark and its set-up probe: pin
native threads before NumPy loads, and import fedlsm from this checkout."""

from __future__ import annotations

import os
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SRC = Path(__file__).resolve().parent.parent / "src"


def pin_threads() -> dict:
    """One BLAS/OpenMP thread per process; returns the values as set."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in THREAD_VARS}


def use_source_tree() -> None:
    """Import fedlsm from this checkout's src/, never from elsewhere.

    Raises FileNotFoundError when the checkout holds no package source.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("NumPy was imported before threads were pinned")
    if not (SRC / "fedlsm" / "__init__.py").is_file():
        raise FileNotFoundError(f"no fedlsm package under {SRC}")
    sys.path.insert(0, str(SRC))
    import fedlsm

    if Path(fedlsm.__file__).resolve().parent != SRC / "fedlsm":
        raise FileNotFoundError(f"fedlsm imported from {fedlsm.__file__}, "
                                f"not from {SRC}")
