"""Kernel selection: compiled elimination core when available, numpy fallback
otherwise.  Set LINCA_PURE_PYTHON=1 to force the fallback, for example to
run the tests on the numpy kernel where the compiled one is built."""

import os

if os.environ.get("LINCA_PURE_PYTHON", "") not in ("", "0"):
    from . import _modp_py as _impl
else:
    try:
        from . import _modp_cy as _impl  # type: ignore[attr-defined]
    except ImportError:
        from . import _modp_py as _impl

rref_inplace = _impl.rref_inplace
BACKEND = _impl.__name__.rsplit(".", 1)[-1].removeprefix("_modp_")


def backend() -> str:
    """Name of the active elimination backend: 'cy' or 'py'."""
    return BACKEND
