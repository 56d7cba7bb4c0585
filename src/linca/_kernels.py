"""Kernel selection: the compiled elimination core when it is built, the
numpy kernel otherwise.  Both give identical results."""

try:
    from . import _modp_cy as _impl  # type: ignore[attr-defined]
except ImportError:
    from . import _modp_py as _impl

rref_inplace = _impl.rref_inplace
BACKEND = _impl.__name__.rsplit(".", 1)[-1].removeprefix("_modp_")


def backend() -> str:
    """Name of the active elimination backend: 'cy' or 'py'."""
    return BACKEND
