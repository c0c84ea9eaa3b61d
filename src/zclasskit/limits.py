"""Resource bounds, overridable via environment, per invocation or per call.

ZK_MAX_GROUP  - largest group order instantiate(), closure_generate() and a
                seed partition's table will accept (default 2e6).
ZK_MAX_FIELD  - largest field order make_field() will accept (default 2^20).

The command line's --max-group and --max-field set INVOCATION for the
whole command, so they act wherever the environment variables would.
"""
from __future__ import annotations

import os
from contextvars import ContextVar

DEFAULT_MAX_GROUP = 2_000_000
DEFAULT_MAX_FIELD = 2**20

# Internal caps, not user-facing. Modules read them as limits.NAME at call
# time; a BoundExceeded names the cap it hit and the value that hit it.
SEARCH_CAP = 4_000_000  # largest field scanned for polynomial roots
FULL_TABLE_LIMIT = 100_000  # largest group z_partition partitions whole
COMMUTANT_CAP = 65536  # largest commutant algebra whose units a centralizer lists
H1_FIELD_CAP = 2**62  # largest field built to realize roots of unity
SPAN_CAP = 300_000  # largest linear span listed in witness searches
UNIT_SCAN_CAP = 2**20  # largest field whose units power_class_count lists

# environment variable -> the value its flag gave this invocation, or None
INVOCATION: ContextVar[dict] = ContextVar("INVOCATION", default={})


def _bound(env: str, flag: str, default: int, override: int | None) -> int:
    """A resource bound: the override when given, else the invocation's
    flag, else the environment variable, else the default. Each source
    must be a positive integer, else ValueError naming the flag or the
    variable."""
    if override is None:
        override = INVOCATION.get().get(env)
    raw, source = (os.environ.get(env), env) if override is None else (override, flag)
    if raw is None or raw == "":
        return default
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{source} must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise ValueError(f"{source} must be positive, got {value}")
    return value


def max_group(override: int | None = None) -> int:
    return _bound("ZK_MAX_GROUP", "--max-group", DEFAULT_MAX_GROUP, override)


def max_field(override: int | None = None) -> int:
    return _bound("ZK_MAX_FIELD", "--max-field", DEFAULT_MAX_FIELD, override)
