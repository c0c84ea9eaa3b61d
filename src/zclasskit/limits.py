"""Resource bounds, overridable via environment or per call.

ZK_MAX_GROUP  - largest group order instantiate() will accept (default 2e6).
ZK_MAX_FIELD  - largest field order make_field() will accept (default 2^20).
"""
from __future__ import annotations

import os

DEFAULT_MAX_GROUP = 2_000_000
DEFAULT_MAX_FIELD = 2**20

# Internal caps, not user-facing. Modules read them as limits.NAME at call
# time; a BoundExceeded names the cap it hit and the value that hit it.
SEARCH_CAP = 4_000_000  # largest field scanned for a subfield-embedding root
FULL_TABLE_LIMIT = 100_000  # largest group the table route partitions whole
H1_FIELD_CAP = 2**62  # largest field built to realize roots of unity
SPAN_CAP = 300_000  # largest linear span listed in witness searches
UNIT_SCAN_CAP = 2**20  # largest field whose units power_class_count lists


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def max_group(override: int | None = None) -> int:
    if override is not None:
        return override
    return _env_int("ZK_MAX_GROUP", DEFAULT_MAX_GROUP)


def max_field(override: int | None = None) -> int:
    if override is not None:
        return override
    return _env_int("ZK_MAX_FIELD", DEFAULT_MAX_FIELD)
