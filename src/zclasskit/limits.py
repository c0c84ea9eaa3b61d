"""The one registry of resource bounds; no function takes a bound of its own.

ZK_MAX_GROUP (default 2e6) bounds the group work that keeps state per
element or visits every id (GroupTable._check_bound: the class engine's
orbit walks, generator certification, elements and ids) and the explicit
lists of closure_generate() and the dihedral instantiate(); a ranked
table answers its order, membership and center at any order.
ZK_MAX_FIELD (default 2^20) bounds the fields make_field() builds.
Each is read from the invocation's flag (the command line puts
--max-group and --max-field in INVOCATION for the whole command), else
the environment variable, else the default.

Fields the package derives for itself come from ff._field, which skips
ZK_MAX_FIELD: an embedding's subfields and a modulus search's prime
field are no larger than a field that passed it, and h1_mu_n holds its
realizing fields to H1_FIELD_CAP. The internal caps below are read as
limits.NAME at call time; a BoundExceeded names the cap it hit.

Within FULL_TABLE_LIMIT conjugacy_classes also checks every class,
|cl(a)|·|C(a)| = |G|: a full z_partition builds those centralizers anyway.
SPAN_CAP is the most elements any span walk tries (matfq.span_walk), so
a first-hit search succeeds in a span of any size when its hit comes
early; grpcore's commutant units give way to the Schreier closure above it.
"""
from __future__ import annotations

import os
from contextvars import ContextVar

DEFAULT_MAX_GROUP = 2_000_000
DEFAULT_MAX_FIELD = 2**20

FULL_TABLE_LIMIT = 100_000  # largest group z_partition partitions whole
H1_FIELD_CAP = 2**62  # largest field h1_mu_n builds to realize roots of unity
SPAN_CAP = 300_000  # most elements any span walk tries

# environment variable -> the value its flag gave this invocation, or None
INVOCATION: ContextVar[dict] = ContextVar("INVOCATION", default={})


def _bound(env: str, flag: str, default: int) -> int:
    """A resource bound: the invocation's flag, else the environment
    variable, else the default. Each source must be a positive integer,
    else ValueError naming the flag or the variable."""
    raw, source = INVOCATION.get().get(env), flag
    if raw is None:
        raw, source = os.environ.get(env), env
    if raw is None or raw == "":
        return default
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{source} must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise ValueError(f"{source} must be positive, got {value}")
    return value


def max_group() -> int:
    return _bound("ZK_MAX_GROUP", "--max-group", DEFAULT_MAX_GROUP)


def max_field() -> int:
    return _bound("ZK_MAX_FIELD", "--max-field", DEFAULT_MAX_FIELD)
