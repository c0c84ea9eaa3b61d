"""Each internal cap of limits has one meaning: FULL_TABLE_LIMIT bounds the
groups whose classes are checked by orbit-stabilizer, SPAN_CAP the
elements any span walk tries."""
from __future__ import annotations

import pytest

from zclasskit import grpcore, limits
from zclasskit.errors import BoundExceeded, ConsistencyError
from zclasskit.ff import make_field
from zclasskit.grpcore import GL, FamilySpec, conjugacy_classes, instantiate
from zclasskit.matfq import Mat, centralizer_algebra

F3 = make_field(3, 1)
F5 = make_field(5, 1)


def test_classes_within_full_table_limit_are_checked_by_orbit_stabilizer(monkeypatch):
    # |GL3(F3)| = 11 232 is within FULL_TABLE_LIMIT, so every class gets
    # |cl(a)|·|C(a)| = |G| checked: a centralizer short by one member fails it
    table = instantiate(FamilySpec(GL, 3), F3)
    assert table.order == 11232 <= limits.FULL_TABLE_LIMIT
    stabilizer = grpcore._stabilizer
    monkeypatch.setattr(grpcore, "_stabilizer", lambda t, r: stabilizer(t, r)[1:])
    with pytest.raises(ConsistencyError, match="orbit-stabilizer"):
        conjugacy_classes(table)


def test_transporter_elements_stop_at_span_cap(monkeypatch):
    # diag(1, 2, 3) is regular: its commutant has 5^3 = 125 elements, and
    # listing them is bounded as every walk is, by the elements tried
    alg = centralizer_algebra(Mat.diagonal(F5, [1, 2, 3]))
    assert len(alg.elements()) == 125
    monkeypatch.setattr(limits, "SPAN_CAP", 124)
    with pytest.raises(BoundExceeded) as exc:
        alg.elements()
    assert str(exc.value) == (
        "span of 3 vectors over F_5 has 125 elements; the walk stopped after SPAN_CAP 124"
    )
