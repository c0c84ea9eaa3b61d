"""An element outside its group is a usage error wherever it enters: a
ValueError naming it, which the command line turns into exit 2."""
from __future__ import annotations

import re

import pytest

from zclasskit.cli import main
from zclasskit.ff import make_field
from zclasskit.grpcore import BOREL_GL, GL, SL, FamilySpec
from zclasskit.matfq import Mat, mat_parse
from zclasskit.zclass import growth_degree

F5 = make_field(5, 1)


@pytest.mark.parametrize(
    "family,g,name",
    [
        (FamilySpec(SL, 2), Mat.diagonal(F5, [2, 2]), "[2,0;0,2]"),  # det 4
        (FamilySpec(GL, 2), Mat.zero(F5, 2), "[0,0;0,0]"),
        (FamilySpec(BOREL_GL, 2), mat_parse(F5, "[1,0;1,1]"), "[1,0;1,1]"),  # table route
    ],
    ids=["sl-det-4", "gl-singular", "borel-lower"],
)
def test_growth_degree_refuses_a_non_member(family, g, name):
    with pytest.raises(ValueError, match=rf"element {re.escape(name)} is not a member of"):
        growth_degree(family, F5, g, [1, 2])


# every subcommand that takes an element, each given a matrix outside its
# group; exit 1 is kept for failed experiments and consistency failures
NON_MEMBERS = {
    "centralizer": ["centralizer", "sl:2@3^1", "[2,0;0,1]"],
    "conjtest-gl": ["conjtest", "gl:2@3^1", "[0,0;0,0]", "identity"],
    "conjtest-table": ["conjtest", "borel-gl:2@3^1", "[1,0;1,1]", "identity"],
    "probe": ["probe", "borel-gl:2", "3", "2", "[1,0;1,1]", "identity"],
    "experiment-fiber-bound": [
        "experiment", "fiber-bound", "--param", "family=sl:2@3", "--param", "seed=[2,0;0,1]",
    ],
}


@pytest.mark.parametrize("name", sorted(NON_MEMBERS))
def test_cli_non_member_exits_2(capsys, name):
    code = main([*NON_MEMBERS[name], "--no-footer"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == "" and err.startswith("error:") and "Traceback" not in err
