import hashlib
import json
import math
import re

import pytest

from zclasskit import limits
from zclasskit.cli import main
from zclasskit.errors import BadCharacteristic
from zclasskit.ff import make_field
from zclasskit.grpcore import GL, FamilySpec, family_order
from zclasskit.paperlab import (
    CATALOG,
    FAIL,
    PASS,
    REPORT_ONLY,
    SUITES,
    _weyl_class_count,
    _witness,
    run_experiment,
    verify_suite,
)


def test_catalog_ids():
    assert set(CATALOG) == {
        "gl2-zclasses",
        "sl2-unipotent",
        "sl3-unipotent",
        "sln-unipotent-forms",
        "tori-gln",
        "borel-counterexample",
        "heisenberg",
        "curious",
        "dihedral",
        "normalizer-structure",
        "fiber-bound",
        "h1-triple",
    }
    for entry in CATALOG.values():
        assert entry.id in SUITES_IDS


SUITES_IDS = {exp_id for plan in SUITES.values() for exp_id, _ in plan}


def test_sl2_unipotent_worked_point():
    e = run_experiment("sl2-unipotent", {"q": 5})
    assert e.verdict == PASS
    assert e.predicted == (2, 1)
    assert e.computed == (2, 1)
    assert e.prediction_source == "pinned"
    assert e.witness == ""


def test_sl3_unipotent_worked_point():
    e = run_experiment("sl3-unipotent", {"q": 4})
    assert e.verdict == PASS
    assert e.computed == (3, 3)
    assert e.notes["route"] == "structural"
    e = run_experiment("sl3-unipotent", {"q": 2})
    assert e.verdict == PASS
    assert e.computed == (1, 1)
    assert e.notes["route"] == "table"


def test_gl2_zclasses_worked_point():
    e = run_experiment("gl2-zclasses", {"q": 3})
    assert e.verdict == PASS
    assert e.computed == 3
    assert e.notes["base_zclass_count"] == 4
    assert e.notes["stable_at"] == 2


@pytest.mark.parametrize(
    "exp_id,params,computed",
    [
        ("sln-unipotent-forms", {"n": 4, "q": 5}, 4),
        ("sln-unipotent-forms", {"n": 2, "q": 3}, 2),
        ("tori-gln", {"n": 2, "q": 4}, 2),
        ("heisenberg", {"q": 7}, 6),
        ("dihedral", {"m": 7}, 3),
        ("curious", {}, 0),
    ],
)
def test_pinned_points_pass(exp_id, params, computed):
    e = run_experiment(exp_id, params)
    assert e.verdict == PASS
    assert e.computed == computed


@pytest.mark.parametrize(
    "exp_id,params,computed",
    [
        ("sln-unipotent-forms", {"n": 6, "q": 13}, 6),
        ("sl3-unipotent", {"q": 49}, (3, 3)),
    ],
)
def test_sl_forms_are_decided_without_witnesses(exp_id, params, computed):
    # the structural routes refine by SL-conjugacy decisions: (6, 13) raised
    # BoundExceeded after 4.4 s, and q = 49 took 9.4 s, while each walked
    # transporter spaces for witnesses nobody kept
    import time

    start = time.perf_counter()
    e = run_experiment(exp_id, params)
    elapsed = time.perf_counter() - start
    assert e.verdict == PASS
    assert e.computed == computed
    assert elapsed < 0.5


def test_tori_gl3_oracle():
    e = run_experiment("tori-gln", {"n": 3, "q": 5})
    assert e.verdict == PASS
    assert e.computed == 3
    assert e.prediction_source == "oracle"


def test_weyl_oracle_takes_a_parent_above_the_group_bound():
    # GL3(F7) has order 33 784 128, above the default ZK_MAX_GROUP: the
    # oracle reads only membership of the torus and monomial matrices
    assert family_order(FamilySpec(GL, 3), make_field(7, 1)) == 33_784_128
    assert 33_784_128 > limits.max_group()
    assert _weyl_class_count(3, 7) == 3


def test_borel_counterexample_shapes():
    e = run_experiment("borel-counterexample", {"which": "gl2"})
    assert e.verdict == PASS
    assert e.computed == {"theta_fails": True, "growth_degree": 2}
    assert e.notes["base_equivalent"] and not e.notes["ext_equivalent"]
    e = run_experiment("borel-counterexample", {"which": "sl2"})
    assert e.verdict == PASS
    assert e.computed == {"theta_fails": True}


def test_normalizer_structure_closed_form():
    e = run_experiment("normalizer-structure", {"q": 4})
    assert e.verdict == PASS
    assert e.computed == (576, 9)


def test_fiber_bound_chain():
    e = run_experiment("fiber-bound", {})
    assert e.verdict == PASS
    assert e.computed is True
    n = e.notes
    assert n["fiber"] <= n["cocycle_classes"] <= n["twisted_classes"]
    assert n["normalizer_order"] == 72
    assert n["fused_classes"] == 2


@pytest.mark.parametrize("params", [{"max_n": 0}, {"max_n": -2}, {"qs": ()}])
def test_h1_grid_without_points_is_refused(params):
    with pytest.raises(ValueError, match="has no point"):
        run_experiment("h1-triple", params)


def test_h1_grid():
    e = run_experiment("h1-triple", {"max_n": 6, "qs": (2, 3, 5)})
    assert e.verdict == PASS
    assert e.notes["points"] == 18
    assert e.computed["6@5"] == 2
    assert e.predicted["6@5"] == math.gcd(6, 4)


def test_dihedral_even_is_report_only():
    e = run_experiment("dihedral", {"m": 4})
    assert e.verdict == REPORT_ONLY
    assert e.predicted is None
    assert e.prediction_source == ""
    assert e.computed == 4


def test_guards():
    with pytest.raises(ValueError, match="odd q"):
        run_experiment("sl2-unipotent", {"q": 4})
    with pytest.raises(ValueError, match="q = 2"):
        run_experiment("curious", {"q": 3})
    with pytest.raises(BadCharacteristic):
        run_experiment("curious", {"n": 2})
    with pytest.warns(UserWarning):
        e = run_experiment("curious", {"n": 2, "allow_bad_characteristic": True})
    assert e.verdict == PASS and e.computed == 0


def test_unknown_experiment_and_param():
    with pytest.raises(ValueError, match="unknown experiment"):
        run_experiment("gl9-zclasses")
    with pytest.raises(ValueError, match="takes no parameter"):
        run_experiment("dihedral", {"q": 5})


@pytest.mark.parametrize(
    "exp_id,params",
    [
        ("h1-triple", {"qs": (2, "3")}),
        ("h1-triple", {"max_n": "x"}),
        ("sln-unipotent-forms", {"n": "abc"}),
        ("dihedral", {"m": True}),  # ran D_1 and reported fail
        ("curious", {"allow_bad_characteristic": 1}),
        ("gl2-zclasses", {"max_r": "x"}),
        ("borel-counterexample", {"which": 3}),
    ],
)
def test_mistyped_param_names_itself(exp_id, params):
    (key, value), = params.items()
    with pytest.raises(ValueError, match=re.escape(f"parameter {key!r}")) as exc:
        run_experiment(exp_id, params)
    assert str(exc.value).endswith(f"cannot take {value!r}")


def test_typed_params_accepted():
    # a single int was a TypeError inside the runner; it is a one-element tuple
    assert run_experiment("h1-triple", {"max_n": 2, "qs": 4}).params["qs"] == (4,)
    assert run_experiment("gl2-zclasses", {"q": 2, "max_r": 1}).params["max_r"] == 1
    assert run_experiment("gl2-zclasses", {"q": 2, "max_r": None}).verdict == PASS


def test_determinism_modulo_runtime():
    a = run_experiment("heisenberg", {"q": 5}).summary()
    b = run_experiment("heisenberg", {"q": 5}).summary()
    a.pop("runtime"), b.pop("runtime")
    assert a == b


def test_summary_shape():
    s = run_experiment("dihedral", {}).summary()
    assert set(s) == {
        "id",
        "params",
        "predicted",
        "prediction_source",
        "computed",
        "verdict",
        "runtime",
        "witness",
        "notes",
    }
    assert isinstance(s["runtime"], float)


def test_witness_rendering():
    assert "predicted 3, computed 4" in _witness(3, 4, {})
    w = _witness({"a": 1, "b": 2}, {"a": 1, "b": 5}, {"rep": "[1,1;0,1]"})
    assert "b: predicted 2, computed 5" in w
    assert "a:" not in w
    assert "[1,1;0,1]" in w


def test_smoke_suite(capsys):
    import time

    start = time.perf_counter()
    rep = verify_suite("smoke")
    elapsed = time.perf_counter() - start
    assert rep.ok
    assert rep.failed == 0
    assert rep.passed == len(rep.experiments) == 4
    assert elapsed < 5.0
    s = rep.summary()
    assert s["suite"] == "smoke" and s["ok"] is True
    assert len(s["experiments"]) == 4


def test_paper_suite(capsys):
    # one run through the command line: the summary fields and the pinned
    # sha256 of the byte-identical JSON stdout
    code = main(["verify", "paper", "--format", "json", "--no-footer"])
    out = capsys.readouterr().out
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"]
    assert rep["failed"] == 0
    assert {e["id"] for e in rep["experiments"]} == set(CATALOG)
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "81aa0af22eddc09414add7be9575618aa5f0a550e4689faf7b86e6301faec56e"
    )


@pytest.mark.filterwarnings("ignore:characteristic")
def test_full_suite_digest(capsys):
    # the pinned sha256 of the byte-identical JSON stdout of the whole catalog
    code = main(["verify", "full", "--format", "json", "--no-footer"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ae931666c8f91979dd2cb7f468515f7805fb5603be158721d122137209f9dc04"
    )


def test_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite"):
        verify_suite("nightly")


def test_sl3_unipotent_builds_one_canonical_form_per_seed(monkeypatch):
    # 78 seeds at q = 79: each rational form and each set of invariant
    # factors is computed once and kept on its matrix (462 rational forms and
    # 384 invariant-factor runs before)
    from zclasskit import matfq

    counts = {"forms": 0, "cycles": 0}
    result, largest_cycle = matfq.RcfResult, matfq._largest_cycle

    def counted_form(*args):
        counts["forms"] += 1
        return result(*args)

    def counted_cycle(A):
        counts["cycles"] += 1
        return largest_cycle(A)

    monkeypatch.setattr(matfq, "RcfResult", counted_form)
    monkeypatch.setattr(matfq, "_largest_cycle", counted_cycle)
    e = run_experiment("sl3-unipotent", {"q": 79})
    assert e.verdict == PASS
    assert e.computed == (3, 3)
    assert counts["forms"] <= 79
    assert counts["cycles"] <= 79


def test_sl3_unipotent_keyed_route_applies_the_characteristic_guard():
    # q = 9 and q = 27 take the keyed seed partition, not a table: it checks
    # p | n as instantiate does for q = 3
    for q in (9, 27):
        with pytest.raises(BadCharacteristic):
            run_experiment("sl3-unipotent", {"q": q})
    with pytest.warns(UserWarning, match="characteristic 3 divides n = 3"):
        e = run_experiment("sl3-unipotent", {"q": 9, "allow_bad_characteristic": True})
    assert e.verdict == PASS
    assert e.computed == (1, 1)
