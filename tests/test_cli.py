import hashlib
import json
from pathlib import Path

import pytest

from zclasskit.cli import main
from zclasskit.ff import make_field
from zclasskit.grpcore import GL, FamilySpec, conjugacy_classes, instantiate
from zclasskit import paperlab


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_zclasses_md_table(capsys):
    code, out, err = run(capsys, "zclasses", "gl:2@3^1", "--format", "md")
    assert code == 0
    data_rows = [l for l in out.splitlines() if l.startswith("|")][2:]
    assert len(data_rows) == 4
    assert "# runtime:" in err


def test_zclasses_bound_exit_3(capsys):
    code, out, err = run(capsys, "zclasses", "gl:9@2^1")
    assert code == 3
    assert out == ""
    assert "above bound" in err


def test_zclasses_json_schema(capsys):
    code, out, _ = run(
        capsys, "zclasses", "dihedral:5", "--format", "json", "--no-footer"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "zclass-kit/1"
    assert doc["zclass_count"] == 3


def test_zclasses_filter(capsys):
    code, out, _ = run(
        capsys,
        "zclasses",
        "sl:2@5^1",
        "--filter",
        "regular-unipotent",
        "--format",
        "json",
        "--no-footer",
    )
    assert code == 0
    assert json.loads(out)["zclass_count"] == 1
    code, _, err = run(capsys, "zclasses", "sl:2@5^1", "--filter", "nilpotent")
    assert code == 2
    assert "unknown filter" in err


def test_unknown_family_exit_2(capsys):
    code, _, err = run(capsys, "zclasses", "so:3@5^1")
    assert code == 2
    assert "unknown family kind" in err


def test_centralizer(capsys):
    code, out, _ = run(
        capsys,
        "centralizer",
        "sl:2@3^1",
        "[1,1;0,1]",
        "--format",
        "json",
        "--no-footer",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 6
    assert doc["abelian"] is True
    assert "[2,0;0,2]" in doc["members"]
    code, _, err = run(capsys, "centralizer", "sl:2@3^1", "[1,1;0,2]")
    assert code == 2
    assert "not a member" in err


def test_conjtest_gl_vs_sl(capsys):
    code, out, _ = run(
        capsys,
        "conjtest",
        "gl:2@5^1",
        "u_beta:1",
        "u_beta:2",
        "--format",
        "json",
        "--no-footer",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["conjugate"] is True
    assert doc["route"] == "gl-witness"
    assert doc["witness"] is not None
    code, out, _ = run(
        capsys,
        "conjtest",
        "sl:2@5^1",
        "u_beta:1",
        "u_beta:2",
        "--format",
        "json",
        "--no-footer",
    )
    doc = json.loads(out)
    assert doc["conjugate"] is False
    assert doc["route"] == "sl-witness"


def test_conjtest_table_route(capsys):
    code, out, _ = run(
        capsys,
        "conjtest",
        "u3@3^1",
        "h:1",
        "h:2",
        "--format",
        "json",
        "--no-footer",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["route"] == "table-scan"
    assert doc["conjugate"] is False


def test_conjtest_usage_errors(capsys):
    code, _, err = run(capsys, "conjtest", "gl:2@3^1", "[1,1;1,1]", "identity")
    assert code == 2
    assert "singular" in err
    code, _, err = run(capsys, "conjtest", "dihedral:5", "identity", "identity", "--sl")
    assert code == 2
    assert "--sl applies" in err


def test_probe(capsys):
    code, out, _ = run(
        capsys,
        "probe",
        "borel-gl:2",
        "2",
        "2",
        "identity",
        "u_beta:1",
        "--format",
        "json",
        "--no-footer",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["any_changed"] is True
    assert doc["pairs"][0]["equivalent_base"] is True
    assert doc["pairs"][0]["equivalent_ext"] is False
    code, _, err = run(capsys, "probe", "borel-gl:2", "2", "2", "identity")
    assert code == 2
    assert "even number" in err


def test_h1_mu_mode(capsys):
    code, out, _ = run(
        capsys, "h1", "--mu", "12", "--q", "7", "--format", "csv", "--no-footer"
    )
    assert code == 0
    head, row = out.splitlines()
    assert head == "coefficients,frobenius_power,realizing_degree,class_count,reps"
    assert row.startswith("mu_12,7,2,6,")
    code, _, err = run(capsys, "h1", "--mu", "12")
    assert code == 2
    assert "--q" in err
    code, _, err = run(capsys, "h1")
    assert code == 2
    for degree in ("0", "-1"):
        code, out, err = run(capsys, "h1", "--mu", "4", "--q", "5", "--degree", degree)
        assert (code, out) == (2, "")
        assert "realizing degree must be positive" in err


def test_h1_group_mode_matches_fixed_group_classes(capsys):
    code, out, _ = run(
        capsys,
        "h1",
        "--group",
        "gl:2@2^1",
        "--frobenius",
        "2",
        "--format",
        "json",
        "--no-footer",
    )
    assert code == 0
    doc = json.loads(out)
    fixed = instantiate(FamilySpec(GL, 2), make_field(2, 1))
    assert doc["class_count"] == len(conjugacy_classes(fixed))


def test_experiment_command(capsys):
    code, out, _ = run(
        capsys,
        "experiment",
        "sl3-unipotent",
        "--param",
        "q=4",
        "--format",
        "md",
        "--no-footer",
    )
    assert code == 0
    assert out.splitlines()[0] == "| id | params | predicted | computed | verdict |"
    assert "pass" in out
    code, out, _ = run(
        capsys,
        "experiment",
        "h1-triple",
        "--param",
        "max_n=3",
        "--param",
        "qs=2,3",
        "--format",
        "json",
        "--no-footer",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "pass"
    assert doc["params"]["qs"] == [2, 3]
    assert "runtime" not in doc


def test_experiment_failure_exit_1(capsys, monkeypatch):
    entry = paperlab.CatalogEntry(
        "doctored",
        "always wrong",
        {},
        lambda p: (5, "pinned"),
        lambda: (4, {"rep": "[1,0;0,1]"}),
    )
    monkeypatch.setitem(paperlab.CATALOG, "doctored", entry)
    code, out, _ = run(
        capsys, "experiment", "doctored", "--format", "json", "--no-footer"
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "fail"
    assert "[1,0;0,1]" in doc["witness"]


def test_experiment_bad_param_exit_2(capsys):
    code, _, err = run(capsys, "experiment", "dihedral", "--param", "m")
    assert code == 2
    assert "key=value" in err
    code, _, err = run(capsys, "experiment", "no-such-id")
    assert code == 2
    assert "unknown experiment" in err


def test_verify_smoke_exit_0(capsys):
    code, out, _ = run(capsys, "verify", "smoke", "--no-footer")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1].startswith("suite:smoke")
    assert lines[-1].rstrip().endswith("ok")


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "nightly")
    assert code == 2
    assert "unknown suite" in err


def test_byte_identical_output(capsys):
    _, out1, _ = run(capsys, "verify", "smoke", "--format", "json", "--no-footer")
    _, out2, _ = run(capsys, "verify", "smoke", "--format", "json", "--no-footer")
    assert out1 == out2
    doc = json.loads(out1)
    assert "runtime" not in json.dumps(doc)


def test_footer_suppression(capsys):
    _, _, err = run(capsys, "zclasses", "dihedral:5")
    assert "# runtime:" in err
    _, _, err = run(capsys, "zclasses", "dihedral:5", "--no-footer")
    assert "# runtime:" not in err


def test_env_bound(capsys, monkeypatch):
    monkeypatch.setenv("ZK_MAX_GROUP", "10")
    code, _, err = run(capsys, "zclasses", "gl:2@3^1")
    assert code == 3
    assert "above bound 10" in err


def test_bad_characteristic_flag(capsys):
    code, _, err = run(capsys, "zclasses", "sl:2@2^1")
    assert code == 2
    assert "characteristic" in err
    with pytest.warns(UserWarning):
        code, out, _ = run(
            capsys,
            "zclasses",
            "sl:2@2^1",
            "--allow-bad-characteristic",
            "--format",
            "json",
            "--no-footer",
        )
    assert code == 0
    assert json.loads(out)["zclass_count"] == 3


def test_usage_exit_codes(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()
    assert main(["zclasses"]) == 2
    capsys.readouterr()


GOLDEN = Path(__file__).parent / "golden"

# the README command-line examples; tests/golden/<name>.<format> holds the
# stdout each one printed when the corpus was captured
README_EXAMPLES = {
    "zclasses_gl2_3": ["zclasses", "gl:2@3^1"],
    "conjtest_sl2_5": ["conjtest", "sl:2@5^1", "u_beta:1", "u_beta:2"],
    "h1_mu12_q7": ["h1", "--mu", "12", "--q", "7"],
}


@pytest.mark.parametrize("fmt", ["json", "csv", "md", "table"])
@pytest.mark.parametrize("name", sorted(README_EXAMPLES))
def test_readme_examples_golden(capsys, name, fmt):
    code, out, _ = run(capsys, *README_EXAMPLES[name], "--format", fmt, "--no-footer")
    assert code == 0
    with open(GOLDEN / f"{name}.{fmt}", newline="") as fh:
        assert out == fh.read()


def test_verify_smoke_digest(capsys):
    code, out, _ = run(capsys, "verify", "smoke", "--format", "json", "--no-footer")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "dda398f4b104d9aaafabe10e01de76c2e04ae838782181afbcd7583e10614827"
    )
