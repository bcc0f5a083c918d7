"""Wire formats and the command-line interface."""

import json
import re
from fractions import Fraction

import pytest

from approxcommute import (
    NotLatinSquare,
    SpecParseError,
    Subset,
    certify,
    check,
    witness_thm1,
    witness_thm2,
)
from approxcommute import approx
from approxcommute.cli import main
from approxcommute.specio import (
    SCHEMA_VERSION,
    canonical_json,
    certificate_to_dict,
    check_to_dict,
    dump_json,
    extraction_to_dict,
    load_group,
    load_subset,
    parse_rational,
    rational_str,
    witness_to_dict,
)

from oracles import oracle_subgroup_closure

S3_PERM_SPEC = {"kind": "perm", "generators": [[1, 0, 2], [1, 2, 0]], "name": "S3"}


def test_rational_wire_format():
    assert rational_str(Fraction(1, 2)) == "1/2"
    assert rational_str(1) == "1/1"
    assert rational_str(Fraction(10, 4)) == "5/2"
    assert rational_str(0) == "0/1"
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational(" 7 ") == 7
    assert parse_rational(rational_str(Fraction(22, 7))) == Fraction(22, 7)
    for bad in ("x", "1/0", "1/2/3", ""):
        with pytest.raises(SpecParseError):
            parse_rational(bad)


def test_load_group_table():
    lg = load_group({"kind": "table", "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]})
    assert lg.group.order == 3
    assert lg.group.name == "table[3]"
    assert lg.roles == {}
    named = load_group(
        {"kind": "table", "table": [[0, 1], [1, 0]], "name": "flip", "labels": ["e", "x"]}
    )
    assert named.group.name == "flip"
    assert named.group.element_label(1) == "x"


def test_load_group_table_errors():
    with pytest.raises(SpecParseError):
        load_group({"kind": "table"})
    with pytest.raises(SpecParseError):
        load_group({"kind": "table", "table": [0, 1]})
    with pytest.raises(SpecParseError):
        load_group({"kind": "nope"})
    with pytest.raises(SpecParseError):
        load_group([1, 2, 3])
    # 2**32 + 1 would wrap to 1 in the int32 table and build C2.
    with pytest.raises(NotLatinSquare):
        load_group({"kind": "table", "table": [[0, 2**32 + 1], [2**32 + 1, 0]]})


def test_load_group_perm():
    lg = load_group(S3_PERM_SPEC)
    assert lg.group.order == 6
    with pytest.raises(SpecParseError):
        load_group({"kind": "perm"})
    with pytest.raises(SpecParseError):
        load_group({"kind": "perm", "generators": [[1, 0, 2]], "degree": 4})


def test_load_group_family():
    lg = load_group({"kind": "family", "n": 3, "k": 1, "u": 1})
    assert lg.group.order == 24
    assert set(lg.roles) == {"A", "A0", "H", "Z"}
    assert lg.instance is not None
    alt = load_group({"kind": "family", "n": 3, "k": 1, "u_order": 1})
    assert alt.group.order == 24
    with pytest.raises(SpecParseError):
        load_group({"kind": "family", "n": 3})
    with pytest.raises(SpecParseError):
        load_group({"kind": "family", "name": "other", "n": 3, "k": 1, "u": 1})


def test_load_group_from_file(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(S3_PERM_SPEC))
    lg = load_group(str(path))
    assert lg.group.order == 6
    with pytest.raises(SpecParseError):
        load_group(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(SpecParseError):
        load_group(str(bad))


def test_load_subset_forms(tmp_path):
    lg = load_group(S3_PERM_SPEC)
    group = lg.group
    assert load_subset({"elements": [0, 2]}, lg).id_list() == [0, 2]
    assert load_subset({"all": True}, lg) == Subset.full(group)
    gen = load_subset({"subgroup_generated_by": [1]}, lg)
    assert set(gen.id_list()) == oracle_subgroup_closure([1], group.mul)
    assert load_subset({"subgroup_generated_by": []}, lg).id_list() == [0]
    fam = load_group({"kind": "family", "n": 3, "k": 1, "u": 1})
    assert load_subset({"role": "A"}, fam) == fam.roles["A"]
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"elements": [0, 1]}))
    assert load_subset(str(path), lg).id_list() == [0, 1]


def test_load_subset_errors():
    lg = load_group(S3_PERM_SPEC)
    with pytest.raises(SpecParseError):
        load_subset({"role": "A"}, lg)
    with pytest.raises(SpecParseError):
        load_subset({}, lg)
    with pytest.raises(SpecParseError):
        load_subset({"elements": 3}, lg)


def test_serializers_schema_and_rationals(s3):
    full = Subset.full(s3)
    cert = certify(full)
    cd = certificate_to_dict(cert)
    assert cd["k"] == 1 and cd["doubling"] == "1/1" and cd["mode"] == "greedy"
    report = witness_thm1(full)
    wd = witness_to_dict(report)
    assert wd["schema"] == SCHEMA_VERSION
    assert wd["theorem"] == "1.1"
    assert wd["epsilon"] == "1/2"
    assert "t" in wd and "c" not in wd
    ed = extraction_to_dict(report.extractions[0])
    assert ed["x"] == sorted(ed["x"])
    wd2 = witness_to_dict(witness_thm2(full))
    assert wd2["theorem"] == "1.2" and "c" in wd2 and "t" not in wd2
    n = Subset.from_ids(s3, [g for g in range(6) if g == 0 or s3.mul[g, g] != 0])
    res = check_to_dict(check("P2.1", a=full, nsub=n))
    assert res["lhs"] == "1/2" and res["rhs"] == "1/1" and res["holds"] is True
    assert res["slack"] == "1/2"


def test_canonical_json_is_stable():
    a = canonical_json({"b": 1, "a": [2, 3]})
    b = canonical_json({"a": [2, 3], "b": 1})
    assert a == b == '{"a":[2,3],"b":1}'
    pretty = dump_json({"b": 1, "a": 2})
    assert pretty.endswith("\n") and pretty.index('"a"') < pretty.index('"b"')


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_pr(capsys):
    code, out, _ = run_cli(capsys, "pr", "S3", "all", "all")
    assert code == 0
    doc = json.loads(out)
    assert doc["pr"] == "1/2" and doc["schema"] == SCHEMA_VERSION
    code, out, _ = run_cli(capsys, "pr", "D4", "all", "all")
    assert json.loads(out)["pr"] == "5/8"


def test_cli_pr_inline_and_ids(capsys):
    spec = json.dumps({"kind": "table", "table": [[0, 1], [1, 0]]})
    code, out, _ = run_cli(capsys, "pr", spec, "all", "0,1")
    assert code == 0 and json.loads(out)["pr"] == "1/1"


def test_cli_certify(capsys):
    code, out, _ = run_cli(
        capsys, "certify", "family:3,1,1", "role:A", "--exact", "--growth", "3"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "exact" and doc["k"] <= 2
    assert len(doc["growth"]) == 2


def test_cli_certify_rejects_asymmetric(capsys):
    # Element 2 is a 3-cycle, so {0, 2} is not inverse-closed.
    code, _, err = run_cli(capsys, "certify", "S3", "0,2")
    assert code == 1 and "error" in err


def test_cli_witness(capsys):
    code, out, _ = run_cli(capsys, "witness", "thm1", "S3", "all")
    assert code == 0 and json.loads(out)["theorem"] == "1.1"
    code, out, _ = run_cli(
        capsys, "witness", "thm2", "D4", "all", "--epsilon", "1/2"
    )
    doc = json.loads(out)
    assert code == 0 and doc["theorem"] == "1.2" and doc["epsilon"] == "1/2"


def test_cli_example_report_and_group_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "example", "--n", "3", "--k", "1", "--u", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 24
    assert doc["predicted"]["pr_A_G"] == "5/9"
    assert doc["predicted"]["A_size"] == 3
    code, out, _ = run_cli(
        capsys, "example", "--n", "2", "--k", "1", "--u", "1", "--emit", "group"
    )
    assert code == 0
    lg = load_group(json.loads(out))
    assert lg.group.order == 8


def test_cli_cover_ruzsa(capsys):
    code, out, _ = run_cli(capsys, "cover", "ruzsa", "S3", "all", "gen:3")
    assert code == 0
    doc = json.loads(out)
    assert Fraction(doc["size"]) <= parse_rational(doc["bound"])


def test_cli_cover_conjugate(capsys):
    code, out, _ = run_cli(
        capsys, "cover", "conjugate", "S3", "all", "--elements", "1", "--exact"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["d"] and doc["translates"]
    assert all(g["holds"] for g in doc["growth_checks"])


def test_cli_verify_small_config(capsys, tmp_path):
    config = {
        "corpus": [S3_PERM_SPEC, {"kind": "family", "n": 3, "k": 1, "u": 1}],
        "statements": ["L2.5a", "Sub-mono"],
        "random_instances_per_statement": 5,
        "seed": 9,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "verify", "--config", str(path))
    assert code == 0
    doc = json.loads(out)
    assert set(doc["statements"]) == {"L2.5a", "Sub-mono"}
    for agg in doc["statements"].values():
        assert agg["failures"] == 0 and agg["instances"] > 0
    assert "L2.5a:" in err
    assert len(doc["witnesses"]) == 2


def test_cli_verify_output_file(capsys, tmp_path):
    config = {
        "corpus": [S3_PERM_SPEC],
        "statements": ["L2.5b"],
        "random_instances_per_statement": 3,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify", "--config", str(cfg), "--output", str(out_path),
        "--skip-witnesses",
    )
    assert code == 0
    assert out == ""
    doc = json.loads(out_path.read_text())
    assert doc["statements"]["L2.5b"]["failures"] == 0
    assert doc["witnesses"] == []


def test_cli_exit_codes(capsys):
    # Unknown subcommand is a usage error.
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
    # Unparseable group spec.
    code, _, err = run_cli(capsys, "pr", "family:1,2", "all", "all")
    assert code == 2 and "error" in err
    # Bad family parameters.
    code, _, err = run_cli(capsys, "example", "--n", "1", "--k", "1", "--u", "1")
    assert code == 2


def test_cli_json_errors(capsys):
    # Parse failure: one-line JSON object on stderr, exit 2.
    code, _, err = run_cli(capsys, "--json", "pr", "family:1,2", "all", "all")
    assert code == 2
    doc = json.loads(err)
    assert doc["error"] == "SpecParseError" and doc["schema"] == SCHEMA_VERSION
    assert "family:<n>,<k>,<u>" in doc["message"]
    # Failed check: asymmetric base set, exit 1.
    code, _, err = run_cli(capsys, "--json", "certify", "S3", "0,2")
    assert code == 1
    assert json.loads(err)["error"] == "NotSymmetric"
    # Without the flag, stderr stays human-readable.
    code, _, err = run_cli(capsys, "certify", "S3", "0,2")
    assert code == 1 and err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["pr", "S3", "all", "99"],
        ["pr", "S3", "all", "gen:7"],
        ["witness", "thm1", "S3", "all", "--epsilon", "2"],
        ["witness", "thm2", "S3", "all", "--epsilon", "0"],
        ["cover", "conjugate", "S3", "all", "--elements", "9"],
        ["cover", "conjugate", "S3", "all", "--elements", ""],
        ["pr", "C" + "9" * 5000, "all", "all"],
        ["pr", '{"kind": "family", "n": "x", "k": 1, "u": 1}', "all", "all"],
        ["pr", '{"kind": "family", "n": 3.9, "k": 1, "u": true}', "all", "all"],
        ["verify", "--instances", "-3", "--skip-witnesses"],
        ["verify", "--only", "nothing/rand/1"],
        # perm generators that are not permutations, or not integer images
        ["pr", '{"kind": "perm", "generators": [[0, 1], [1]]}', "all", "all"],
        ["pr", '{"kind": "perm", "generators": [5]}', "all", "all"],
        ["pr", '{"kind": "perm", "generators": [["a", 1]]}', "all", "all"],
        ["pr", '{"kind": "perm", "generators": [[1.2, 0]]}', "all", "all"],
        # ragged, non-numeric, float, bool and out-of-int32 tables
        ["pr", '{"kind": "table", "table": [[0, 1], [1]]}', "all", "all"],
        ["pr", '{"kind": "table", "table": [["a"]]}', "all", "all"],
        ["pr", '{"kind": "table", "table": [[0.7, 1], [1, 0]]}', "all", "all"],
        ["pr", '{"kind": "table", "table": [[false, true], [true, false]]}', "all", "all"],
        ["pr", '{"kind": "table", "table": [[0, 18446744073709551617], [1, 0]]}', "all", "all"],
        # subset specs: a non-string role, float and bool element ids
        ["pr", "family:3,1,1", '{"role": [1]}', "all"],
        ["pr", "S3", '{"elements": [1.9]}', "all"],
        ["pr", "S3", '{"subgroup_generated_by": [true]}', "all"],
        # growth exponents outside [1, |G|]
        ["certify", "S3", "all", "--growth", "0"],
        ["certify", "S3", "all", "--growth", "100000000"],
        # a boolean among integers, which numpy alone reads as 1
        ["pr", '{"kind": "table", "table": [[0, true], [true, 0]]}', "all", "all"],
    ],
)
def test_cli_bad_input_exits_2_with_one_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "kind, doc",
    [
        ("config", {"seed": "x"}),
        ("config", {"seed": True}),
        ("config", {"random_instances_per_statement": -3}),
        ("group", {"kind": "table", "table": [[0, 1], [1, 0]], "labels": ["e"]}),
        ("config", {"order_cap": "x"}),
        ("config", {"order_cap": 0}),
        ("config", {"statements": 5}),
        ("config", {"corpus": 5}),
        ("config", {"output_path": 5}),
    ],
)
def test_cli_bad_file_exits_2_with_one_line(capsys, tmp_path, kind, doc):
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))
    if kind == "config":
        argv = ["verify", "--config", str(path), "--skip-witnesses"]
    else:
        argv = ["pr", f"@{path}", "all", "all"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("bad", ["abc", "0", "-5"])
def test_cli_bad_order_cap_env_exits_2_with_one_line(capsys, monkeypatch, bad):
    monkeypatch.setenv("APPROXCOMMUTE_ORDER_CAP", bad)
    code, out, err = run_cli(capsys, "pr", "S3", "all", "all")
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and "APPROXCOMMUTE_ORDER_CAP" in err


def test_cli_verify_only_reruns_one_instance(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--statement", "P1.4", "--only", "P1.4/rand/0"
    )
    assert code == 0 and err.startswith("P1.4: 1 instances, 0 failures")


def test_cli_refuses_named_group_above_order_cap(capsys, monkeypatch):
    monkeypatch.delenv("APPROXCOMMUTE_ORDER_CAP", raising=False)
    code, out, err = run_cli(capsys, "certify", "S7", "all")
    assert code == 1 and out == ""
    assert len(err.strip().splitlines()) == 1 and "5040" in err


def test_cli_exact_certify_stops_at_node_cap(capsys, monkeypatch):
    # |A^2| = 83 with 120 distinct translates: greedy finds 12, the minimum
    # is 11, and the search needs millions of nodes to prove it.
    monkeypatch.setattr(approx, "EXACT_NODE_CAP", 2000)
    code, out, err = run_cli(
        capsys, "certify", "S5", "0,14,28,32,36,53,62,63,64,94,97,100,111", "--exact"
    )
    assert code == 1 and out == "" and "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and "2000 nodes" in lines[0]
    lower, upper = map(int, re.search(r"at least (\d+) and at most (\d+)", lines[0]).groups())
    assert lower == 7 and 11 <= upper <= 12


def test_every_exported_name_resolves():
    import approxcommute

    missing = [name for name in approxcommute.__all__ if not hasattr(approxcommute, name)]
    assert missing == []
