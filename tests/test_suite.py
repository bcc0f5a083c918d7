"""Suite runner: configuration, random instance draws, determinism, reproduction."""

import hashlib
import json
from fractions import Fraction

import pytest

from approxcommute import (
    SpecParseError,
    SuiteConfig,
    random_symmetric_subset,
    run_suite,
    statement_ids,
)
from approxcommute.rng import SplitMix64, derive_seed
from approxcommute.specio import canonical_json

from oracles import inverse_map

S3_SPEC = {"kind": "perm", "generators": [[1, 0, 2], [1, 2, 0]], "name": "S3"}
FAMILY_SPEC = {"kind": "family", "n": 3, "k": 1, "u": 1}


def small_config(**overrides):
    values = {
        "corpus": [S3_SPEC, FAMILY_SPEC],
        "random_instances_per_statement": 8,
        "seed": 5,
    }
    only = overrides.pop("only", None)
    values.update(overrides)
    cfg = SuiteConfig.from_dict(values)
    if only is not None:
        cfg.only = only
    return cfg


def test_config_from_dict_defaults():
    cfg = SuiteConfig.from_dict({})
    assert cfg.random_instances_per_statement == 500
    assert cfg.seed == 1
    assert cfg.corpus is None and cfg.statements is None


def test_config_validation():
    with pytest.raises(SpecParseError):
        SuiteConfig.from_dict({"bogus": 1})
    with pytest.raises(SpecParseError):
        SuiteConfig.from_dict({"statements": ["L9.9"]})
    with pytest.raises(SpecParseError):
        SuiteConfig.from_dict([1, 2])


def test_config_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 42, "statements": ["P2.1"]}))
    cfg = SuiteConfig.from_file(path)
    assert cfg.seed == 42 and cfg.statements == ["P2.1"]
    assert cfg.source_path == str(path)
    with pytest.raises(SpecParseError):
        SuiteConfig.from_file(tmp_path / "nope.json")


def test_random_symmetric_subset_properties(d4, q8):
    for group in (d4, q8):
        inv = inverse_map(group.mul)
        for seed in range(12):
            a = random_symmetric_subset(group, Fraction(1, 3), SplitMix64(seed))
            ids = set(a.id_list())
            assert 0 in ids
            assert ids == {inv[g] for g in ids}


def test_random_symmetric_subset_is_stream_deterministic(d4):
    a = random_symmetric_subset(d4, Fraction(1, 2), SplitMix64(77))
    b = random_symmetric_subset(d4, Fraction(1, 2), SplitMix64(77))
    assert a == b
    c = random_symmetric_subset(d4, Fraction(1, 2), SplitMix64(78))
    assert a == c or a != c  # different seed may collide, but never crash


def test_random_symmetric_subset_density_extremes(d4):
    everything = random_symmetric_subset(d4, Fraction(1), SplitMix64(3))
    assert everything.size == d4.order
    nothing = random_symmetric_subset(d4, Fraction(0), SplitMix64(3))
    assert nothing.id_list() == [0]


def test_small_run_has_no_failures():
    report = run_suite(small_config())
    assert report.failures == 0
    payload = report.payload
    assert payload["schema"] == "1"
    assert list(payload["statements"]) == statement_ids()
    for agg in payload["statements"].values():
        assert agg["failures"] == 0
        assert agg["instances"] > 0
        assert agg["failure_detail"] == []
        assert agg["min_slack"] is not None
        assert Fraction(agg["min_slack"]) >= 0
    assert [c["name"] for c in payload["config"]["corpus"]] == ["S3", "shift[3]xC1"]


def test_runs_are_deterministic():
    first = run_suite(small_config())
    second = run_suite(small_config())
    assert canonical_json(first.payload) == canonical_json(second.payload)
    # Timing is allowed to differ and lives outside the payload.
    assert "timing" not in first.payload
    assert "timing" in first.document()


def test_seed_changes_random_instances():
    base = run_suite(small_config(statements=["L2.5a"]))
    moved = run_suite(small_config(statements=["L2.5a"], seed=6))
    # Corpus instances agree; the random tail generally does not.
    assert (
        base.payload["statements"]["L2.5a"]["instances"]
        == moved.payload["statements"]["L2.5a"]["instances"]
    )
    assert canonical_json(base.payload) != canonical_json(moved.payload)


def test_only_reruns_a_single_instance():
    full = run_suite(small_config(statements=["L2.5b"]))
    agg = full.payload["statements"]["L2.5b"]
    key = agg["tightest_instance"]
    assert key is not None
    narrowed = run_suite(small_config(statements=["L2.5b"], only=key))
    narrow_agg = narrowed.payload["statements"]["L2.5b"]
    assert narrow_agg["instances"] == 1
    assert narrow_agg["min_slack"] == agg["min_slack"]
    assert narrow_agg["tightest_instance"] == key
    # A witness pass never runs during a pinpoint rerun.
    assert narrowed.payload["witnesses"] == []


def test_random_streams_are_keyed_per_statement_and_index():
    # The stream for (seed, sid, idx) never depends on other statements having
    # run: the derivation is pure.
    assert derive_seed(5, "L2.5a", 3) == derive_seed(5, "L2.5a", 3)
    assert derive_seed(5, "L2.5a", 3) != derive_seed(5, "L2.5b", 3)
    assert derive_seed(5, "L2.5a", 3) != derive_seed(5, "L2.5a", 4)


def test_witness_section_per_group():
    report = run_suite(small_config(statements=["Sub-mono"]))
    names = [w["group"] for w in report.payload["witnesses"]]
    assert names == ["0.S3", "1.shift[3]xC1"]
    for entry in report.payload["witnesses"]:
        assert entry["thm1"]["theorem"] == "1.1"
        assert entry["thm2"]["theorem"] == "1.2"


def test_skip_witnesses():
    cfg = small_config(statements=["Sub-mono"])
    cfg.run_witnesses = False
    report = run_suite(cfg)
    assert report.payload["witnesses"] == []


def test_default_corpus_respects_order_cap():
    cfg = SuiteConfig.from_dict(
        {"order_cap": 16, "statements": ["L2.5a"], "random_instances_per_statement": 0}
    )
    report = run_suite(cfg)
    orders = [c["order"] for c in report.payload["config"]["corpus"]]
    assert orders and all(order <= 16 for order in orders)
    assert report.failures == 0


def test_output_file_written(tmp_path):
    out = tmp_path / "suite.json"
    cfg = small_config(statements=["L2.6"], output_path=str(out))
    cfg.run_witnesses = False
    report = run_suite(cfg)
    on_disk = json.loads(out.read_text())
    assert on_disk["statements"]["L2.6"]["instances"] == (
        report.payload["statements"]["L2.6"]["instances"]
    )
    assert "timing" in on_disk


def test_empty_corpus_rejected():
    with pytest.raises(SpecParseError):
        run_suite(SuiteConfig.from_dict({"corpus": []}))


def test_failure_records_carry_repro_command(monkeypatch):
    import approxcommute.suite as suite_mod
    from approxcommute.statements import CheckResult

    real_check = suite_mod.check

    def inverted(sid, *, description=None, **inputs):
        r = real_check(sid, description=description, **inputs)
        # Flip the verdict: lhs strictly above rhs.
        return CheckResult(r.statement_id, r.instance, r.rhs + 1, r.rhs)

    monkeypatch.setattr(suite_mod, "check", inverted)
    cfg = small_config(statements=["L2.5a"], random_instances_per_statement=3, seed=9)
    cfg.run_witnesses = False
    report = run_suite(cfg)
    agg = report.payload["statements"]["L2.5a"]
    assert agg["failures"] == agg["instances"] > 0
    rec = agg["failure_detail"][0]
    assert rec["holds"] is False and rec["key"].startswith("L2.5a/")
    # The repro line replays exactly this instance through the CLI.
    assert rec["repro"] == (
        f"approxcommute verify --seed 9 --statement L2.5a --only {rec['key']}"
    )
    # Even past the full-detail cap, every record keeps its repro line.
    assert all("repro" in r and "key" in r for r in agg["failure_detail"])


# sha256 of canonical_json(payload) (timing is kept apart from the payload)
# for the default corpus, 10 random instances per statement, witnesses on.
GOLDEN_PAYLOAD_SHA256 = {
    1: "ed8c612594bb056f896eedb2cfb1762e7c4b3fcac051ffd3b6dcf854eb545326",
    2: "3b8b6d7ea0eb06816f6c64111bf08698fd0ade89b3711f7a05434659b455eb3f",
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_PAYLOAD_SHA256))
def test_payload_matches_golden_hash(seed, monkeypatch):
    monkeypatch.delenv("APPROXCOMMUTE_ORDER_CAP", raising=False)
    report = run_suite(SuiteConfig(seed=seed, random_instances_per_statement=10))
    assert "timing" not in report.payload
    digest = hashlib.sha256(canonical_json(report.payload).encode()).hexdigest()
    assert digest == GOLDEN_PAYLOAD_SHA256[seed]
