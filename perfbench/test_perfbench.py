"""Tests of the benchmark itself: each check rejects a wrong answer, and each
workload runs to its end at a small size.

Run from the root of the repository with `python3 -m pytest perfbench`.
"""

from __future__ import annotations

import argparse
import copy
import json
import time
from fractions import Fraction

import numpy as np
import pytest

import run
import speed

run.use_checkout_package()

import oracles  # noqa: E402
import workloads  # noqa: E402
from oracles import CheckFailed  # noqa: E402
from tracer import metric_names  # noqa: E402


def cli_doc(argv):
    code, out, _ = workloads.run_cli(argv)
    assert code == 0
    return json.loads(out)


def test_pr_off_by_one_pair_is_rejected(tmp_path):
    query = workloads.Query(1, tmp_path)
    argv = ["pr", "S6", "all", "all"]
    doc = cli_doc(argv)
    query._check_one(argv, doc, None)
    pairs = Fraction(doc["pr"]) * 720 * 720
    wrong = dict(doc, pr=f"{pairs + 1}/{720 * 720}")
    with pytest.raises(CheckFailed):
        query._check_one(argv, wrong, None)


def test_epsilon_off_by_one_pair_is_rejected():
    import approxcommute as ac

    group = ac.named("D4")
    mul = np.asarray(group.mul)
    doc = workloads.report_doc(ac.witness_thm1(ac.Subset.full(group)))
    workloads.check_thm1(doc, mul, oracles.inverses(mul))
    doc["epsilon"] = str(Fraction(doc["epsilon"]) + Fraction(1, 64))
    with pytest.raises(CheckFailed, match="epsilon"):
        workloads.check_thm1(doc, mul, oracles.inverses(mul))


def test_cover_missing_part_of_the_square_is_rejected(tmp_path):
    query = workloads.Query(1, tmp_path)
    argv = ["certify", "D25", "0,4,7,12,13,18,21,26,31,41", "--exact", "--growth", "4"]
    doc = cli_doc(argv)
    query._check_one(argv, doc, None)
    mul = np.asarray(__import__("approxcommute").named("D25").mul)
    a = [0, 4, 7, 12, 13, 18, 21, 26, 31, 41]
    square = oracles.product_set(mul, a, a)
    # swap one translate for the identity so that E*A misses part of A^2
    for e in doc["cover"]:
        cover = sorted(set(doc["cover"]) - {e} | {0})
        if not np.isin(square, oracles.product_set(mul, cover, a)).all():
            break
    else:
        pytest.fail("every swapped cover still covers A^2")
    wrong = dict(doc, cover=cover, k=len(cover))
    with pytest.raises(CheckFailed, match="A\\^2 is not inside"):
        query._check_one(argv, wrong, None)


def test_t_that_is_not_normal_is_rejected():
    import approxcommute as ac

    group = ac.named("S3")
    mul = np.asarray(group.mul)
    inv = oracles.inverses(mul)
    doc = workloads.report_doc(ac.witness_thm1(ac.Subset.full(group)))
    workloads.check_thm1(doc, mul, inv)
    # an involution generates a subgroup of order 2, which is not normal in S3
    g = next(x for x in range(1, 6) if mul[x, x] == 0)
    wrong = copy.deepcopy(doc)
    wrong.update(t=[0, g], index_g_t=3)
    with pytest.raises(CheckFailed, match="not a normal subgroup"):
        workloads.check_thm1(wrong, mul, inv)


def test_group_table_check_rejects_a_non_associative_table():
    mul = np.asarray(__import__("approxcommute").named("S3").mul, dtype=np.int64)
    oracles.check_group_table(mul)
    # the Latin square of the order-5 loop with identity 0 that is not a group
    loop = np.array([
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ])
    with pytest.raises(CheckFailed, match="associativity"):
        oracles.check_group_table(loop)


def test_gauge_samples_during_a_call_and_takes_its_own_time_off():
    gauge = speed.SpeedGauge()

    def busy():
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            pass
        return "done"

    result, elapsed, scale = gauge.time_call(busy)
    assert result == "done"
    ticks = len(gauge.samples) - 2 * speed.EDGE_SAMPLES
    assert ticks >= 0.5 / speed.TICK_S / 2
    # the call spins for 0.5 s of wall time, part of it in the handler
    assert 0.5 - gauge.spent - 0.05 < elapsed < 0.5 - gauge.spent + 0.05
    assert scale == pytest.approx(speed.REFERENCE_UNIT_S / np.mean(gauge.samples))


def args(workload):
    return argparse.Namespace(workload=workload, seed=3, seconds=0.0, trace=0)


def test_verify_runs_at_a_small_size(tmp_path):
    verify = workloads.Verify(3, tmp_path)
    verify.argv += ["--statement", "L2.5a"]
    metrics, attempted, failed, problems = run.end_to_end(verify, args("verify"))
    assert not problems
    assert failed == 0 and attempted > workloads.VERIFY_INSTANCES
    assert set(metrics) == {"setup_s", "wall_s", "ops_per_s", "peak_rss_mb"}


def small_witness(tmp_path):
    witness = workloads.Witness(3, tmp_path)
    witness.setup()
    witness.corpus = [(g, r) for g, r in witness.corpus if g.order <= 24]
    witness.setup = lambda: None
    return witness


def test_witness_runs_at_a_small_size(tmp_path):
    metrics, attempted, failed, problems = run.end_to_end(
        small_witness(tmp_path), args("witness")
    )
    assert not problems
    assert failed == 0 and attempted > 0


def test_traced_run_reports_every_layer(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    metrics, _, failed, problems = run.traced(small_witness(tmp_path), args("witness"))
    assert not problems
    assert list(metrics) == [name for name, _ in metric_names()]
    assert metrics["witness.witness_thm1.calls"][0] > 0
    assert metrics["group.normal_subgroups.repeat_calls"][0] > 0


def test_query_runs_and_counts_the_three_bad_inputs(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    assert run.main(["--workload", "query", "--seed", "3", "--seconds", "0", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] == len(workloads.QUERY_COMMANDS)
    assert result["failed"] == 3
