"""Tests of the benchmark itself: its independent routes, a tiny run of every
workload, the traced run, and the gate counting a wrong answer.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import pace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
import nearcentral as nc  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_substrate_routes_match_library():
    for n in range(9):
        assert [p.parts for p in nc.enumerate_partitions(n)] == list(checks.partitions(n))
    for n in range(1, 8):
        for lam in checks.partitions(n):
            assert checks.dimension(lam) == nc.dimension(nc.Partition(lam))
            for mu in checks.partitions(n):
                assert checks.chi(lam, mu) == nc.chi(nc.Partition(lam), nc.Partition(mu))
    shape = (3, 2, 1)
    assert checks.syt(shape) == sorted(t.rows for t in nc.enumerate_syt(nc.Partition(shape)))


def test_star_walk_matches_oracle_and_spectral_sums():
    for n in range(2, 6):
        walk = checks.star_walk(n, 5)
        for lam, i in checks.marked_classes(n):
            for r in range(6):
                pi = checks.representative(lam, i)
                literal = nc.enumerate_star_factorizations(nc.Permutation(pi), r)
                assert checks.star_count(walk, lam, i, r) == literal
        for r in range(1, 6):
            for lam in checks.partitions(n):
                assert checks.star_count_class(walk, lam, r) == nc.star_count_class(nc.Partition(lam), r)
            for k in range(1, n + 1):
                assert checks.star_count_by_cycle_count(walk, k, r) == nc.star_count_by_cycle_count(n, k, r)
        assert checks.jm_power(walk, n, 4) == {str(k): str(v) for k, v in nc.jm_power_coefficients(n, 4).items()}


@pytest.mark.parametrize("case", workloads.CLOSED_CASES)
def test_closed_spectrum_matches_walk(case):
    for n in range(3, 10):
        walk = checks.star_walk(n, 11)
        lam, i = {"full-cycle": ((n,), n), "fix-point-mark1": ((n - 1, 1), 1),
                  "transposed-mark": ((n - 1, 1), n - 1)}[case]
        spectrum = checks.closed_spectrum(case, n)
        for r in range(1, 12):
            assert checks.star_count_closed(spectrum, n, r) == checks.star_count(walk, lam, i, r)


def test_group_counts_match_library():
    group = checks.Group(5)
    classes = checks.marked_classes(5)
    for a, b, c in itertools.islice(itertools.product(classes, repeat=3), 0, None, 41):
        want = nc.connection_coefficient(nc.Partition(a[0]), a[1], nc.Partition(b[0]), b[1],
                                         nc.Partition(c[0]), c[1])
        assert group.product_coefficient(a, b, c) == want
    for mu, j in classes[::2]:
        for lam, i in classes[::3]:
            want = nc.genchar(nc.Partition(mu), j, nc.Partition(lam), i)
            assert checks.gamma_charsum(mu, j, lam, i) == want


def test_inputs_follow_the_seed():
    for w in workloads.WORKLOADS:
        assert workloads.build(w, 7, 0) == workloads.build(w, 7, 0)
        assert workloads.build(w, 7, 0) != workloads.build(w, 8, 0)
        assert workloads.build(w, 7, 0) != workloads.build(w, 7, 1)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_is_correct(workload):
    result = run.measure(workload, seed=1, seconds=0, trace=False, size="tiny")
    assert result["failed"] == 0 and result["attempted"] > 0
    assert {m["name"] for m in SPEC["end_to_end"]} == set(result["metrics"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_gives_every_layer_metric():
    result = run.measure("spectral", seed=1, seconds=0, trace=True, size="tiny")
    assert result["failed"] == 0
    assert {m["name"] for m in SPEC["per_layer"]} == set(result["metrics"])
    spans = result["spans"]
    assert all(s["end"] >= s["start"] for s in spans)
    assert {s["run"] for s in spans} == {f"{w}:1" for w in workloads.WORKLOADS}


def test_pacer_scales_by_the_mean_sample_around_an_answer():
    pacer = pace.Pacer()
    pacer.samples = [0.002, 0.004, 0.006]
    assert pacer.scale(0, 2) == pytest.approx(pace.REF_S / 0.004)
    assert pacer.scale(1, 1) == pytest.approx(pace.REF_S / 0.004)


def test_corrupted_expected_value_is_counted():
    result = run.measure("spectral", seed=1, seconds=0, trace=False, size="tiny", corrupt=-1)
    assert result["failed"] == 1
    assert result["failed_frac"] == 1 / result["attempted"]


def test_refuses_without_sources():
    # a checkout holding only BENCHMARK.json and the benchmark's own files
    bare = BENCH / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "spectral",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert done.stdout == ""
