"""Self-tests of the benchmark harness (not part of the tier-1 suite).

    python3 -m pytest -q perfbench/test_harness.py

Takes about two minutes: two of the tests make full traced runs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, seed: int, seconds: int,
              trace: int) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout.strip().splitlines()


def first_units(wl, n: int) -> list:
    it = wl.batches()
    return [next(it) for _ in range(n)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name, tmp_path):
    make = workloads.WORKLOADS[name]
    a = first_units(make(3, tmp_path), 20)
    b = first_units(make(3, tmp_path), 20)
    c = first_units(make(4, tmp_path), 20)
    assert a == b
    assert a != c


def test_pool_matches_its_generator():
    import make_pool
    import random

    meta, rows = workloads.read_pool()
    assert int(meta["master_seed"]) == make_pool.MASTER_SEED
    assert len(rows) == make_pool.POOL_SIZE
    assert float(meta["max_sqrtQ_over_R"]) <= float(
        meta["width_bound_sqrtQ_over_R"])
    # the kept rows are a subsequence of the master-seed draws
    rng = random.Random(make_pool.MASTER_SEED)
    inputs = workloads.POOL_COLUMNS[:6]
    want = iter(rows[:50])
    row = next(want)
    for _ in range(200):
        d = make_pool.draw(rng)
        if all(float(d[k]) == float(row[k]) for k in inputs):
            row = next(want, None)
            if row is None:
                break
    assert row is None


@pytest.fixture(scope="module")
def traced_runs():
    return [run_bench(ROOT, "sweep", 7, BENCH["run_seconds"], 1)
            for _ in range(2)]


def test_trace_names_match_benchmark_json(traced_runs):
    rc, lines = traced_runs[0]
    assert rc == 0
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    names = [m["name"] for m in BENCH["per_layer"]]
    assert sorted(result["metrics"]) == sorted(names)
    units = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    for name, m in result["metrics"].items():
        assert m["unit"] == units[name]


def test_traced_counts_repeat_exactly(traced_runs):
    (rc1, a), (rc2, b) = traced_runs
    assert rc1 == rc2 == 0
    ma, mb = json.loads(a[-1])["metrics"], json.loads(b[-1])["metrics"]
    counts = [m["name"] for m in BENCH["per_layer"] if m["unit"] == "count"]
    assert counts
    for name in counts:
        assert ma[name]["value"] == mb[name]["value"], name
    assert ma["oracle.fft_calls_per_step"]["value"] == pytest.approx(
        10.05, abs=0.01)


def test_end_to_end_names_match_benchmark_json():
    rc, lines = run_bench(ROOT, "sweep", 1, 1, 0)
    assert rc == 0
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want


def _copy_checkout(dst: Path, with_src: bool) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dst)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, dst / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    if with_src:
        shutil.copytree(ROOT / "src", dst / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))


def test_wrong_reference_counts_as_failed(tmp_path):
    _copy_checkout(tmp_path, with_src=True)
    first = first_units(workloads.Sweep(1, tmp_path), 1)[0][0].index
    pool = tmp_path / "perfbench" / workloads.POOL.name
    lines = pool.read_text().splitlines(keepends=True)
    header = sum(line.startswith("#") for line in lines) + 1
    cells = lines[header + first].split(",")
    col = workloads.POOL_COLUMNS.index("delta_phi_rad")
    cells[col] = repr(float(cells[col]) * (1.0 + 1e-6))
    lines[header + first] = ",".join(cells)
    pool.write_text("".join(lines))

    rc, out = run_bench(tmp_path, "sweep", 1, 1, 0)
    assert rc != 0
    result = json.loads(out[-1])
    assert not result["correct"]
    assert 1 <= result["failed"] < result["attempted"]
    env = json.loads(out[-2].removeprefix("env "))
    assert env["failed_frac"] == result["failed"] / result["attempted"]


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    _copy_checkout(tmp_path, with_src=False)
    rc, out = run_bench(tmp_path, "sweep", 1, 1, 0)
    assert rc != 0
    assert out == []
