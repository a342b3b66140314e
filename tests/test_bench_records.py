"""The benchmark records at the root of the repository (BENCH_*.json).

Each perf change records its before and after numbers in one such file;
these tests check that a record names what it moved and what it claims,
in the terms BENCHMARK.json defines, and holds the medians the claim
rests on.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_records_exist():
    assert RECORDS


@pytest.fixture(params=RECORDS, ids=[path.name for path in RECORDS])
def record(request):
    return json.loads(request.param.read_text())


def test_names_the_stages_moved(record):
    assert record["stages_moved"]


def test_claim_names_a_workload_and_an_end_to_end_metric(record):
    assert record["claimed"]["workload"] in WORKLOADS
    assert record["claimed"]["metric"] in END_TO_END


def test_reports_every_workload(record):
    assert WORKLOADS <= set(record["workloads"])


def test_claimed_workload_has_ten_pairs_and_medians(record):
    runs = record["workloads"][record["claimed"]["workload"]]
    assert runs["pairs"] >= 10
    for side in ("parent", "change"):
        for metric in END_TO_END:
            assert isinstance(runs[side][metric]["median"], (int, float)), (side, metric)
