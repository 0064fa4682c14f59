"""A short run of every workload, traced and untraced, gate included."""

import json
from pathlib import Path

import pytest

from e2ebench import run, served, workloads

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_layer(workload):
    result = run.measure(workload, seed=1, seconds=0.5, trace=True)
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_passes_the_gate(workload):
    result = served.run(workload, 2, seconds=0.5, trace=False, min_timed=3)
    run.gate(workload, result, seed=2)
    records = result["records"]
    assert len(records) >= 3
    assert not any(rec.problems for rec in records)
    assert all(rec.rows for rec in records if rec.error is None)
    assert len(result["setups"]) == served.BOOTS
    assert result["peak_rss_mb"] > 0


def test_a_wrong_row_is_reported_as_incorrect(monkeypatch, capsys):
    """One dropped CSV row fails the gate; the run still prints its
    result line, with ``correct`` false, although too few requests are
    left for a p90."""
    real_run = served.run

    def dropping_a_row(*args):
        result = real_run(*args)
        outputs = result["outputs"][min(result["outputs"])]
        outputs["results.csv"] = outputs["results.csv"].rstrip(b"\r\n").rsplit(b"\n", 1)[0]
        return result

    monkeypatch.setattr(run.report, "MIN_TIMED", 3)
    monkeypatch.setattr(served, "run", dropping_a_row)
    argv = ["--workload", "schedule_jobs", "--seed", "3", "--seconds", "0.5", "--trace", "0"]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["attempted"] >= 3
    assert result["failed"] >= 1
