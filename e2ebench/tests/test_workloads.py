import itertools

import pytest

from e2ebench.workloads import PAPER_RHOS, WORKLOADS, requests


def _take(workload, seed, n=12):
    return [r.body for r in itertools.islice(requests(workload, seed), n)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_a_byte_identical_stream(workload):
    assert _take(workload, 3) == _take(workload, 3)
    assert _take(workload, 3) != _take(workload, 4)


def test_request_shapes():
    sched = next(requests("schedule_jobs", 1))
    assert sched.scenarios == 400
    paper = next(requests("paper_jobs", 1))
    assert paper.scenarios == 2 * PAPER_RHOS + 1
    assert [sc.get("mode", "silent") for sc in paper.payload["scenarios"]].count("combined") == 1


def test_schedule_jobs_never_repeat_a_point():
    seen = set()
    for req in itertools.islice(requests("schedule_jobs", 2), 20):
        rhos = set(req.payload["grid"]["rhos"])
        assert not rhos & seen
        seen |= rhos


def test_paper_jobs_repeat_half_their_points_from_recent_jobs():
    jobs = [
        sorted({sc["rho"] for sc in r.payload["scenarios"] if "mode" not in sc})
        for r in itertools.islice(requests("paper_jobs", 2), 20)
    ]
    for i in range(5, len(jobs)):
        earlier = {rho for job in jobs[i - 4:i] for rho in job}
        assert sum(rho in earlier for rho in jobs[i]) == PAPER_RHOS // 2


def test_paper_jobs_fail_stop_rows_are_stratified_and_fresh():
    from e2ebench.workloads import (
        FAILSTOP_FRACTION,
        FAILSTOP_RHO,
        FAILSTOP_STRATA,
        PAPER_CONFIGS,
    )

    def stratum(value, bounds):
        lo, hi = bounds
        return int((value - lo) // ((hi - lo) / FAILSTOP_STRATA))

    n = FAILSTOP_STRATA
    rows = [
        r.payload["scenarios"][0] for r in itertools.islice(requests("paper_jobs", 5), 4 * n)
    ]
    assert all(row["mode"] == "combined" for row in rows)
    assert len({(row["config"], row["rho"], row["failstop_fraction"]) for row in rows}) == len(rows)
    for start in range(0, len(rows), n):
        block = rows[start:start + n]
        assert sorted(row["config"] for row in block) == sorted(PAPER_CONFIGS * (n // 2))
        assert sorted(stratum(row["rho"], FAILSTOP_RHO) for row in block) == list(range(n))
        assert sorted(
            stratum(row["failstop_fraction"], FAILSTOP_FRACTION) for row in block
        ) == list(range(n))
