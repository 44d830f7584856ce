"""Tests of the benchmark's own logic.  Run with ``python -m pytest perfbench``.

They need numpy but not the program under test.
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import stats  # noqa: E402
from layers import Span, self_times  # noqa: E402

# -- percentiles -------------------------------------------------------------------


def test_nearest_rank_picks_a_sample():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.nearest_rank(values, 50) == 3.0
    assert stats.nearest_rank(values, 20) == 1.0
    assert stats.nearest_rank(values, 21) == 2.0
    assert stats.nearest_rank(values, 100) == 5.0


def test_nearest_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        stats.nearest_rank([], 50)
    with pytest.raises(ValueError):
        stats.nearest_rank([1.0], 0)


@pytest.mark.parametrize(
    "n, want_p",
    [
        (1000, 99.0),  # p99 leaves 10 beyond it; p99.9 leaves 1
        (999, 95.0),  # p99 leaves 9
        (200, 95.0),  # p95 leaves 10 exactly
        (199, 90.0),  # p95 leaves 9
        (100, 90.0),
        (20, 50.0),
        (19, None),  # even the median leaves only 9
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, want_p):
    values = [float(i) for i in range(1, n + 1)]
    tail = stats.tail_percentile(values)
    if want_p is None:
        assert tail is None
        return
    p, value = tail
    assert p == want_p
    assert sum(v > value for v in values) >= 10


# -- open loop ---------------------------------------------------------------------


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def test_due_times_deal_round_robin():
    lanes = stats.due_times(10.0, rate=4.0, duration=1.0, lanes=2)
    assert lanes == [[10.0, 10.5], [10.25, 10.75]]


def test_open_loop_latency_counts_from_due_time():
    clock = FakeClock()
    service = {0: 0.35, 1: 0.01, 2: 0.01, 3: 0.01}

    def request(i: int) -> None:
        clock.now += service[i]

    due = [0.0, 0.1, 0.2, 0.3]
    samples = stats.drive_lane(due, request, clock=clock, sleep=clock.sleep)
    # The first request stalls the lane until 0.35; the next ones were due
    # earlier and their latency includes the wait, not just service time.
    assert [s.sent for s in samples] == pytest.approx([0.0, 0.35, 0.36, 0.37])
    assert [s.latency for s in samples] == pytest.approx([0.35, 0.26, 0.17, 0.08])
    # The generator itself was never late: every wait was the server's.
    assert stats.generator_lateness(samples) == pytest.approx([0.0] * 4)


def test_generator_lateness_excludes_waiting_for_the_lane():
    samples = [
        stats.Sample(due=0.0, sent=0.002, done=0.5),  # 2 ms late
        stats.Sample(due=0.1, sent=0.5, done=0.6),  # lane busy: 0
        stats.Sample(due=1.0, sent=1.004, done=1.1),  # 4 ms late
    ]
    assert stats.generator_lateness(samples) == pytest.approx([0.002, 0.0, 0.004])


def test_drive_lane_waits_until_due():
    clock = FakeClock()
    samples = stats.drive_lane([0.5, 1.0], lambda i: None, clock=clock, sleep=clock.sleep)
    assert [s.sent for s in samples] == [0.5, 1.0]
    assert all(s.latency == 0.0 for s in samples)


# -- the L formula -----------------------------------------------------------------


@pytest.mark.parametrize(
    "blocks, window, stride, want",
    [
        (54231, 144, 72, 752),  # the BTC monitor
        (400000, 6000, 3000, 132),  # the ETH stream prefix
        (2204650, 6000, 3000, 733),  # the full ETH year
        (144, 144, 72, 1),
        (143, 144, 72, 0),
        (10, 4, 3, 3),
    ],
)
def test_expected_evaluations(blocks, window, stride, want):
    assert checks.expected_evaluations(blocks, window, stride) == want


def test_expected_evaluations_matches_enumeration():
    for blocks in range(0, 40):
        for window in range(1, 9):
            for stride in range(1, 9):
                ends = [e for e in range(window, blocks + 1) if (e - window) % stride == 0]
                assert checks.expected_evaluations(blocks, window, stride) == len(ends)


# -- output checkers ---------------------------------------------------------------


def test_report_checker_rejects_one_changed_byte():
    golden = b"# Study\n\nGini 0.5507\n"
    assert checks.check_report(golden, golden) == []
    for i in range(len(golden)):
        changed = bytearray(golden)
        changed[i] ^= 0x01
        problems = checks.check_report(bytes(changed), golden)
        assert problems and f"byte {i}" in problems[0]
    assert checks.check_report(golden + b"\n", golden)
    assert checks.check_report(golden[:-1], golden)


def test_study_checker():
    good = "x\nMore decentralized: bitcoin\nMore stable:        ethereum\n"
    assert checks.check_study(good) == []
    assert checks.check_study(good.replace("bitcoin", "ethereum"))


def test_same_text_checker_names_the_line():
    assert checks.check_same_text("a\nb\n", "a\nb\n", "fig") == []
    assert "line 2" in checks.check_same_text("a\nc\n", "a\nb\n", "fig")[0]
    assert checks.check_same_text("a\n", "a\nb\n", "fig")


def test_query_checker_compares_rows_and_count():
    expected = [{"producer": f"p{i}", "n": 100 - i} for i in range(25)]
    printed = "\n".join(str(row) for row in expected[:20]) + "\n... (5 more rows)\n"
    assert checks.check_query(printed, expected, "g") == []
    assert checks.check_query(printed.replace("'n': 100", "'n': 101"), expected, "g")
    assert checks.check_query(printed.replace("5 more", "6 more"), expected, "g")
    assert checks.check_query("", expected, "g")
    assert checks.check_rows(expected, expected, "g") == []
    assert checks.check_rows(expected[:-1], expected, "g")


def test_monitor_checker():
    latest = {"gini": 0.55071, "entropy": 3.75519, "nakamoto": 4.0}
    out = (
        "monitoring bitcoin: window=144 stride=72 blocks=54231\n"
        "monitored 54231 blocks: 752 evaluations, 0 alerts\n"
        "latest: entropy=3.7552, gini=0.5507, nakamoto=4.0000\n"
    )
    assert checks.check_monitor(out, 54231, 144, 72, latest) == []
    assert checks.check_monitor(out.replace("752 e", "751 e"), 54231, 144, 72, latest)
    assert checks.check_monitor(out.replace("0.5507", "0.5508"), 54231, 144, 72, latest)
    assert checks.check_monitor(out, 54230, 144, 72, latest)


def test_scrape_checker():
    assert checks.check_scrape("metrics", 200, b"# HELP x y\nrepro_x_total 3\n") == []
    assert checks.check_scrape("metrics", 200, b'repro_t_bucket{le="+Inf"} 1\n') == []
    assert checks.check_scrape("metrics", 200, b"repro_x_total three\n")
    assert checks.check_scrape("metrics", 503, b"repro_x_total 3\n")
    assert checks.check_scrape("status", 200, b'{"blocks_ingested": 3}') == []
    assert checks.check_scrape("status", 200, b'{"blocks_ingested": 3')
    assert checks.check_scrape("series", 200, b'{"points": []}') == []
    assert checks.check_scrape("series", 200, b'{"name": "x"}')
    assert checks.check_scrape("healthz", 200, b"ok\n") == []


# -- query references --------------------------------------------------------------


def _toy_chain():
    # Heights 100..103; block 101 has two producers.
    return SimpleNamespace(
        heights=np.array([100, 101, 102, 103]),
        timestamps=np.array([86400 * 5, 86400 * 5 + 10, 86400 * 6, 86400 * 6 + 5]),
        offsets=np.array([0, 1, 3, 4, 5]),
        producer_ids=np.array([0, 1, 0, 2, 2]),
        producer_names=["b", "a", "c"],
    )


def test_references_on_a_toy_chain():
    chain = _toy_chain()
    assert checks.ref_groupby(chain) == [
        {"producer": "b", "n": 2}, {"producer": "c", "n": 2}, {"producer": "a", "n": 1},
    ]
    assert checks.ref_point(chain, 101) == [
        {"height": 101, "timestamp": 86400 * 5 + 10, "primary_producer": "a",
         "n_producers": 2},
    ]
    assert checks.ref_point(chain, 99) == []
    assert [(r["height"], r["producer"]) for r in checks.ref_join(chain, 101, 102)] == [
        (101, "a"), (101, "b"), (102, "c"),
    ]
    assert checks.ref_daily(chain, 0, 10**9) == [
        {"day": 5, "producers": 2}, {"day": 6, "producers": 1},
    ]


# -- self time ---------------------------------------------------------------------


def test_self_time_subtracts_children():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("b", 5.0, 6.0, 0),
        Span("a", 7.0, 8.0, 0),
        Span("leaf", 1.5, 2.0, 1),
    ]
    got = self_times(spans)
    assert got["root"] == pytest.approx(5.0)
    assert got["a"] == pytest.approx(3.5)
    assert got["b"] == pytest.approx(1.0)
    assert got["leaf"] == pytest.approx(0.5)
