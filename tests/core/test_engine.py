"""Tests for the measurement engine on small chains."""

import logging

import numpy as np
import pytest

from repro.chain.attribution import attribute
from repro.core.engine import MeasurementEngine
from repro.errors import MeasurementError, MetricError
from repro.metrics import FunctionMetric
from repro.util.timeutils import YEAR_2019_START
from repro.windows.base import BlockWindow, TimeWindow
from repro.windows.fixed import FixedCalendarWindows
from tests.conftest import make_tiny_chain


@pytest.fixture
def engine():
    # 12 blocks spread across the first three days of 2019, 4 per day.
    blocks = []
    producers = [
        ["a"], ["a"], ["b"], ["a"],          # day 0: a=3, b=1
        ["a"], ["b"], ["b"], ["c"],          # day 1: a=1, b=2, c=1
        ["a"], ["a"], ["a"], ["a"],          # day 2: a=4
    ]
    chain = make_tiny_chain(
        producers,
        start_ts=YEAR_2019_START,
        spacing=21_600,  # 4 blocks/day
    )
    return MeasurementEngine.from_chain(chain)


class TestMeasureWithBlockWindows:
    def test_values_per_window(self, engine):
        windows = [
            BlockWindow(index=0, label="first", start_block=0, stop_block=4),
            BlockWindow(index=1, label="second", start_block=4, stop_block=8),
        ]
        series = engine.measure("nakamoto", windows)
        assert series.values.tolist() == [1.0, 2.0]
        assert series.labels == ("first", "second")

    def test_window_clamped_to_chain(self, engine):
        windows = [BlockWindow(index=0, label="w", start_block=8, stop_block=99)]
        series = engine.measure("entropy", windows)
        assert len(series) == 1
        assert series.values[0] == pytest.approx(0.0)  # day 2 is all 'a'

    def test_fully_out_of_range_window_skipped(self, engine):
        windows = [BlockWindow(index=0, label="w", start_block=50, stop_block=60)]
        series = engine.measure("gini", windows)
        assert len(series) == 0
        assert series.skipped == 1


class TestMeasureWithTimeWindows:
    def test_day_windows(self, engine):
        day0 = TimeWindow(
            index=0, label="d0",
            start_ts=YEAR_2019_START, end_ts=YEAR_2019_START + 86_400,
        )
        series = engine.measure("gini", [day0])
        # day 0 distribution (3, 1): gini = 0.25.
        assert series.values[0] == pytest.approx(0.25)

    def test_empty_time_window_skipped(self, engine):
        later = TimeWindow(
            index=9, label="empty",
            start_ts=YEAR_2019_START + 30 * 86_400,
            end_ts=YEAR_2019_START + 31 * 86_400,
        )
        series = engine.measure("gini", [later])
        assert len(series) == 0
        assert series.skipped == 1

    def test_measure_calendar_day(self, engine):
        series = engine.measure_calendar("nakamoto", "day")
        assert len(series) == 3  # only 3 days hold blocks; 362 skipped
        assert series.skipped == 362
        assert series.window_desc == "fixed-day"


class TestMeasureSliding:
    def test_series_metadata(self, engine):
        series = engine.measure_sliding("entropy", size=4)
        assert series.window_desc == "sliding-4/2"
        assert len(series) == 5  # (12-4)/2+1

    def test_explicit_step(self, engine):
        series = engine.measure_sliding("entropy", size=4, step=4)
        assert len(series) == 3


class TestSlidingFallbackWarning:
    """The generic-sweep warning names the reason that actually applies."""

    @pytest.fixture(autouse=True)
    def propagate(self, monkeypatch):
        # ``repro.cli.main`` may have turned propagation off for ``repro``.
        monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)

    def _fallback_messages(self, caplog, run):
        with caplog.at_level(logging.WARNING, logger="repro.core.engine"):
            run()
        return [
            r.getMessage() for r in caplog.records if "fell off" in r.getMessage()
        ]

    def test_over_budget_says_budget(self, engine, caplog, monkeypatch):
        monkeypatch.setattr("repro.chain.attribution._SEGMENT_BUDGET", 4)
        messages = self._fallback_messages(
            caplog, lambda: engine.measure_sliding_many(["gini"], size=4, step=2)
        )
        assert len(messages) == 1
        assert "6 segments x 3 entities is over the 4-cell dense budget" in messages[0]
        assert "%" not in messages[0]

    @pytest.mark.parametrize(
        "size, step, reason",
        [
            (4, 3, "(size % step != 0)"),
            (20, 10, "(window longer than the chain's 12 blocks)"),
        ],
    )
    def test_reason_names_the_cause(self, engine, caplog, size, step, reason):
        for run in (
            lambda: engine.measure_sliding_many(["gini"], size=size, step=step),
            lambda: engine.measure_sliding("gini", size=size, step=step),
        ):
            caplog.clear()
            messages = self._fallback_messages(caplog, run)
            assert len(messages) == 1
            assert reason in messages[0]
            assert "budget" not in messages[0]


class TestMetricDispatch:
    def test_metric_object_accepted(self, engine):
        metric = FunctionMetric("always-7", lambda values: 7.0)
        series = engine.measure(metric, [BlockWindow(0, "w", 0, 4)])
        assert series.values.tolist() == [7.0]
        assert series.metric_name == "always-7"

    def test_unknown_metric_name_raises(self, engine):
        with pytest.raises(MetricError):
            engine.measure("nope", [BlockWindow(0, "w", 0, 4)])

    def test_unsupported_window_type_raises(self, engine):
        with pytest.raises(MeasurementError):
            engine.measure("gini", ["not-a-window"])


class TestDistributionAccess:
    def test_distribution_for_window(self, engine):
        window = BlockWindow(index=0, label="w", start_block=0, stop_block=4)
        distribution = np.sort(engine.distribution_for(window))
        assert distribution.tolist() == [1.0, 3.0]

    def test_top_entities_for_window(self, engine):
        window = BlockWindow(index=0, label="w", start_block=0, stop_block=12)
        top = engine.top_entities_for(window, k=2)
        assert top[0] == ("a", 8.0)
        assert top[1] == ("b", 3.0)


class TestAttributionPolicies:
    def test_from_chain_policy_changes_results(self):
        chain = make_tiny_chain([["a"], ["a", "x", "y", "z", "w"], ["b"]])
        per_address = MeasurementEngine.from_chain(chain, policy="per-address")
        fractional = MeasurementEngine.from_chain(chain, policy="fractional")
        window = [BlockWindow(index=0, label="w", start_block=0, stop_block=3)]
        n_pa = per_address.measure("nakamoto", window).values[0]
        n_fr = fractional.measure("nakamoto", window).values[0]
        # Per-address: credits a=2, b/x/y/z/w=1 (total 7) -> N = 3.
        # Fractional: a=1.2, b=1.0, four at 0.2 (total 3) -> N = 2.
        assert n_pa == 3.0
        assert n_fr == 2.0

    def test_engine_wraps_existing_credits(self):
        chain = make_tiny_chain([["a"], ["b"]])
        credits = attribute(chain, "per-address")
        engine = MeasurementEngine(credits)
        assert engine.credits is credits
