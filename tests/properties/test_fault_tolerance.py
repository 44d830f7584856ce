"""Property: fault-injected ingestion never changes measured series.

For ANY fault schedule (random seed, random rates over every fault
class), ingesting through the injector with retries and refetch repair
must yield Gini/entropy/Nakamoto series byte-identical to the clean run,
under all four attribution policies.  This is the resilience layer's
acceptance invariant (the ``repro chaos`` command asserts the same thing
on the calibrated chains).
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.chain.pools import PoolInfo, PoolRegistry
from repro.core.engine import MeasurementEngine
from repro.resilience import FaultInjector, FaultPlan, chains_equal, fetch_chain
from repro.resilience.retry import ManualClock, RetryPolicy
from tests.conftest import make_tiny_chain

#: Sleeps resolve instantly on ManualClock, so a deep retry budget is
#: free — it keeps the worst-case schedules Hypothesis finds (many
#: consecutive injected failures on one read) inside the invariant.
DEEP_RETRY = RetryPolicy(max_attempts=30, base_delay=0.0001, max_delay=0.001, jitter=0.0)

REGISTRY = PoolRegistry(
    [PoolInfo("PoolA", "p0", 0.5, 0.5), PoolInfo("PoolB", "p1", 0.3, 0.3)]
)

POLICIES = (
    ("per-address", None),
    ("first-address", None),
    ("fractional", None),
    ("pool", REGISTRY),
)

METRICS = ("gini", "entropy", "nakamoto")


def _source_chain():
    rng = np.random.default_rng(42)
    producers = []
    for i in range(150):
        k = int(rng.integers(1, 4))
        producers.append([f"p{int(j)}" for j in rng.choice(7, size=k, replace=False)])
    return make_tiny_chain(producers)


SOURCE = _source_chain()
CLEAN = fetch_chain(SOURCE, page_size=16)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=100_000),
    rate=st.floats(min_value=0.02, max_value=0.25),
)
# Two timestamp-regressed rows left adjacent by a truncated page.
@example(seed=374, rate=0.1875)
def test_any_fault_schedule_recovers_byte_identical_series(seed, rate):
    injector = FaultInjector(FaultPlan.default(rate=rate), seed=seed)
    faulted = fetch_chain(
        SOURCE,
        page_size=16,
        injector=injector,
        retry_policy=DEEP_RETRY,
        clock=ManualClock(),
        seed=seed,
    )
    assert chains_equal(faulted.chain, CLEAN.chain)
    for policy, registry in POLICIES:
        clean_engine = MeasurementEngine.from_chain(CLEAN.chain, policy, registry)
        faulted_engine = MeasurementEngine.from_chain(
            faulted.chain, policy, registry, quality=faulted.report.as_dict()
        )
        for metric in METRICS:
            a = clean_engine.measure_sliding(metric, SOURCE.spec.window_day)
            b = faulted_engine.measure_sliding(metric, SOURCE.spec.window_day)
            assert a.values.tobytes() == b.values.tobytes(), (
                f"{policy}/{metric} diverged under fault seed {seed}"
            )
            assert a.labels == b.labels
            # Provenance rides along without affecting equality of values.
            assert b.quality is not None and a.quality is None


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_fault_injection_is_reproducible(seed):
    def run():
        injector = FaultInjector(FaultPlan.default(), seed=seed)
        result = fetch_chain(
            SOURCE,
            page_size=16,
            injector=injector,
            retry_policy=DEEP_RETRY,
            clock=ManualClock(),
            seed=seed,
        )
        return dict(injector.fired), result.report.as_dict()

    assert run() == run()
