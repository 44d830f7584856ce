"""repro — measuring decentralization in Bitcoin and Ethereum.

A full reproduction of *"Measuring Decentralization in Bitcoin and
Ethereum using Multiple Metrics and Granularities"* (ICDE 2021): the three
decentralization metrics (Gini, Shannon entropy, Nakamoto coefficient),
fixed calendar and sliding block windows, a calibrated PoW mining
simulator standing in for the paper's BigQuery datasets, and the analysis
layer that regenerates every figure of the paper.

Quickstart
----------
>>> from repro import DecentralizationStudy
>>> study = DecentralizationStudy()                      # doctest: +SKIP
>>> fig9 = study.figure(9)                               # doctest: +SKIP
>>> fig9.series["N=144"].mean()                          # doctest: +SKIP
3.88
"""

from repro.analysis import DecentralizationStudy, FigureResult, StudyFindings
from repro.chain import (
    BITCOIN,
    Block,
    Chain,
    ChainSpec,
    Credits,
    ETHEREUM,
    PoolRegistry,
    attribute,
)
from repro.core import (
    MeasurementEngine,
    MeasurementSeries,
    SeriesSummary,
    summarize,
)
from repro.errors import ReproError
from repro.metrics import (
    gini_coefficient,
    nakamoto_coefficient,
    shannon_entropy,
)
from repro.simulation import simulate_bitcoin_2019, simulate_ethereum_2019
from repro.windows import FixedCalendarWindows, SlidingBlockWindows

__version__ = "1.7.0"

__all__ = [
    "BITCOIN",
    "Block",
    "Chain",
    "ChainSpec",
    "Credits",
    "DecentralizationStudy",
    "ETHEREUM",
    "FigureResult",
    "FixedCalendarWindows",
    "MeasurementEngine",
    "MeasurementSeries",
    "PoolRegistry",
    "ReproError",
    "SeriesSummary",
    "SlidingBlockWindows",
    "StudyFindings",
    "attribute",
    "gini_coefficient",
    "nakamoto_coefficient",
    "shannon_entropy",
    "simulate_bitcoin_2019",
    "simulate_ethereum_2019",
    "summarize",
    "__version__",
]
