"""Golden-output contract: the paper's user-visible outputs, byte for byte.

The simulation is seeded, so these outputs are fixed.  A refactor that
changes any of them changes what users see, and must say so by
regenerating the golden file in the same change::

    PYTHONPATH=src python -m repro.cli report --out STUDY_REPORT.md
    PYTHONPATH=src python -m repro.cli figure --id all > tests/golden/figure_all.txt
    PYTHONPATH=src python -m repro.cli monitor --chain btc > tests/golden/monitor_btc.txt
    PYTHONPATH=src python -m repro.cli chaos --seed 7 > tests/golden/chaos_seed7.txt

Every command runs in-process through :func:`repro.cli.main`; files it
writes go to ``tmp_path``.
"""

import logging
import tempfile
from pathlib import Path

import pytest

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]
GOLDEN = REPO_ROOT / "tests" / "golden"


@pytest.fixture(autouse=True)
def restore_repro_logger():
    """``main`` reconfigures the ``repro`` logger (its own handler, no
    propagation); put it back so later tests' ``caplog`` still sees it."""
    logger = logging.getLogger("repro")
    saved = logger.handlers[:], logger.level, logger.propagate
    yield
    for handler in logger.handlers[:]:
        if handler not in saved[0]:
            logger.removeHandler(handler)
            handler.close()
    logger.level, logger.propagate = saved[1], saved[2]


def cli_stdout(argv, capsys) -> bytes:
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    return out.encode("utf-8")


def test_report_reproduces_study_report(tmp_path, capsys):
    report = tmp_path / "STUDY_REPORT.md"
    cli_stdout(["report", "--out", str(report)], capsys)
    assert report.read_bytes() == (REPO_ROOT / "STUDY_REPORT.md").read_bytes()


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["figure", "--id", "all"], "figure_all.txt"),
        (["monitor", "--chain", "btc"], "monitor_btc.txt"),
        (["chaos", "--seed", "7"], "chaos_seed7.txt"),
    ],
    ids=["figure-all", "monitor-btc", "chaos-seed-7"],
)
def test_stdout_matches_golden(argv, golden, tmp_path, capsys, monkeypatch):
    # The chaos drill's chain cache lives in a temporary directory.
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    assert cli_stdout(argv, capsys) == (GOLDEN / golden).read_bytes()
