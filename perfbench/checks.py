"""Output checks: every command and scrape the benchmark runs is verified.

Each checker returns a list of problems; an empty list means the output
is correct.  Query and monitor references are computed here from the
chain's columns, not through the program's SQL engine or streaming code.
"""

from __future__ import annotations

import ast
import json
import re

import numpy as np

#: Rows ``repro query`` prints before summarising the rest (its default
#: ``--limit``).
CLI_ROW_LIMIT = 20

STUDY_LINES = ("More decentralized: bitcoin", "More stable:        ethereum")

_MORE_ROWS = re.compile(r"^\.\.\. \((\d+) more rows\)$")
_MONITORED = re.compile(r"^monitored (\d+) blocks: (\d+) evaluations")
_PROM_LINE = re.compile(r"^[A-Za-z_:][A-Za-z0-9_:]*(\{[^}]*\})? (\S+)$")


def expected_evaluations(blocks: int, window: int, stride: int) -> int:
    """The paper's window count L = floor((S - N) / M) + 1 (0 when S < N)."""
    if window <= 0 or stride <= 0:
        raise ValueError("window and stride must be positive")
    if blocks < window:
        return 0
    return (blocks - window) // stride + 1


def check_report(text: bytes, golden: bytes) -> list[str]:
    """``repro report`` must reproduce the committed report byte for byte."""
    if text == golden:
        return []
    limit = min(len(text), len(golden))
    first = next((i for i in range(limit) if text[i] != golden[i]), limit)
    return [
        f"report differs from STUDY_REPORT.md at byte {first} "
        f"({len(text)} vs {len(golden)} bytes)"
    ]


def check_study(stdout: str) -> list[str]:
    lines = stdout.splitlines()
    return [f"study output lacks {want!r}" for want in STUDY_LINES if want not in lines]


def check_same_text(stdout: str, reference: str, what: str) -> list[str]:
    if stdout == reference:
        return []
    got, want = stdout.splitlines(), reference.splitlines()
    for i, (a, b) in enumerate(zip(got, want)):
        if a != b:
            return [f"{what} line {i + 1} differs: {a!r} != {b!r}"]
    return [f"{what} has {len(got)} lines, reference {len(want)}"]


def parse_query_output(stdout: str) -> tuple[list[dict], int]:
    """Rows printed by ``repro query`` and the total row count it reports."""
    rows: list[dict] = []
    more = 0
    for line in stdout.splitlines():
        if line.startswith("{"):
            rows.append(ast.literal_eval(line))
        else:
            match = _MORE_ROWS.match(line)
            if match:
                more = int(match.group(1))
    return rows, len(rows) + more


def check_query(stdout: str, expected: list[dict], name: str) -> list[str]:
    """The printed rows equal the reference's first rows, and the reported
    row count equals the reference's length."""
    try:
        rows, total = parse_query_output(stdout)
    except (SyntaxError, ValueError) as exc:
        return [f"query {name}: unparsable row ({exc})"]
    problems = []
    if total != len(expected):
        problems.append(f"query {name}: {total} rows, reference {len(expected)}")
    want = expected[:CLI_ROW_LIMIT]
    if len(rows) != len(want):
        problems.append(f"query {name}: printed {len(rows)} rows, expected {len(want)}")
    for i, (got, ref) in enumerate(zip(rows, want)):
        if not _row_equal(got, ref):
            problems.append(f"query {name}: row {i} {got!r} != {ref!r}")
            break
    return problems


def check_rows(rows: list[dict], expected: list[dict], name: str) -> list[str]:
    """Every row of an in-process query result equals the reference."""
    if len(rows) != len(expected):
        return [f"query {name}: {len(rows)} rows, reference {len(expected)}"]
    for i, (got, ref) in enumerate(zip(rows, expected)):
        if not _row_equal(got, ref):
            return [f"query {name}: row {i} {got!r} != {ref!r}"]
    return []


def _row_equal(got: dict, ref: dict) -> bool:
    if list(got) != list(ref):
        return False
    for key, value in ref.items():
        other = got[key]
        if isinstance(value, str) or isinstance(other, str):
            if other != value:
                return False
        elif float(other) != float(value):
            return False
    return True


def check_monitor(
    stdout: str, blocks: int, window: int, stride: int, latest: dict[str, float]
) -> list[str]:
    """The monitor ingested every block, evaluated L windows, and its
    ``latest:`` line equals the reference last window at 4 decimals."""
    problems = []
    summary = [m for m in map(_MONITORED.match, stdout.splitlines()) if m]
    if not summary:
        return ["monitor printed no 'monitored N blocks' line"]
    got_blocks, got_evals = int(summary[-1].group(1)), int(summary[-1].group(2))
    if got_blocks != blocks:
        problems.append(f"monitor ingested {got_blocks} blocks, expected {blocks}")
    want_evals = expected_evaluations(blocks, window, stride)
    if got_evals != want_evals:
        problems.append(f"monitor made {got_evals} evaluations, L = {want_evals}")
    want_line = "latest: " + ", ".join(
        f"{name}={value:.4f}" for name, value in sorted(latest.items())
    )
    if want_line not in stdout.splitlines():
        problems.append(f"monitor latest line differs from {want_line!r}")
    return problems


def check_scrape(kind: str, status: int, body: bytes) -> list[str]:
    """A scrape answered 200 with a body that parses as its format."""
    if status != 200:
        return [f"{kind}: HTTP {status}"]
    try:
        text = body.decode("utf-8")
        if kind == "metrics":
            samples = 0
            for line in text.splitlines():
                if not line or line.startswith("#"):
                    continue
                match = _PROM_LINE.match(line)
                if match is None:
                    return [f"metrics: bad exposition line {line!r}"]
                float(match.group(2))
                samples += 1
            return [] if samples else ["metrics: no samples"]
        if kind == "healthz":
            return [] if text.strip() else ["healthz: empty body"]
        payload = json.loads(text)
    except (UnicodeDecodeError, ValueError) as exc:
        return [f"{kind}: body does not parse ({exc})"]
    if kind == "status":
        ok = isinstance(payload, dict) and "blocks_ingested" in payload
    else:
        ok = isinstance(payload, dict) and isinstance(payload.get("points"), list)
    return [] if ok else [f"{kind}: unexpected JSON shape"]


# -- query references ------------------------------------------------------------


def producer_names(chain) -> np.ndarray:
    return np.asarray(chain.producer_names, dtype=object)


def ref_groupby(chain) -> list[dict]:
    """``COUNT(*)`` per credited producer, most credits first, then name."""
    ids, counts = np.unique(chain.producer_ids, return_counts=True)
    names = producer_names(chain)[ids]
    order = sorted(range(len(ids)), key=lambda i: (-int(counts[i]), names[i]))
    return [{"producer": names[i], "n": int(counts[i])} for i in order]


def ref_point(chain, height: int) -> list[dict]:
    (hits,) = np.nonzero(chain.heights == height)
    names = producer_names(chain)
    counts = np.diff(chain.offsets)
    return [
        {
            "height": int(chain.heights[i]),
            "timestamp": int(chain.timestamps[i]),
            "primary_producer": names[chain.producer_ids[chain.offsets[i]]],
            "n_producers": int(counts[i]),
        }
        for i in hits
    ]


def ref_join(chain, lo: int, hi: int) -> list[dict]:
    """Every credit of the blocks with ``lo <= height <= hi``, by height
    then producer."""
    names = producer_names(chain)
    rows = []
    for i in np.nonzero((chain.heights >= lo) & (chain.heights <= hi))[0]:
        for pid in chain.producer_ids[chain.offsets[i]:chain.offsets[i + 1]]:
            rows.append(
                {
                    "height": int(chain.heights[i]),
                    "timestamp": int(chain.timestamps[i]),
                    "producer": names[pid],
                }
            )
    rows.sort(key=lambda row: (row["height"], row["producer"]))
    return rows


def ref_daily(chain, ts_lo: int, ts_hi: int) -> list[dict]:
    """Distinct primary producers per UTC day for ``ts_lo <= ts <= ts_hi``."""
    mask = (chain.timestamps >= ts_lo) & (chain.timestamps <= ts_hi)
    days = chain.timestamps[mask] // 86400
    primary = chain.producer_ids[chain.offsets[:-1]][mask]
    rows = []
    for day in np.unique(days):
        rows.append(
            {"day": int(day), "producers": int(np.unique(primary[days == day]).size)}
        )
    return rows
