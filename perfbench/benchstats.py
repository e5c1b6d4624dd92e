"""Arithmetic of the benchmark, kept free of numpy and of the program.

Everything here is a pure function of its inputs (the span recorder takes
its clock as an argument), so the tests in ``test_benchstats.py`` can check
it with hand-made numbers.
"""

from __future__ import annotations

import math
import statistics
import time

# Standard percentiles tried, highest first, when choosing the tail to
# report; a percentile counts only if enough samples lie beyond it.
TAIL_CANDIDATES = (99.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, pct: float) -> float:
    """Linear-interpolation percentile, the same rule as numpy's default."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n_samples: int, candidates=TAIL_CANDIDATES, min_beyond: int = MIN_BEYOND):
    """Highest candidate percentile with at least ``min_beyond`` samples above it.

    Returns None when even the lowest candidate has too few samples beyond it.
    """
    for pct in candidates:
        if n_samples * (100.0 - pct) / 100.0 >= min_beyond:
            return pct
    return None


class SpanRecorder:
    """Aggregates nested spans into self time and call count per name.

    A span's self time is its duration minus the durations of the spans
    opened directly inside it.  Only the running totals are kept, so the
    recorder's memory stays constant however many spans a run opens.
    """

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._open: list[list] = []  # [name, start, time covered by children]
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}

    def enter(self, name: str) -> None:
        self._open.append([name, self._clock(), 0.0])

    def exit(self) -> float:
        """Close the innermost span and return its duration."""
        name, start, children = self._open.pop()
        duration = self._clock() - start
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - children
        self.calls[name] = self.calls.get(name, 0) + 1
        if self._open:
            self._open[-1][2] += duration
        return duration


# ----------------------------------------------------------------------
# metrics.csv handling

def csv_rows(text: str) -> list[str]:
    """Data rows of a CSV text: every non-empty line after the header."""
    lines = [line for line in text.split("\n") if line]
    return lines[1:]


def all_finite(text: str) -> bool:
    """True when the CSV has data rows and every cell of them is a finite number."""
    rows = csv_rows(text)
    if not rows:
        return False
    for row in rows:
        for cell in row.split(","):
            try:
                if not math.isfinite(float(cell)):
                    return False
            except ValueError:
                return False
    return True


def eval_row_matches(train_csv: str, eval_csv: str) -> bool:
    """Whether the eval file's single row equals the training file's last row, byte for byte."""
    train_rows, eval_rows = csv_rows(train_csv), csv_rows(eval_csv)
    return (
        len(eval_rows) == 1
        and bool(train_rows)
        and train_csv.split("\n", 1)[0] == eval_csv.split("\n", 1)[0]
        and eval_rows[0] == train_rows[-1]
    )


def first_crossing(reports, target: float):
    """(iteration, wall_clock) of the first report whose max_sq_err <= target, else None.

    ``reports`` holds dicts with the keys ``iteration``, ``max_sq_err`` and
    ``wall_clock``, in training order.
    """
    for rep in reports:
        if rep["max_sq_err"] <= target:
            return rep["iteration"], rep["wall_clock"]
    return None
