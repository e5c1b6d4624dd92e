"""Tests of the benchmark's own arithmetic.

    python3 -m pytest -q perfbench/test_benchstats.py
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import benchstats
from benchstats import SpanRecorder


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestSpanSelfTime:
    def test_nested_spans_subtract_direct_children_only(self):
        clock = FakeClock()
        spans = SpanRecorder(clock)
        spans.enter("outer")
        clock.advance(1.0)
        spans.enter("middle")
        clock.advance(2.0)
        spans.enter("inner")
        clock.advance(4.0)
        assert spans.exit() == 4.0
        clock.advance(0.5)
        assert spans.exit() == 6.5
        clock.advance(0.25)
        assert spans.exit() == 7.75
        assert spans.self_s == {"inner": 4.0, "middle": 2.5, "outer": 1.25}
        assert spans.calls == {"inner": 1, "middle": 1, "outer": 1}

    def test_repeated_siblings_accumulate(self):
        clock = FakeClock()
        spans = SpanRecorder(clock)
        spans.enter("loop")
        for step in (1.0, 3.0):
            spans.enter("step")
            clock.advance(step)
            spans.exit()
        clock.advance(0.5)
        spans.exit()
        assert spans.self_s == {"step": 4.0, "loop": 0.5}
        assert spans.calls == {"step": 2, "loop": 1}

    def test_self_times_add_up_to_the_outermost_span(self):
        clock = FakeClock()
        spans = SpanRecorder(clock)
        spans.enter("a")
        for name, dt in (("b", 0.3), ("c", 0.7), ("b", 0.1)):
            spans.enter(name)
            clock.advance(dt)
            spans.enter("leaf")
            clock.advance(dt / 2)
            spans.exit()
            spans.exit()
        total = spans.exit()
        assert sum(spans.self_s.values()) == pytest.approx(total)


class TestPercentiles:
    @pytest.mark.parametrize(
        "n, expected",
        [(1000, 99.0), (999, 90.0), (100, 90.0), (99, 75.0), (40, 75.0), (39, 50.0), (20, 50.0), (19, None)],
    )
    def test_tail_needs_ten_samples_beyond(self, n, expected):
        assert benchstats.tail_percentile(n) == expected

    def test_percentile_interpolates_like_numpy(self):
        values = [4.0, 1.0, 3.0, 2.0]
        assert benchstats.percentile(values, 50) == 2.5
        assert benchstats.percentile(values, 90) == pytest.approx(3.7)
        assert benchstats.percentile(values, 0) == 1.0
        assert benchstats.percentile(values, 100) == 4.0
        assert benchstats.percentile([7.0], 90) == 7.0


class TestTargetCrossing:
    REPORTS = [
        {"iteration": 10, "max_sq_err": 0.5, "wall_clock": 0.2},
        {"iteration": 20, "max_sq_err": 0.015, "wall_clock": 0.4},
        {"iteration": 30, "max_sq_err": 0.02, "wall_clock": 0.6},
        {"iteration": 40, "max_sq_err": 0.001, "wall_clock": 0.8},
    ]

    def test_first_report_at_or_below_target(self):
        assert benchstats.first_crossing(self.REPORTS, 0.015) == (20, 0.4)
        assert benchstats.first_crossing(self.REPORTS, 0.01) == (40, 0.8)

    def test_later_rise_does_not_move_the_crossing(self):
        assert benchstats.first_crossing(self.REPORTS, 0.05) == (20, 0.4)

    def test_never_reached(self):
        assert benchstats.first_crossing(self.REPORTS, 1e-4) is None


class TestCsvChecks:
    HEADER = "iteration,loss,mean_rel_err,rel_err_t0,max_sq_err,lr"
    TRAIN = HEADER + "\n10,0.5,0.1,0.2,0.3,0.01\n20,0.25,0.05,0.1,0.015,0.01\n"

    def test_eval_row_equal_to_last_row(self):
        assert benchstats.eval_row_matches(self.TRAIN, self.HEADER + "\n20,0.25,0.05,0.1,0.015,0.01\n")

    def test_eval_row_compared_byte_for_byte(self):
        # the same number written differently is a mismatch
        assert not benchstats.eval_row_matches(self.TRAIN, self.HEADER + "\n20,0.250,0.05,0.1,0.015,0.01\n")
        assert not benchstats.eval_row_matches(self.TRAIN, self.HEADER + "\n10,0.5,0.1,0.2,0.3,0.01\n")

    def test_eval_file_must_hold_one_row_under_the_same_header(self):
        row = "20,0.25,0.05,0.1,0.015,0.01"
        assert not benchstats.eval_row_matches(self.TRAIN, self.HEADER + f"\n{row}\n{row}\n")
        assert not benchstats.eval_row_matches(self.TRAIN, self.HEADER + "\n")
        assert not benchstats.eval_row_matches(self.TRAIN, "iteration,loss\n" + row + "\n")

    def test_finite_check(self):
        assert benchstats.all_finite(self.TRAIN)
        assert not benchstats.all_finite(self.HEADER + "\n10,nan,0.1,0.2,0.3,0.01\n")
        assert not benchstats.all_finite(self.HEADER + "\n10,0.5,inf,0.2,0.3,0.01\n")
        assert not benchstats.all_finite(self.HEADER + "\n10,0.5,,0.2,0.3,0.01\n")
        assert not benchstats.all_finite(self.HEADER + "\n")


class TestSelect:
    DECLARED = [
        {"name": "autodiff.affine.self_s", "unit": "s"},
        {"name": "autodiff.affine.calls", "unit": "count"},
        {"name": "autodiff.tape_nodes", "unit": "count"},
    ]

    def test_declared_order_and_units(self):
        import run

        values = {"autodiff.tape_nodes": 65.0, "autodiff.affine.calls": 4, "autodiff.affine.self_s": 0.5}
        chosen, not_run = run.select(self.DECLARED, values)
        assert list(chosen) == [m["name"] for m in self.DECLARED]
        assert chosen["autodiff.affine.self_s"] == {"value": 0.5, "unit": "s"}
        assert not_run == []

    def test_span_that_never_ran_reads_zero_and_is_listed(self):
        import run

        chosen, not_run = run.select(self.DECLARED, {"autodiff.tape_nodes": 65.0})
        assert chosen["autodiff.affine.self_s"]["value"] == 0
        assert not_run == ["autodiff.affine.self_s", "autodiff.affine.calls"]

    def test_unmeasured_figure_is_an_error(self):
        import run

        with pytest.raises(run.BenchError):
            run.select(self.DECLARED, {"autodiff.affine.self_s": 0.5, "autodiff.affine.calls": 4})
