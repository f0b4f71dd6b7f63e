"""Tests of the benchmark harness's own arithmetic.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from harness import (  # noqa: E402
    OK, RAISED, STALLED, TAIL_SAMPLES, UNSAFE, Tally, adjacent_unit, classify, digest, normalize,
    normalize_spans, run_ops, tail,
)


class TestTail:
    def test_forty_samples_give_p75_with_ten_beyond(self):
        values = [float(v) for v in range(40)]
        value, percentile, count = tail(values)
        assert (value, percentile, count) == (29.0, 75.0, 40)
        assert sum(v > value for v in values) == 10

    def test_order_of_input_does_not_matter(self):
        values = [float(v) for v in range(100)]
        assert tail(values[::-1]) == tail(values) == (89.0, 90.0, 100)

    def test_eleven_samples_is_the_minimum(self):
        assert tail([float(v) for v in range(11)]) == (0.0, 100.0 / 11, 11)

    def test_too_few_samples_report_the_maximum(self):
        assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
        with pytest.raises(ValueError):
            tail([])


class TestNormalization:
    def test_nominal_unit_leaves_time_unchanged_and_slow_unit_scales_down(self):
        assert normalize(2.0, 0.004, 0.004) == 2.0
        assert normalize(3.0, 0.006, 0.004) == pytest.approx(2.0)

    def test_adjacent_unit_is_mean_of_the_samples_bracketing_the_span(self):
        samples = [(0.0, 1.0), (1.0, 2.0), (5.0, 4.0), (9.0, 8.0)]
        assert adjacent_unit(samples, 1.5, 4.0) == 3.0
        assert adjacent_unit(samples, 1.0, 5.0) == 3.0

    def test_one_sided_spans_use_the_side_present(self):
        samples = [(1.0, 2.0), (5.0, 4.0)]
        assert adjacent_unit(samples, 6.0, 7.0) == 4.0
        assert adjacent_unit(samples, 0.0, 0.5) == 2.0
        with pytest.raises(ValueError):
            adjacent_unit([], 0.0, 1.0)

    def test_spans_normalize_against_their_own_brackets(self):
        samples = [(0.0, 1.0), (2.0, 1.0), (4.0, 3.0), (6.0, 3.0)]
        # the unit takes three times as long in the second span's phase
        spans = [(0.5, 1.5), (4.5, 6.0)]
        assert normalize_spans(spans, samples, nominal_s=2.0) == pytest.approx([2.0, 1.0])


class StubState:
    def __init__(self):
        self.stalled_iterations = 0


def stub_loop(script):
    """Operations driven by a script of outcomes, as a loop step would report them."""
    state = StubState()
    calls = []

    def op(i):
        calls.append(i)
        outcome = script[i]
        if outcome == RAISED:
            raise RuntimeError("boom")
        before = state.stalled_iterations
        state.stalled_iterations += outcome == STALLED
        return state.stalled_iterations > before, outcome == UNSAFE

    return op, calls


class TestFailureCounting:
    def test_classify_ranks_raise_over_unsafe_over_stall(self):
        assert classify(True, True, True) == RAISED
        assert classify(False, True, True) == UNSAFE
        assert classify(False, True, False) == STALLED
        assert classify(False, False, False) == OK

    def test_stalls_and_unsafe_steps_fail_but_the_run_goes_on(self):
        op, calls = stub_loop([OK, STALLED, UNSAFE, OK, STALLED])
        between = []
        spans, tally, errors = run_ops(op, 5, lambda: between.append(1))
        assert (tally.attempted, tally.failed) == (5, 3)
        assert (tally.stalled, tally.unsafe, tally.raised) == (2, 1, 0)
        assert calls == [0, 1, 2, 3, 4] and len(spans) == 5 and len(between) == 5
        assert errors == []
        assert all(end >= start for start, end in spans)

    def test_a_raise_fails_that_step_and_every_later_one(self):
        op, calls = stub_loop([OK, OK, RAISED, OK, OK, OK])
        spans, tally, errors = run_ops(op, 6)
        assert calls == [0, 1, 2]
        assert (tally.attempted, tally.raised, tally.failed) == (6, 4, 4)
        assert len(spans) == 3 and len(errors) == 1 and "boom" in errors[0]

    def test_independent_operations_go_on_after_a_raise(self):
        op, calls = stub_loop([OK, RAISED, OK, RAISED, STALLED])
        spans, tally, errors = run_ops(op, 5, independent=True)
        assert calls == [0, 1, 2, 3, 4] and len(spans) == 5 and len(errors) == 2
        assert (tally.attempted, tally.raised, tally.stalled, tally.failed) == (5, 2, 1, 3)

    def test_every_step_stalling_reports_all_failed(self):
        op, _ = stub_loop([STALLED] * 10)
        _, tally, _ = run_ops(op, 10)
        assert (tally.attempted, tally.failed, tally.stalled) == (10, 10, 10)

    def test_tally_adds_counts_by_outcome(self):
        tally = Tally()
        tally.add(OK, 3)
        tally.add(STALLED)
        tally.add(UNSAFE, 2)
        assert (tally.attempted, tally.failed, tally.stalled, tally.unsafe) == (6, 3, 1, 2)


class TestDigest:
    def test_any_bit_of_any_value_changes_the_digest(self):
        rows = [(1, 2, 0.1, True), (2, 1, 0.30000000000000004, False)]
        assert digest(rows) == digest([tuple(r) for r in rows])
        assert digest(rows) != digest([(1, 2, 0.1, True), (2, 1, 0.3, False)])
        assert digest(rows) != digest(rows[::-1])


class TestSpec:
    def test_every_untraced_run_has_enough_steps_for_a_tail_percentile(self):
        path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "spec.json")
        with open(path, encoding="utf-8") as handle:
            spec = json.load(handle)
        for name, wl in spec["workloads"].items():
            per_rep = wl["iterations"] if wl["kind"] == "loop" else wl["bayesian_trials"]
            assert wl["repetitions"] * per_rep > TAIL_SAMPLES, name
