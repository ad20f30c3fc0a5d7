"""Tests for the discrete-event kernel (repro.sim.core)."""

import bisect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import Environment


class TestScheduling:
    def test_initial_time_is_zero(self):
        env = Environment()
        assert env.now == 0.0

    def test_initial_time_custom(self):
        env = Environment(initial_time=42.0)
        assert env.now == 42.0

    def test_schedule_runs_callback_at_delay(self):
        env = Environment()
        fired = []
        env.schedule(5.0, lambda: fired.append(env.now))
        env.run()
        assert fired == [5.0]

    def test_schedule_with_args(self):
        env = Environment()
        got = []
        env.schedule(1.0, lambda a, b: got.append((a, b)), 1, 2)
        env.run()
        assert got == [(1, 2)]

    def test_schedule_at_absolute_time(self):
        env = Environment()
        fired = []
        env.schedule_at(7.5, lambda: fired.append(env.now))
        env.run()
        assert fired == [7.5]

    def test_schedule_negative_delay_raises(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.schedule(-1.0, lambda: None)

    def test_schedule_at_past_raises(self):
        env = Environment(initial_time=10.0)
        with pytest.raises(SimulationError):
            env.schedule_at(5.0, lambda: None)

    def test_fifo_order_for_simultaneous_events(self):
        env = Environment()
        order = []
        env.schedule(1.0, lambda: order.append("first"))
        env.schedule(1.0, lambda: order.append("second"))
        env.run()
        assert order == ["first", "second"]

    def test_time_ordering(self):
        env = Environment()
        order = []
        env.schedule(3.0, lambda: order.append(3))
        env.schedule(1.0, lambda: order.append(1))
        env.schedule(2.0, lambda: order.append(2))
        env.run()
        assert order == [1, 2, 3]

    def test_run_until_advances_clock_past_empty_queue(self):
        env = Environment()
        env.run(until=100.0)
        assert env.now == 100.0

    def test_run_until_does_not_run_later_events(self):
        env = Environment()
        fired = []
        env.schedule(5.0, lambda: fired.append("early"))
        env.schedule(50.0, lambda: fired.append("late"))
        env.run(until=10.0)
        assert fired == ["early"]
        assert env.now == 10.0

    def test_run_until_past_raises(self):
        env = Environment(initial_time=5.0)
        with pytest.raises(SimulationError):
            env.run(until=1.0)

    def test_peek_and_empty(self):
        env = Environment()
        assert env.empty()
        assert env.peek() == float("inf")
        env.schedule(2.0, lambda: None)
        assert env.peek() == 2.0
        assert not env.empty()

    def test_nested_scheduling(self):
        env = Environment()
        fired = []

        def outer():
            fired.append(("outer", env.now))
            env.schedule(3.0, lambda: fired.append(("inner", env.now)))

        env.schedule(1.0, outer)
        env.run()
        assert fired == [("outer", 1.0), ("inner", 4.0)]


class TestNonFiniteDelays:
    """NaN/inf delays would corrupt heap order (every NaN comparison is
    False); the kernel must reject them eagerly."""

    @pytest.mark.parametrize("delay", [
        float("nan"), float("inf"), -float("inf"),
    ])
    def test_schedule_rejects_non_finite(self, delay):
        env = Environment()
        with pytest.raises(SimulationError):
            env.schedule(delay, lambda: None)

    @pytest.mark.parametrize("when", [
        float("nan"), float("inf"), -float("inf"),
    ])
    def test_schedule_at_rejects_non_finite(self, when):
        env = Environment()
        with pytest.raises(SimulationError):
            env.schedule_at(when, lambda: None)

    def test_schedule_batch_rejects_non_finite(self):
        env = Environment()
        nop = lambda: None  # noqa: E731
        for bad in (float("nan"), float("inf")):
            with pytest.raises(SimulationError):
                env.schedule_batch([(1.0, nop, ()), (bad, nop, ())])

    def test_huge_but_finite_delay_is_fine(self):
        env = Environment()
        env.schedule(1e300, lambda: None)
        env.run()
        assert env.now == 1e300


class TestScheduleBatch:
    """schedule_batch must dispatch exactly like per-entry schedule_at."""

    def test_batch_matches_sequential_order(self):
        entries = [
            (3.0, "a"), (1.0, "b"), (2.0, "c"), (1.0, "d"), (3.0, "e"),
        ]
        runs = []
        for use_batch in (False, True):
            env = Environment()
            order = []

            def cb(tag, env=env, order=order):
                order.append((env.now, tag))

            if use_batch:
                n = env.schedule_batch(
                    [(when, cb, (tag,)) for when, tag in entries]
                )
                assert n == len(entries)
            else:
                for when, tag in entries:
                    env.schedule_at(when, cb, tag)
            env.run()
            runs.append(order)
        # Identical times AND identical FIFO tie-breaks (b before d,
        # a before e).
        assert runs[0] == runs[1]
        assert runs[0] == [
            (1.0, "b"), (1.0, "d"), (2.0, "c"), (3.0, "a"), (3.0, "e"),
        ]

    def test_batch_merges_with_dynamic_events(self):
        """Events scheduled *during* the run interleave with the batch by
        (time, seq) exactly as one big heap would order them."""
        env = Environment()
        order = []

        def batch_cb(tag):
            order.append((env.now, tag))
            if tag == "b1":
                # Dynamic events both before and after the next batch entry.
                env.schedule(0.5, batch_cb, "dyn-1.5")
                env.schedule(2.5, batch_cb, "dyn-3.5")

        env.schedule_batch([
            (1.0, batch_cb, ("b1",)),
            (2.0, batch_cb, ("b2",)),
            (4.0, batch_cb, ("b3",)),
        ])
        env.run()
        assert order == [
            (1.0, "b1"), (1.5, "dyn-1.5"), (2.0, "b2"),
            (3.5, "dyn-3.5"), (4.0, "b3"),
        ]

    def test_batch_into_nonempty_queue(self):
        env = Environment()
        order = []

        def cb(tag):
            order.append((env.now, tag))

        env.schedule(1.5, cb, "heap")
        env.schedule_batch([(1.0, cb, ("batch-1",)),
                            (2.0, cb, ("batch-2",))])
        env.run()
        assert order == [(1.0, "batch-1"), (1.5, "heap"), (2.0, "batch-2")]

    def test_batch_respects_run_until(self):
        env = Environment()
        order = []

        def cb(tag):
            order.append(tag)

        env.schedule_batch([(1.0, cb, ("a",)), (5.0, cb, ("b",))])
        env.run(until=2.0)
        assert order == ["a"]
        assert env.now == 2.0
        assert not env.empty()
        assert env.peek() == 5.0
        env.run()
        assert order == ["a", "b"]
        assert env.empty()

    def test_peek_and_empty_see_the_batch(self):
        env = Environment()
        fired = []
        env.schedule_batch([(2.0, fired.append, (2.0,))])
        env.schedule(3.0, fired.append, 3.0)
        assert not env.empty()
        assert env.peek() == 2.0
        env.run(until=2.0)
        assert fired == [2.0]
        assert env.peek() == 3.0
        env.run(until=3.0)
        assert fired == [2.0, 3.0]
        assert env.empty()

    def test_second_batch_after_drain(self):
        env = Environment()
        order = []
        env.schedule_batch([(1.0, order.append, ("first",))])
        env.run()
        env.schedule_batch([(2.0, order.append, ("second",))])
        env.run()
        assert order == ["first", "second"]
        assert env.now == 2.0

    def test_batch_scheduled_from_inside_a_callback(self):
        """A callback bulk-scheduling mid-run must not lose events."""
        env = Environment()
        order = []

        def first():
            order.append("first")
            env.schedule_batch([
                (2.0, order.append, ("late",)),
                (1.5, order.append, ("early",)),
            ])

        env.schedule(1.0, first)
        env.run()
        assert order == ["first", "early", "late"]


# -- one drain loop: a single run() equals successive run(until=t) windows --

# Delays drawn partly from a small set so simultaneous events (FIFO
# tie-breaks) and events exactly at a window boundary are common.
_TIMES = st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(0.0, 10.0)
# How a callback schedules its children: one schedule() each, one
# schedule_at() each, all of them in one schedule_batch(), or one lane
# append each (at the program's fixed lane delay; the drawn delays then
# only set the child count).
_SPAWN = st.tuples(
    st.sampled_from(["schedule", "schedule_at", "batch", "lane"]),
    st.lists(_TIMES, min_size=1, max_size=3),
)
# The lane's one fixed delay per program, as Baldur's switch latency is.
_LANE_DELAY = st.sampled_from([0.0, 0.5, 1.5]) | st.floats(0.0, 5.0)


def _lane_push(env, when, fn, *args):
    """Append to the kernel lane as ``BaldurNetwork._arrive_stage`` does:
    unvalidated, consuming the next ``seq``."""
    seq = env._seq
    env._seq = seq + 1
    env._lane.append((when, seq, fn, args))  # repro-lint: disable=FAST-001


def _drive(roots, program, windows, lane_delay, lane_as_schedule=False):
    """Run one random callback program.

    Returns the dispatch log, the log length after each window, and the
    final ``now``.  Callback ids are handed out in scheduling order.
    Callback ``c`` logs ``(now, c)`` and, while ``c < len(program)``,
    schedules the children ``program[c]`` describes.  ``windows`` are
    the ``run(until=t)`` calls made before the final unbounded ``run()``.
    ``"lane"`` children are appended to the kernel lane at
    ``now + lane_delay`` exactly as ``BaldurNetwork._arrive_stage`` does,
    or, with ``lane_as_schedule``, go through ``schedule(lane_delay)``:
    the simple reference the lane must match.
    """
    env = Environment()
    log = []
    next_id = [0]

    def spawn(spec):
        kind, delays = spec
        first = next_id[0]
        next_id[0] += len(delays)
        entries = [
            (env.now + delay, fire, (first + j,))
            for j, delay in enumerate(delays)
        ]
        if kind == "schedule":
            for j, delay in enumerate(delays):
                env.schedule(delay, fire, first + j)
        elif kind == "schedule_at":
            for when, fn, args in entries:
                env.schedule_at(when, fn, *args)
        elif kind == "batch":
            env.schedule_batch(entries)
        elif lane_as_schedule:
            for j in range(len(delays)):
                env.schedule(lane_delay, fire, first + j)
        else:
            for j in range(len(delays)):
                _lane_push(env, env.now + lane_delay, fire, first + j)

    def fire(cid):
        log.append((env.now, cid))
        if cid < len(program):
            spawn(program[cid])

    for spec in roots:
        spawn(spec)
    done = []
    for until in windows:
        env.run(until=until)
        done.append(len(log))
    env.run()
    return log, done, env.now


class TestOneDrainLoop:
    @given(
        roots=st.lists(_SPAWN, min_size=1, max_size=4),
        program=st.lists(_SPAWN, max_size=25),
        windows=st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.0, 8.0])
                         | st.floats(0.0, 30.0), max_size=6),
        lane_delay=_LANE_DELAY,
    )
    @settings(max_examples=200, deadline=None)
    def test_windows_match_one_run(self, roots, program, windows,
                                   lane_delay):
        windows = sorted(windows)
        once, _, now_once = _drive(roots, program, [], lane_delay)
        windowed, done, now_windowed = _drive(
            roots, program, windows, lane_delay
        )
        assert windowed == once
        times = [when for when, _ in once]
        assert times == sorted(times)
        # Window run(until=t) dispatches exactly the events at times <= t.
        assert done == [bisect.bisect_right(times, t) for t in windows]
        assert now_once == times[-1]
        # A window past the last event leaves the clock at its end.
        assert now_windowed == max([now_once, *windows])


class TestLane:
    """The lane is an ordered insert for non-decreasing keys: dispatch
    must equal the plain heap's, and every query must see it."""

    @given(
        roots=st.lists(_SPAWN, min_size=1, max_size=4),
        program=st.lists(_SPAWN, max_size=25),
        windows=st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.0, 8.0])
                         | st.floats(0.0, 30.0), max_size=6),
        lane_delay=_LANE_DELAY,
    )
    @settings(max_examples=200, deadline=None)
    def test_lane_matches_schedule(self, roots, program, windows,
                                   lane_delay):
        windows = sorted(windows)
        lane = _drive(roots, program, windows, lane_delay)
        heap = _drive(roots, program, windows, lane_delay,
                      lane_as_schedule=True)
        assert lane == heap

    def test_peek_and_empty_see_a_lane_only_event(self):
        env = Environment()
        fired = []
        _lane_push(env, 2.5, fired.append, 2.5)
        assert not env.empty()
        assert env.peek() == 2.5
        env.schedule(4.0, fired.append, 4.0)
        assert env.peek() == 2.5
        env.run(until=3.0)
        assert fired == [2.5]
        assert env.peek() == 4.0
        env.run()
        assert fired == [2.5, 4.0]
        assert env.empty()
        assert env.peek() == float("inf")

    def test_batch_into_lane_only_kernel_keeps_merge_order(self):
        env = Environment()
        order = []

        def cb(tag):
            order.append((env.now, tag))

        _lane_push(env, 1.5, cb, "lane")
        env.schedule_batch([(1.0, cb, ("batch-1",)),
                            (1.5, cb, ("batch-1.5",)),
                            (2.0, cb, ("batch-2",))])
        env.run()
        # The lane entry took the lower seq, so it wins the 1.5 tie.
        assert order == [(1.0, "batch-1"), (1.5, "lane"),
                         (1.5, "batch-1.5"), (2.0, "batch-2")]

    def test_profile_depth_counts_the_lane(self):
        env = Environment()
        profile = env.enable_profiling()
        nop = lambda: None  # noqa: E731
        for when in (1.0, 2.0, 3.0):
            _lane_push(env, when, nop)
        env.schedule_batch([(0.5, nop, ()), (2.5, nop, ())])
        env.schedule(0.25, nop)
        env.run()
        assert profile.events_dispatched == 6
        assert profile.max_heap_depth == 6
