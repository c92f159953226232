"""Tests of the benchmark's own helpers.

Run from the repository root: ``PYTHONPATH=src python3 -m pytest steadybench``.
"""

import asyncio

import pytest

from common import (
    new_tracer,
    parse_proc_stat,
    percentile,
    quartile_spread,
    runnable_steal_share,
    self_times,
    span_opener,
    span_table,
    steal_share,
)
from repro.obs import get_tracer


class TestPercentile:
    def test_median_and_tail_with_counts(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == (50.5, 100, 50)
        value, n, beyond = percentile(values, 99)
        assert value == pytest.approx(99.01)
        assert (n, beyond) == (100, 1)

    def test_order_does_not_matter(self):
        assert percentile([3.0, 1.0, 2.0], 50) == percentile([1.0, 2.0, 3.0], 50)

    def test_single_sample(self):
        assert percentile([7.0], 99) == (7.0, 1, 0)

    def test_ties_are_not_beyond(self):
        assert percentile([1.0, 5.0, 5.0, 5.0], 50) == (5.0, 4, 0)

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_quartile_spread_matches_statistics_quantiles(self):
        stats = quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0])
        assert (stats["q1"], stats["median"], stats["q3"]) == (1.5, 3.0, 4.5)
        assert stats["spread"] == pytest.approx(1.0)


def _event(id, parent, start, end):
    args = {"span_id": id}
    if parent is not None:
        args["parent_span_id"] = parent
    return {"name": f"s{id}", "ph": "X", "ts": start, "dur": end - start,
            "args": args}


class TestSelfTime:
    def test_overlapping_and_overhanging_children(self):
        events = [_event(1, None, 0, 100), _event(2, 1, 10, 30),
                  _event(3, 1, 20, 50), _event(4, 1, 90, 120)]
        # Children cover [10, 50] and [90, 100] of the parent: 50 of 100.
        assert self_times(events) == {1: 50, 2: 20, 3: 30, 4: 30}

    def test_grandchildren_count_only_against_their_parent(self):
        events = [_event(1, None, 0, 100), _event(2, 1, 0, 60),
                  _event(3, 2, 10, 20)]
        assert self_times(events) == {1: 40, 2: 50, 3: 10}

    def test_events_without_span_ids_are_ignored(self):
        events = [_event(1, None, 0, 10),
                  {"name": "i", "ph": "i", "ts": 5, "args": {}}]
        assert self_times(events) == {1: 10}

    def test_spans_link_parents_per_coroutine(self):
        tracer = new_tracer()
        span = span_opener(tracer)

        async def client(name):
            with span(name):
                await asyncio.sleep(0)
                with span(name + ".child"):
                    await asyncio.sleep(0)

        async def main():
            await asyncio.gather(client("a"), client("b"))

        asyncio.run(main())
        args = {e["name"]: e["args"] for e in tracer.events()}
        assert args["a.child"]["parent_span_id"] == args["a"]["span_id"]
        assert args["b.child"]["parent_span_id"] == args["b"]["span_id"]
        assert "parent_span_id" not in args["a"]
        assert args["a"]["trace_id"] != args["b"]["trace_id"]
        table = span_table(tracer.events())
        assert table["a"]["count"] == 1 and table["a.child"]["count"] == 1

    def test_program_tracer_stays_off(self):
        with span_opener(new_tracer())("outer"):
            pass
        assert not get_tracer().enabled

    def test_no_tracer_means_no_spans(self):
        with span_opener(None)("anything", x=1):
            pass


PROC_STAT = """\
cpu  100 5 50 800 10 1 2 32 7 0
cpu0 50 2 25 400 5 1 1 16 7 0
intr 12345
"""


class TestProcStat:
    def test_parses_aggregate_line_without_guest_fields(self):
        times = parse_proc_stat(PROC_STAT)
        assert times == {"user": 100, "nice": 5, "system": 50, "idle": 800,
                         "iowait": 10, "irq": 1, "softirq": 2, "steal": 32}

    def test_steal_share_of_the_delta(self):
        before = parse_proc_stat(PROC_STAT)
        after = dict(before, user=before["user"] + 40,
                     idle=before["idle"] + 40, steal=before["steal"] + 20)
        assert steal_share(before, after) == pytest.approx(0.2)

    def test_runnable_steal_share_ignores_idle_time(self):
        before = parse_proc_stat(PROC_STAT)
        after = dict(before, user=before["user"] + 40,
                     idle=before["idle"] + 40, steal=before["steal"] + 10)
        assert steal_share(before, after) == pytest.approx(10 / 90)
        assert runnable_steal_share(before, after) == pytest.approx(0.2)
        assert runnable_steal_share(before, before) == 0.0

    def test_old_kernel_without_steal_and_idle_host(self):
        times = parse_proc_stat("cpu 1 2 3 4\n")
        assert times["steal"] == 0
        assert steal_share(times, times) == 0.0

    def test_rejects_text_without_cpu_line(self):
        with pytest.raises(ValueError):
            parse_proc_stat("intr 1\n")
