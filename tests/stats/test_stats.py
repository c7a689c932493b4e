"""Tests for counters, accuracy accounting, reporting and result tables."""

import pytest

from repro.stats.accuracy import BranchAccuracy
from repro.stats.counters import CounterSet
from repro.stats.reporting import format_percent, format_table
from repro.stats.tables import ResultTable


class TestCounterSet:
    def test_bump_and_get(self):
        counters = CounterSet()
        counters.bump("a")
        counters.bump("a", 4)
        assert counters.get("a") == 5
        assert counters["a"] == 5
        assert counters.get("missing") == 0

    def test_set_and_contains(self):
        counters = CounterSet()
        counters.set("x", 9)
        assert "x" in counters
        assert "y" not in counters

    def test_ratio(self):
        counters = CounterSet()
        counters.set("hits", 3)
        counters.set("total", 4)
        assert counters.ratio("hits", "total") == 0.75
        assert counters.ratio("hits", "missing") == 0.0

    def test_merge(self):
        a, b = CounterSet(), CounterSet()
        a.bump("x", 2)
        b.bump("x", 3)
        b.bump("y", 1)
        a.merge(b)
        assert a.get("x") == 5 and a.get("y") == 1

    def test_as_dict_and_items_sorted(self):
        counters = CounterSet()
        counters.bump("b")
        counters.bump("a")
        assert list(dict(counters.items())) == ["a", "b"]
        assert counters.as_dict() == {"a": 1, "b": 1}


class TestBranchAccuracy:
    def _record(self, actual, predicted, early=False, fetch=None):
        return (0x4000, actual, predicted, fetch, early)

    def test_rates(self):
        accuracy = BranchAccuracy()
        accuracy.add(*self._record(True, True))
        accuracy.add(*self._record(True, False))
        assert accuracy.branches == 2
        assert accuracy.mispredictions == 1
        assert accuracy.misprediction_rate == 0.5
        assert accuracy.accuracy == 0.5

    def test_early_resolved_accounting(self):
        accuracy = BranchAccuracy()
        accuracy.add(*self._record(True, True, early=True))
        accuracy.add(*self._record(False, False))
        assert accuracy.early_resolved_count == 1
        assert accuracy.early_resolved_fraction == 0.5

    def test_override_accounting(self):
        accuracy = BranchAccuracy()
        accuracy.add(*self._record(True, True, fetch=False))
        accuracy.add(*self._record(True, True, fetch=True))
        assert accuracy.override_count == 1

    def test_vectors(self):
        accuracy = BranchAccuracy()
        accuracy.add(*self._record(True, False, early=True))
        accuracy.add(*self._record(True, True))
        assert accuracy.mispredicted_vector() == [True, False]
        assert accuracy.early_resolved_vector() == [True, False]

    def test_empty(self):
        accuracy = BranchAccuracy()
        assert accuracy.misprediction_rate == 0.0
        assert accuracy.early_resolved_fraction == 0.0


class TestReporting:
    def test_format_percent(self):
        assert format_percent(0.1234) == "12.34%"
        assert format_percent(0.1234, decimals=1) == "12.3%"

    def test_format_table_alignment_and_title(self):
        text = format_table(
            ["name", "value"], [["alpha", 1.5], ["b", 22.25]], title="My Table"
        )
        lines = text.splitlines()
        assert lines[0] == "My Table"
        assert "alpha" in text and "22.250" in text

    def test_format_table_no_title(self):
        text = format_table(["a"], [["x"]])
        assert not text.startswith("\n")


class TestResultTable:
    def _table(self):
        table = ResultTable(title="T", columns=["a", "b"])
        table.add_row("bench1", {"a": 0.10, "b": 0.08})
        table.add_row("bench2", {"a": 0.05, "b": 0.06})
        return table

    def test_means_and_delta(self):
        table = self._table()
        assert table.mean("a") == pytest.approx(0.075)
        assert table.delta("b", "a") == pytest.approx(0.005)

    def test_wins(self):
        table = self._table()
        assert table.wins("b", "a") == 1
        assert table.wins("a", "b") == 1

    def test_missing_column_rejected(self):
        table = ResultTable(title="T", columns=["a", "b"])
        with pytest.raises(ValueError):
            table.add_row("bench", {"a": 0.1})

    def test_render_contains_average_row(self):
        rendered = self._table().render()
        assert "average" in rendered
        assert "bench1" in rendered

    def test_render_absolute_mode(self):
        rendered = self._table().render(percent=False, decimals=3)
        assert "0.100" in rendered

    def test_value_lookup(self):
        table = self._table()
        assert table.value("bench1", "b") == pytest.approx(0.08)
        assert table.benchmarks() == ["bench1", "bench2"]
