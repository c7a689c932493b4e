"""The ``repro.api`` facade is complete, documented, and stays that way.

The facade's ``_EXPORTS`` table is the single source of truth for the
public surface.  These tests enforce its contract: every name resolves,
every callable/type carries a docstring, every name is documented in
``docs/api.md``, and the docs don't advertise names the facade no longer
exports — so surface and reference cannot drift apart.
"""

from __future__ import annotations

import importlib
import inspect
import os
import re

import pytest

import repro.api as api
import repro.pipeline.batched as batched

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
API_DOC = os.path.join(REPO_ROOT, "docs", "api.md")


def _api_doc_text():
    with open(API_DOC, "r", encoding="utf-8") as handle:
        return handle.read()


class TestFacade:
    def test_all_is_sorted_and_matches_exports(self):
        assert list(api.__all__) == sorted(api._EXPORTS)

    @pytest.mark.parametrize("name", sorted(api.__all__))
    def test_every_name_resolves(self, name):
        assert getattr(api, name) is not None

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no attribute"):
            api.no_such_export

    def test_dir_covers_the_surface(self):
        assert set(api.__all__) <= set(dir(api))

    @pytest.mark.parametrize("name", sorted(api.__all__))
    def test_every_callable_has_a_docstring(self, name):
        obj = getattr(api, name)
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            return  # constants (BASELINE, FLAVOURS, ...) carry no docstring
        assert inspect.getdoc(obj), f"repro.api.{name} has no docstring"

    def test_module_docstring_mentions_the_reference(self):
        assert "docs/api.md" in api.__doc__


class TestRemovedSurface:
    """Interval-sampled simulation is gone: an old import fails loudly
    instead of reaching a second run mode."""

    @pytest.mark.parametrize(
        "name", ["SamplingSpec", "DEFAULT_WINDOW_ROWS", "DEFAULT_WARMUP_ROWS"]
    )
    def test_a_sampling_name_is_not_exported(self, name):
        assert name not in api.__all__
        with pytest.raises(AttributeError, match="no attribute"):
            getattr(api, name)
        assert not hasattr(batched, name)

    def test_the_windowed_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.pipeline.windowed")

    def test_simulate_windowed_is_the_lane_driver_entry(self):
        assert api.simulate_windowed is batched.simulate_windowed


class TestApiDoc:
    def test_doc_exists(self):
        assert os.path.exists(API_DOC)

    @pytest.mark.parametrize("name", sorted(api.__all__))
    def test_every_export_is_documented(self, name):
        assert f"`{name}`" in _api_doc_text(), (
            f"repro.api.{name} is missing from docs/api.md"
        )

    def test_doc_names_no_phantom_exports(self):
        # Every `repro.api.X`-style reference in the doc must still exist,
        # so renames cannot leave stale documentation behind.
        phantoms = [
            name
            for name in re.findall(r"repro\.api\.(\w+)", _api_doc_text())
            if name not in api.__all__
        ]
        assert not phantoms, f"docs/api.md references unknown export(s): {phantoms}"
