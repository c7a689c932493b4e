"""The workload registry: resolution, fingerprints, suggestions."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.workloads.registry import (
    BUILTIN,
    LIBRARY,
    SPEC_FILE,
    TRACE,
    UnknownWorkloadError,
    _traits_fingerprint,
    build_workload,
    is_workload_path,
    library_paths,
    registry_names,
    resolve_workload,
    workload_fingerprint,
)
from repro.workloads.spec_suite import SPEC_SUITE, workload_names
from repro.workloads.workload_spec import WorkloadSpecError


def spec_text(name="custom", seed=5, bias=0.9):
    return json.dumps(
        {
            "workload": {"name": name, "category": "int", "seed": seed},
            "easy_branches": [{"bias": bias}],
        }
    )


class TestResolution:
    def test_every_builtin_resolves(self):
        for name in workload_names():
            definition = resolve_workload(name)
            assert definition.origin == BUILTIN
            assert definition.traits is SPEC_SUITE[name]
            assert definition.display_name == name

    def test_builtin_build_matches_spec_suite(self):
        from repro.workloads.spec_suite import build_workload as build_builtin

        assert str(build_workload("gzip")) == str(build_builtin("gzip"))

    def test_library_names_resolve(self):
        names = registry_names()
        assert names[: len(workload_names())] == workload_names()
        for path in library_paths():
            stem = path.rsplit("/", 1)[-1].rsplit(".", 1)[0]
            assert stem in names
            definition = resolve_workload(stem)
            assert definition.origin == LIBRARY
            assert definition.display_name == stem

    def test_spec_path_resolves(self, tmp_path):
        path = tmp_path / "custom.json"
        path.write_text(spec_text())
        definition = resolve_workload(str(path))
        assert definition.origin == SPEC_FILE
        assert definition.name == str(path)  # the registry identity is the path
        assert definition.display_name == "custom"
        assert definition.build().name == "custom"

    def test_trace_path_resolves(self, tmp_path):
        path = tmp_path / "captured.trace"
        path.write_text("0x40 T\n0x40 N\n0x48 T\n" * 30)
        definition = resolve_workload(str(path))
        assert definition.origin == TRACE
        assert definition.display_name == "captured"
        assert definition.build().name == "captured"

    def test_path_detection(self, tmp_path):
        assert is_workload_path("a/b.toml")
        assert is_workload_path("b.json")
        assert is_workload_path("b.trace")
        assert not is_workload_path("gzip")

    def test_unsupported_extension(self, tmp_path):
        path = tmp_path / "w.yaml"
        path.write_text("x")
        with pytest.raises(WorkloadSpecError, match="unsupported"):
            resolve_workload(str(path))


class TestUnknownNames:
    def test_unknown_name_lists_registry(self):
        with pytest.raises(UnknownWorkloadError) as excinfo:
            resolve_workload("doom3")
        message = str(excinfo.value)
        for name in registry_names():
            assert name in message

    def test_close_match_suggested(self):
        with pytest.raises(UnknownWorkloadError, match="did you mean: gzip"):
            resolve_workload("gzpi")
        with pytest.raises(UnknownWorkloadError, match="did you mean: twolf"):
            resolve_workload("twolff")

    def test_error_message_is_not_keyerror_quoted(self):
        # KeyError.__str__ would wrap the message in quotes and escape it.
        error = UnknownWorkloadError("plain message")
        assert str(error) == "plain message"


class TestFingerprints:
    def test_builtin_fingerprints_distinct_and_stable(self):
        prints = {name: workload_fingerprint(name) for name in workload_names()}
        assert len(set(prints.values())) == len(prints)
        assert workload_fingerprint("gzip") == prints["gzip"]

    def test_memoised_traits_fingerprint_follows_every_field(self):
        traits = SPEC_SUITE["gzip"]
        fingerprint = _traits_fingerprint(traits)
        # An equal value built afresh is served the same key.
        assert _traits_fingerprint(dataclasses.replace(traits)) == fingerprint
        # Changing one field, top-level or nested, changes the key.
        assert _traits_fingerprint(dataclasses.replace(traits, seed=traits.seed + 1)) != fingerprint
        region = dataclasses.replace(traits.hard_regions[0], bias=0.5)
        edited = dataclasses.replace(traits, hard_regions=(region,) + traits.hard_regions[1:])
        assert edited != traits
        assert _traits_fingerprint(edited) != fingerprint
        assert _traits_fingerprint(traits) == fingerprint

    def test_spec_fingerprint_round_trip(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(spec_text(seed=5))
        first = workload_fingerprint(str(path))
        assert workload_fingerprint(str(path)) == first  # stable per content

    def test_editing_a_spec_changes_its_fingerprint_only(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(spec_text(seed=5))
        before = workload_fingerprint(str(path))
        builtin_before = workload_fingerprint("gzip")
        path.write_text(spec_text(seed=6))
        assert workload_fingerprint(str(path)) != before
        assert workload_fingerprint("gzip") == builtin_before

    def test_identical_content_different_paths_same_fingerprint(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(spec_text())
        b.write_text(spec_text())
        assert workload_fingerprint(str(a)) == workload_fingerprint(str(b))

    def test_spec_and_trace_fingerprints_are_kind_tagged(self, tmp_path):
        # The same bytes as a spec and as a trace must never collide.
        from repro.workloads.registry import _text_fingerprint

        assert _text_fingerprint("spec", "x") != _text_fingerprint("trace", "x")


class TestFactoryIntegration:
    def test_build_fingerprint_folds_the_workload_fingerprint(self, tmp_path):
        from repro.compiler.binaries import BinaryFactory

        factory = BinaryFactory()
        path = tmp_path / "w.json"
        path.write_text(spec_text(seed=5))
        before = factory.fingerprint(str(path), "if-converted")
        assert before["workload"] == workload_fingerprint(str(path))
        path.write_text(spec_text(seed=9))
        after = factory.fingerprint(str(path), "if-converted")
        assert after["workload"] != before["workload"]
        # Built-in fingerprints are untouched by the edit.
        assert factory.fingerprint("gzip", "if-converted") == factory.fingerprint(
            "gzip", "if-converted"
        )
