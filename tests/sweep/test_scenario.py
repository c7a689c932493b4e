"""Scenario parsing: formats, validation errors, and normalization."""

from __future__ import annotations

import json
import sys

import pytest

from repro.pipeline.config import PipelineConfig
from repro.pipeline.machine import MachineSpec, overridable_fields
from repro.sweep.scenario import (
    DEFAULT_INSTRUCTIONS,
    ScenarioError,
    builtin_scenario_names,
    load_scenario,
    load_scenario_file,
    parse_scenario,
)
from repro.sweep.spec import SweepSpec

HAVE_TOMLLIB = sys.version_info >= (3, 11)


def minimal_document(**header):
    base = {"name": "t", "benchmarks": ["gzip"]}
    base.update(header)
    return {"scenario": base, "axes": {"pipeline": {"rob_entries": [64, 128]}}}


class TestParsing:
    def test_minimal_document_parses(self):
        scenario = parse_scenario(minimal_document())
        assert scenario.name == "t"
        assert scenario.flavour == "if-converted"
        assert scenario.instructions == DEFAULT_INSTRUCTIONS
        assert scenario.schemes == ("conventional", "pep-pa", "predicate")
        assert [axis.name for axis in scenario.axes] == ["rob_entries"]

    def test_json_file_round_trip(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(minimal_document()))
        scenario = load_scenario_file(str(path))
        assert scenario.name == "t"

    @pytest.mark.skipif(not HAVE_TOMLLIB, reason="tomllib needs Python 3.11+")
    def test_toml_file_round_trip(self, tmp_path):
        path = tmp_path / "scenario.toml"
        path.write_text(
            '[scenario]\nname = "t"\nbenchmarks = ["gzip"]\n'
            "[axes.pipeline]\nrob_entries = [64, 128]\n"
        )
        scenario = load_scenario_file(str(path))
        assert scenario.name == "t"
        assert scenario.axes[0].display == ("64", "128")

    def test_composite_axis_positions(self):
        document = minimal_document()
        document["axes"]["pipeline"] = {
            "penalty": [
                {"branch_mispredict_penalty": 5, "predicate_mispredict_penalty": 5},
                {"branch_mispredict_penalty": 20, "predicate_mispredict_penalty": 20},
            ]
        }
        scenario = parse_scenario(document)
        assert scenario.axes[0].display == ("5", "20")
        points = SweepSpec(scenario).points()
        assert points[1].machine.overrides() == {
            "branch_mispredict_penalty": 20,
            "predicate_mispredict_penalty": 20,
        }


class TestMalformedInput:
    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError, match="invalid JSON"):
            load_scenario_file(str(path))

    @pytest.mark.skipif(not HAVE_TOMLLIB, reason="tomllib needs Python 3.11+")
    def test_malformed_toml(self, tmp_path):
        path = tmp_path / "broken.toml"
        path.write_text("[scenario\nname=")
        with pytest.raises(ScenarioError, match="invalid TOML"):
            load_scenario_file(str(path))

    def test_unsupported_extension(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text("name: t")
        with pytest.raises(ScenarioError, match="unsupported scenario extension"):
            load_scenario_file(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read scenario file"):
            load_scenario_file(str(tmp_path / "nope.json"))

    def test_unknown_scenario_name(self):
        with pytest.raises(ScenarioError, match="unknown scenario"):
            load_scenario("definitely-not-a-scenario")


class TestValidation:
    def test_unknown_top_level_section(self):
        document = minimal_document()
        document["extras"] = {}
        with pytest.raises(ScenarioError, match="unknown top-level section"):
            parse_scenario(document)

    def test_unknown_scenario_key(self):
        with pytest.raises(ScenarioError, match="unknown \\[scenario\\] key"):
            parse_scenario(minimal_document(benchmark="gzip"))

    def test_a_sampling_key_is_an_unknown_key(self):
        # Interval-sampled simulation is gone; its key must not be ignored.
        message = r"unknown \[scenario\] key\(s\) \['sampling'\]"
        with pytest.raises(ScenarioError, match=message):
            parse_scenario(minimal_document(sampling="4:4096:512"))

    def test_missing_name(self):
        document = minimal_document()
        del document["scenario"]["name"]
        with pytest.raises(ScenarioError, match="non-empty string 'name'"):
            parse_scenario(document)

    def test_unknown_config_field_in_axis(self):
        document = minimal_document()
        document["axes"]["pipeline"] = {"rob_size": [64, 128]}
        with pytest.raises(ScenarioError, match="unknown machine parameter 'rob_size'"):
            parse_scenario(document)

    def test_unknown_config_field_in_base(self):
        document = minimal_document()
        document["base"] = {"pipeline": {"robs": 12}}
        with pytest.raises(ScenarioError, match="unknown machine parameter 'robs'"):
            parse_scenario(document)

    def test_a_decode_latency_axis_is_an_unknown_machine_parameter(self):
        # The decode-latency knob moved no simulated number and is gone.
        document = minimal_document()
        document["axes"]["pipeline"] = {"decode_latency": [1, 2]}
        with pytest.raises(
            ScenarioError, match="unknown machine parameter 'decode_latency'"
        ):
            parse_scenario(document)

    def test_non_list_axis(self):
        document = minimal_document()
        document["axes"]["pipeline"] = {"rob_entries": 64}
        with pytest.raises(ScenarioError, match="non-empty list"):
            parse_scenario(document)

    def test_duplicate_axis_values(self):
        document = minimal_document()
        document["axes"]["pipeline"] = {"rob_entries": [64, 64]}
        with pytest.raises(ScenarioError, match="duplicate values"):
            parse_scenario(document)

    def test_invalid_config_value_rejected(self):
        document = minimal_document()
        document["axes"]["pipeline"] = {"rob_entries": [0]}
        with pytest.raises(ScenarioError, match="reorder buffer"):
            parse_scenario(document)

    def test_unknown_scheme_kind(self):
        with pytest.raises(ScenarioError, match="unknown scheme kind"):
            parse_scenario(minimal_document(schemes=["perceptron"]))

    def test_unknown_flavour(self):
        with pytest.raises(ScenarioError, match="unknown flavour"):
            parse_scenario(minimal_document(flavour="optimized"))

    def test_unknown_benchmark(self):
        # The registry's message lists the available workloads and (for
        # near-misses) suggests close matches.
        with pytest.raises(ScenarioError, match="unknown workload"):
            parse_scenario(minimal_document(benchmarks=["spec2017"]))

    def test_misspelled_benchmark_gets_a_suggestion(self):
        with pytest.raises(ScenarioError, match="did you mean: gzip"):
            parse_scenario(minimal_document(benchmarks=["gzpi"]))

    def test_non_string_benchmark_entry_rejected(self):
        # Including unhashable entries, which would otherwise slip past as a
        # raw TypeError from the duplicate set() check.
        with pytest.raises(ScenarioError, match="must be strings"):
            parse_scenario(minimal_document(benchmarks=[["gzip"]]))
        with pytest.raises(ScenarioError, match="must be strings"):
            parse_scenario(minimal_document(benchmarks=[7]))

    def test_spec_file_benchmark_accepted(self, tmp_path):
        import json

        spec = tmp_path / "mini.json"
        spec.write_text(
            json.dumps(
                {
                    "workload": {"name": "mini", "category": "int", "seed": 1},
                    "easy_branches": [{"bias": 0.9}],
                }
            )
        )
        scenario = parse_scenario(minimal_document(benchmarks=[str(spec)]))
        assert scenario.benchmarks == (str(spec),)

    def test_invalid_spec_file_benchmark_rejected(self, tmp_path):
        spec = tmp_path / "broken.json"
        spec.write_text('{"workload": {"name": "broken"}}')
        with pytest.raises(ScenarioError, match="category"):
            parse_scenario(minimal_document(benchmarks=[str(spec)]))

    def test_bad_instruction_budget(self):
        with pytest.raises(ScenarioError, match="positive integer"):
            parse_scenario(minimal_document(instructions=-5))

    def test_scheme_axis_non_integer_value(self):
        # "16" would collapse onto 16's display label and then crash inside
        # a worker's scheme build — rejected at load time instead.
        document = minimal_document(schemes=["predicate"])
        document["axes"] = {"scheme": {"entries": [16, "16"]}}
        with pytest.raises(ScenarioError, match="values must be integers"):
            parse_scenario(document)

    def test_scheme_axis_non_positive_value(self):
        document = minimal_document(schemes=["predicate"])
        document["axes"] = {"scheme": {"entries": [0]}}
        with pytest.raises(ScenarioError, match="not a positive integer"):
            parse_scenario(document)

    def test_scheme_axis_bool_for_geometry_option(self):
        # True would silently become a 1-entry table; geometry options take
        # integers only.
        document = minimal_document(schemes=["predicate"])
        document["axes"] = {"scheme": {"entries": [True, 3634]}}
        with pytest.raises(ScenarioError, match="values must be integers"):
            parse_scenario(document)

    def test_scheme_axis_int_for_flag_option(self):
        document = minimal_document(schemes=["predicate"])
        document["axes"] = {"scheme": {"split_pvt": [0, 1]}}
        with pytest.raises(ScenarioError, match="feature flag"):
            parse_scenario(document)

    def test_flag_scheme_axis_parses(self):
        document = minimal_document(schemes=["predicate"])
        document["axes"] = {"scheme": {"split_pvt": [False, True]}}
        assert parse_scenario(document).axes[0].display == ("False", "True")

    def test_duplicate_schemes_rejected(self):
        with pytest.raises(ScenarioError, match="duplicate scheme"):
            parse_scenario(minimal_document(schemes=["predicate", "predicate"]))

    def test_duplicate_benchmarks_rejected(self):
        with pytest.raises(ScenarioError, match="duplicate benchmark"):
            parse_scenario(minimal_document(benchmarks=["gzip", "gzip"]))

    def test_scheme_axis_option_unknown_to_every_factory(self):
        document = minimal_document(schemes=["pep-pa"])
        document["axes"] = {"scheme": {"entries": [256, 512]}}
        with pytest.raises(
            ScenarioError, match="not an option of any scenario scheme"
        ):
            parse_scenario(document)

    def test_scheme_axis_option_known_to_some_factories_parses(self):
        # pep-pa takes no `entries`; predicate does.  The axis parses and
        # pep-pa simply ignores it (its cells collapse per point).
        document = minimal_document(schemes=["pep-pa", "predicate"])
        document["axes"] = {"scheme": {"entries": [256, 512]}}
        scenario = parse_scenario(document)
        assert scenario.axes[0].display == ("256", "512")

    def test_choice_scheme_axis_parses(self):
        document = minimal_document(schemes=["conventional", "wish"])
        document["axes"] = {"scheme": {"second_level": ["perceptron", "tage"]}}
        scenario = parse_scenario(document)
        assert scenario.axes[0].display == ("perceptron", "tage")

    def test_choice_scheme_axis_unknown_value_rejected(self):
        document = minimal_document(schemes=["conventional"])
        document["axes"] = {"scheme": {"second_level": ["perceptron", "ltage"]}}
        with pytest.raises(ScenarioError, match="values must be among"):
            parse_scenario(document)

    def test_choice_scheme_axis_non_string_value_rejected(self):
        document = minimal_document(schemes=["conventional"])
        document["axes"] = {"scheme": {"second_level": ["perceptron", 2]}}
        with pytest.raises(ScenarioError, match="values must be among"):
            parse_scenario(document)

    def test_base_shadowed_by_axis(self):
        document = minimal_document()
        document["base"] = {"pipeline": {"rob_entries": 128}}
        with pytest.raises(ScenarioError, match="both \\[base.pipeline\\] and an axis"):
            parse_scenario(document)

    def test_ragged_composite_positions_rejected(self):
        # {branch penalty} vs {predicate penalty} would both display as
        # "20", collide in the result-collection labels, and silently drop
        # one machine's results — rejected up front.
        document = minimal_document()
        document["axes"]["pipeline"] = {
            "penalty": [
                {"branch_mispredict_penalty": 20},
                {"predicate_mispredict_penalty": 20},
            ]
        }
        with pytest.raises(ScenarioError, match="must set the same field"):
            parse_scenario(document)

    def test_scenario_name_is_filename_safe(self):
        for bad in ("my/sweep", "../x", "a b"):
            with pytest.raises(ScenarioError, match="may only contain"):
                parse_scenario(minimal_document(name=bad))

    def test_two_axes_sweeping_one_field(self):
        # A composite axis whose positions also set a field swept by another
        # axis would be silently shadowed by merge order — rejected instead.
        document = minimal_document()
        document["axes"]["pipeline"]["window"] = [
            {"rob_entries": 32, "int_queue_entries": 16},
            {"rob_entries": 48, "int_queue_entries": 24},
        ]
        with pytest.raises(ScenarioError, match="swept by both axis"):
            parse_scenario(document)

    def test_pipeline_and_scheme_axes_may_not_share_a_name(self):
        # Report grouping keys on (axis name, display): a shared name would
        # pool both axes' cells into each other's tables.
        document = minimal_document(schemes=["predicate"])
        document["axes"]["pipeline"] = {
            "entries": [{"rob_entries": 64}, {"rob_entries": 128}]
        }
        document["axes"]["scheme"] = {"entries": [64, 128]}
        with pytest.raises(ScenarioError, match="more than one axis"):
            parse_scenario(document)

    def test_axes_required(self):
        document = minimal_document()
        document["axes"] = {}
        with pytest.raises(ScenarioError, match="at least one"):
            parse_scenario(document)


class TestBuiltins:
    def test_builtin_names(self):
        assert builtin_scenario_names() == [
            "custom-workload",
            "fetch-width",
            "mispredict-penalty",
            "predictor-budget",
            "rob-scaling",
            "scheme-shootout",
        ]

    @pytest.mark.skipif(not HAVE_TOMLLIB, reason="tomllib needs Python 3.11+")
    @pytest.mark.parametrize(
        "name",
        [
            "custom-workload",
            "fetch-width",
            "mispredict-penalty",
            "predictor-budget",
            "rob-scaling",
            "scheme-shootout",
        ],
    )
    def test_builtins_parse_and_expand(self, name):
        scenario = load_scenario(name)
        assert scenario.name == name
        spec = SweepSpec(scenario)
        assert len(spec.points()) >= 2
        assert spec.cell_count() == (
            len(spec.benchmarks()) * len(spec.points()) * len(scenario.schemes)
        )


class TestMachineSpec:
    def test_unknown_field(self):
        with pytest.raises(ValueError, match="unknown machine parameter"):
            MachineSpec.make(robs=64)

    def test_decode_latency_is_not_a_machine_parameter(self):
        assert "decode_latency" not in overridable_fields()
        with pytest.raises(ValueError, match="unknown machine parameter"):
            MachineSpec.make(decode_latency=2)

    def test_non_integer_value(self):
        with pytest.raises(ValueError, match="must be an integer"):
            MachineSpec.make(rob_entries="large")

    def test_default_valued_override_is_dropped(self):
        default = PipelineConfig()
        assert MachineSpec.make(rob_entries=default.rob_entries) == MachineSpec()
        assert MachineSpec.make(rob_entries=default.rob_entries).is_default()

    def test_build_config_applies_overrides(self):
        config = MachineSpec.make(rob_entries=64, fetch_width=2).build_config()
        assert (config.rob_entries, config.fetch_width) == (64, 2)

    def test_describe(self):
        assert MachineSpec().describe() == "table1"
        assert MachineSpec.make(rob_entries=64).describe() == "rob_entries=64"

    def test_overridable_fields_are_config_fields(self):
        defaults = overridable_fields()
        config = PipelineConfig()
        for name, default in defaults.items():
            assert getattr(config, name) == default
