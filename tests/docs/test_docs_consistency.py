"""The documentation layer is under test: commands documented, links live.

``docs/experiments.md`` claims to document *every* CLI command; this test
derives the ground truth from the argument parser itself, so adding a
subcommand without documenting it fails the suite.  The link check reuses
``scripts/check_docs.py`` (the same code the CI docs job runs).
"""

from __future__ import annotations

import argparse
import glob
import importlib.util
import os
import re

import pytest

from repro.cli import build_parser

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
DOCS = os.path.join(REPO_ROOT, "docs")


def _load_check_docs():
    path = os.path.join(REPO_ROOT, "scripts", "check_docs.py")
    spec = importlib.util.spec_from_file_location("check_docs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cli_subcommands():
    """Every subcommand name registered on the ``repro`` parser."""
    parser = build_parser()
    for action in parser._actions:  # noqa: SLF001 - argparse has no public API for this
        if hasattr(action, "choices") and action.choices:
            return sorted(action.choices)
    raise AssertionError("CLI parser has no subparsers")


class TestExperimentsDoc:
    def test_docs_exist(self):
        for relative in (
            "architecture.md",
            "experiments.md",
            "workloads.md",
            "schemes.md",
            os.path.join("internals", "caching.md"),
        ):
            assert os.path.exists(os.path.join(DOCS, relative)), relative

    def test_every_cli_subcommand_is_documented(self):
        with open(os.path.join(DOCS, "experiments.md"), "r", encoding="utf-8") as handle:
            text = handle.read()
        missing = [
            command for command in cli_subcommands() if f"`{command}" not in text
        ]
        assert not missing, (
            f"CLI subcommand(s) {missing} are not documented in docs/experiments.md"
        )

    def test_sweep_scenarios_documented(self):
        from repro.sweep.scenario import builtin_scenario_names

        with open(os.path.join(DOCS, "experiments.md"), "r", encoding="utf-8") as handle:
            text = handle.read()
        for name in builtin_scenario_names():
            assert f"`{name}`" in text, f"built-in scenario {name} undocumented"


#: A fenced code block's body, or an inline code span (which may wrap).
_CODE = re.compile(r"```[^\n]*\n(.*?)```|`([^`\n]+(?:\n[^`\n]+)*)`", re.S)
#: ``repro`` as a command word (also ``python -m repro``), not ``repro.cli``
#: or a path component.
_COMMAND = re.compile(r"(?<![\w./-])repro(?=[ \t])")
#: Where a documented command line ends: a comment, a pipe, a chain or a
#: redirection.
_COMMAND_END = re.compile(r"\s#|\||;|&&|>")


def _documented_command_lines():
    """(file, text after ``repro``) for every command line in the docs."""
    paths = sorted(glob.glob(os.path.join(DOCS, "**", "*.md"), recursive=True))
    paths.append(os.path.join(REPO_ROOT, "README.md"))
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        for match in _CODE.finditer(text):
            if match.group(1) is not None:
                lines = match.group(1).replace("\\\n", " ").splitlines()
            else:
                lines = [match.group(2).replace("\n", " ")]
            for line in lines:
                for command in _COMMAND.finditer(line):
                    rest = line[command.end() :]
                    yield os.path.relpath(path, REPO_ROOT), _COMMAND_END.split(rest)[0]


def _unknown_flags(rest, root, subcommands):
    """The ``--flag`` tokens of one command line its parser does not accept.

    Flags before the subcommand belong to the top-level parser, flags after
    it to the subcommand's own parser."""
    parser, name, unknown = root, "repro", []
    for token in rest.split():
        if parser is root and token in subcommands:
            parser, name = subcommands[token], f"repro {token}"
        elif token.startswith("--") and len(token) > 2:
            flag = re.split(r"[=\[]", token.rstrip(".,:)'\""), maxsplit=1)[0]
            if flag not in parser._option_string_actions:  # noqa: SLF001
                unknown.append(f"{name} {flag}")
    return unknown


def _subcommands(root):
    """Subcommand name → its parser."""
    return next(
        action.choices
        for action in root._actions  # noqa: SLF001
        if isinstance(action, argparse._SubParsersAction)  # noqa: SLF001
    )


class TestDocumentedFlags:
    def test_every_documented_flag_is_an_option_of_its_command(self):
        root = build_parser()
        subcommands = _subcommands(root)
        failures, checked = [], 0
        for path, rest in _documented_command_lines():
            checked += rest.count("--")
            failures += [f"{path}: {flag}" for flag in _unknown_flags(rest, root, subcommands)]
        assert checked, "no documented command line carries a flag"
        assert not failures, f"documented flag(s) the CLI does not accept: {failures}"

    def test_a_flag_of_another_parser_is_reported(self):
        root = build_parser()
        unknown = _unknown_flags(
            "--jobs 2 simulate gzip --scheme wish --sampling 4 --jobs 2",
            root,
            _subcommands(root),
        )
        assert unknown == ["repro simulate --sampling", "repro simulate --jobs"]


class TestWorkloadsDoc:
    """docs/workloads.md documents the whole registry, not a snapshot."""

    def test_every_builtin_workload_documented(self):
        from repro.workloads.spec_suite import workload_names

        with open(os.path.join(DOCS, "workloads.md"), "r", encoding="utf-8") as handle:
            text = handle.read()
        missing = [name for name in workload_names() if f"`{name}`" not in text]
        assert not missing, (
            f"built-in workload(s) {missing} undocumented in docs/workloads.md"
        )

    def test_every_library_workload_documented(self):
        from repro.workloads.registry import library_paths

        with open(os.path.join(DOCS, "workloads.md"), "r", encoding="utf-8") as handle:
            text = handle.read()
        for path in library_paths():
            assert os.path.basename(path) in text, (
                f"library spec {os.path.basename(path)} undocumented in docs/workloads.md"
            )

    def test_every_spec_field_documented(self):
        # The field-by-field reference must cover every key the parser
        # accepts, so adding a spec field without documenting it fails here.
        from repro.workloads import workload_spec

        with open(os.path.join(DOCS, "workloads.md"), "r", encoding="utf-8") as handle:
            text = handle.read()
        all_fields = (
            workload_spec._HEADER_KEYS
            | workload_spec._HARD_REGION_KEYS
            | workload_spec._CORRELATED_KEYS
            | workload_spec._EASY_KEYS
        )
        missing = sorted(field for field in all_fields if field not in text)
        assert not missing, (
            f"spec field(s) {missing} undocumented in docs/workloads.md"
        )


class TestSchemesDoc:
    """docs/schemes.md maps every scheme and predictor module to the paper."""

    @staticmethod
    def _module_stems(package_dir):
        return sorted(
            name[:-3]
            for name in os.listdir(os.path.join(REPO_ROOT, "src", "repro", package_dir))
            if name.endswith(".py") and name != "__init__.py"
        )

    def test_every_core_scheme_module_documented(self):
        with open(os.path.join(DOCS, "schemes.md"), "r", encoding="utf-8") as handle:
            text = handle.read()
        missing = [
            stem for stem in self._module_stems("core") if f"`{stem}.py`" not in text
        ]
        assert not missing, f"core module(s) {missing} undocumented in docs/schemes.md"

    def test_every_predictor_module_documented(self):
        with open(os.path.join(DOCS, "schemes.md"), "r", encoding="utf-8") as handle:
            text = handle.read()
        missing = [
            stem
            for stem in self._module_stems("predictors")
            if f"`{stem}.py`" not in text
        ]
        assert not missing, (
            f"predictor module(s) {missing} undocumented in docs/schemes.md"
        )


class TestMarkdownLinks:
    def test_intra_repo_links_resolve(self):
        check_docs = _load_check_docs()
        failures = check_docs.broken_links(REPO_ROOT)
        assert not failures, f"broken markdown link(s): {failures}"

    def test_no_orphaned_docs_pages(self):
        # Every page under docs/ must be linked from some other markdown
        # file, so new documentation cannot fall out of the navigation.
        check_docs = _load_check_docs()
        orphans = check_docs.orphan_docs(REPO_ROOT)
        assert not orphans, f"orphaned docs page(s): {orphans}"

    def test_checker_sees_the_docs_tree(self):
        check_docs = _load_check_docs()
        files = list(check_docs.markdown_files(REPO_ROOT))
        assert any(path.endswith("architecture.md") for path in files)
        assert any(path.endswith("README.md") for path in files)


class TestExamplesInCI:
    def test_every_example_script_runs_in_the_docs_job(self):
        # The examples are living documentation: each one must appear in the
        # CI docs job (with a small budget) so it cannot rot silently.
        workflow = os.path.join(REPO_ROOT, ".github", "workflows", "ci.yml")
        with open(workflow, "r", encoding="utf-8") as handle:
            text = handle.read()
        examples_dir = os.path.join(REPO_ROOT, "examples")
        for name in sorted(os.listdir(examples_dir)):
            if name.endswith(".py"):
                assert f"examples/{name}" in text, (
                    f"examples/{name} is not exercised by the CI docs job"
                )


@pytest.mark.parametrize(
    "module_name",
    ["repro.engine", "repro.serve", "repro.sweep", "repro.workloads"],
)
def test_public_packages_have_module_docstrings(module_name):
    import importlib
    import pkgutil

    package = importlib.import_module(module_name)
    assert package.__doc__, f"{module_name} lacks a module docstring"
    for info in pkgutil.iter_modules(package.__path__):
        module = importlib.import_module(f"{module_name}.{info.name}")
        assert module.__doc__, f"{module_name}.{info.name} lacks a module docstring"
