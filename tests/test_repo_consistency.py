"""Meta-tests keeping the documentation honest.

These assert the claims DESIGN.md / README.md make about the repository's
structure — experiment coverage, method registries, example inventory —
so the docs cannot silently drift from the code.
"""

from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

EXPERIMENT_BENCHES = {
    "T1": "bench_truth_inference.py",
    "T2": "bench_spammer_robustness.py",
    "T3": "bench_crowd_join.py",
    "T4": "bench_crowd_sort.py",
    "T5": "bench_crowd_count.py",
    "T6": "bench_latency.py",
    "T7": "bench_crowdsql.py",
    "T8": "bench_deco.py",
    "T9": "bench_task_design.py",
    "T10": "bench_worker_qc.py",
    "F1": "bench_task_assignment.py",
    "F2": "bench_early_termination.py",
    "F3": "bench_deduction.py",
    "F4": "bench_crowd_max.py",
    "F5": "bench_crowd_collect.py",
    "F6": "bench_crowd_filter.py",
    "F7": "bench_domain_assignment.py",
    "F8": "bench_skyline.py",
    "F9": "bench_hybrid.py",
    "F10": "bench_planning.py",
    "B1": "bench_batch_runtime.py",
    "B3": "bench_columnar.py",
    "B8": "bench_hedging.py",
    "B9": "bench_streaming.py",
    "B10": "bench_service.py",
    "C1": "bench_answer_cache.py",
}


class TestExperimentInventory:
    def test_every_indexed_bench_exists(self):
        for experiment, bench in EXPERIMENT_BENCHES.items():
            assert (REPO / "benchmarks" / bench).exists(), (experiment, bench)

    def test_no_unindexed_benches(self):
        on_disk = {
            p.name for p in (REPO / "benchmarks").glob("bench_*.py")
        }
        assert on_disk == set(EXPERIMENT_BENCHES.values())

    def test_design_md_mentions_every_experiment(self):
        design = (REPO / "DESIGN.md").read_text(encoding="utf-8")
        for experiment in EXPERIMENT_BENCHES:
            assert f"| {experiment} |" in design, experiment

    def test_experiments_md_has_a_section_per_experiment(self):
        text = (REPO / "EXPERIMENTS.md").read_text(encoding="utf-8")
        for experiment in EXPERIMENT_BENCHES:
            assert f"## {experiment} —" in text, experiment


class TestRepositoryHygiene:
    """Build products stay out of the tree and artifacts land in one place."""

    def _tracked_files(self):
        import subprocess

        try:
            out = subprocess.run(
                ["git", "ls-files"],
                cwd=REPO,
                capture_output=True,
                text=True,
                check=True,
            ).stdout
        except (OSError, subprocess.CalledProcessError):
            pytest.skip("not a git checkout")
        return out.splitlines()

    def test_no_tracked_bytecode_or_artifacts(self):
        offenders = [
            f
            for f in self._tracked_files()
            if f.endswith(".pyc")
            or "__pycache__" in f
            or (f.rsplit("/", 1)[-1].startswith("BENCH_") and f.endswith(".json"))
        ]
        assert not offenders, offenders

    def test_gitignore_covers_build_products(self):
        ignored = (REPO / ".gitignore").read_text(encoding="utf-8").splitlines()
        for pattern in ("__pycache__/", "*.pyc", "BENCH_*.json"):
            assert pattern in ignored, pattern

    def test_benches_write_artifacts_via_helper(self):
        """Every artifact-writing bench routes through bench_artifact()."""
        for bench in (REPO / "benchmarks").glob("bench_*.py"):
            text = bench.read_text(encoding="utf-8")
            if "BENCH_" not in text:
                continue
            assert "bench_artifact(" in text, bench.name
            assert 'CROWDDM_BENCH_DIR", "."' not in text, bench.name

    def test_no_stray_artifacts_in_benchmarks_dir(self):
        assert not list((REPO / "benchmarks").glob("BENCH_*.json"))


class TestRegistries:
    def test_seven_categorical_methods(self):
        from repro.quality.truth import CATEGORICAL_METHODS

        assert set(CATEGORICAL_METHODS) == {
            "mv", "wmv", "zc", "ds", "glad", "bayes", "mace",
        }

    def test_three_numeric_methods(self):
        from repro.quality.truth import NUMERIC_METHODS

        assert set(NUMERIC_METHODS) == {"mean", "median", "catd"}

    def test_four_similarity_functions(self):
        from repro.cost.similarity import SIMILARITY_FUNCTIONS

        assert set(SIMILARITY_FUNCTIONS) == {"jaccard", "ngram", "edit", "cosine"}

    def test_all_task_types_have_a_capable_worker_model(self, rng):
        """OneCoinModel must produce a sane answer for every task type."""
        from repro.platform.task import (
            TaskType,
            collect,
            compare,
            fill,
            multi_choice,
            numeric,
            rate,
            single_choice,
        )
        from repro.workers.models import OneCoinModel

        model = OneCoinModel(0.9)
        tasks = [
            single_choice("q", ("a", "b"), truth="a"),
            multi_choice("q", ("a", "b"), truth={"a"}),
            fill("q", truth="x"),
            compare("l", "r", truth="left"),
            rate("q", truth=3.0),
            numeric("q", truth=10.0),
            collect("q"),
        ]
        covered = {t.task_type for t in tasks}
        assert covered == set(TaskType)
        for task in tasks:
            model.answer(task, rng)  # must not raise


class TestConfigSurface:
    def test_every_engine_config_field_is_a_cli_setting(self):
        """The CLI sets every EngineConfig field (a global flag, or serve's
        platform_budget), so a run's command line states its configuration."""
        import ast
        import dataclasses

        from repro.core.config import EngineConfig

        cli = ast.parse((REPO / "src" / "repro" / "cli.py").read_text(encoding="utf-8"))
        set_by_cli = {
            keyword.arg
            for node in ast.walk(cli)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("EngineConfig", "replace")
            for keyword in node.keywords
            if keyword.arg is not None
        }
        fields = {field.name for field in dataclasses.fields(EngineConfig)}
        assert set_by_cli == fields, (
            f"fields the CLI never sets: {sorted(fields - set_by_cli)}; "
            f"set but not fields: {sorted(set_by_cli - fields)}"
        )


class TestExamplesInventory:
    def test_examples_exist_and_have_docstrings(self):
        examples = sorted((REPO / "examples").glob("*.py"))
        assert len(examples) >= 8
        for example in examples:
            text = example.read_text(encoding="utf-8")
            assert text.startswith('"""'), example.name
            assert "__main__" in text, example.name

    def test_readme_points_at_real_paths(self):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        for path in ("src/repro/data", "src/repro/deco", "src/repro/hybrid",
                     "docs/TUTORIAL.md", "DESIGN.md", "EXPERIMENTS.md"):
            assert path.split("/")[-1] in readme
            assert (REPO / path).exists(), path


class TestPublicApiSurface:
    def test_top_level_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    @pytest.mark.parametrize(
        "module",
        [
            "repro.core", "repro.data", "repro.platform", "repro.workers",
            "repro.quality", "repro.quality.truth", "repro.quality.assignment",
            "repro.cost", "repro.latency", "repro.operators", "repro.lang",
            "repro.deco", "repro.hybrid", "repro.experiments",
        ],
    )
    def test_subpackage_all_exports_resolve(self, module):
        import importlib

        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert getattr(mod, name, None) is not None, f"{module}.{name}"


class TestDocstringCoverage:
    """Every public module, class, function, and non-override method has a
    docstring (overrides inherit their contract from a documented base)."""

    @staticmethod
    def _inherited_doc(cls, method_name):
        for base in cls.__mro__[1:]:
            method = base.__dict__.get(method_name)
            if method is not None and getattr(method, "__doc__", None):
                return True
        return False

    def test_all_public_items_documented(self):
        import importlib
        import inspect
        import pkgutil

        import repro

        missing = []
        for modinfo in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            if modinfo.name.endswith("__main__"):
                continue
            mod = importlib.import_module(modinfo.name)
            if not mod.__doc__:
                missing.append(modinfo.name)
            for name, obj in vars(mod).items():
                if name.startswith("_"):
                    continue
                if inspect.isclass(obj) and obj.__module__ == modinfo.name:
                    if not obj.__doc__:
                        missing.append(f"{modinfo.name}.{name}")
                    for mname, meth in vars(obj).items():
                        if mname.startswith("_") or not inspect.isfunction(meth):
                            continue
                        if not meth.__doc__ and not self._inherited_doc(obj, mname):
                            missing.append(f"{modinfo.name}.{name}.{mname}")
                elif inspect.isfunction(obj) and obj.__module__ == modinfo.name:
                    if not obj.__doc__:
                        missing.append(f"{modinfo.name}.{name}")
        assert not missing, f"undocumented public items: {missing}"
