"""What a process imports: package exports resolve on first use.

Every package ``__init__`` is an export table (``repro._lazy``), so a
program compiles only the modules it reaches. Each case runs in a fresh
interpreter, because this test process has long since imported the rest.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: A small bulk-labelling job through the API perfbench's label_batch uses:
#: scheduler waves with retries and abandonment, the registry on, then DS.
BULK_LABELLING = """
from repro.obs.metrics import MetricsRegistry
from repro.platform import BatchConfig, SimulatedPlatform
from repro.platform.task import single_choice
from repro.quality.truth import DawidSkene
from repro.workers import Worker, WorkerPool
from repro.workers.models import OneCoinModel

pool = WorkerPool([Worker(model=OneCoinModel(a)) for a in (0.6, 0.7, 0.8, 0.9)], seed=1)
platform = SimulatedPlatform(
    pool,
    seed=2,
    batch=BatchConfig(batch_size=10, max_parallel=2, retry_limit=8,
                      assignment_timeout=90.0, abandon_rate=0.05, seed=3),
    metrics=MetricsRegistry(enabled=True),
)
tasks = [single_choice(f"item {i}: which label?", ("a", "b"), truth="a") for i in range(30)]
answers = platform.scheduler.run(tasks, redundancy=3).answers
assert len(DawidSkene().infer(answers).truths) == 30
"""


def loaded_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running *code*."""
    probe = code + "\nimport sys\nprint(' '.join(sys.modules))\n"
    run = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)}, check=False,
    )
    assert run.returncode == 0, run.stderr
    return set(run.stdout.split())


def under(loaded: set[str], package: str) -> set[str]:
    """*package* and its submodules, of the modules in *loaded*."""
    return {m for m in loaded if m == package or m.startswith(package + ".")}


def test_import_repro_loads_no_subpackage():
    assert {m for m in loaded_after("import repro") if m.startswith("repro.")} == {
        "repro._lazy"
    }


def test_bulk_labelling_loads_the_platform_stack_only():
    loaded = loaded_after(BULK_LABELLING)
    for package in ("lang", "data", "service", "deco", "operators", "cost", "core",
                    "experiments"):
        assert not under(loaded, f"repro.{package}"), package
    assert not loaded & {"repro.obs.server", "repro.obs.prom"}
    assert under(loaded, "repro.quality.truth") == {
        "repro.quality.truth", "repro.quality.truth.base", "repro.quality.truth.dawid_skene"
    }


def test_a_crowdsql_session_loads_no_service_layer():
    loaded = loaded_after("from repro.lang import CrowdSQLSession")
    for package in ("repro.service", "repro.deco", "repro.experiments", "http.server"):
        assert not under(loaded, package), package


def test_unknown_and_dunder_names_import_nothing():
    loaded = loaded_after(
        "import sys\n"
        "import repro.platform\n"
        "before = set(sys.modules)\n"
        "for name in ('nope', '__wrapped__', 'BatchConfigs'):\n"
        "    try:\n"
        "        getattr(repro.platform, name)\n"
        "    except AttributeError as exc:\n"
        "        assert str(exc) == f\"module 'repro.platform' has no attribute {name!r}\"\n"
        "    else:\n"
        "        raise AssertionError(name)\n"
        "assert set(sys.modules) == before\n"
    )
    assert under(loaded, "repro.platform") == {"repro.platform"}


def test_first_access_imports_the_defining_module_and_caches_the_value():
    loaded_after(
        "import sys\n"
        "import repro.quality.truth as truth\n"
        "assert 'DawidSkene' not in vars(truth)\n"
        "ds = truth.DawidSkene\n"
        "assert vars(truth)['DawidSkene'] is ds is sys.modules[ds.__module__].DawidSkene\n"
        "assert 'repro.quality.truth.glad' not in sys.modules\n"
    )


PACKAGES = sorted(
    ".".join(init.parent.relative_to(SRC).parts) for init in SRC.rglob("__init__.py")
)


@pytest.mark.parametrize("package", PACKAGES)
def test_every_module_resolves_from_its_package(package):
    """The package's table names each of its modules and subpackages, binds
    none of them at import, and exports no value under one of their names."""
    path = SRC.joinpath(*package.split("."))
    children = sorted(
        p.stem for p in path.iterdir()
        if not p.name.startswith("_") and (p.suffix == ".py" or (p / "__init__.py").is_file())
    )
    loaded_after(
        "import importlib, sys, types\n"
        f"pkg = importlib.import_module({package!r})\n"
        f"children = {children!r}\n"
        "assert not set(children) & set(vars(pkg)), 'bound at import'\n"
        "assert set(children) <= set(dir(pkg)), set(children) - set(dir(pkg))\n"
        "for child in children:\n"
        f"    assert getattr(pkg, child) is sys.modules[{package!r} + '.' + child], child\n"
        "values = {n for n in pkg.__all__\n"
        "          if not isinstance(getattr(pkg, n), types.ModuleType)}\n"
        "assert not values & set(children), values & set(children)\n"
    )
