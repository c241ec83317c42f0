"""The CI ``tests`` job must install every package tier-1 imports.

A module under ``tests/`` that imports a third-party package the job
does not install fails at collection, and ``pytest -x`` then stops
before running a single test.  This scan reads the job's ``pip
install`` lines from ``.github/workflows/ci.yml`` and every import
statement under ``tests/``.  The standard library comes from
``sys.stdlib_module_names``, so the scan needs Python >= 3.10.
"""

import ast
import os
import re
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CI = os.path.join(REPO_ROOT, ".github", "workflows", "ci.yml")
TESTS = os.path.join(REPO_ROOT, "tests")
SRC = os.path.join(REPO_ROOT, "src")

pytestmark = pytest.mark.skipif(
    sys.version_info < (3, 10),
    reason="sys.stdlib_module_names needs Python >= 3.10",
)


def installed_by_tests_job():
    """Import names of the packages the ``tests`` job pip-installs."""
    with open(CI, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    names = set()
    for line in lines[lines.index("  tests:") + 1:]:
        if re.match(r"  \S", line):
            break  # the next job
        match = re.search(r"pip install (.*)", line)
        if match:
            names.update(
                re.split(r"[\[<>=!~;]", arg)[0].lower().replace("-", "_")
                for arg in match.group(1).split()
                if not arg.startswith("-")
            )
    return names


def first_party():
    """``tests`` plus every package under ``src/``."""
    return {"tests"} | {
        name for name in os.listdir(SRC)
        if os.path.exists(os.path.join(SRC, name, "__init__.py"))
    }


def third_party_imports():
    """Top-level module -> test files importing it (non-stdlib, external)."""
    local = first_party()
    found = {}
    for dirpath, _, files in os.walk(TESTS):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            with open(path, "r", encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), path)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    modules = [node.module]
                else:
                    continue
                for module in modules:
                    top = module.split(".")[0]
                    if top in sys.stdlib_module_names or top in local:
                        continue
                    found.setdefault(top, set()).add(
                        os.path.relpath(path, REPO_ROOT)
                    )
    return found


def test_tests_job_installs_every_imported_package():
    installed = installed_by_tests_job()
    missing = {
        module: sorted(paths)
        for module, paths in third_party_imports().items()
        if module not in installed
    }
    assert not missing, (
        "tests/ imports packages the CI tests job does not install "
        f"(add them to its pip install step): {missing}"
    )


def test_scan_finds_the_known_imports():
    # A scan that parses nothing would pass the check above vacuously.
    assert {"numpy", "pytest", "hypothesis"} <= set(third_party_imports())
    assert {"numpy", "pytest", "hypothesis"} <= installed_by_tests_job()
