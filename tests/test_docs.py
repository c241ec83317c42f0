"""Docs-as-tests: the committed docs must track the code they describe.

The README's CLI reference is generated from ``repro.cli.build_parser()``
by ``scripts/gen_cli_reference.py``; CI runs the same ``--check`` in the
lint job, but keeping it in tier-1 means local ``pytest`` catches the
drift before a push does.
"""

import ast
import importlib.util
import os
import re

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GENERATOR = os.path.join(REPO_ROOT, "scripts", "gen_cli_reference.py")
README = os.path.join(REPO_ROOT, "README.md")
DOCS = os.path.join(REPO_ROOT, "docs")


def _load_generator():
    spec = importlib.util.spec_from_file_location("gen_cli_reference", GENERATOR)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCliReferenceDrift:
    def test_readme_matches_generated_reference(self):
        gen = _load_generator()
        with open(README, "r", encoding="utf-8") as fh:
            current = fh.read()
        assert gen.spliced_readme(current) == current, (
            "README CLI reference is stale; run "
            "`python scripts/gen_cli_reference.py` and commit the result"
        )

    def test_check_mode_reports_drift(self, tmp_path, capsys):
        gen = _load_generator()
        stale = tmp_path / "README.md"
        stale.write_text(
            "intro\n\n" + gen.BEGIN + "\nstale text\n" + gen.END + "\ntail\n",
            encoding="utf-8",
        )
        assert gen.main(["--check", "--readme", str(stale)]) == 1
        assert "drift" in capsys.readouterr().err

    def test_check_mode_passes_after_regeneration(self, tmp_path, capsys):
        gen = _load_generator()
        readme = tmp_path / "README.md"
        readme.write_text(
            "intro\n\n" + gen.BEGIN + "\nstale\n" + gen.END + "\n",
            encoding="utf-8",
        )
        assert gen.main(["--readme", str(readme)]) == 0
        assert gen.main(["--check", "--readme", str(readme)]) == 0

    def test_missing_markers_fail_loudly(self, tmp_path):
        gen = _load_generator()
        readme = tmp_path / "README.md"
        readme.write_text("no markers here\n", encoding="utf-8")
        with pytest.raises(SystemExit):
            gen.main(["--check", "--readme", str(readme)])


class TestOnlineDocstringCoverage:
    """Mirror of the ruff ``D1`` gate scoped to ``repro.online``.

    CI enforces pydocstyle via ruff (see ``[tool.ruff.lint]``); this
    test applies the same missing-docstring contract with a stdlib AST
    walk so environments without ruff catch regressions too.  Exempt,
    as in the ruff config: private names, dunders (D105), ``__init__``
    (D107).
    """

    ONLINE = os.path.join(REPO_ROOT, "src", "repro", "online")

    def _missing(self, path):
        import ast

        with open(path, "r", encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        missing = []
        if ast.get_docstring(tree) is None:
            missing.append(f"{path}:1 module")

        def walk(node, public, prefix=""):
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    name = child.name
                    pub = public and not name.startswith("_")
                    dunder = name.startswith("__") and name.endswith("__")
                    if pub and not dunder and ast.get_docstring(child) is None:
                        missing.append(f"{path}:{child.lineno} {prefix}{name}")
                    walk(child, pub, f"{prefix}{name}.")

        walk(tree, True)
        return missing

    def test_every_public_name_in_repro_online_has_a_docstring(self):
        missing = []
        for fname in sorted(os.listdir(self.ONLINE)):
            if fname.endswith(".py"):
                missing += self._missing(os.path.join(self.ONLINE, fname))
        assert not missing, "missing docstrings:\n" + "\n".join(missing)


class TestUnusedImports:
    """Mirror of ruff's ``F401`` (unused import) over every ``src/`` module.

    CI's lint job runs ``ruff check src``; this stdlib AST scan applies
    the same rule to module-level imports, including those under ``if
    TYPE_CHECKING:`` and ``try:``, so environments without ruff catch an
    unused import too.  An import counts as used when its bound name
    appears as a name (an attribute chain's root is one), inside a
    string annotation, or as an ``__all__`` entry.
    """

    SRC = os.path.join(REPO_ROOT, "src")

    @staticmethod
    def _imports(body, found):
        for node in body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    found[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    if alias.name != "*":
                        found[alias.asname or alias.name] = node.lineno
            elif isinstance(node, ast.If):
                TestUnusedImports._imports(node.body + node.orelse, found)
            elif isinstance(node, ast.Try):
                blocks = node.body + node.orelse + node.finalbody
                for handler in node.handlers:
                    blocks += handler.body
                TestUnusedImports._imports(blocks, found)

    @staticmethod
    def _used(tree):
        used = set()
        annotations = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                annotations += [a.annotation for a in
                                args.posonlyargs + args.args + args.kwonlyargs
                                + [args.vararg, args.kwarg] if a is not None]
                annotations.append(node.returns)
            elif isinstance(node, ast.AnnAssign):
                annotations.append(node.annotation)
            elif (isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                  and isinstance(node.value, (ast.List, ast.Tuple))):
                used.update(e.value for e in node.value.elts
                            if isinstance(e, ast.Constant))
        for annotation in filter(None, annotations):
            for node in ast.walk(annotation):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    used |= TestUnusedImports._used(ast.parse(node.value, mode="eval"))
        return used

    def _unused(self, path):
        with open(path, "r", encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        found = {}
        self._imports(tree.body, found)
        used = self._used(tree)
        rel = os.path.relpath(path, REPO_ROOT)
        return [f"{rel}:{line} {name}" for name, line in sorted(found.items())
                if name not in used]

    def test_no_src_module_has_an_unused_import(self):
        unused = []
        for root, _, files in sorted(os.walk(self.SRC)):
            for fname in sorted(files):
                if fname.endswith(".py"):
                    unused += self._unused(os.path.join(root, fname))
        assert not unused, "unused imports (ruff F401):\n" + "\n".join(unused)


class TestDocsTree:
    def test_architecture_doc_names_every_layer(self):
        with open(os.path.join(DOCS, "ARCHITECTURE.md"), encoding="utf-8") as fh:
            text = fh.read()
        for module in (
            "repro.online.arrivals",
            "repro.online.policies",
            "repro.online.driver",
            "repro.online.sharding",
            "repro.online.session",
            "repro.online.serving",
        ):
            assert module in text, f"ARCHITECTURE.md does not mention {module}"

    def test_reliability_doc_tracks_the_fault_constants(self):
        from repro.online.faults import (
            FAULT_PLAN_FORMAT,
            KILL_EXIT_CODE,
            KILL_SITES,
        )

        with open(os.path.join(DOCS, "RELIABILITY.md"), encoding="utf-8") as fh:
            text = fh.read()
        assert FAULT_PLAN_FORMAT in text
        assert str(KILL_EXIT_CODE) in text
        for site in KILL_SITES:
            assert site in text, f"RELIABILITY.md does not mention {site}"

    def test_architecture_doc_tracks_the_kernel_backend_constants(self):
        """The selection-rule constants in ARCHITECTURE.md are the code's.

        The doc states each constant as a power of two (e.g. ``2^26``);
        the pinned values here make a silent drift between prose and
        ``repro.core.kernels`` a test failure, not a doc bug.
        """
        from repro.core.kernels import (
            DENSE_CELL_LIMIT,
            DENSE_CELL_MIN,
            KERNEL_BACKENDS,
            POPCOUNT_TILE_BYTES,
            SPARSE_DENSITY_CUTOFF,
        )

        assert DENSE_CELL_LIMIT == 1 << 26
        assert DENSE_CELL_MIN == 1 << 21
        assert SPARSE_DENSITY_CUTOFF == 1.0 / 16.0
        assert POPCOUNT_TILE_BYTES == 1 << 18
        assert KERNEL_BACKENDS == ("auto", "dense", "sparse", "naive")
        with open(os.path.join(DOCS, "ARCHITECTURE.md"), encoding="utf-8") as fh:
            text = fh.read()
        assert "## Kernel backends" in text
        for token in (
            "DENSE_CELL_LIMIT` (= 2^26",
            "DENSE_CELL_MIN` (= 2^21",
            "cutoff = 1/16",
            "POPCOUNT_TILE_BYTES` (= 2^18",
        ):
            assert token in text, f"ARCHITECTURE.md selection rule lost {token!r}"

    def test_checkpoint_doc_tracks_the_codec_constants(self):
        from repro.online.checkpoint import (
            CHECKPOINT_FORMAT,
            CHECKPOINT_SCHEMA_VERSION,
            TENANT_CHECKPOINT_NAME,
        )
        from repro.online.sharding import SHARDED_CHECKPOINT_FORMAT

        with open(
            os.path.join(DOCS, "CHECKPOINT_FORMAT.md"), encoding="utf-8"
        ) as fh:
            text = fh.read()
        assert CHECKPOINT_FORMAT in text
        assert SHARDED_CHECKPOINT_FORMAT in text
        assert TENANT_CHECKPOINT_NAME in text
        assert f"`{CHECKPOINT_SCHEMA_VERSION}` (current" in text

    def test_checkpoint_doc_tracks_the_manifest_versioning(self):
        """The sharded-manifest version story in the doc is the code's.

        Pinning the values here means bumping
        ``SHARDED_MANIFEST_SCHEMA_VERSION`` forces a deliberate rewrite
        of the reshard section in CHECKPOINT_FORMAT.md (and of this
        test), never a silent drift.
        """
        from repro.online.checkpoint import (
            SHARDED_MANIFEST_SCHEMA_VERSION,
            SUPPORTED_MANIFEST_VERSIONS,
        )

        assert SHARDED_MANIFEST_SCHEMA_VERSION == 3
        assert SUPPORTED_MANIFEST_VERSIONS == (2, 3)
        with open(
            os.path.join(DOCS, "CHECKPOINT_FORMAT.md"), encoding="utf-8"
        ) as fh:
            text = fh.read()
        assert "SHARDED_MANIFEST_SCHEMA_VERSION = 3" in text
        assert "SUPPORTED_MANIFEST_VERSIONS = (2, 3)" in text
        assert "## Re-sharding" in text
        assert '"partition"' in text or "`partition`" in text
        with open(os.path.join(DOCS, "ARCHITECTURE.md"), encoding="utf-8") as fh:
            arch = fh.read()
        assert "## Elastic topology" in arch
        assert "PartitionMap" in arch


class TestTenantStateDiagram:
    """RELIABILITY.md's state diagram names every state a report shows."""

    SERVING = os.path.join(REPO_ROOT, "src", "repro", "online", "serving.py")
    RELIABILITY = os.path.join(DOCS, "RELIABILITY.md")

    def _report_states(self):
        """Labels ``ServingLoop._tenant_state`` can return.

        Its literal returns, plus every literal assigned to a ``state``
        attribute: it falls through to ``return tenant.state``.
        """
        with open(self.SERVING, "r", encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        labels = set()
        for node in ast.walk(tree):
            if (isinstance(node, ast.FunctionDef)
                    and node.name == "_tenant_state"):
                labels |= {
                    ret.value.value for ret in ast.walk(node)
                    if isinstance(ret, ast.Return)
                    and isinstance(ret.value, ast.Constant)
                }
            elif (isinstance(node, ast.Assign)
                  and isinstance(node.value, ast.Constant)
                  and any(isinstance(t, ast.Attribute) and t.attr == "state"
                          for t in node.targets)):
                labels.add(node.value.value)
        return labels

    def _diagram(self):
        with open(self.RELIABILITY, "r", encoding="utf-8") as fh:
            text = fh.read()
        fence = text.index("```", text.index("Tenant state machine inside"))
        return text[fence + 3:text.index("```", fence + 3)]

    def test_diagram_names_every_report_state(self):
        states = self._report_states()
        # A scan that found nothing would pass vacuously.
        assert {"running", "finished", "drained", "quarantined"} <= states
        diagram = self._diagram()
        missing = sorted(
            s for s in states if not re.search(rf"\b{s}\b", diagram)
        )
        assert not missing, f"docs/RELIABILITY.md diagram lacks {missing}"
