"""Every public name of ``src/foliation_lab`` is loaded by some package code.

A public top-level name (function, class or module-level constant) or a
public method of a top-level class counts as used when a ``Name`` or an
``Attribute`` load of it appears anywhere in the package outside its own
definition; an import alone is not a use.  Matching is by the bare name, so
the gate can miss a dead name that shares its name with a used one, but it
never flags a used one.  ``__main__`` loads ``cli.main``, the console entry
point.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "foliation_lab"

# Names that only the benchmark harness under perfbench/ uses, each with why.
ALLOWED = {
    "_kernels.USING_NUMBA": "perfbench/run.py prints it in the provenance line",
    "operators.WeightedOperator.symmetry_residual":
        "perfbench/tracing.py spans it as operators.symmetry_gate",
    "operators.assemble_basic_dirac_forms":
        "perfbench/tracing.py spans it as operators.assemble",
    "operators.assemble_basic_laplacian": "perfbench/tracing.py spans it as operators.assemble",
    "spectral.eigenvalues_weighted":
        "perfbench/tracing.py spans it as spectral.eigensolve, and "
        "perfbench/tests/test_determinism.py reads cli.eigenvalues_weighted",
    "bounds.golden_section_min": "perfbench/tracing.py spans it as bounds.golden",
    "bounds.maximize_on_interval": "perfbench/tracing.py spans it as bounds.scan",
    "verify.densities_distinguishable":
        "perfbench/tracing.py spans it as verify.densities_distinguishable",
    "basic_calculus.project_basic": "perfbench/tracing.py spans it as basic_calculus.projection",
}


def _public_definitions(tree: ast.Module):
    """(qualified name, defining node) for each public top-level name and
    each public method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("_"):
                    yield target.id, node


def _unreferenced(package: Path = PACKAGE) -> set:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    loads = [(node.id if isinstance(node, ast.Name) else node.attr, node)
             for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)]
    unreferenced = set()
    for module, tree in trees.items():
        for name, definition in _public_definitions(tree):
            own = {id(node) for node in ast.walk(definition)}
            leaf = name.rsplit(".", 1)[-1]
            if not any(load == leaf and id(node) not in own for load, node in loads):
                unreferenced.add(f"{module}.{name}")
    return unreferenced


def test_every_public_name_is_loaded_by_package_code():
    assert _unreferenced() - set(ALLOWED) == set()


def test_the_allowlist_is_exact_and_each_entry_is_a_benchmark_lookup():
    """An allowed name that gains a package use, or disappears, leaves the
    list; each one is named in the benchmark harness."""
    assert _unreferenced() == set(ALLOWED)
    harness = "".join(path.read_text() for path in sorted((ROOT / "perfbench").rglob("*.py")))
    for name in ALLOWED:
        assert name.rsplit(".", 1)[-1] in harness, name


def test_the_gate_flags_a_dead_name(tmp_path):
    """A module with a public function and a method that nothing loads."""
    (tmp_path / "cli.py").write_text("def main():\n    return used()\n")
    (tmp_path / "extra.py").write_text(
        "def used():\n    return 1\n\n\ndef dead():\n    return dead()\n\n\n"
        "class Thing:\n    def gone(self):\n        return self.gone\n")
    assert _unreferenced(tmp_path) == {"cli.main", "extra.dead", "extra.Thing", "extra.Thing.gone"}
