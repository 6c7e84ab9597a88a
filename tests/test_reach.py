"""Every function, class and method in the package is reached from somewhere
other than the tests: a package module, the package's ``__all__``, the
console script, a README example, the benchmark, or the contract's signed
interface."""

import ast
import re
import tomllib
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fogtrust"


def _reads(tree) -> Counter:
    """Bare names that a ``Name`` or ``Attribute`` reads or an import binds."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names[node.attr] += 1
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rpartition(".")[2] for alias in node.names)
    return names


def definitions(module: str, tree) -> list:
    """(label, node) for each module-level function and class and each
    non-dunder method."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            found.append(("%s.%s" % (module, node.name), node))
        if isinstance(node, ast.ClassDef):
            found.extend(
                ("%s.%s.%s" % (module, node.name, method.name), method)
                for method in node.body
                if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (method.name.startswith("__")
                         and method.name.endswith("__")))
    return found


def contract_interface(tree) -> set:
    """``Ledger``'s public methods that take a ``signature`` parameter."""
    return {method.name
            for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name == "Ledger"
            for method in node.body
            if isinstance(method, ast.FunctionDef)
            and not method.name.startswith("_")
            and "signature" in {arg.arg for arg in method.args.args}}


def exported_names(init_source: str) -> set:
    """The names a package's ``__all__`` lists."""
    for node in ast.parse(init_source).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def script_names(pyproject: str) -> set:
    """The function each console script runs."""
    scripts = tomllib.loads(pyproject)["project"].get("scripts", {})
    return {target.rpartition(":")[2] for target in scripts.values()}


def readme_names(readme: str) -> set:
    """Every name the README's ``python`` blocks read or import."""
    names = set()
    for block in re.findall(r"```python\n(.*?)```", readme, re.DOTALL):
        names.update(_reads(ast.parse(block)))
    return names


def benchmark_names(source: str) -> set:
    """Attribute reads and names imported from the package; a local variable
    of the benchmark reaches nothing."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) \
                and (node.module or "").split(".")[0] == "fogtrust":
            names.update(alias.name for alias in node.names)
    return names


def unreached(sources: dict, outside: set) -> list:
    """Labels of the definitions in ``sources`` (module name -> source) that
    nothing reaches by bare name.  A definition's reads of its own name
    inside its own body do not count; ``outside`` holds the names that the
    roots beyond the package read."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = Counter()
    roots = set(outside)
    for tree in trees.values():
        reads.update(_reads(tree))
        roots |= contract_interface(tree)
    missing = []
    for module, tree in trees.items():
        for label, node in definitions(module, tree):
            name = node.name
            if name in roots or reads[name] > _reads(node)[name]:
                continue
            missing.append(label)
    return sorted(missing)


def package_roots() -> set:
    roots = exported_names((PACKAGE / "__init__.py").read_text())
    roots |= script_names((ROOT / "pyproject.toml").read_text())
    roots |= readme_names((ROOT / "README.md").read_text())
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        roots |= benchmark_names(path.read_text())
    return roots


def test_every_package_definition_is_reached():
    sources = {path.stem: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    assert unreached(sources, package_roots()) == []


SYNTHETIC = {
    "alpha": (
        "from .beta import Imported, Ledger\n"
        "def read_by_name():\n"
        "    pass\n"
        "def recursive(n):\n"
        "    return recursive(n - 1)\n"
        "def exported():\n"
        "    pass\n"
        "def main():\n"
        "    return read_by_name()\n"
        "def in_readme():\n"
        "    pass\n"
        "def imported_by_benchmark():\n"
        "    pass\n"
        "def orphan():\n"
        "    pass\n"
        "class Orphan:\n"
        "    pass\n"
        "class Reached:\n"
        "    def __repr__(self):\n"
        "        return 'never read, but a dunder'\n"
        "    def read_by_attribute(self):\n"
        "        return self.read_by_attribute()\n"
        "    def read_by_benchmark(self):\n"
        "        pass\n"
        "    def blocks(self):\n"
        "        pass\n"
        "    def dead(self):\n"
        "        pass\n"
        "value = Reached().read_by_attribute()\n"
    ),
    "beta": (
        "class Imported:\n"
        "    pass\n"
        "class Ledger:\n"
        "    def signed_op(self, amount, signature):\n"
        "        pass\n"
        "    def unsigned_op(self, amount):\n"
        "        pass\n"
        "    def _private_op(self, signature):\n"
        "        pass\n"
    ),
}


def test_reach_check_sees_each_root_and_each_definition():
    outside = exported_names("__all__ = ['exported']\n")
    outside |= script_names('[project.scripts]\ntool = "alpha:main"\n')
    outside |= readme_names("```python\nin_readme()\n```\n"
                            "```sh\norphan\n```\n")
    outside |= benchmark_names("from fogtrust.alpha import imported_by_benchmark\n"
                               "from other import Orphan\n"
                               "blocks = 3\n"
                               "obj.read_by_benchmark()\n")
    assert outside == {"exported", "main", "in_readme",
                       "imported_by_benchmark", "read_by_benchmark"}
    assert unreached(SYNTHETIC, outside) == [
        "alpha.Orphan", "alpha.Reached.blocks", "alpha.Reached.dead",
        "alpha.orphan", "alpha.recursive",
        "beta.Ledger._private_op", "beta.Ledger.unsigned_op"]
