"""Source hygiene no installed linter checks: every imported name is used,
the per-point reference imports none of the package's private helpers and
the CLI none of the metric's, each tolerance is read by one module, which
owns its rule, no module reads the environment, the kernel is reached by
one route for a single problem and one for a sweep and takes no
formalism, neither the kernel nor ur3 takes a sign option and the kernel
no option at all, no module checks a limit on a variance's rounding, only
`states` names the internal-inconsistency error, a `Metric` is built from
its matrix alone and an `EigenSystem` from its values and right frame
alone, a scenario config checks itself with no `validated` path beside it,
a dataclass holding an array compares by identity, only
`linalg._read_only` sets an array's flags, importing the
package does none of the command line's work, every exported name
appears in a README code span, and every package name the benchmark
reads resolves.

The package's `__init__.py` is exempt from the import check, since its
imports are the public re-exports listed in `__all__`.
"""

import ast
import dataclasses
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nhur
from nhur import (
    SIGMA_X,
    EigenSystem,
    ExceptionalPointError,
    Example1Config,
    Example2Config,
    SingularFrameError,
    av_orthogonal_state,
    identity_metric,
    metric_from_matrix,
    symmetric_eigensystem,
)
from nhur.linalg import _read_only
from nhur.metric import Metric
from nhur.relations import relation_batch, ur3

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(
    [p for p in (ROOT / "src" / "nhur").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py")),
    key=str,
)


def unused_imports(source: str) -> list:
    """Names bound by import statements and never read in the module."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_check_finds_one():
    source = "import os\nimport numpy as np\nfrom math import pi, tau\nnp.sqrt(tau)\n"
    assert unused_imports(source) == [(1, "os"), (3, "pi")]


def private_imports(source: str, module: str = "nhur") -> list:
    """`_`-prefixed names imported from `module` or one of its submodules;
    a relative import, as in the package's own modules, is one from nhur."""
    def absolute(node):
        name = node.module or ""
        return f"nhur.{name}".rstrip(".") if node.level else name

    return sorted(
        (node.lineno, alias.name) for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (absolute(node) + ".").startswith(module + ".")
        for alias in node.names if alias.name.startswith("_"))


def test_reference_imports_no_private_name():
    # the oracle must not share the kernel helpers it is compared against
    source = "from nhur.metric import _centered, g_variance\nfrom nhur import ur1\n"
    assert private_imports(source) == [(1, "_centered")]
    reference = (ROOT / "tests" / "reference.py").read_text(encoding="utf-8")
    assert private_imports(reference) == []


def test_cli_imports_no_private_metric_name():
    # the CLI applies no tolerance rule of its own: every check it needs
    # comes through a public validator or through states and relations
    source = ("from .metric import Metric, _require_norm\n"
              "from .relations import _stats_g\nfrom nhur.metric import _limit\n")
    assert private_imports(source, "nhur.metric") == [(1, "_require_norm"),
                                                      (3, "_limit")]
    assert private_imports(source) == [(1, "_require_norm"), (2, "_stats_g"),
                                       (3, "_limit")]
    cli = (ROOT / "src" / "nhur" / "cli.py").read_text(encoding="utf-8")
    assert private_imports(cli, "nhur.metric") == []


def test_cli_builds_the_pt_metric_through_public_constructors():
    # `nhur metric` calls the eigensystem builders and the metric factory a
    # library user calls; the one private name it takes from scenarios
    # words a point's error as a sweep's summary does
    cli = (ROOT / "src" / "nhur" / "cli.py").read_text(encoding="utf-8")
    assert [name for _, name in private_imports(cli, "nhur.scenarios")] == ["_error_text"]


def reads_name(source: str, name: str) -> bool:
    """Whether the module imports `name` or reads it as an attribute."""
    return any(
        (isinstance(node, (ast.Import, ast.ImportFrom))
         and any(alias.name.split(".")[-1] == name for alias in node.names))
        or (isinstance(node, ast.Attribute) and node.attr == name)
        for node in ast.walk(ast.parse(source)))


def test_only_metric_applies_the_overlap_tolerance():
    # every orthogonality check goes through metric._require_orthogonal, so a
    # second module reading EPS_ORTH would be a second overlap rule
    assert reads_name("from .tolerances import EPS_NORM, EPS_ORTH\n", "EPS_ORTH")
    assert reads_name("from . import tolerances\nx = tolerances.EPS_ORTH\n", "EPS_ORTH")
    assert not reads_name("from .tolerances import EPS_NORM\n", "EPS_ORTH")
    readers = sorted(p.name for p in (ROOT / "src" / "nhur").glob("*.py")
                     if reads_name(p.read_text(encoding="utf-8"), "EPS_ORTH"))
    assert readers == ["metric.py"]


def names(source: str, name: str) -> bool:
    """Whether the module defines, imports or reads `name`, bare or as an
    attribute."""
    return reads_name(source, name) or any(
        name in (getattr(node, "id", None), getattr(node, "name", None))
        for node in ast.walk(ast.parse(source)))


def test_no_module_checks_a_variance_limit():
    # under a valid metric a variance or norm^2 is real and nonnegative by
    # construction, and its rounding is read as its real part; a limit
    # on that rounding back in the package would fail valid inputs
    assert names("EPS_VAR = 1e-9\n", "EPS_VAR")
    assert names("def _real_check(x):\n    return x\n", "_real_check")
    assert names("from .metric import _real_check\n", "_real_check")
    assert names("import nhur.tolerances as t\nt.EPS_VAR\n", "EPS_VAR")
    assert not names("from .tolerances import EPS_NORM\n", "EPS_VAR")
    found = sorted((p.name, name) for p in (ROOT / "src" / "nhur").glob("*.py")
                   for name in ("EPS_VAR", "_real_check")
                   if names(p.read_text(encoding="utf-8"), name))
    assert found == []


def test_only_states_names_the_internal_error():
    # InternalInconsistencyError marks a constructed state that failed its
    # own rule; a module elsewhere naming it would turn rounding or a
    # caller's input into an internal fault
    assert names("from .errors import InternalInconsistencyError\n",
                 "InternalInconsistencyError")
    assert names("raise errors.InternalInconsistencyError('x')\n",
                 "InternalInconsistencyError")
    assert not names("raise NotNormalizedError('x')\n", "InternalInconsistencyError")
    found = sorted(p.name for p in (ROOT / "src" / "nhur").glob("*.py")
                   if p.name not in ("errors.py", "__init__.py")
                   and names(p.read_text(encoding="utf-8"), "InternalInconsistencyError"))
    assert found == ["states.py"]


def reads_environment(source: str) -> bool:
    """Whether the module reads os.environ or os.getenv, as an attribute or
    by import."""
    return any(reads_name(source, name) for name in ("environ", "getenv"))


def test_no_module_reads_the_environment():
    # a setting taken from the environment is a knob that no signature
    # shows and that every caller's results silently depend on
    assert reads_environment("import os\nraw = os.environ.get('X')\n")
    assert reads_environment("from os import getenv\nraw = getenv('X')\n")
    assert not reads_environment("import os\npath = os.path.join('a', 'b')\n")
    readers = sorted(p.name for p in (ROOT / "src" / "nhur").glob("*.py")
                     if reads_environment(p.read_text(encoding="utf-8")))
    assert readers == []


def calls(node, name: str) -> bool:
    """Whether the node is a call of `name`, bare or as an attribute."""
    return isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                   getattr(node.func, "attr", None))


def constructs(source: str, name: str) -> bool:
    """Whether the module calls `name`, bare or as an attribute."""
    return any(calls(node, name) for node in ast.walk(ast.parse(source)))


def callers(source: str, name: str) -> list:
    """The innermost function around each call of `name` in the module, by
    its name, or "<module>" for a call outside every function."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if calls(child, name):
                found.append(scope)
            visit(child, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope)

    visit(ast.parse(source), "<module>")
    return sorted(found)


@pytest.mark.parametrize("error, home", [("NotOrthogonalError", "metric.py"),
                                         ("SingularFrameError", "linalg.py")])
def test_each_rule_error_is_worded_in_its_rules_module(error, home):
    # the overlap rule words its failure in metric, the conditioning rule
    # in linalg; a caller passes the class or calls the rule, so a second
    # module building the error would be a second wording of the rule
    assert constructs(f"raise errors.{error}('x')\n", error)
    assert constructs(f"bad = lambda i: {error}(f'{{i}}')\n", error)
    assert not constructs(f"check(mask, {error})\n", error)
    builders = sorted(p.name for p in (ROOT / "src" / "nhur").glob("*.py")
                      if constructs(p.read_text(encoding="utf-8"), error))
    assert set(builders) <= {home}


def test_one_route_into_the_kernel():
    # a single problem reaches relation_batch through relations.evaluate_all
    # and every sweep through scenarios._collect, the one place a Sweep is
    # built; a third caller would be a route whose rows could drift
    source = ("def f():\n    def g():\n        k.relation_batch(1)\n"
              "    relation_batch(2)\nrelation_batch(3)\n")
    assert callers(source, "relation_batch") == ["<module>", "f", "g"]
    found = {name: sorted(f"{p.stem}.{scope}"
                          for p in (ROOT / "src" / "nhur").glob("*.py")
                          for scope in callers(p.read_text(encoding="utf-8"), name))
             for name in ("relation_batch", "Sweep")}
    assert found == {"relation_batch": ["relations.evaluate_all", "scenarios._collect"],
                     "Sweep": ["scenarios._collect"]}


def formalism_in(source: str, function: str):
    """In the module's top-level function `function`, each parameter named
    formalism and each Formalism name, bare or as an attribute, in its
    signature or body; None if the module has no such function."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name == function:
            params = [arg.arg for arg in ast.walk(node.args)
                      if isinstance(arg, ast.arg) and arg.arg == "formalism"]
            names = [sub for sub in ast.walk(node)
                     if "Formalism" in (getattr(sub, "id", None), getattr(sub, "attr", None))]
            return params + ["Formalism"] * len(names)
    return None


def test_kernel_takes_no_formalism():
    # the good-observable gate is a condition on (A, B, G) checked at the
    # boundary; a formalism back in the kernel would be a second home for
    # it, and would split batches that could share one kernel call
    source = ("def relation_batch(a, g, formalism: Formalism, *, sign=1):\n"
              "    return relations.Formalism.GOOD if formalism else a\n"
              "def other(formalism):\n    return Formalism.PLAIN\n")
    assert formalism_in(source, "relation_batch") == ["formalism"] + ["Formalism"] * 2
    assert formalism_in("def relation_batch(a, g):\n    return a\n",
                        "relation_batch") == []
    assert formalism_in(source, "missing") is None
    relations = (ROOT / "src" / "nhur" / "relations.py").read_text(encoding="utf-8")
    assert formalism_in(relations, "relation_batch") == []


def keyword_only(function) -> tuple:
    """The names of the function's keyword-only parameters, in order."""
    return tuple(name for name, param in inspect.signature(function).parameters.items()
                 if param.kind is inspect.Parameter.KEYWORD_ONLY)


def test_kernel_and_ur3_take_no_sign_option():
    # ur3 reports its larger branch, as ur4 does; a sign option back in the
    # kernel or in ur3 would be a second way to ask for a branch.  The
    # kernel takes no option at all: every rule about its input is applied
    # at the boundary, so none is left to pick
    def toy(a, psi_perp=None, *, relations=None, sign="max"):
        return a

    assert keyword_only(toy) == ("relations", "sign")
    assert keyword_only(relation_batch) == ()
    assert keyword_only(ur3) == ("psi_perp",)


def test_a_metric_is_built_from_its_matrix_alone():
    # Metric(g, hamiltonian=None) is the one constructor, and only
    # metric._validation makes a MetricReport, so a Metric's report can only
    # come from the matrix it describes
    assert tuple(inspect.signature(Metric).parameters) == ("g", "hamiltonian")
    source = "def f():\n    return m.MetricReport(1)\nMetricReport(2)\n"
    assert callers(source, "MetricReport") == ["<module>", "f"]
    found = sorted(f"{p.stem}.{scope}" for p in (ROOT / "src" / "nhur").glob("*.py")
                   for scope in callers(p.read_text(encoding="utf-8"), "MetricReport"))
    assert found == ["metric._validation"]


def test_each_value_type_is_checked_once_when_built():
    # EigenSystem(values, right) and the scenario configs check themselves in
    # __post_init__, which dataclasses.replace runs too; a from_right or a
    # validated() beside them would be a second path a caller could skip
    assert tuple(inspect.signature(EigenSystem).parameters) == ("values", "right")
    assert not hasattr(EigenSystem, "from_right")
    for config in (Example1Config, Example2Config):
        assert not hasattr(config, "validated")
    with pytest.raises(ExceptionalPointError):
        dataclasses.replace(Example2Config.symmetric_default(), gamma=1.0)
    with pytest.raises(SingularFrameError):
        dataclasses.replace(symmetric_eigensystem(0.6), right=np.zeros((2, 2)))


def test_one_ownership_rule():
    # linalg._read_only, a fresh read-only copy with no option, is the one
    # place an array's flags are set; a second setflags, or a sharing mode
    # beside the copy, would be an ownership rule a value type could skip
    source = "def f(a):\n    a.setflags(write=False)\nnp.x.setflags(write=True)\n"
    assert callers(source, "setflags") == ["<module>", "f"]
    found = sorted(f"{p.stem}.{scope}" for p in (ROOT / "src" / "nhur").glob("*.py")
                   for scope in callers(p.read_text(encoding="utf-8"), "setflags"))
    assert found == ["linalg._read_only"]
    assert tuple(inspect.signature(_read_only).parameters) == ("value",)


def array_dataclasses(namespace: dict, module: str) -> list:
    """(name, eq flag) of each dataclass defined in `module`, among the
    namespace's values, with a field annotated np.ndarray."""
    return [(name, obj.__dataclass_params__.eq)
            for name, obj in namespace.items()
            if dataclasses.is_dataclass(obj) and obj.__module__ == module
            and any(f.type is np.ndarray for f in dataclasses.fields(obj))]


TOY_DATACLASSES = """
import dataclasses
import numpy as np
@dataclasses.dataclass(frozen=True)
class A:
    x: np.ndarray
@dataclasses.dataclass(frozen=True, eq=False)
class B:
    x: np.ndarray
@dataclasses.dataclass
class C:
    x: float
"""


def test_a_dataclass_holding_an_array_compares_by_identity():
    # the generated __eq__ compares ndarray fields with ==, whose truth value
    # is ambiguous, and a frozen class with it hashes them, which fails;
    # eq=False makes equality identity and every instance hashable
    toy = {"__name__": "toy"}
    exec(TOY_DATACLASSES, toy)
    assert array_dataclasses(toy, "toy") == [("A", True), ("B", False)]
    found = [(path.stem, name) for path in (ROOT / "src" / "nhur").glob("*.py")
             for name, eq in array_dataclasses(
                 vars(importlib.import_module(f"nhur.{path.stem}")),
                 f"nhur.{path.stem}") if eq]
    assert found == []


def equal_inputs_pair(kind: str) -> tuple:
    """Two distinct instances of the type, built from equal inputs."""
    if kind == "Metric":
        return metric_from_matrix(2.0 * np.eye(2)), metric_from_matrix(2.0 * np.eye(2))
    if kind == "EigenSystem":
        return symmetric_eigensystem(0.6), symmetric_eigensystem(0.6)
    psi = np.array([1.0, 0.0])
    return tuple(av_orthogonal_state(SIGMA_X, psi, identity_metric(2)) for _ in "ab")


@pytest.mark.parametrize("kind", ["Metric", "EigenSystem", "OrthogonalPair"])
def test_equality_and_hash_are_identity(kind):
    first, second = equal_inputs_pair(kind)
    assert type(first).__name__ == kind
    assert first == first and first != second
    assert hash(first) == hash(first)
    assert len({first, second}) == 2 and first in {first} and second not in {first}


def test_only_metric_applies_a_limit():
    # a rule's limit is applied by _beyond inside that rule's function; a
    # module importing either could phrase a failure of its own
    for path in (ROOT / "src" / "nhur").glob("*.py"):
        if path.name != "metric.py":
            names = {name for _, name in
                     private_imports(path.read_text(encoding="utf-8"), "nhur.metric")}
            assert not names & {"_limit", "_beyond"}, path.name


def tolerance_names(source: str) -> list:
    """The EPS_* names a module assigns at its top level."""
    targets = [t for node in ast.parse(source).body
               for t in (node.targets if isinstance(node, ast.Assign) else
                         [node.target] if isinstance(node, ast.AnnAssign) else [])]
    return sorted(t.id for t in targets
                  if isinstance(t, ast.Name) and t.id.startswith("EPS_"))


def shared_tolerances(sources: dict, names) -> dict:
    """Each name read by more than one of the named module sources, with
    its readers."""
    readers = {name: sorted(mod for mod, src in sources.items()
                            if reads_name(src, name)) for name in names}
    return {name: mods for name, mods in readers.items() if len(mods) > 1}


def test_each_tolerance_has_one_reader():
    # a tolerance read by two modules is two copies of its rule, which can
    # drift apart; each rule lives in the one module that reads it
    pair = {"a.py": "from .tolerances import EPS_NORM, EPS_PD\n",
            "b.py": "from . import tolerances\ntolerances.EPS_NORM\n"}
    assert shared_tolerances(pair, ["EPS_NORM", "EPS_PD"]) == {
        "EPS_NORM": ["a.py", "b.py"]}
    assert tolerance_names("EPS_A = 1\nX = 2\nEPS_B: float = 3\n") == ["EPS_A", "EPS_B"]
    package = ROOT / "src" / "nhur"
    names = tolerance_names((package / "tolerances.py").read_text(encoding="utf-8"))
    assert {"EPS_NORM", "EPS_PD", "EPS_GOOD", "EPS_DEGEN"} <= set(names)
    sources = {p.name: p.read_text(encoding="utf-8") for p in package.glob("*.py")
               if p.name != "tolerances.py"}
    assert shared_tolerances(sources, names) == {}


# Run in a fresh interpreter: `import nhur` must load neither the CLI nor
# argparse, and `import nhur.cli` must build no parser until main() runs.
IMPORT_GUARD = """
import sys
import nhur
assert "nhur.cli" not in sys.modules, "import nhur loaded nhur.cli"
assert "argparse" not in sys.modules, "import nhur loaded argparse"
import argparse
built = []
init = argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    built.append(1)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init
import nhur.cli
assert not built, "import nhur.cli built an ArgumentParser"
nhur.cli.main(["metric", "--gamma", "0.6"])
assert built, "the parser count missed main()"
"""


def test_import_does_no_cli_work():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", IMPORT_GUARD], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.S | re.M)


def code_span_names(markdown: str) -> set:
    """Each identifier inside a fenced block or an inline code span."""
    spans = FENCE.findall(markdown) + re.findall(r"`([^`]+)`", FENCE.sub("", markdown))
    return {name for span in spans for name in re.findall(r"\w+", span)}


def test_every_export_is_documented():
    # an exported name that no README code span shows is surface a user
    # cannot find; h below is only prose, so the check finds it undocumented
    sample = "Call `f(x)` or\n```python\nimport g\n```\nnot h, nor `k.\nm`.\n"
    assert code_span_names(sample) == {"f", "x", "import", "g", "k", "m"}
    assert sorted({"f", "g", "h", "m"} - code_span_names(sample)) == ["h"]
    readme = code_span_names((ROOT / "README.md").read_text(encoding="utf-8"))
    assert sorted(set(nhur.__all__) - readme) == []


def nhur_names(source: str) -> set:
    """Each dotted name under nhur that source reads: the modules it
    imports, each name it imports from them, and each `nhur.x.y` chain."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {a.name for a in node.names if a.name.split(".")[0] == "nhur"}
        elif (isinstance(node, ast.ImportFrom) and not node.level
              and (node.module or "").split(".")[0] == "nhur"):
            names |= {f"{node.module}.{a.name}" for a in node.names}
        elif isinstance(node, ast.Attribute):
            chain, root = [], node
            while isinstance(root, ast.Attribute):
                chain.append(root.attr)
                root = root.value
            if isinstance(root, ast.Name) and root.id == "nhur":
                names.add(".".join(["nhur", *reversed(chain)]))
    return names


def resolves(dotted: str) -> bool:
    """Whether each step of a dotted name is an attribute or a submodule."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i in range(1, len(parts)):
        if hasattr(obj, parts[i]):
            obj = getattr(obj, parts[i])
            continue
        try:
            obj = importlib.import_module(".".join(parts[:i + 1]))
        except ModuleNotFoundError:
            return False
    return True


def test_every_name_the_benchmark_reads_resolves():
    # benchmarks/ reads package names that no test imports, so a deleted
    # one would otherwise show only in a traced benchmark run
    sample = ("import nhur.cli\nfrom nhur.scenarios import Sweep, gone\n"
              "nhur.Formalism.PLAIN\nnhur.cli.nowhere()\nfrom .x import y\n")
    assert nhur_names(sample) == {
        "nhur.cli", "nhur.scenarios.Sweep", "nhur.scenarios.gone",
        "nhur.Formalism", "nhur.Formalism.PLAIN", "nhur.cli.nowhere"}
    assert sorted(n for n in nhur_names(sample) if not resolves(n)) == [
        "nhur.cli.nowhere", "nhur.scenarios.gone"]
    names = set().union(*(nhur_names(p.read_text(encoding="utf-8"))
                          for p in (ROOT / "benchmarks").glob("*.py")))
    assert {"nhur.cli.csv_row", "nhur.scenarios.ScenarioPoint",
            "nhur.cli.parse_problem", "nhur.states.ur3_default_perp"} <= names
    assert sorted(n for n in names if not resolves(n)) == []
