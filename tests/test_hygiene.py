"""Source hygiene checks that a linter would make, written as an AST scan."""

import ast
import inspect
import json
import os
import re
import subprocess
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest

import fluctlab
from fluctlab import scaling, window
from fluctlab.config import NUMERIC
from fluctlab.models import ObservablePair, gaussian_state
from fluctlab.runner import ANALYSES
from fluctlab.scaling import ScalingConfig, chain_rule
from fluctlab.window import WindowProfile, load_or_build, make_profile

MODULES = sorted(p for p in Path(fluctlab.__file__).parent.glob("*.py") if p.name != "__init__.py")
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom math import pi, tau\nprint(np.sum, tau)\n"
    assert unused_imports(source) == ["os", "pi"]


def unread_private_names(sources: dict) -> list[str]:
    """Module-level names with one leading underscore that no module of ``sources``
    (name: source text) reads, as "module:name" in definition order."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(module, n) for n in names if n.startswith("_") and not n.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{module}:{name}" for module, name in defined if name not in read]


def test_no_unread_private_names():
    sources = {p.name: p.read_text() for p in Path(fluctlab.__file__).parent.glob("*.py")}
    assert unread_private_names(sources) == []


def test_scan_finds_an_unread_private_name():
    sources = {"a.py": "_CACHE: dict = {}\n_LIMIT = 3\ndef _grid():\n    return _CACHE\n",
               "b.py": "from .a import _LIMIT\nclass _Unused:\n    pass\nprint(_LIMIT)\n"}
    assert unread_private_names(sources) == ["a.py:_grid", "b.py:_Unused"]


def _reads(tree) -> Counter:
    """How often each name is read below ``tree``, as a name or an attribute."""
    return Counter([node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)]
                   + [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)])


def unread_public_names(sources: dict, exported, named: str) -> list[str]:
    """Module-level functions and classes without a leading underscore that
    no module of ``sources`` (name: source text) reads outside their own
    definition, that ``exported`` does not hold and that the text ``named``
    does not name as a word, as "module:name" in definition order."""
    defined, reads = [], Counter()
    for module, source in sources.items():
        tree = ast.parse(source)
        reads.update(_reads(tree))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined.append((module, node.name))
                reads[node.name] -= _reads(node)[node.name]  # a recursive call is no caller
    return [f"{module}:{name}" for module, name in defined
            if reads[name] <= 0 and name not in exported and not re.search(rf"\b{name}\b", named)]


def _public_scan_inputs():
    """The sources of the package, the names fluctlab/__init__ exports and the perfbench text."""
    sources = {p.name: p.read_text() for p in Path(fluctlab.__file__).parent.glob("*.py")}
    exported = {alias.asname or alias.name for node in ast.parse(sources["__init__.py"]).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    return sources, exported, "\n".join(p.read_text() for p in sorted(PERFBENCH.glob("*.py")))


def test_every_public_name_is_read_exported_or_benchmarked():
    assert unread_public_names(*_public_scan_inputs()) == []


def test_scan_finds_an_unread_public_name():
    sources = {"a.py": "def grid():\n    return grid()\ndef rule():\n    pass\nclass Table:\n    pass\n",
               "b.py": "from .a import rule\ndef shown():\n    pass\ndef timed():\n    pass\nrule()\n"}
    assert unread_public_names(sources, {"shown"}, "spans: timed, gridded") == ["a.py:grid", "a.py:Table"]
    # a gate left behind once its one caller reads the unified one
    sources, exported, named = _public_scan_inputs()
    sources["scaling.py"] += "\n\ndef check_weighted(state, cfg, order):\n    return check_order(state, cfg, order)\n"
    assert unread_public_names(sources, exported, named) == ["scaling.py:check_weighted"]


def complex_dict_displays(source: str) -> list[int]:
    """Lines of the dict displays with both "re" and "im" keys: a complex
    number rendered by hand."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Dict)
            and {"re", "im"} <= {k.value for k in node.keys if isinstance(k, ast.Constant)}]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name not in ("report.py", "config.py")], ids=lambda p: p.name)
def test_complex_values_are_rendered_by_report_alone(path):
    # report.plain writes the {re, im} form; config's rho_qa block is an input
    assert complex_dict_displays(path.read_text()) == []


def test_scan_finds_a_complex_dict():
    source = 'z = 1j\nrow = {"re": z.real, "im": z.imag}\nlabel = {"re": 1}\nspec = {**row, "im": 0.0}\n'
    assert complex_dict_displays(source) == [2]


#: the attribute calls that open, read or write a file, beside the builtin ``open``
FILE_CALLS = {"open", "fdopen", "mkstemp", "read_text", "read_bytes", "write_text", "write_bytes",
              "save", "load", "fromfile", "tofile", "read_array"}


def file_calls(source: str) -> list[str]:
    """The calls of ``source`` that open, read or write a file (``open`` and
    the attributes of FILE_CALLS), as "owner:call" in source order, where the
    owner is the module-level function or the method ("Class.name") around
    the call, or "<module>"."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            in_function = owner and not owner.endswith(".")
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and not in_function:
                visit(child, owner + child.name)
                continue
            if isinstance(child, ast.ClassDef) and not in_function:
                visit(child, f"{owner}{child.name}.")
                continue
            if isinstance(child, ast.Call) and (
                    isinstance(child.func, ast.Name) and child.func.id == "open"
                    or isinstance(child.func, ast.Attribute) and child.func.attr in FILE_CALLS):
                found.append(f"{owner or '<module>'}:{ast.unparse(child.func)}")
            visit(child, owner)

    visit(ast.parse(source), "")
    return found


def test_files_are_opened_by_four_functions():
    # one writer of the outputs, one writer and one reader of the window
    # cache arrays, and the reader of the config
    owners = {f"{p.stem}.{site.split(':')[0]}"
              for p in Path(fluctlab.__file__).parent.glob("*.py") for site in file_calls(p.read_text())}
    assert owners == {"report._write_text", "window.save_cache_array", "window.load_cache_array", "cli._load"}


def test_scan_finds_a_file_call():
    source = ("import numpy as np\nfrom pathlib import Path\n"
              "def dump(a, path):\n    np.save(path, a)\n"
              "class Table:\n    def read(self, path):\n"
              "        def text():\n            return Path(path).read_text()\n"
              "        return text()\n"
              "with open('x.npy', 'rb') as fh:\n    table = np.lib.format.read_array(fh)\n"
              "def load(path):\n    return np.asarray(path.size)\n")
    assert file_calls(source) == ["dump:np.save", "Table.read:Path(path).read_text", "<module>:open",
                                  "<module>:np.lib.format.read_array"]


def test_settable_values_are_pinned():
    # the numeric block and the ScalingConfig it resolves to; a new knob changes this test
    assert set(NUMERIC.fields) == {"r_grid", "eps_vanish", "alpha"}
    assert [f.name for f in fields(ScalingConfig)] == ["r_values", "alpha", "eps_vanish"]
    # the chain's quadrature rule is a constant, graded for a singular density alone
    assert list(inspect.signature(chain_rule).parameters) == ["singular"]
    # a window profile is its dimension: the transform grid is window.K_GRID
    assert list(inspect.signature(make_profile).parameters) == ["dim"]
    assert list(inspect.signature(load_or_build).parameters) == ["dim", "cache_dir"]
    assert [f.name for f in fields(WindowProfile)] == ["dim", "fhat_samples", "cache_dir"]
    # the limit state reads S(0) in closed form: no integrability flag, no unchecked state
    assert [f.name for f in fields(ObservablePair)] == ["label_a", "label_b", "f_hat", "g_hat"]
    assert list(inspect.signature(gaussian_state).parameters) == ["two_point", "dim", "max_order"]


def test_scaling_keeps_one_dict_cache():
    # the chain keeps no value: the one dict scaling defines is the bounded
    # cache of kernels and tables, so a second value cache changes this test
    held = [name for name, value in vars(scaling).items()
            if isinstance(value, dict) and not name.startswith("__") and value is not getattr(window, name, None)]
    assert held == ["_CHAIN_CACHE"]


def test_no_analysis_takes_a_numeric_block():
    # a run has one numeric block: an analysis that declared its own would
    # shadow it, and a key of it would read two ways
    assert [kind for kind, entry in ANALYSES.items() if "numeric" in entry.keys] == []


def dimension_beside_profile(source: str) -> list[str]:
    """Functions of ``source`` that take a ``profile`` parameter together
    with an ``n`` or ``dim`` one, as "name:line": the profile carries its
    dimension, and a second one could disagree with it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            if "profile" in names and names & {"n", "dim"}:
                found.append(f"{getattr(node, 'name', '<lambda>')}:{node.lineno}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dimension_beside_a_profile(path):
    assert dimension_beside_profile(path.read_text()) == []


def test_scan_finds_a_dimension_beside_a_profile():
    source = ("def chain(profile, n, rule):\n    pass\n"
              "def table(profile, rule, *, dim=1):\n    pass\n"
              "def kernel(dim, rule):\n    pass\n"
              "class Sweep:\n    def run(self, profile, state):\n        f = lambda profile, n: n\n")
    assert dimension_beside_profile(source) == ["chain:1", "table:3", "<lambda>:9"]


def test_cli_import_loads_no_scipy():
    # scipy.special alone is most of the package's import time; J_0 of the
    # n = 2 kernel imports it where it is read, and nothing else needs scipy
    probe = "import sys, fluctlab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(fluctlab.__file__).parent.parent)
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_window_build_loads_no_scipy(dim):
    # no window build reads a Bessel function: n = 1 and 3 sum cosines and
    # sines, n = 2 goes through the line projection and the cosine product
    probe = ("import sys; from fluctlab.window import make_profile; "
             f"make_profile({dim}); "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(fluctlab.__file__).parent.parent)
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_warm_run_loads_no_scipy(tmp_path):
    # J_0 is read only where the n = 2 chain kernel is built: the cold run
    # of an order-3 config, or of the weighted orders 2-6 of 09d, whose
    # heat-kernel tables run on that chain, imports scipy; the warm one
    # reads the kernel or the tables from the window cache and does not.
    # The n = 1 powerlaw of 08 runs on its heat-kernel table, cold or warm
    config = tmp_path / "n2.json"
    config.write_text(json.dumps({
        "model": {"class": "product-ansatz", "dim": 2, "orders": {"3": [{}, {"width": 1.3}]}},
        "analyses": [{"kind": "scaling-sweep", "orders": [3]}]}))
    configs = Path(__file__).resolve().parent.parent / "configs"
    weighted = configs / "criterion_09d_weighted_n2.json"
    powerlaw = configs / "criterion_08_l2_bisection.json"
    for path in (config, weighted, powerlaw):
        probe = ("import sys; from fluctlab import cli; "
                 f"assert cli.main(['run', {str(path)!r}, '--out-dir', {str(tmp_path / 'out')!r}]) == 0; "
                 "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        env = {**os.environ, "PYTHONPATH": str(Path(fluctlab.__file__).parent.parent),
               "FLUCTLAB_CACHE": str(tmp_path / path.stem)}
        cold, warm = (subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                                     env=env).stdout.splitlines()[-1] for _ in range(2))
        assert ("'scipy.special'" in cold) == (path != powerlaw), path.stem
        assert warm == "[]", path.stem
