"""Import boundaries: what ``import painleve_d32`` and the set-up load.

Each test runs in a fresh interpreter, because this test session has
already imported every module of the package.
"""

from __future__ import annotations

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import painleve_d32

SRC = str(Path(painleve_d32.__file__).resolve().parent.parent)

# the set-up every use starts with: the registry and the Weyl convention
SETUP = """
import json, sys
sys.path.insert(0, sys.argv[1])
import painleve_d32
from painleve_d32 import models, weyl
models._registry()
weyl.calibrate_convention()
def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "painleve_d32")
"""


def _run(code: str):
    """Run ``code`` after the set-up in a fresh interpreter; its JSON output."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP + code, SRC],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout)


# the set-up's modules; each lazy half loads on the first use of one of its names
SETUP_MODULES = ["painleve_d32", "painleve_d32.models", "painleve_d32.ring",
                 "painleve_d32.syntax", "painleve_d32.weyl"]
RING_HALF, WEYL_HALF = "painleve_d32._ring_lazy", "painleve_d32._weyl_lazy"


def test_setup_loads_only_ring_syntax_models_and_weyl():
    # and neither lazy half: the set-up never runs their code
    assert _run("print(json.dumps(loaded()))") == SETUP_MODULES


def test_setup_loads_neither_dataclasses_nor_inspect():
    # the registry and Weyl records are NamedTuples: dataclasses would pull
    # in inspect, ast, dis and tokenize, and exec code for every class
    loaded = _run('print(json.dumps([m for m in ("dataclasses", "inspect") '
                  'if m in sys.modules]))')
    assert loaded == []


def test_star_import_binds_each_export_from_its_home_module():
    homes = _run("""
ns = {}
exec("from painleve_d32 import *", ns)
homes = {}
for name in painleve_d32.__all__:
    obj = ns[name]
    assert getattr(sys.modules[obj.__module__], name) is obj, name
    homes[name] = obj.__module__
# served from the home module on every lookup, never cached
assert "run_scope" not in vars(painleve_d32)
verify = sys.modules["painleve_d32.verify"]
original, verify.run_scope = verify.run_scope, object()
assert painleve_d32.run_scope is verify.run_scope
verify.run_scope = original
print(json.dumps(homes))
""")
    assert sorted(homes) == sorted(painleve_d32.__all__)
    lazy = {name: home for name, home in homes.items()
            if home in ("painleve_d32.numeric", "painleve_d32.verify",
                        "painleve_d32._ring_lazy", "painleve_d32._weyl_lazy")}
    assert lazy == {
        "Derivation": "painleve_d32._ring_lazy",
        "differentiate": "painleve_d32._ring_lazy",
        "evaluate": "painleve_d32._ring_lazy",
        "is_identically_zero": "painleve_d32._ring_lazy",
        "jacobian_determinant": "painleve_d32._ring_lazy",
        "substitute": "painleve_d32._ring_lazy",
        "parse_word": "painleve_d32._weyl_lazy",
        "translation_shift": "painleve_d32._weyl_lazy",
        "verify_group_relations": "painleve_d32._weyl_lazy",
        "dynamics_residual": "painleve_d32.numeric",
        "integrate": "painleve_d32.numeric",
        "invariant_drift": "painleve_d32.numeric",
        "pushforward": "painleve_d32.numeric",
        "first_integral_search": "painleve_d32.verify",
        "run_scope": "painleve_d32.verify",
    }


FIRST_USES = {
    "substitute": """
from painleve_d32 import ring
y = ring.RatExpr.sym(models.load_model("five_dim").table, "y")
assert ring.substitute(y, {"y": 2}).equals(2)
""",
    "parse_word": "assert weyl.parse_word('s1 s2').context == 'th1'",
    "apply_word_to_point": """
import random
word = weyl.parse_word("s0 s1 s0")
point = weyl.random_point(random.Random(3), "th1")
assert weyl.apply_word_to_point(word, point) != point
""",
}


@pytest.mark.parametrize("order, halves", [
    (["substitute", "apply_word_to_point"], [[RING_HALF], [RING_HALF, WEYL_HALF]]),
    (["parse_word", "apply_word_to_point"], [[WEYL_HALF], [RING_HALF, WEYL_HALF]]),
], ids=["ring_first", "weyl_first"])
def test_each_lazy_half_loads_on_first_use(order, halves):
    # a ring name loads the ring's half alone and a word the Weyl layer's;
    # a point action needs both, since its generator kernels are PointMaps
    steps = _run("steps = [loaded()]\n" + "".join(
        FIRST_USES[use] + "\nsteps.append(loaded())\n" for use in order
    ) + "print(json.dumps(steps))")
    assert steps == [SETUP_MODULES] + [sorted(SETUP_MODULES + h) for h in halves]


def _defined(path: Path) -> set[str]:
    """The names a module's source binds at top level, imports aside."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


@pytest.mark.parametrize("host, half", [("ring", "_ring_lazy"), ("weyl", "_weyl_lazy")])
def test_each_lazy_half_is_served_whole_by_its_module(host, half):
    package = Path(painleve_d32.__file__).parent
    host_mod = importlib.import_module(f"painleve_d32.{host}")
    half_mod = importlib.import_module(f"painleve_d32.{half}")
    assert host_mod._LAZY == _defined(package / f"{half}.py")
    assert not host_mod._LAZY & _defined(package / f"{host}.py")
    for name in host_mod._LAZY:
        assert getattr(host_mod, name) is getattr(half_mod, name), name
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        host_mod.no_such_name


def test_unknown_attribute_raises_attribute_error():
    raised = _run("""
try:
    painleve_d32.no_such_export
except AttributeError as exc:
    print(json.dumps([str(exc), loaded()]))
""")
    assert raised[0] == "module 'painleve_d32' has no attribute 'no_such_export'"
    assert "painleve_d32.verify" not in raised[1]


def test_group_reports_import_verify_on_use():
    kinds = _run("""
reports = weyl.verify_group_relations(2, 1) + [weyl.translation_report()]
from painleve_d32 import verify
print(json.dumps([isinstance(r, verify.VerificationReport) for r in reports]))
""")
    assert kinds and all(kinds)


def test_cli_import_leaves_numeric_unloaded():
    loaded = _run("import painleve_d32.cli\nprint(json.dumps(loaded()))")
    assert "painleve_d32.cli" in loaded and "painleve_d32.verify" in loaded
    assert "painleve_d32.numeric" not in loaded
