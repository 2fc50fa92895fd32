"""Import boundaries: what ``import painleve_d32``, the set-up and each command load.

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
                 "painleve_d32.weyl"]
RING_HALF, WEYL_HALF = "painleve_d32._ring_lazy", "painleve_d32._weyl_lazy"
# only the models' half renders, so the renderer loads with it
MODELS_HALF = ["painleve_d32._models_lazy", "painleve_d32.syntax"]


def test_setup_loads_only_ring_models_and_weyl():
    # no lazy half and no renderer: the set-up never runs their code
    assert _run("print(json.dumps(loaded()))") == SETUP_MODULES


def test_hosts_serve_no_dunder_and_name_the_host_for_an_unknown_name():
    # a host serves only what its half defines, and never a dunder name, so
    # the lookups of import machinery and introspection load no half
    missing, after, messages = _run("""
from painleve_d32 import ring
hosts = (ring, models, weyl)
missing = [not hasattr(host, name) for host in hosts
           for name in ("__path__", "__all__", "__wrapped__")]
for host in hosts:
    exec(f"from {host.__name__} import *", {})
after = loaded()
messages = []
for host in hosts:
    try:
        host.no_such_name
    except AttributeError as exc:
        messages.append(str(exc))
print(json.dumps([missing, after, messages]))
""")
    assert missing == [True] * 9
    assert after == SETUP_MODULES
    assert messages == [f"module 'painleve_d32.{host}' has no attribute 'no_such_name'"
                        for host in ("ring", "models", "weyl")]


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
                        "painleve_d32._models_lazy", "painleve_d32._ring_lazy",
                        "painleve_d32._weyl_lazy")}
    assert lazy == {
        "load_integral": "painleve_d32._models_lazy",
        "load_particular_solution": "painleve_d32._models_lazy",
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
    (["substitute", "apply_word_to_point"],
     [[RING_HALF], [RING_HALF, WEYL_HALF, *MODELS_HALF]]),
    (["parse_word", "apply_word_to_point"],
     [[WEYL_HALF], [RING_HALF, WEYL_HALF, *MODELS_HALF]]),
], ids=["ring_first", "weyl_first"])
def test_each_lazy_half_loads_on_first_use(order, halves):
    # a ring name loads the ring's half alone and a word the Weyl layer's;
    # a point action needs all three, since its generator kernels are
    # PointMaps of the maps' pull-back bindings
    steps = _run("steps = [loaded()]\n" + "".join(
        FIRST_USES[use] + "\nsteps.append(loaded())\n" for use in order
    ) + "print(json.dumps(steps))")
    assert steps == [SETUP_MODULES] + [sorted(SETUP_MODULES + h) for h in halves]


PACKAGE = Path(painleve_d32.__file__).parent


def _defined(module: str) -> set[str]:
    """The names the package module ``module``'s source binds at top level,
    imports aside."""
    names = set()
    for node in ast.parse((PACKAGE / f"{module}.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


@pytest.mark.parametrize("host, half", [
    ("models", "_models_lazy"), ("ring", "_ring_lazy"), ("weyl", "_weyl_lazy"),
])
def test_each_lazy_half_is_served_whole_by_its_module(host, half):
    # the half's source is the only list of the names its host serves
    host_mod = importlib.import_module(f"painleve_d32.{host}")
    half_mod = importlib.import_module(f"painleve_d32.{half}")
    served = _defined(half)
    assert served and not served & _defined(host)
    for name in served:
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
    # and verify: the parser keeps its own copies of the scopes and variants
    loaded = _run("import painleve_d32.cli\nprint(json.dumps(loaded()))")
    assert loaded == sorted(SETUP_MODULES + ["painleve_d32.cli"])


# moved names and records' methods, each a first use of the models' half
MODELS_USES = {
    "dump_models": "models.dump_models()",
    "load_integral": "painleve_d32.load_integral('ywq')",
    "load_divisor": "from painleve_d32.models import load_divisor; load_divisor()",
    "flow": "models.load_model('five_dim').flow()",
    "pullback_bindings": """
bmap, table = models.load_map('s1_5d'), models.load_model('five_dim').table
bmap.pullback_bindings(table, table)
""",
}


@pytest.mark.parametrize("use", sorted(MODELS_USES))
def test_models_half_loads_on_first_use_and_serves_every_moved_name(use):
    before, after, served = _run(f"""
before = loaded()
{MODELS_USES[use]}
after = loaded()
half = sys.modules["painleve_d32._models_lazy"]
served = all(getattr(models, name) is getattr(half, name)
             for name in {sorted(_defined("_models_lazy"))})
served &= painleve_d32.load_particular_solution is half.load_particular_solution
print(json.dumps([before, after, served]))
""")
    assert before == SETUP_MODULES
    assert after == sorted(SETUP_MODULES + MODELS_HALF + (
        [RING_HALF] if use == "flow" else []))  # a flow is a ring Derivation
    assert served


CLI_RUN = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from painleve_d32 import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[2:])
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "painleve_d32")
has_json = "json" in sys.modules
import json
print(json.dumps([code, loaded, has_json]))
"""


def _cli_modules(*argv: str) -> tuple[set[str], bool]:
    """The package modules a fresh ``cli.main(argv)`` loads, and whether it
    loads ``json``; the command must exit 0."""
    done = subprocess.run(
        [sys.executable, "-c", CLI_RUN, SRC, *argv],
        capture_output=True, text=True, timeout=120, check=True,
    )
    code, loaded, has_json = json.loads(done.stdout.splitlines()[-1])
    assert code == 0, done.stdout
    return {m.rpartition(".")[2] for m in loaded}, has_json


def test_integrate_loads_numeric_without_verify_or_json():
    loaded, has_json = _cli_modules(
        "integrate", "five_dim", "--params", "alpha0=0.3,alpha1=0.25,alpha2=0.45,eta=0.7",
        "--init", "0.4,0.8,-0.3,0.5,-0.2", "--span", "0,1",
    )
    assert "numeric" in loaded and "verify" not in loaded
    assert not has_json


def test_group_orbit_loads_neither_numeric_nor_verify_nor_json():
    loaded, has_json = _cli_modules("group", "orbit", "s1 s2 s1 s0", "--steps", "1")
    assert not loaded & {"numeric", "verify"}
    assert not has_json


def test_verify_all_loads_verify_without_numeric():
    loaded, _ = _cli_modules("verify", "all")
    assert "verify" in loaded and "numeric" not in loaded


def test_dump_models_in_a_fresh_process_equals_the_golden_file():
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); from painleve_d32 import cli; "
         "sys.exit(cli.main(['--dump-models']))", SRC],
        capture_output=True, timeout=120, check=True,
    )
    golden = Path(__file__).parent / "golden_models.txt"
    assert done.stdout == golden.read_bytes()
