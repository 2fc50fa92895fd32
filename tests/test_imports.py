"""Import boundaries: what ``import painleve_d32`` and the set-up load.

Each test runs in a fresh interpreter, because this test session has
already imported every module of the package.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

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


def test_setup_loads_only_ring_syntax_models_and_weyl():
    loaded = _run("print(json.dumps(loaded()))")
    assert loaded == [
        "painleve_d32",
        "painleve_d32.models",
        "painleve_d32.ring",
        "painleve_d32.syntax",
        "painleve_d32.weyl",
    ]


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
            if home in ("painleve_d32.numeric", "painleve_d32.verify")}
    assert lazy == {
        "dynamics_residual": "painleve_d32.numeric",
        "integrate": "painleve_d32.numeric",
        "invariant_drift": "painleve_d32.numeric",
        "pushforward": "painleve_d32.numeric",
        "first_integral_search": "painleve_d32.verify",
        "run_scope": "painleve_d32.verify",
    }


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
