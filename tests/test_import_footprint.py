"""A process maps only what it runs: OpenSSL loads with a calibration key.

``import hashlib`` maps OpenSSL (``_hashlib``, about 3.6 MB of RSS), and
only a calibration cache computes a digest.  ``repro.cost.cache`` imports
``hashlib`` inside the two functions that digest, so importing the
package, calibrating without a cache and running a service window leave
it unloaded, and the keys a cache computes are unchanged.
"""

import ast
import pathlib
import subprocess
import sys

from repro.cost.cache import CalibrationCache
from repro.engine.stream import StreamConfig

from .util import (
    make_toy_catalog,
    shared_plan_for,
    toy_query_region,
    toy_query_total,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent

_CHILD = """
import sys
sys.path[:0] = [{src!r}, {root!r}]
import repro.service.core
import repro.core.optimizer
import repro.engine.calibrate
from repro.core.optimizer import OptimizerConfig
from repro.engine.calibrate import calibrate_plan
from repro.service.core import QueryService
from tests.util import (
    make_toy_catalog, shared_plan_for, toy_query_region, toy_query_total)

def loaded():
    return [name for name in ("hashlib", "_hashlib") if name in sys.modules]

assert not loaded(), "importing repro loaded %s" % loaded()
catalog = make_toy_catalog(seed=31)
plan = shared_plan_for(
    catalog, [toy_query_total(catalog, 0), toy_query_region(catalog, 1)])
calibrate_plan(plan, cache=None)
assert not loaded(), "an uncached calibration loaded %s" % loaded()
service = QueryService(
    lambda window: make_toy_catalog(seed=41 + window),
    OptimizerConfig(max_pace=6))
service.register(toy_query_total(service.basis_catalog, 0), "a", 50.0)
service.register(toy_query_region(service.basis_catalog, 1), "b", 50.0)
assert service.run_window().run is not None
assert not loaded(), "a cache-less service window loaded %s" % loaded()
print("hashlib unloaded")
"""


def test_imports_calibration_and_a_window_leave_openssl_unmapped():
    script = _CHILD.format(src=str(ROOT / "src"), root=str(ROOT))
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=str(ROOT),
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert "hashlib unloaded" in done.stdout


def test_hashlib_is_imported_only_inside_functions():
    at_module_level = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text())
        inside = {
            id(node)
            for function in ast.walk(tree)
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(function)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if "hashlib" in names and id(node) not in inside:
                at_module_level.append("%s:%d" % (path, node.lineno))
    assert not at_module_level, at_module_level


def test_calibration_keys_are_unchanged():
    # the digest of this toy plan before hashlib moved into the functions
    catalog = make_toy_catalog(seed=31)
    plan = shared_plan_for(
        catalog, [toy_query_total(catalog, 0), toy_query_region(catalog, 1)])
    key = CalibrationCache("unused").key_for(plan, StreamConfig())
    assert key == (
        "0e3a4ab813122fbd6bd7d91d72128de3dfb6b005d9ff9390c1b1190445b148dd")
    assert "hashlib" in sys.modules
