"""The benchmark's hooks into the library still resolve.

perfbench/spans.py wraps library functions named by (module, attribute) and
skips a name it cannot find, so a renamed or removed function would make its
per-layer metric read zero without any error.  perfbench/cases.py imports
library names directly, so it must keep importing.  Both files are loaded
from their paths and are not changed.
"""

import importlib
import importlib.util
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load("spans").SPANS


@pytest.mark.parametrize(
    "module_name,attr",
    [target for targets in SPANS.values() for target in targets],
    ids=str,
)
def test_span_target_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr, None))


def test_cases_module_imports():
    cases = _load("cases")
    assert callable(cases.make_cases) and callable(cases.run_case)
