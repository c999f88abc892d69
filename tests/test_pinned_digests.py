"""Every benchmark case at seed 3 still gives its pinned output.

perfbench/run.py reports a digest that differs from perfbench/digests.json
but still exits 0, so output drift would otherwise go unseen.  This runs one
pass of each workload's seed-3 case list through perfbench/cases.run_case,
with the CLI cases run in-process, and compares every digest.  The benchmark
files are loaded from their paths and are not changed.
"""

import importlib.util
import json
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
SEED = 3


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["shear_search", "wide_conductor", "cli_mix"])
def test_digests_match(workload):
    cases, run = _load("cases"), _load("run")
    with open(os.path.join(PERFBENCH, "digests.json")) as fh:
        expected = json.load(fh)[workload][str(SEED)]
    case_list = cases.make_cases(workload, SEED)
    got = [cases.digest(cases.run_case(case, cli=run.run_cli_inprocess)) for case in case_list]
    assert len(got) == len(expected)
    differ = [(i, case.stratum) for i, (case, a, b) in enumerate(zip(case_list, got, expected)) if a != b]
    assert not differ, f"digests differ from perfbench/digests.json: {differ}"
