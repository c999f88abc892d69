"""Every benchmark case at the recorded seeds still gives its pinned output.

perfbench/run.py reports a digest that differs from perfbench/digests.json
but still exits 0, so output drift would otherwise go unseen.  This runs one
pass of a workload's case list for one seed through perfbench/cases.run_case,
with the CLI cases run in-process, and compares every digest: every recorded
seed (0-10) of the cheap workloads wide_conductor and cli_mix, and seed 3 of
shear_search, whose eleven seeds together take about 15 s.  The benchmark
files are loaded from their paths and are not changed.
"""

import importlib.util
import json
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
PINNED_SEED = 3
ALL_SEEDS = range(11)


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _params():
    """(workload, seed) pairs; a seed-3 case keeps the bare workload id."""
    yield pytest.param("shear_search", PINNED_SEED, id="shear_search")
    for workload in ("wide_conductor", "cli_mix"):
        for seed in ALL_SEEDS:
            yield pytest.param(workload, seed, id=workload if seed == PINNED_SEED else f"{workload}-{seed}")


@pytest.mark.parametrize("workload, seed", _params())
def test_digests_match(workload, seed):
    cases, run = _load("cases"), _load("run")
    with open(os.path.join(PERFBENCH, "digests.json")) as fh:
        expected = json.load(fh)[workload][str(seed)]
    case_list = cases.make_cases(workload, seed)
    got = [cases.digest(cases.run_case(case, cli=run.run_cli_inprocess)) for case in case_list]
    assert len(got) == len(expected)
    differ = [(i, case.stratum) for i, (case, a, b) in enumerate(zip(case_list, got, expected)) if a != b]
    assert not differ, f"digests differ from perfbench/digests.json: {differ}"
