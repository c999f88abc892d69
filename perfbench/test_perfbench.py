"""The benchmark's own tests: cliff guard, determinism, exact counters and
failure accounting.

    python3 -m pytest perfbench/test_perfbench.py -q

The exact-counter tests start two traced runs per workload and take a few
minutes.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import cases  # noqa: E402
import run  # noqa: E402
from fuchskit.diffmod import DiffModule, laurent_matrix  # noqa: E402
from fuchskit.functors import ExponentMultiset, exponents  # noqa: E402
from fuchskit.laurent import LaurentPoly  # noqa: E402
from fuchskit.linalg import Matrix  # noqa: E402
from fuchskit.ratio import Rat  # noqa: E402
from fuchskit.scalar import ExponentClass  # noqa: E402

SEEDS = (0, 1, 7, 123456)


@pytest.mark.parametrize("seed", SEEDS)
def test_cliff_cases_present_for_every_seed(seed):
    shear = cases.make_cases("shear_search", seed)
    dim7 = [c for c in shear if c.inputs["module"].dim == 7]
    assert dim7 and all(c.kind == "shear" for c in dim7)

    wide = cases.make_cases("wide_conductor", seed)
    compositum = [c for c in wide if c.stratum == "rt/d2/q84"]
    assert len(compositum) == 1
    assert exponents(compositum[0].inputs["module"]) == ExponentMultiset.from_classes(
        [ExponentClass(Rat(1, 7)), ExponentClass(Rat(5, 12))]
    )
    rank_one = [c.inputs["class"] for c in wide if c.kind == "rank1"]
    assert Rat(1, 2003) in rank_one and Rat(1, 1009) in rank_one


def _input_hash(workload, seed, hashseed):
    code = (
        "import hashlib, sys; sys.path[:0] = [%r, %r]; import cases; "
        "print(hashlib.sha256(cases.input_documents(cases.make_cases(%r, %d))).hexdigest())"
        % (HERE, run.SRC, workload, seed)
    )
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    first = _input_hash(workload, 5, 1)
    assert first == _input_hash(workload, 5, 2)
    assert first != _input_hash(workload, 6, 1)


def _traced(workload, seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed), "--trace", "1"],
        capture_output=True,
        text=True,
        check=True,
        cwd=run.ROOT,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["shear_search", "wide_conductor"])
def test_exact_counters_repeat(workload):
    first, second = _traced(workload, 3), _traced(workload, 3)
    assert first["failed"] == second["failed"] == 0
    for name in ("functors.jordan_per_roundtrip", "linalg.det_cofactor.calls", "scalar.max_conductor"):
        assert first["metrics"][name] == second["metrics"][name], name
    if workload == "shear_search":
        assert first["metrics"]["linalg.det_cofactor.calls"]["value"] > 0
    if workload == "wide_conductor":
        assert first["metrics"]["functors.jordan_per_roundtrip"]["value"] > 0
        assert first["metrics"]["scalar.max_conductor"]["value"] >= 84


def test_failures_are_counted_and_do_not_abort():
    good = cases.make_cases("wide_conductor", 1)[0]
    irregular = cases.Case(
        "shear",
        "irregular",
        {
            "module": DiffModule(laurent_matrix([[LaurentPoly({0: 1, 1: 1})]])),
            "gauge": Matrix.identity(1, LaurentPoly),
            "targets": [],
        },
    )
    good_digest = cases.digest(cases.run_case(good))
    workload = run.Workload("test", [good, irregular, good], expected=[good_digest, "0" * 16, "f" * 16])
    result = run.timed_loop(workload, 0)
    assert result["attempted"] == 3 * run.MIN_PASSES
    assert result["failed"] == 2 * run.MIN_PASSES
    assert result["failed"] / result["attempted"] == pytest.approx(2 / 3)
    assert [e["index"] for e in result["errors"]] == [1, 2] * run.MIN_PASSES
    assert "NotRegularWithinBounds" in result["errors"][0]["error"]
    assert "digest" in result["errors"][1]["error"]


def test_compare_refuses_different_backends():
    import compare

    rec = {"workload": "wide_conductor", "trace": 0, "meta": {"backend": "fractions"},
           "metrics": {"cases_per_s": {"value": 2.0, "unit": "1/s"}}}
    other = json.loads(json.dumps(rec))
    other["meta"]["backend"] = "gmpy2"
    with pytest.raises(ValueError, match="backends differ"):
        compare.compare(rec, other)
    assert compare.compare(rec, rec)[0][3] == 0.0


def test_bare_directory_fails_without_a_result(tmp_path):
    import shutil

    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_mix", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
        env=dict(os.environ, PYTHONPATH=""),
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

