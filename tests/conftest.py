"""Shared test helpers: independent numeric oracles, hypothesis strategies,
and a child process that times work under a memory limit.

The library itself never touches floating point; the complex-embedding
oracle below lives only in the tests, as an independent cross-check of the
exact cyclotomic arithmetic.
"""

import cmath
import subprocess
import sys

import pytest
from hypothesis import strategies as st

from fuchskit.ratio import Rat
from fuchskit.scalar import Cyclotomic, ExponentClass
from fuchskit.laurent import LaurentPoly
from fuchskit.expring import ExpRingElem, GroupAlgElem


def embed_complex(c):
    """Numeric value of a Cyclotomic under zeta_N -> exp(2*pi*i/N)."""
    zeta = cmath.exp(2j * cmath.pi / c.n)
    return sum(
        (int(x.numerator) / int(x.denominator)) * zeta**i for i, x in enumerate(c.c)
    )


def assert_close(a, b, tol=1e-9):
    assert abs(a - b) < tol, (a, b)


# -- hypothesis strategies ---------------------------------------------------

rationals = st.builds(
    lambda p, q: Rat(p, q), st.integers(-12, 12), st.integers(1, 12)
)

exponent_classes = st.builds(ExponentClass, rationals)

small_conductors = st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12])


@st.composite
def cyclotomics(draw):
    from fuchskit.scalar import euler_phi

    n = draw(small_conductors)
    coeffs = [draw(rationals) for _ in range(euler_phi(n))]
    return Cyclotomic(n, coeffs)


@st.composite
def laurents(draw, max_terms=3, max_degree=4):
    n_terms = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n_terms):
        d = draw(st.integers(-max_degree, max_degree))
        terms[d] = Cyclotomic.from_rat(draw(rationals))
    return LaurentPoly(terms)


@st.composite
def groupalgs(draw, max_classes=2):
    parts = {}
    for _ in range(draw(st.integers(0, max_classes))):
        parts[draw(exponent_classes)] = draw(laurents())
    return GroupAlgElem(parts)


@st.composite
def exprings(draw, max_ell=3):
    return ExpRingElem([draw(groupalgs()) for _ in range(draw(st.integers(0, max_ell)))])


@pytest.fixture
def rng():
    import random

    return random.Random(20250809)


# -- child processes ----------------------------------------------------------

_CHILD = """
import resource, sys, time
try:
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
except (ValueError, OSError):
    pass
from fuchskit.scalar import Cyclotomic
{setup}
start = time.perf_counter()
{work}
elapsed = time.perf_counter() - start
try:
    # the peak of this address space; ru_maxrss survives exec, so it would
    # carry the peak of the test process that started this one
    with open("/proc/self/status") as fh:
        kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
except OSError:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (1024 if sys.platform == "darwin" else 1)
print(elapsed, kb / 1024)
"""


def run_child(setup, work, *args, timeout=120):
    """Seconds and peak MB of work in a child process under an address-space
    limit, after setup and the imports; a child still running after timeout
    seconds fails the test instead of hanging the suite."""
    pytest.importorskip("resource")
    import os

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    script = _CHILD.format(setup=setup, work=work)
    done = subprocess.run([sys.executable, "-c", script, *map(str, args)], capture_output=True, text=True, env=env, timeout=timeout)
    assert done.returncode == 0, done.stderr
    return tuple(map(float, done.stdout.split()))
