import os
import random
import subprocess
import sys

import pytest

import sparseproj
from sparseproj.mpoly import SparsePoly
from sparseproj.rat import rat


def run_guarded(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``python -c code args`` against this checkout, failing a hang after 60 s."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sparseproj.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=60)


@pytest.fixture
def rng():
    return random.Random(20240811)


def random_poly(rng, nvars, max_terms=5, max_exp=3, bound=20):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        c = 0
        while c == 0:
            c = rng.randint(-bound, bound)
        terms[e] = terms.get(e, 0) + c
    p = SparsePoly(nvars, {e: rat(c) for e, c in terms.items() if c})
    return p if p else SparsePoly.const(nvars, 1)


def expand_fraction(ring, num, den):
    """Expand num/den around the ring's shift point; den must not vanish there."""
    return ring.expand_poly(num) / ring.expand_poly(den)


def packing_edge_series(nvars, kappa, sign=1):
    """Components 0..kappa+1 of a series: the constant, then in every degree d
    each pure power Z_i^d and, for nvars > 1, Z_1^(d-1)*Z_nvars.  In degree
    kappa a coordinate equals kappa, the largest digit of the series kernels'
    packed exponents, and products of two such series cross degree kappa."""
    comps = [{(0,) * nvars: rat(sign, 2)}]
    for d in range(1, kappa + 2):
        comp = {tuple(d if j == i else 0 for j in range(nvars)): rat(sign * (i + 1), d + 2)
                for i in range(nvars)}
        if nvars > 1:
            comp[(d - 1,) + (0,) * (nvars - 2) + (1,)] = rat(-sign, d + 3)
        comps.append(comp)
    return comps


def threevar_system():
    """The worked three-variable system with X1 as parameter."""
    g1 = SparsePoly(3, {(0, 0, 0): 2, (1, 1, 0): 3, (0, 1, 1): -1})
    g2 = SparsePoly(3, {(0, 0, 0): -1, (2, 1, 1): 2, (0, 2, 0): 2, (1, 1, 1): 1})
    return [g1, g2]


def threevar_fiber():
    """Its specialization at X1 = 1, in the two dependent variables."""
    g1 = SparsePoly(2, {(0, 0): 2, (1, 0): 3, (1, 1): -1})
    g2 = SparsePoly(2, {(0, 0): -1, (1, 1): 3, (2, 0): 2})
    return [g1, g2]


def fivevar_system():
    """The five-variable sparse system projected to (X1, X2, X3)."""
    f1 = SparsePoly(5, {(0, 0, 0, 0, 0): 3, (1, 1, 1, 0, 0): 2,
                        (2, 0, 0, 4, 2): -1, (0, 0, 0, 8, 4): 5})
    f2 = SparsePoly(5, {(1, 0, 1, 1, 2): 2, (0, 1, 2, 5, 4): -3,
                        (1, 3, 0, 5, 4): 7})
    return [f1, f2]


def fivevar_specialized():
    """The same system with X4 = 1, in the frame (X1, X2, X3, X5)."""
    f1 = SparsePoly(4, {(0, 0, 0, 0): 3, (1, 1, 1, 0): 2,
                        (2, 0, 0, 2): -1, (0, 0, 0, 4): 5})
    f2 = SparsePoly(4, {(1, 0, 1, 2): 2, (0, 1, 2, 4): -3, (1, 3, 0, 4): 7})
    return [f1, f2]
