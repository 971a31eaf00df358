import os
import random
import subprocess
import sys

import pytest

from sparseproj import _kernels_py
from sparseproj.rat import rat


@pytest.fixture
def speedups():
    """The compiled kernels; a test that takes them is skipped when they are not built."""
    return pytest.importorskip("sparseproj._speedups")


def _rand_dict(rng, nvars, terms, span=4):
    out = {}
    for _ in range(terms):
        e = tuple(rng.randint(0, span) for _ in range(nvars))
        c = rng.randint(-50, 50)
        if c:
            out[e] = rat(c, rng.randint(1, 7))
    return out


def test_poly_mul_parity(speedups):
    rng = random.Random(1)
    for _ in range(40):
        a = _rand_dict(rng, 3, rng.randint(0, 6))
        b = _rand_dict(rng, 3, rng.randint(0, 6))
        assert _kernels_py.poly_mul(a, b) == speedups.poly_mul(a, b)


def test_poly_addmul_parity(speedups):
    rng = random.Random(2)
    for _ in range(40):
        acc1 = _rand_dict(rng, 2, 5)
        acc2 = dict(acc1)
        b = _rand_dict(rng, 2, 4)
        c = rat(rng.randint(-5, 5), rng.randint(1, 3))
        _kernels_py.poly_addmul(acc1, c, b)
        speedups.poly_addmul(acc2, c, b)
        assert acc1 == acc2


def test_poly_mul_trunc_parity(speedups):
    rng = random.Random(3)
    for _ in range(40):
        a = _rand_dict(rng, 2, 5)
        b = _rand_dict(rng, 2, 5)
        cap = rng.randint(0, 8)
        assert _kernels_py.poly_mul_trunc(a, b, cap) == \
            speedups.poly_mul_trunc(a, b, cap)


def test_backend_env_selection(speedups):
    code = ("import sparseproj.kernels as k; print(k.IMPLEMENTATION)")
    env = dict(os.environ, SPARSEPROJ_PURE="1")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "python"
    env.pop("SPARSEPROJ_PURE")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "cython"


def test_pure_python_backends_run_pipeline():
    # both fallbacks at once: pure-Python kernels and Fraction coefficients
    code = (
        "from sparseproj.rat import BACKEND\n"
        "from sparseproj.mpoly import SparsePoly\n"
        "from sparseproj.projection import parametric_toric_geomres\n"
        "import sparseproj.kernels as k\n"
        "assert k.IMPLEMENTATION == 'python' and BACKEND == 'fraction'\n"
        "g1 = SparsePoly(3, {(0,0,0): 2, (1,1,0): 3, (0,1,1): -1})\n"
        "g2 = SparsePoly(3, {(0,0,0): -1, (2,1,1): 2, (0,2,0): 2, (1,1,1): 1})\n"
        "res = parametric_toric_geomres([g1, g2], 1, (0, 1), xi=(1,))\n"
        "assert res.q[1].format() == '(-12*X1^3-6*X1^2+6*X1)/(4*X1^2+2*X1-1)'\n"
        "print('ok')\n"
    )
    env = dict(os.environ, SPARSEPROJ_PURE="1", SPARSEPROJ_RAT="fraction")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"
