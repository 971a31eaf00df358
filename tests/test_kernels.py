import os
import subprocess
import sys


def test_pure_python_backends_run_pipeline():
    # the Fraction scalar backend end to end
    code = (
        "from sparseproj.rat import BACKEND\n"
        "from sparseproj.mpoly import SparsePoly\n"
        "from sparseproj.projection import parametric_toric_geomres\n"
        "assert BACKEND == 'fraction'\n"
        "g1 = SparsePoly(3, {(0,0,0): 2, (1,1,0): 3, (0,1,1): -1})\n"
        "g2 = SparsePoly(3, {(0,0,0): -1, (2,1,1): 2, (0,2,0): 2, (1,1,1): 1})\n"
        "res = parametric_toric_geomres([g1, g2], 1, (0, 1), xi=(1,))\n"
        "assert res.q[1].format() == '(-12*X1^3-6*X1^2+6*X1)/(4*X1^2+2*X1-1)'\n"
        "print('ok')\n"
    )
    env = dict(os.environ, SPARSEPROJ_RAT="fraction")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"
