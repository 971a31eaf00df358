import pytest

from sparseproj.linalg import InconsistentSystem, KrylovEchelon
from sparseproj.rat import rat


def R(rows):
    return [[rat(x) for x in row] for row in rows]


def echelon(vectors):
    """A KrylovEchelon fed ``vectors`` until the first dependency.

    Returns the helper, the number of vectors kept and the relation (None
    when all vectors are independent).
    """
    kry = KrylovEchelon(rat(1))
    for k, v in enumerate(vectors):
        relation = kry.add(v)
        if relation is not None:
            return kry, k, relation
    return kry, len(vectors), None


def test_rank():
    assert echelon(R([[1, 2], [2, 4]]))[1:] == (1, [rat(2)])
    assert echelon(R([[1, 0], [0, 1]]))[1:] == (2, None)
    assert echelon(R([[0, 0]]))[1:] == (0, [])


def test_solve_rectangular_consistent():
    # columns (1, 0, 1) and (0, 1, 1) of a 3 x 2 system
    kry, kept, _ = echelon(R([[1, 0, 1], [0, 1, 1]]))
    assert kept == 2
    assert kry.solve(R([[2, 3, 5]])[0]) == [rat(2), rat(3)]
    with pytest.raises(InconsistentSystem):
        kry.solve(R([[2, 3, 6]])[0])


def test_solve_underdetermined_sets_free_to_zero():
    # the 1 x 3 system [1 1 0]: the second column depends on the first, so
    # the solve writes the right-hand side in the first column alone
    kry, kept, relation = echelon(R([[1], [1], [0]]))
    assert kept == 1 and relation == [rat(1)]
    assert kry.solve([rat(4)]) == [rat(4)]


def test_adds_after_a_dependency():
    # a dependent vector is not kept, and a later relation is over the
    # independent vectors kept so far: (3, 3) = 3 (1, 0) + 3 (0, 1)
    kry = KrylovEchelon(rat(1))
    assert [kry.add(v) for v in R([[1, 0], [2, 0], [0, 1], [3, 3]])] == \
        [None, [rat(2)], None, [rat(3), rat(3)]]


def test_ratfun_entries():
    from sparseproj.mpoly import SparsePoly
    from sparseproj.ratfun import RatFun

    x = RatFun.from_poly(SparsePoly(1, {(1,): 1}))
    one = RatFun.from_const(1, 1)
    zero = one - one
    kry = KrylovEchelon(one)
    # columns of [[x, 1], [1, x]]
    assert kry.add([x, one]) is None
    assert kry.add([one, x]) is None
    assert kry.solve([x * x + one, x + x]) == [x, one]
    # a third vector in the plane is dependent, with coefficients in Q(x)
    assert kry.add([one / x, zero]) == [one / (x * x - one), -one / (x * (x * x - one))]


def companion_krylov(coeffs):
    """Krylov vectors e_0, C e_0, ..., C^n e_0 of the companion matrix of
    the monic Y^n + sum coeffs_i Y^i (multiplication by Y on Q[Y]/(f))."""
    n = len(coeffs)
    vec = [rat(1)] + [rat(0)] * (n - 1)
    out = [vec]
    for _ in range(n):
        top = vec[-1]
        vec = [rat(0)] + vec[:-1]
        vec = [a - top * c for a, c in zip(vec, coeffs)]
        out.append(vec)
    return out


def test_companion_minimal_relation():
    coeffs = [rat(c) for c in (5, -3, 0, 2)]      # Y^4 + 2 Y^3 - 3 Y + 5
    kry, kept, relation = echelon(companion_krylov(coeffs))
    assert kept == 4
    assert relation == [-c for c in coeffs]
    # Y^4 = -5 + 3 Y - 2 Y^3, and the solve recovers any power-basis vector
    assert kry.solve(R([[7, 0, -1, 2]])[0]) == [rat(7), rat(0), rat(-1), rat(2)]


def test_early_dependency():
    # x^2 = y^2 = 1: on the basis (1, x, y, xy) multiplication by x has the
    # minimal polynomial Y^2 - 1, of degree 2 < 4
    one, x, y, xy = R([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    kry, kept, relation = echelon([one, x, one])
    assert kept == 2 and relation == [rat(1), rat(0)]
    with pytest.raises(InconsistentSystem):
        kry.solve(y)
    with pytest.raises(InconsistentSystem):
        kry.solve(xy)
    assert kry.solve(R([[3, -2, 0, 0]])[0]) == [rat(3), rat(-2)]
