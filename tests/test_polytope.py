from fractions import Fraction
from itertools import product
from math import comb, factorial, prod

import pytest

from sparseproj import polytope
from sparseproj.polytope import (
    PolytopeError,
    Support,
    SupportFamily,
    hull_volume_and_corners,
    mixed_volume,
)
from sparseproj.rat import rat
from sparseproj.supports import family_dim_ok


def hull_volume(s):
    """Exact Euclidean volume of conv(s.points); 0 when lower-dimensional."""
    scaled, _ = hull_volume_and_corners(s.points)
    return Fraction(scaled, factorial(s.dim))


def minkowski_sum(a, b):
    """Pointwise sum set {p+q}."""
    return Support(a.dim, {tuple(x + y for x, y in zip(p, q))
                           for p in a.points for q in b.points})


# -- independent 2D oracle: monotone chain + shoelace -------------------------

def _hull2d(points):
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and (
                    (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                    - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    return lower[:-1] + upper[:-1]


def _shoelace(points):
    hull = _hull2d(points)
    if len(hull) < 3:
        return Fraction(0)
    s = 0
    for (x1, y1), (x2, y2) in zip(hull, hull[1:] + hull[:1]):
        s += x1 * y2 - x2 * y1
    return Fraction(abs(s), 2)


def _mv2_oracle(a, b):
    s = {(x1 + x2, y1 + y2) for x1, y1 in a for x2, y2 in b}
    return _shoelace(s) - _shoelace(a) - _shoelace(b)


def test_volume_examples():
    assert hull_volume(Support(2, [(0, 0), (1, 0), (0, 1)])) == rat(1, 2)
    assert hull_volume(Support(2, [(0, 0), (1, 1)])) == 0
    assert hull_volume(Support(2, [(0, 0), (2, 0), (1, 1)])) == 1


def test_volume_against_shoelace(rng):
    for _ in range(30):
        pts = [(rng.randint(0, 6), rng.randint(0, 6))
               for _ in range(rng.randint(1, 10))]
        got = hull_volume(Support(2, pts))
        want = _shoelace(pts)
        assert got == rat(want.numerator, want.denominator)


def test_mixed_volume_examples():
    d2 = Support.simplex(2)
    assert mixed_volume(SupportFamily([d2, d2])) == 1
    p1 = Support(2, [(0, 0), (1, 0), (1, 1)])
    p2 = Support(2, [(0, 0), (1, 1), (2, 0)])
    assert mixed_volume(SupportFamily([p1, p2])) == 2
    # the worked example's fiber family
    s1 = Support(3, [(0, 0, 0), (1, 1, 0), (0, 1, 1)])
    s2 = Support(3, [(0, 0, 0), (2, 1, 1), (0, 2, 0), (1, 1, 1)])
    assert mixed_volume(SupportFamily([s1, s2, Support.simplex(3)])) == 6
    with pytest.raises(PolytopeError):
        mixed_volume(SupportFamily([d2]))


def test_mv_positive_examples():
    # positivity by Minkowski's criterion.
    # five-variable family: {X1,X2,X4} independent, {X1,X2,X3} not
    a1 = Support(5, [(0, 0, 0, 0, 0), (1, 1, 1, 0, 0), (2, 0, 0, 4, 2), (0, 0, 0, 8, 4)])
    a2 = Support(5, [(1, 0, 1, 1, 2), (0, 1, 2, 5, 4), (1, 3, 0, 5, 4)])

    def seg(i):
        e = [0] * 5
        e[i] = 1
        return Support(5, [(0,) * 5, tuple(e)])

    assert family_dim_ok(SupportFamily([a1, a2, seg(0), seg(1), seg(3)]))
    assert not family_dim_ok(SupportFamily([a1, a2, seg(0), seg(1), seg(2)]))
    assert not family_dim_ok(SupportFamily([Support(1, [(2,)])]))


def test_mv_random_2d_against_oracle(rng):
    for _ in range(25):
        a = frozenset((rng.randint(0, 4), rng.randint(0, 4))
                      for _ in range(rng.randint(1, 5)))
        b = frozenset((rng.randint(0, 4), rng.randint(0, 4))
                      for _ in range(rng.randint(1, 5)))
        got = mixed_volume(SupportFamily([Support(2, a), Support(2, b)]))
        want = _mv2_oracle(a, b)
        assert got == want


def _random_support(rng, dim, npts=4, span=3):
    return Support(dim, {tuple(rng.randint(0, span) for _ in range(dim))
                         for _ in range(rng.randint(1, npts))})


def test_mv_symmetry_and_translation(rng):
    for _ in range(10):
        fam = [_random_support(rng, 3) for _ in range(3)]
        base = mixed_volume(SupportFamily(fam))
        shuffled = fam[:]
        rng.shuffle(shuffled)
        assert mixed_volume(SupportFamily(shuffled)) == base
        shifted = [Support(3, [tuple(x + d for x, d in zip(p, (1, 0, 2)))
                               for p in fam[0].points])] + fam[1:]
        assert mixed_volume(SupportFamily(shifted)) == base


def test_mv_multilinearity(rng):
    for _ in range(10):
        a, a2, b, c = (_random_support(rng, 3) for _ in range(4))
        left = mixed_volume(SupportFamily([minkowski_sum(a, a2), b, c]))
        right = (mixed_volume(SupportFamily([a, b, c]))
                 + mixed_volume(SupportFamily([a2, b, c])))
        assert left == right


def test_mv_diagonal(rng):
    for _ in range(10):
        a = _random_support(rng, 3, npts=6)
        assert mixed_volume(SupportFamily([a, a, a])) == \
            factorial(3) * hull_volume(a)


def test_dimension_cap():
    d = Support.simplex(13)
    with pytest.raises(PolytopeError, match="exceeds cap 12"):
        mixed_volume(SupportFamily([d] * 13))


# -- vertices of the hull ----------------------------------------------------------


def test_hull_vertices_of_lattice_cube_and_simplex():
    cube = list(product(range(3), repeat=3))
    scaled, vertices = hull_volume_and_corners(cube)
    assert scaled == 48
    assert vertices == list(product((0, 2), repeat=3))
    two_simplex = [p for p in cube if sum(p) <= 2]
    assert hull_volume_and_corners(two_simplex)[1] == \
        [(0, 0, 0), (0, 0, 2), (0, 2, 0), (2, 0, 0)]


def test_hull_lower_dimensional_returns_input():
    planar = [(0, 0, 1), (2, 0, 1), (0, 3, 1), (1, 1, 1), (2, 3, 1)]
    assert hull_volume_and_corners(planar) == (0, sorted(planar))


def test_hull_vertices_against_monotone_chain(rng):
    for _ in range(30):
        pts = [(rng.randint(0, 6), rng.randint(0, 6)) for _ in range(rng.randint(3, 12))]
        scaled, vertices = hull_volume_and_corners(pts)
        if scaled:
            assert vertices == sorted(_hull2d(pts))


def test_hull_in_one_dimension():
    assert hull_volume_and_corners([(3,), (1,), (7,), (5,)]) == (6, [(1,), (7,)])
    assert hull_volume_and_corners([(4,), (4,), (4,)]) == (0, [(4,)])


# -- facet normals against the generalized cross product ----------------------------


def _cross_product(pts):
    """Signed maximal minors of the difference vectors, by Leibniz's formula."""
    from itertools import permutations

    rows = [[x - b for x, b in zip(p, pts[0])] for p in pts[1:]]
    d = len(pts[0])

    def det(m):
        total = 0
        for perm in permutations(range(len(m))):
            inversions = sum(perm[i] > perm[j] for i in range(len(perm))
                             for j in range(i + 1, len(perm)))
            total += (-1) ** inversions * prod(m[i][perm[i]] for i in range(len(m)))
        return total

    return tuple((-1) ** i * det([r[:i] + r[i + 1:] for r in rows]) for i in range(d))


def test_facet_normal_is_parallel_to_the_cross_product(rng):
    kinds = {"generic": 0, "last minor singular": 0, "degenerate": 0}
    for trial in range(400):
        d = 2 + trial % 4
        pts = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(d)]
        if trial % 5 == 1:
            # every difference vector starts with 0, so the minor without the
            # last column is singular
            pts = [(pts[0][0],) + p[1:] for p in pts]
        elif trial % 5 == 2:
            # a repeated point: rank below d - 1
            pts[-1] = pts[0]
        normal = polytope._facet_normal(pts)
        cross = _cross_product(pts)
        # parallel and of the same size: normal = +-cross
        assert normal in (cross, tuple(-x for x in cross))
        for p in pts[1:]:
            assert sum(a * (x - y) for a, x, y in zip(normal, p, pts[0])) == 0
        if not any(cross):
            kinds["degenerate"] += 1
        elif cross[-1] == 0:
            kinds["last minor singular"] += 1
        else:
            kinds["generic"] += 1
    assert min(kinds.values()) >= 40, kinds


# -- the one elimination against a Fraction oracle -------------------------------------


def _fraction_eliminate(rows, rhs=None):
    """Gaussian elimination over Q: (rank, signed det, solution or None)."""
    m = [[Fraction(x) for x in r] for r in rows]
    if rhs is not None:
        for r, b in zip(m, rhs):
            r.append(Fraction(b))
    cols = len(rows[0]) if rows else 0
    det, rank = Fraction(1), 0
    for col in range(cols):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            det = Fraction(0)
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            det = -det
        det *= m[rank][col]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col] / m[rank][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    solution = None
    if rhs is not None and det:
        solution = [m[i][-1] / m[i][i] for i in range(len(m))]
    return rank, det, solution


def _random_matrix(rng, rows, cols, rank):
    """A rows x cols integer matrix of rank at most ``rank``, as a product."""
    left = [[rng.randint(-4, 4) for _ in range(rank)] for _ in range(rows)]
    right = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rank)]
    return [[sum(row[k] * right[k][j] for k in range(rank)) for j in range(cols)]
            for row in left]


def test_int_solve_against_fraction_elimination(rng):
    seen = {"singular": 0, "negative": 0, "positive": 0}
    for trial in range(300):
        n = trial % 6
        if n and trial // 6 % 3 == 0:
            rows = _random_matrix(rng, n, n, rng.randint(0, n - 1))
        else:
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        rhs = [rng.randint(-9, 9) for _ in range(n)]
        _, det, x = _fraction_eliminate(rows, rhs)
        got_det, y = polytope._int_solve(rows, rhs)
        assert got_det == det
        if not det:
            assert y is None
            seen["singular"] += 1
            continue
        assert y == [det * v for v in x]
        assert [sum(a * b for a, b in zip(r, y)) for r in rows] == [det * b for b in rhs]
        seen["negative" if det < 0 else "positive"] += 1
    assert min(seen.values()) >= 30, seen


def test_int_rank_against_fraction_elimination(rng):
    for trial in range(200):
        rows, cols = rng.randint(1, 6), rng.randint(1, 5)
        m = _random_matrix(rng, rows, cols, rng.randint(0, min(rows, cols)))
        m.insert(rng.randint(0, len(m)), [0] * cols)
        m.insert(rng.randint(0, len(m)), list(rng.choice(m)))
        assert polytope._int_rank(m) == _fraction_eliminate(m)[0]
    assert polytope._int_rank([]) == 0


# -- grouped inclusion-exclusion against the plain subset sum ------------------------


def _mv_subset_oracle(members):
    """Inclusion-exclusion over all 2^n subsets of the family, each subset's
    Minkowski sum taken over every point."""
    n = members[0].dim
    total = 0
    for mask in range(1, 1 << n):
        chosen = [m for i, m in enumerate(members) if mask >> i & 1]
        acc = chosen[0]
        for m in chosen[1:]:
            acc = minkowski_sum(acc, m)
        scaled, _ = hull_volume_and_corners(acc.points)
        total += (-1) ** (n - len(chosen)) * scaled
    assert total % factorial(n) == 0
    return total // factorial(n)


def _translate(s, shift):
    return Support(s.dim, [tuple(x + d for x, d in zip(p, shift)) for p in s.points])


def test_mv_grouped_against_subset_oracle(rng):
    seen = {"repeated": 0, "translated": 0, "simplex": 0}
    for _ in range(50):
        dim = rng.randint(2, 4)
        pool = [_random_support(rng, dim, npts=4, span=2), Support.simplex(dim)]
        members = []
        for _ in range(dim):
            base = rng.choice(pool)
            shift = tuple(rng.randint(0, 1) for _ in range(dim))
            members.append(_translate(base, shift))
        bases = [m.translate_to_origin() for m in members]
        seen["repeated"] += len(set(bases)) < dim
        seen["translated"] += len(set(bases)) < len(set(members))
        seen["simplex"] += Support.simplex(dim) in bases
        assert mixed_volume(SupportFamily(members)) == _mv_subset_oracle(members)
    assert all(count >= 10 for count in seen.values()), seen


# -- the five-variable degree cap -----------------------------------------------------

FIVEVAR_A1 = Support(5, [(0, 0, 0, 0, 0), (1, 1, 1, 0, 0), (2, 0, 0, 4, 2), (0, 0, 0, 8, 4)])
FIVEVAR_A2 = Support(5, [(1, 0, 1, 1, 2), (0, 1, 2, 5, 4), (1, 3, 0, 5, 4)])


def _degree_cap_family():
    return SupportFamily([FIVEVAR_A1, FIVEVAR_A2] + [Support.simplex(5)] * 3)


def test_fivevar_degree_cap():
    assert mixed_volume(_degree_cap_family()) == 66


def test_degree_cap_one_hull_per_distinct_member(monkeypatch):
    """The mixed cells take vertices of the members themselves: the three
    equal simplices and the two other supports make three hulls, and no
    Minkowski sum is built."""
    calls = []
    real = polytope.hull_volume_and_corners

    def counting(points):
        calls.append(len(points))
        return real(points)

    monkeypatch.setattr(polytope, "hull_volume_and_corners", counting)
    polytope._mixed_volume_normalized.cache_clear()
    assert mixed_volume(_degree_cap_family()) == 66
    assert sorted(calls) == [3, 4, 6]


# -- mixed cells against the grouped inclusion-exclusion -------------------------------


def _mv_grouped_oracle(members):
    """Inclusion-exclusion over multiplicity vectors of the distinct translated
    members, each Minkowski sum built from the vertices of one with a summand
    fewer and weighted by prod_i C(k_i, j_i)."""
    n = members[0].dim
    normalized = [m.translate_to_origin().points for m in members]
    distinct = list(dict.fromkeys(normalized))
    mult = [normalized.count(pts) for pts in distinct]
    vertices = [hull_volume_and_corners(pts)[1] for pts in distinct]
    zero = (0,) * len(distinct)
    sums = {zero: [(0,) * n]}
    total = 0
    for j in product(*(range(k + 1) for k in mult)):
        if j == zero:
            continue
        i = next(i for i, j_i in enumerate(j) if j_i)
        pred = j[:i] + (j[i] - 1,) + j[i + 1:]
        scaled, sums[j] = hull_volume_and_corners(
            {tuple(x + y for x, y in zip(p, q)) for p in sums[pred] for q in vertices[i]})
        weight = prod(comb(k, j_i) for k, j_i in zip(mult, j))
        total += (-1) ** (n - sum(j)) * weight * scaled
    assert total % factorial(n) == 0
    return total // factorial(n)


def _oracle_family(rng, dim):
    """Members drawn from a pool of a random support, a lower-dimensional
    one, a one-point support and the simplex, each translated at random."""
    flat = [tuple(rng.randint(0, 2) for _ in range(dim - 1)) + (1,)
            for _ in range(rng.randint(2, 4))]
    pool = [_random_support(rng, dim, npts=8 - dim, span=2), Support(dim, flat),
            Support(dim, [(1,) * dim]), Support.simplex(dim)]
    weights = [10, 2, 1, 4]
    return [_translate(rng.choices(pool, weights)[0],
                       tuple(rng.randint(0, 1) for _ in range(dim)))
            for _ in range(dim)]


def test_mixed_cells_against_grouped_oracle(rng):
    seen = {"repeated": 0, "translated": 0, "lower": 0, "point": 0, "simplex": 0,
            "zero": 0}
    for trial in range(100):
        dim = 5 if trial % 10 == 9 else 2 + trial % 3   # the oracle is slow at n = 5
        members = _oracle_family(rng, dim)
        bases = [m.translate_to_origin() for m in members]
        mv = mixed_volume(SupportFamily(members))
        assert mv == _mv_grouped_oracle(members)
        assert (mv > 0) == family_dim_ok(members)
        seen["repeated"] += len(set(bases)) < dim
        seen["translated"] += len(set(bases)) < len(set(members))
        seen["lower"] += any(len(b.points) > 1 and hull_volume(b) == 0 for b in bases)
        seen["point"] += any(len(b.points) == 1 for b in bases)
        seen["simplex"] += Support.simplex(dim) in bases
        seen["zero"] += mv == 0
    assert all(count >= 10 for count in seen.values()), seen


def test_positivity_agrees_with_mixed_volume(rng):
    """family_dim_ok, which the greedy basis search now asks, against the
    predicate it replaces: a positive mixed volume."""
    agreed = {True: 0, False: 0}
    for trial in range(150):
        dim = 1 + trial % 4
        members = [_random_support(rng, dim, npts=3, span=2) for _ in range(dim)]
        positive = _mv_grouped_oracle(members) > 0
        assert family_dim_ok(members) == positive
        agreed[positive] += 1
    assert min(agreed.values()) >= 30, agreed


# mixed volumes of the benchmark's square Bernstein catalogue
BERNSTEIN_FAMILIES = [
    ([[(0, 0, 0), (2, 2, 0), (0, 1, 1)], [(0, 0, 0), (1, 1, 1), (0, 0, 1), (0, 2, 0)],
      [(0, 0, 0), (1, 0, 0), (2, 2, 0)]], 9),
    ([[(0, 0, 0), (0, 2, 2), (1, 0, 0)], [(0, 0, 0), (0, 1, 2), (2, 1, 2)],
      [(0, 0, 0), (0, 2, 1), (0, 1, 2)]], 11),
    ([[(0, 0, 0), (0, 0, 2), (0, 1, 1)], [(0, 0, 0), (2, 0, 0), (2, 2, 0)],
      [(0, 0, 0), (0, 0, 2), (2, 2, 2), (0, 0, 1)]], 12),
    ([[(0, 0, 0), (1, 1, 2), (1, 1, 1)], [(0, 0, 0), (0, 0, 2), (1, 2, 2), (0, 2, 1)],
      [(0, 0, 0), (2, 1, 0), (0, 0, 2), (2, 1, 1)]], 13),
    ([[(0, 0, 0), (1, 2, 1), (1, 0, 2), (0, 2, 1)], [(0, 0, 0), (1, 1, 0), (1, 0, 0), (1, 2, 1)],
      [(0, 0, 0), (0, 0, 1), (2, 1, 1), (2, 0, 1)]], 13),
    ([[(0, 0, 0), (1, 1, 0), (0, 0, 2)], [(0, 0, 0), (2, 1, 0), (2, 2, 0)],
      [(0, 0, 0), (2, 2, 2), (0, 2, 0)]], 14),
    ([[(0, 0, 0), (0, 1, 1), (1, 1, 0), (2, 0, 1)], [(0, 0, 0), (0, 2, 0), (2, 1, 0)],
      [(0, 0, 0), (0, 2, 2), (1, 1, 2), (1, 0, 0)]], 15),
    ([[(0, 0, 0), (0, 1, 2), (0, 0, 1), (2, 1, 1)], [(0, 0, 0), (0, 2, 1), (1, 0, 2), (1, 0, 1)],
      [(0, 0, 0), (0, 0, 1), (2, 0, 0), (1, 0, 2)]], 17),
]


@pytest.mark.parametrize("supports,mv", BERNSTEIN_FAMILIES,
                         ids=[f"{i}-mv{mv}" for i, (_, mv) in enumerate(BERNSTEIN_FAMILIES)])
def test_bernstein_catalogue_mixed_volumes(supports, mv):
    members = [Support(3, pts) for pts in supports]
    assert mixed_volume(SupportFamily(members)) == mv
    assert _mv_grouped_oracle(members) == mv


# -- the seeded lifting and its tie certificate ---------------------------------------


def test_tied_lifting_is_redrawn(monkeypatch):
    draws = []
    real = polytope._draw_lifting

    def flat_first(rng, members):
        heights = real(rng, members)
        draws.append(heights)
        return [[0] * len(h) for h in heights] if len(draws) == 1 else heights

    monkeypatch.setattr(polytope, "_draw_lifting", flat_first)
    polytope._mixed_volume_normalized.cache_clear()
    assert mixed_volume(_degree_cap_family()) == 66
    assert len(draws) == 2


def test_always_tied_lifting_raises(monkeypatch):
    monkeypatch.setattr(polytope, "_draw_lifting",
                        lambda rng, members: [[7] * len(pts) for pts in members])
    polytope._mixed_volume_normalized.cache_clear()
    with pytest.raises(PolytopeError, match="no generic lifting"):
        mixed_volume(_degree_cap_family())
    polytope._mixed_volume_normalized.cache_clear()
