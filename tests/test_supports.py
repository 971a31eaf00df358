from fractions import Fraction
from itertools import combinations

import pytest

from sparseproj.polytope import Support, SupportFamily
from sparseproj.supports import (
    DegenerateFamily,
    VarOrder,
    _greedy_search,
    family_dim_ok,
    gamma_decomposition,
    project_supports,
    trans_basis,
)


def five_var_family():
    a1 = Support(5, [(0, 0, 0, 0, 0), (1, 1, 1, 0, 0), (2, 0, 0, 4, 2), (0, 0, 0, 8, 4)])
    a2 = Support(5, [(1, 0, 1, 1, 2), (0, 1, 2, 5, 4), (1, 3, 0, 5, 4)])
    return SupportFamily([a1, a2])


def test_trans_basis_five_vars():
    assert trans_basis(five_var_family()) == (0, 1, 3)


def test_trans_basis_square_family_empty():
    fam = SupportFamily([Support(2, [(0, 0), (1, 0)]), Support(2, [(0, 0), (0, 1)])])
    assert trans_basis(fam) == ()


def test_trans_basis_diagonal():
    fam = SupportFamily([Support(2, [(0, 0), (1, 1)])])
    assert trans_basis(fam) == (0,)


def test_trans_basis_degenerate():
    # a single-point support spans dimension 0 < 1
    with pytest.raises(DegenerateFamily):
        trans_basis(SupportFamily([Support(2, [(1, 1)])]))


def test_trans_basis_greedy_replay():
    fam = five_var_family()
    tb = trans_basis(fam)
    examined = list(_greedy_search(fam))
    seen = dict(examined)
    # every variable below max(TB) was examined; rejections are genuine
    for k in range(max(tb)):
        assert k in seen
        if k not in tb:
            assert seen[k] is False
    # re-running the positivity test on the full accepted family succeeds
    n, r = fam.dim, len(fam.members)
    keep = [i for i in range(n) if i not in tb]
    projected = [Support(len(keep), {tuple(p[i] for i in keep) for p in m.points})
                 for m in fam.members]
    assert family_dim_ok(SupportFamily(projected))


def affine_rank(points) -> int:
    """Dimension of the affine hull, by Gaussian elimination over Q."""
    pts = list(points)
    rows = [[Fraction(x - b) for x, b in zip(p, pts[0])] for p in pts[1:]]
    rank = 0
    for col in range(len(pts[0]) if pts else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _gamma_conditions(family, zero_set):
    n = family.dim
    keep = [i for i in range(n) if i not in zero_set]
    active, projected = [], []
    for j, m in enumerate(family.members):
        pts = {p for p in m.points if all(p[i] == 0 for i in zero_set)}
        if pts:
            active.append(j)
            if keep:
                projected.append({tuple(p[i] for i in keep) for p in pts})
    if zero_set and len(zero_set) == n and active:
        return False
    for size in range(1, len(projected) + 1):
        for combo in combinations(projected, size):
            pts = {(0,) * len(keep)}
            for s in combo:
                pts = {tuple(x + y for x, y in zip(p, q)) for p in pts for q in s}
            if affine_rank(pts) < size:
                return False

    def j_count(subset):
        cnt = 0
        for m in family.members:
            if any(all(p[i] == 0 for i in subset) for p in m.points):
                cnt += 1
        return cnt

    target = len(active) + len(zero_set)
    for size in range(len(zero_set) + 1):
        for combo in combinations(sorted(zero_set), size):
            if j_count(combo) + size < target:
                return False
    return True


def test_gamma_one_var():
    fam = SupportFamily([Support(1, [(1,), (2,)])])
    got = sorted(sorted(c.zero_set) for c in gamma_decomposition(fam))
    assert got == [[], [0]]


def test_gamma_two_var_only_empty():
    fam = SupportFamily([Support(2, [(1, 0), (0, 1)])])
    got = [sorted(c.zero_set) for c in gamma_decomposition(fam)]
    assert got == [[]]


def test_gamma_contains_empty_when_origin_supported():
    fam = SupportFamily([Support(2, [(0, 0), (1, 1)]), Support(2, [(0, 0), (2, 1)])])
    comps = gamma_decomposition(fam)
    assert frozenset() in {c.zero_set for c in comps}


def test_gamma_matches_literal_conditions_exhaustively(rng):
    # cross-check the returned set against a direct reading of both conditions
    for _ in range(10):
        n = rng.randint(1, 6)
        members = []
        for _ in range(rng.randint(1, min(3, n))):
            pts = {tuple(rng.randint(0, 2) for _ in range(n))
                   for _ in range(rng.randint(1, 4))}
            members.append(Support(n, pts))
        fam = SupportFamily(members)
        got = {c.zero_set for c in gamma_decomposition(fam)}
        for size in range(n + 1):
            for combo in combinations(range(n), size):
                zs = frozenset(combo)
                assert (zs in got) == _gamma_conditions(fam, zs), (fam, combo)


def test_project_supports():
    fam = SupportFamily([Support(5, [(0, 0, 0, 0, 0), (1, 1, 1, 0, 0),
                                     (2, 0, 0, 4, 2), (0, 0, 0, 8, 4)])])
    got = project_supports(fam, [0, 1, 2, 4])
    assert got.members[0].points == {(0, 0, 0, 0), (1, 1, 1, 0), (2, 0, 0, 2),
                                     (0, 0, 0, 4)}
    ident = project_supports(fam, range(5))
    assert ident.members[0] == fam.members[0]
    tri = project_supports(SupportFamily([Support.simplex(3)]), [0])
    assert tri.members[0].points == {(0,), (1,)}


def test_var_order_frame():
    vo = VarOrder((0, 1, 3), 5, 2, 3)
    assert vo.to_original == (0, 1, 2, 4, 3)
    assert vo.t == 2
    assert vo.free_original == (0, 1)
    assert vo.dependent_original == (2, 4)
    assert vo.projected_original == (2,)
    assert vo.specialized_original == (3,)
    assert [vo.to_frame[i] for i in vo.to_original] == list(range(5))
