"""Combinatorics on support families.

Three pieces live here:

* the greedy transcendence-basis search, which walks the variables in order
  and keeps X_k whenever the mixed volume of the test family (supports plus
  one segment {0, e_i} per kept variable plus simplices) stays positive --
  the test is run in the quotient dimension by projecting away the
  candidate variables first, which is an exact reformulation, and decided
  by Minkowski's criterion (``family_dim_ok``) without computing a volume;
* the Gamma decomposition, enumerating the coordinate subsets I whose toric
  pieces cover the affine variety, each with its surviving equation set J_I
  and projected supports;
* coordinate projections of supports and the variable permutation object the
  projection pipeline threads through, so that renamed variables can always
  be reported in the caller's original numbering.

Variable indices are 0-based throughout.
"""

from __future__ import annotations

from itertools import combinations

from .polytope import (
    PolytopeError,
    Support,
    SupportFamily,
    _int_rank,
)


class DegenerateFamily(ValueError):
    pass


GAMMA_CAP = 20


def project_supports(family: SupportFamily, keep) -> SupportFamily:
    """Drop the coordinates outside ``keep`` (0-based, kept in given order)."""
    keep = list(keep)
    if not keep:
        raise ValueError("keep set must be nonempty")
    return SupportFamily([Support(len(keep), {tuple(p[i] for i in keep) for p in m.points})
                          for m in family.members])


def family_dim_ok(supports) -> bool:
    """Standing hypothesis: dim(sum of any subfamily) >= its size.

    ``supports`` is any sequence of Supports of one dimension (a
    SupportFamily included); an empty one passes.  For a square family this
    is Minkowski's criterion for a positive mixed volume (Schneider, *Convex
    Bodies*, Thm 5.1.8).  The dimension of a sum is the rank of the union of
    its members' difference vectors, so no sum is built.
    """
    edges = []
    for s in supports:
        base = min(s.points)
        edges.append([[x - b for x, b in zip(p, base)] for p in s.points if p != base])
    for size in range(1, len(edges) + 1):
        for subset in combinations(edges, size):
            if _int_rank([row for e in subset for row in e]) < size:
                return False
    return True


def _greedy_search(family: SupportFamily):
    """The greedy search: yields (variable, accepted) in examination order.

    X_k is accepted when the supports with the candidate basis projected
    away, plus one simplex per basis element still missing, have positive
    mixed volume, which ``family_dim_ok`` decides.
    """
    n = family.dim
    r = len(family.members)
    tb: list[int] = []
    for k in range(n):
        if len(tb) >= n - r:
            return
        candidate = tb + [k]
        keep = [i for i in range(n) if i not in candidate]
        members = list(project_supports(family, keep).members) \
            + [Support.simplex(len(keep))] * (n - r - len(candidate))
        ok = family_dim_ok(members)
        if ok:
            tb.append(k)
        yield k, ok


def trans_basis(family: SupportFamily) -> tuple[int, ...]:
    """Greedy transcendence basis of the toric variety's function field.

    Returns the 0-based indices {i_1 < ... < i_{n-r}}; each prefix is a
    maximal algebraically independent subset of the variables up to its last
    element.  Raises DegenerateFamily when the standing dimension hypothesis
    fails (the toric variety would be empty).
    """
    n = family.dim
    r = len(family.members)
    if r > n:
        raise DegenerateFamily("more equations than variables")
    if not family_dim_ok(family):
        raise DegenerateFamily("degenerate support family (empty toric variety)")
    tb = tuple(k for k, ok in _greedy_search(family) if ok)
    if len(tb) < n - r:
        raise DegenerateFamily("could not complete a transcendence basis")
    return tb


class GammaComponent:
    """One coordinate subset I of the toric cover, with its data."""

    __slots__ = ("zero_set", "active", "projected_family")

    def __init__(self, zero_set: frozenset, active: tuple, projected_family):
        self.zero_set = zero_set              # I: variables set to zero
        self.active = active                  # J_I: surviving equation indices
        self.projected_family = projected_family  # supports of f_I, remaining vars

    def __repr__(self):
        return f"GammaComponent(I={sorted(self.zero_set)}, J={list(self.active)})"

    def __eq__(self, other):
        return (isinstance(other, GammaComponent)
                and self.zero_set == other.zero_set
                and self.active == other.active)


def _gamma_data(family: SupportFamily, zero_set: frozenset):
    """(J_I, projected supports of the surviving equations) for a subset I."""
    active = []
    projected = []
    keep = [i for i in range(family.dim) if i not in zero_set]
    for j, m in enumerate(family.members):
        surviving = {p for p in m.points if all(p[i] == 0 for i in zero_set)}
        if surviving:
            active.append(j)
            if keep:
                projected.append(Support(len(keep), {tuple(p[i] for i in keep)
                                                     for p in surviving}))
    return tuple(active), projected


def gamma_decomposition(family: SupportFamily):
    """All subsets I in Gamma, the cover index of the toric decomposition.

    A subset qualifies when (a) every subfamily of the projected surviving
    supports spans enough dimensions, and (b) no subset of I reaches a
    smaller count #J + #I; both conditions are checked literally over all
    subsets (including the empty one).
    """
    n = family.dim
    if n > GAMMA_CAP:
        raise PolytopeError(f"ambient dimension {n} exceeds gamma cap {GAMMA_CAP}")
    sizes = {}
    data = {}
    subsets = []
    for size in range(n + 1):
        for combo in combinations(range(n), size):
            zs = frozenset(combo)
            active, projected = _gamma_data(family, zs)
            sizes[zs] = len(active) + len(zs)
            data[zs] = (active, projected)
            subsets.append(zs)
    out = []
    for zs in subsets:
        active, projected = data[zs]
        if len(zs) < n and not family_dim_ok(projected):
            continue
        if len(zs) == n and active:
            # no variables survive but some equation does: f_I has a nonzero
            # constant term, the empty point is not a zero
            continue
        target = sizes[zs]
        ok = True
        for size in range(len(zs) + 1):
            for combo in combinations(sorted(zs), size):
                if sizes[frozenset(combo)] < target:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        pf = SupportFamily(projected) if projected else None
        out.append(GammaComponent(zs, active, pf))
    return out


class VarOrder:
    """Permutation between original variable numbering and the pipeline frame.

    Frame layout: positions 0..t-1 free variables, t..t+r-1 dependent
    variables (the first l-t of them are the projected ones), t+r..n-1 the
    specialized trailing basis variables.
    """

    __slots__ = ("to_original", "to_frame", "t", "r", "ell")

    def __init__(self, tb, n: int, r: int, ell: int):
        tb = list(tb)
        free = [i for i in tb if i < ell]
        dep_proj = [i for i in range(ell) if i not in set(tb)]
        dep_rest = [i for i in range(ell, n) if i not in set(tb)]
        spec = [i for i in tb if i >= ell]
        t = len(free)
        if len(dep_proj) > r:
            raise DegenerateFamily("projected block needs more than r dependents")
        order = free + dep_proj + dep_rest + spec
        if len(order) != n:
            raise AssertionError("permutation does not cover all variables")
        self.to_original = tuple(order)      # frame position -> original index
        self.to_frame = tuple(order.index(i) for i in range(n))
        self.t = t
        self.r = r
        self.ell = ell

    @property
    def free_original(self):
        return self.to_original[: self.t]

    @property
    def dependent_original(self):
        return self.to_original[self.t: self.t + self.r]

    @property
    def projected_original(self):
        return self.to_original[self.t: self.ell]

    @property
    def specialized_original(self):
        return self.to_original[self.t + self.r:]
