"""Exact lattice-polytope geometry: hulls, their vertices, mixed volumes.

Everything runs on integer arithmetic.  ``hull_volume_and_corners`` reduces
a point set to the vertices of its hull, with the hull's volume, by an
incremental beneath-beyond placing triangulation: points are inserted one at
a time, the simplices spanned by the new point and the strictly visible
boundary facets are accumulated, and coplanar facets are skipped (their
pyramids have volume zero, so degenerate inputs cost nothing but
bookkeeping).  The boundary of that triangulation also holds points inside
faces; a boundary point is kept as a vertex only when the primitive facet
normals tight at it have full rank.

The normalized mixed volume (MV of n standard simplices is 1; equivalently
the generic toric root count of Bernstein's theorem) is the sum of |det| over
the fine mixed cells of a generic lifting (Huber-Sturmfels, Math. Comp. 1995;
Emiris-Canny, JSC 1995).  Equal members (after translation to the origin) are
one polytope P_i of multiplicity k_i, reduced to its vertices.  Every vertex
gets an integer height from a generator seeded with a module constant, and a
depth-first search picks k_i + 1 vertices of each P_i, pruning a branch as
soon as its edge vectors become linearly dependent.  At each leaf one
fraction-free solve gives the normal of the lifted face through the chosen
vertices; the leaf is a mixed cell when every other vertex lies strictly
above it.  A leaf with no vertex below and one level with it shows that the
lifting is not generic: the next lifting is drawn from the same generator,
and a fixed number of such draws raises PolytopeError.  Without a tie every
lower facet of the lifted sum whose share of the mixed volume is positive is
a fine mixed cell, so the sum is exact: an integer that does not depend on
the lifting.

One fraction-free elimination and one echelon serve all of this.
``_int_solve`` is the Bareiss routine (Bareiss, Math. Comp. 1968): forward
elimination that tracks the sign of its row swaps, then back substitution,
giving the exact signed determinant and det times the solution.  With a zero
right-hand side it gives the hull's simplex volumes; with one column of a
facet's difference matrix on the right, the facet's normal as the null
vector of that matrix; with the heights on the right, a candidate cell's
inner normal.
``_echelon_reduce`` keeps primitive rows with distinct pivots: the cell
search extends it one edge at a time, and ``_int_rank`` counts the rows it
keeps, for the hull's seed and vertex tests and for ``supports``.

The search is exponential in the dimension, which is fine at the intended
scale; ``DIM_CAP`` (12) rejects larger ambient dimensions.
"""

from __future__ import annotations

import random
from functools import lru_cache
from math import gcd

DIM_CAP = 12
# Every mixed volume draws its liftings from a generator seeded with this
# constant, so a family costs the same work in every process.
_LIFT_SEED = 1995
_LIFT_DRAWS = 8


class PolytopeError(ValueError):
    pass


class Support:
    """Finite set of lattice points with nonnegative entries."""

    __slots__ = ("dim", "points")

    def __init__(self, dim: int, points):
        if dim < 1:
            raise PolytopeError("ambient dimension must be >= 1")
        pts = frozenset(tuple(int(x) for x in p) for p in points)
        if not pts:
            raise PolytopeError("empty support")
        for p in pts:
            if len(p) != dim:
                raise PolytopeError(f"point arity {len(p)} != {dim}")
            if any(x < 0 for x in p):
                raise PolytopeError(f"negative entry in {p}")
        self.dim = dim
        self.points = pts

    @classmethod
    def simplex(cls, dim: int) -> "Support":
        """Vertex set {0, e_1, ..., e_dim} of the standard simplex."""
        pts = [(0,) * dim]
        for i in range(dim):
            e = [0] * dim
            e[i] = 1
            pts.append(tuple(e))
        return cls(dim, pts)

    def translate_to_origin(self) -> "Support":
        mins = tuple(map(min, *self.points)) if len(self.points) > 1 else next(iter(self.points))
        if not any(mins):
            return self
        return Support(self.dim, [tuple(x - m for x, m in zip(p, mins)) for p in self.points])

    def __eq__(self, other):
        return isinstance(other, Support) and self.dim == other.dim and self.points == other.points

    def __hash__(self):
        return hash((self.dim, self.points))

    def __repr__(self):
        return f"Support({self.dim}, {sorted(self.points)})"


class SupportFamily:
    __slots__ = ("dim", "members")

    def __init__(self, members):
        members = tuple(members)
        if not members:
            raise PolytopeError("empty family")
        dim = members[0].dim
        if any(m.dim != dim for m in members):
            raise PolytopeError("mixed ambient dimensions in family")
        self.dim = dim
        self.members = members

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __getitem__(self, i):
        return self.members[i]

    def __eq__(self, other):
        return isinstance(other, SupportFamily) and self.members == other.members

    def __hash__(self):
        return hash(self.members)

    def __repr__(self):
        return f"SupportFamily({list(self.members)})"


# -- integer linear algebra helpers -------------------------------------------

def _int_solve(rows, rhs):
    """Bareiss fraction-free solve of a square integer system.

    Forward elimination tracks the sign of its row swaps, and fraction-free
    back substitution follows.  Returns (det, y) with det the exact signed
    determinant of ``rows`` and y = det * x for the solution x, or (0, None)
    when ``rows`` is singular.
    """
    n = len(rows)
    m = [list(r) + [b] for r, b in zip(rows, rhs)]
    sign = prev = 1
    for k in range(n):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0, None
        top = m[k]
        pk = top[k]
        for row in m[k + 1:]:
            f = row[k]
            for j in range(k + 1, n + 1):
                row[j] = (row[j] * pk - f * top[j]) // prev
        prev = pk
    # m is now an upper-triangular integer system equivalent to the input
    # (zeros below the diagonal left unwritten), and det * x is an integer
    # vector (Cramer's rule), so each quotient below is exact.
    det = sign * prev
    y = [0] * n
    for k in range(n - 1, -1, -1):
        row = m[k]
        acc = det * row[n]
        for j in range(k + 1, n):
            acc -= row[j] * y[j]
        y[k] = acc // row[k]
    return det, y


def _int_rank(rows) -> int:
    """Rank of an integer matrix: the number of rows the echelon keeps."""
    echelon = []
    for r in rows:
        reduced = _echelon_reduce(echelon, r)
        if reduced is not None:
            echelon.append(reduced)
    return len(echelon)


def _facet_normal(pts):
    """Integer normal of the hyperplane through d points of R^d; zero vector
    iff degenerate.

    The normal is the null vector of the (d-1) x d difference matrix: with
    column i moved to the right-hand side, one ``_int_solve`` of the
    remaining square minor gives it as y with det(minor) at position i,
    which is the generalized cross product up to sign.  The last column is
    tried first; a singular minor moves on to the next one.
    """
    base = pts[0]
    rows = [[x - b for x, b in zip(p, base)] for p in pts[1:]]
    d = len(base)
    for i in range(d - 1, -1, -1):
        det, y = _int_solve([r[:i] + r[i + 1:] for r in rows], [-r[i] for r in rows])
        if det:
            return tuple(y[:i]) + (det,) + tuple(y[i:])
    return (0,) * d


# -- beneath-beyond hull --------------------------------------------------------

def hull_volume_and_corners(points):
    """Exact d!-scaled volume of conv(points) plus its vertices.

    Returns (scaled_volume: int, vertices: sorted list of points) where
    scaled_volume is d! times the Euclidean volume and the vertices are
    exactly the vertices of the full-dimensional hull.  For lower-dimensional
    hulls the volume is 0 and the distinct input points are returned
    unreduced.
    """
    pts = sorted(set(tuple(p) for p in points))
    d = len(pts[0])
    if len(pts) == 1:
        return 0, pts

    # greedy affinely independent seed of d+1 points
    seed = [0]
    rows = []
    for i in range(1, len(pts)):
        cand = [x - b for x, b in zip(pts[i], pts[0])]
        if _int_rank(rows + [cand]) > len(rows):
            rows.append(cand)
            seed.append(i)
            if len(seed) == d + 1:
                break
    if len(seed) < d + 1:
        return 0, pts

    order = seed + [i for i in range(len(pts)) if i not in set(seed)]
    ref = [sum(pts[i][j] for i in seed) for j in range(d)]  # (d+1) * centroid

    facets = {}

    def add_facet(idx_tuple):
        vpts = [pts[i] for i in idx_tuple]
        normal = _facet_normal(vpts)
        if not any(normal):
            raise PolytopeError("degenerate facet")
        offset = sum(a * x for a, x in zip(normal, vpts[0]))
        side = sum(a * x for a, x in zip(normal, ref)) - (d + 1) * offset
        if side == 0:
            raise PolytopeError("reference point on facet hyperplane")
        if side > 0:
            normal = tuple(-a for a in normal)
            offset = -offset
        facets[frozenset(idx_tuple)] = (normal, offset)

    vol_scaled = abs(_int_solve(rows, [0] * d)[0])
    for drop in range(d + 1):
        add_facet(tuple(seed[i] for i in range(d + 1) if i != drop))

    for idx in order[d + 1:]:
        p = pts[idx]
        visible = []
        for key, (normal, offset) in facets.items():
            if sum(a * x for a, x in zip(normal, p)) > offset:
                visible.append(key)
        if not visible:
            continue
        ridge_count = {}
        for key in visible:
            verts = tuple(key)
            vol_scaled += abs(_int_solve(
                [[x - y for x, y in zip(pts[v], p)] for v in verts], [0] * d)[0])
            for v in verts:
                ridge = key - {v}
                ridge_count[ridge] = ridge_count.get(ridge, 0) + 1
            del facets[key]
        for ridge, cnt in ridge_count.items():
            if cnt == 1:
                add_facet(tuple(ridge) + (idx,))

    # Reduce the boundary triangulation to the vertices: a boundary point is
    # a vertex iff the facet hyperplanes tight at it have normals of rank d.
    # Primitive normals make coplanar simplices share one hyperplane.
    planes = set()
    for normal, offset in facets.values():
        g = gcd(*normal)
        planes.add((tuple(a // g for a in normal), offset // g))
    vertices = []
    for p in {pts[i] for key in facets for i in key}:
        tight = [normal for normal, offset in planes
                 if sum(a * x for a, x in zip(normal, p)) == offset]
        if _int_rank(tight) == d:
            vertices.append(p)
    return vol_scaled, sorted(vertices)


def mixed_volume(family: SupportFamily) -> int:
    """Normalized mixed volume of a square family (MV of n simplices = 1)."""
    n = family.dim
    if len(family.members) != n:
        raise PolytopeError("square family required")
    if n > DIM_CAP:
        raise PolytopeError(
            f"ambient dimension {n} exceeds cap {DIM_CAP} (exponential method)")

    normalized = tuple(sorted(
        (m.translate_to_origin().points for m in family.members),
        key=lambda s: sorted(s)))
    return _mixed_volume_normalized(normalized)


# Memoised per process on the translated supports; the size bound keeps a
# long-running process from holding every family it ever saw.
@lru_cache(maxsize=128)
def _mixed_volume_normalized(normalized) -> int:
    # Equal translated members are one polytope P_i of multiplicity k_i, and a
    # fine mixed cell takes k_i + 1 of its vertices.
    distinct = list(dict.fromkeys(normalized))
    mult = [normalized.count(pts) for pts in distinct]
    members = [hull_volume_and_corners(pts)[1] for pts in distinct]
    rng = random.Random(_LIFT_SEED)
    for _ in range(_LIFT_DRAWS):
        heights = _draw_lifting(rng, members)
        total = 0
        for cell, rows in _candidate_cells(members, mult):
            volume = _cell_volume(members, heights, cell, rows)
            if volume is None:
                break
            total += volume
        else:
            return total
    raise PolytopeError(f"no generic lifting in {_LIFT_DRAWS} draws")


def _draw_lifting(rng, members):
    """One integer height per point of every member."""
    return [[rng.randrange(1 << 30) for _ in pts] for pts in members]


def _candidate_cells(members, mult):
    """Yield (cell, rows) for every choice of mult[i] + 1 points of each member
    whose edge vectors c - c_0 are linearly independent.

    ``cell`` holds one index tuple per member, base point c_0 first, and
    ``rows`` the n edge vectors in the same order.  A branch is pruned as soon
    as its edges become dependent.
    """
    cell = []
    rows = []
    echelon = []

    def choose(i, chosen, left):
        if not left:
            cell.append(chosen)
            if i + 1 == len(members):
                yield tuple(cell), tuple(rows)
            else:
                yield from start(i + 1)
            cell.pop()
            return
        pts = members[i]
        c0 = pts[chosen[0]]
        for j in range(chosen[-1] + 1, len(pts) - left + 1):
            edge = tuple(x - y for x, y in zip(pts[j], c0))
            reduced = _echelon_reduce(echelon, edge)
            if reduced is None:
                continue
            rows.append(edge)
            echelon.append(reduced)
            yield from choose(i, chosen + (j,), left - 1)
            echelon.pop()
            rows.pop()

    def start(i):
        for b in range(len(members[i]) - mult[i]):
            yield from choose(i, (b,), mult[i])

    yield from start(0)


def _echelon_reduce(echelon, v):
    """(pivot, primitive row) of v reduced by the echelon rows, None if v
    lies in their span.  Each row has zeros at the pivots of the rows before
    it, so one pass in insertion order clears every pivot."""
    for p, r in echelon:
        f = v[p]
        if f:
            rp = r[p]
            v = [rp * x - f * y for x, y in zip(v, r)]
    for p, x in enumerate(v):
        if x:
            g = gcd(*v)
            return p, [y // g for y in v]
    return None


def _cell_volume(members, heights, cell, rows):
    """|det| of the edges if the candidate is a lower facet of the lifted
    Minkowski sum, 0 if some point lies below it, None on a tie.

    The facet's inner normal (alpha, 1) has <alpha, c - c_0> equal to
    omega(c_0) - omega(c) on every edge; a point a of member i lies above
    when omega(a) + <alpha, a> exceeds the level of that member's c_0.  With
    no point below but one level with the facet the lifting is not generic.
    """
    rhs = []
    for chosen, h in zip(cell, heights):
        rhs.extend(h[chosen[0]] - h[j] for j in chosen[1:])
    d, y = _int_solve(rows, rhs)
    sign = 1 if d > 0 else -1
    tie = False
    for chosen, pts, h in zip(cell, members, heights):
        c0 = pts[chosen[0]]
        base = d * h[chosen[0]] + sum(a * b for a, b in zip(y, c0))
        for j, a in enumerate(pts):
            if j in chosen:
                continue
            gap = sign * (d * h[j] + sum(u * v for u, v in zip(y, a)) - base)
            if gap < 0:
                return 0
            if not gap:
                tie = True
    return None if tie else abs(d)
