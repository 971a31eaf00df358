"""Exact dense linear algebra over a field given by duck-typed elements.

Entries need +, -, *, / and truthiness; Rat and RatFun both qualify.  Small
dense systems only -- the package never builds large matrices.  Two
eliminations live here: ``gauss_echelon`` (with ``nullspace``) for the Pade
systems, and ``KrylovEchelon``, the incremental one that both the fiber
solve and the projection use for a minimal polynomial and the coordinates
in its power basis.
"""

from __future__ import annotations


class InconsistentSystem(ArithmeticError):
    pass


def gauss_echelon(rows):
    """Row echelon form in place; returns list of (row_index, col) pivots."""
    if not rows:
        return []
    ncols = len(rows[0])
    pivots = []
    row = 0
    for col in range(ncols):
        piv = None
        for i in range(row, len(rows)):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            continue
        rows[row], rows[piv] = rows[piv], rows[row]
        pval = rows[row][col]
        inv_row = [x / pval for x in rows[row]]
        rows[row] = inv_row
        for i in range(len(rows)):
            if i != row and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], inv_row)]
        pivots.append((row, col))
        row += 1
        if row == len(rows):
            break
    return pivots


class KrylovEchelon:
    """Incremental echelon form of vectors v_0, v_1, ... given one at a time.

    Each row is the reduced part of one v_k, scaled to 1 at its pivot, and
    keeps its expression as a combination of v_0..v_k.  ``add`` returns None
    while the vectors stay independent; at the first dependency it returns
    the coefficients c_0..c_{k-1} of v_k = sum c_i v_i, and the caller adds
    no further vector.  For Krylov vectors 1, a, a^2, ... of a
    multiplication map these give the minimal polynomial Y^k - sum c_i Y^i
    of a.  ``solve`` writes any vector of the span in the same v_i.

    ``one`` is the unit of the entries' field (a Rat or a RatFun).
    """

    def __init__(self, one):
        self._one = one
        self._zero = one - one
        self._rows = []          # (pivot column, row, combination of the v_i)

    def _reduce(self, vec):
        """(residual, factors) with vec = sum factors_i * row_i + residual."""
        vec = list(vec)
        factors = []
        for col, row, _ in self._rows:
            f = vec[col]
            factors.append(f)
            if f:
                vec = [a - f * b if b else a for a, b in zip(vec, row)]
        return vec, factors

    def _combine(self, factors):
        """sum factors_i * row_i written in the v_j."""
        out = [self._zero] * len(self._rows)
        for f, (_, _, comb) in zip(factors, self._rows):
            if f:
                for j, c in enumerate(comb):
                    if c:
                        out[j] = out[j] + f * c
        return out

    def add(self, vec):
        """None when vec is independent of the rows, else its relation."""
        residual, factors = self._reduce(vec)
        pivot = next((col for col, a in enumerate(residual) if a), None)
        if pivot is None:
            return self._combine(factors)
        inv = self._one / residual[pivot]
        comb = [-c * inv if c else c for c in self._combine(factors)] + [inv]
        self._rows.append((pivot, [a * inv if a else a for a in residual], comb))
        return None

    def solve(self, rhs):
        """Coefficients x with rhs = sum x_i v_i over the independent v_i.

        Raises InconsistentSystem when rhs is outside their span.
        """
        residual, factors = self._reduce(rhs)
        if any(residual):
            raise InconsistentSystem("right-hand side outside the span")
        return self._combine(factors)


def nullspace(rows, ncols):
    """Basis of the right nullspace (reduced echelon parametrization)."""
    work = [list(r) for r in rows]
    pivots = gauss_echelon(work)
    pivot_cols = {col: row for row, col in pivots}
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        vec = [0] * ncols
        vec[fc] = 1
        for col, row in pivot_cols.items():
            vec[col] = -work[row][fc]
        basis.append(vec)
    return basis
