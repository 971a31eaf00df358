"""Exact dense linear algebra over a field given by duck-typed elements.

Entries need +, -, *, / and truthiness; Rat and RatFun both qualify.  Small
dense systems only -- the package never builds large matrices.  One
elimination lives here, ``KrylovEchelon``: the fiber solve and the
projection use it for a minimal polynomial and the coordinates in its power
basis, and Pade reconstruction for the denominator of least degree.
"""

from __future__ import annotations


class InconsistentSystem(ArithmeticError):
    pass


class KrylovEchelon:
    """Incremental echelon form of vectors v_0, v_1, ... given one at a time.

    Each row is the reduced part of one v_k, scaled to 1 at its pivot, and
    keeps its expression as a combination of v_0..v_k.  ``add`` returns None
    while the vectors stay independent; at the first dependency it returns
    the coefficients c_0..c_{k-1} of v_k = sum c_i v_i.  For Krylov vectors
    1, a, a^2, ... of a multiplication map these give the minimal polynomial
    Y^k - sum c_i Y^i of a.  ``solve`` writes any vector of the span in the
    same v_i.

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
        """None when vec is independent of the rows, else its relation.

        A dependent vec is not kept, and a caller may go on adding vectors
        after a dependency: a relation is over the independent vectors kept
        so far, in the order they were added.
        """
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

