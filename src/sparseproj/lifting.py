"""Symbolic Newton-Hensel lifting of a zero-dimensional resolution.

Starting from the resolution of the fiber over a chosen parameter point, the
lift extends every coefficient into a truncated power series around that
point, doubling the trusted precision at each step: with the residual vector
G and the Jacobian J of the system with respect to the dependent variables,
both reduced modulo the current minimal polynomial q,

    c    = J(w)^(-1) G(w)            (corrections, one per dependent variable)
    u_j  = w_j - c_j
    rho  = sum_j lambda_j c_j        (shift of the separating-form values)
    q'   = q + (dq/dY * rho mod q)   (roots move by -rho)
    w_j' = u_j + (du_j/dY * rho mod q)

G and J come from ``zerodim.Composition``, the composition the audits run
over Q(X_free), here over the truncated series at xi; one per step serves
the system and its Jacobian.  Every step asserts the residual of the
previous one (each system polynomial composed with the current
parametrization vanishes modulo q through the trusted degree) and, through
``zerodim.linear_form``, the separating-form consistency sum lambda_j w_j = Y.

``newton_hensel_lift`` is a generator: it yields the lifted resolution after
each doubling, at precisions 1, 3, 7, ... capped at kappa, and asserts the
residual of the last one before yielding it.  The projection driver
certifies a reconstruction after every yield and stops at the first
certified one.  Every product modulo the monic q -- the determinant's
cofactors, the Newton step on its inverse, the adjugate and the two
derivative * rho updates -- is one ``upoly_mulmod``, which the integer kernel
``kernels.series_mulmod`` computes with one normalisation per coefficient of
the remainder.

J c = G is solved by the adjugate of J, from cofactors, times d = det(J)^(-1)
mod q.  The lift computes d once, at the fiber, by ``upoly_ext_inv`` over Q
(a det that is not invertible there raises SingularJacobian), and each later
doubling refines it by one Newton step d <- d * (2 - det(J) * d) mod q, which
doubles the degree through which d is right.  No series is ever divided.

Two cost facts shape the implementation: components below the trusted degree
are exactly zero in all residuals, so the sparse component dicts skip that
work automatically; and the Jacobian inverse is only ever needed through
degree (new precision) - (old precision) - 1, so the determinant, the
adjugate and the Newton step run on truncated copies.
"""

from __future__ import annotations

import functools

from .mpoly import SparsePoly
from .rat import rat
from .series import SeriesRing, TruncSeries
from .upoly import UniPoly, upoly_ext_inv, upoly_is_squarefree, upoly_mod, upoly_mulmod
from .zerodim import Composition, linear_form


class SingularJacobian(ArithmeticError):
    pass


class LiftingError(ArithmeticError):
    pass


class LiftedResolution:
    """Monic q and parametrizations with truncated-series coefficients."""

    __slots__ = ("lam", "q", "params", "ring")

    def __init__(self, lam, q: UniPoly, params: dict, ring: SeriesRing):
        self.lam = tuple(lam)
        self.q = q
        self.params = dict(params)
        self.ring = ring

    @property
    def precision(self) -> int:
        return self.ring.prec

    def degree(self) -> int:
        return self.q.degree()


def _reringed(p: UniPoly, ring: SeriesRing) -> UniPoly:
    """Move a polynomial's series coefficients into another precision ring."""
    return p.map_coeffs(lambda c: c.truncated(ring.prec, ring)
                        if isinstance(c, TruncSeries) else c)


def _series_term(ring: SeriesRing):
    """The free part c * X_free^e of a term as its series at xi in ``ring``:
    the ``free_part`` of the lift's Composition, one expansion per exponent."""
    expand = functools.cache(
        lambda e: ring.expand_poly(SparsePoly.monomial(ring.nvars, e)))
    return lambda e, c: expand(e) * c


def _solve_jacobian(jmat, gvec, q: UniPoly, d_inv, cut: int, ring: SeriesRing):
    """Solve J c = G mod q; returns c and det(J)^(-1) mod q for the next step.

    The corrections have valuation above the previously trusted degree, so
    the inverse Jacobian only matters through degree ``cut``: determinant,
    adjugate and the inverse of the determinant run in a ring truncated
    there.  ``d_inv`` is None at the fiber (cut 0), where the inverse comes
    from ``upoly_ext_inv`` over Q; otherwise it is the previous step's, and
    one Newton step makes it right through ``cut``.
    """
    m = len(gvec)
    small = ring.with_prec(cut)
    jc = [[_reringed(x, small) for x in row] for row in jmat]
    qc = _reringed(q, small)

    def det(rows):
        if not rows:
            return UniPoly([small.constant(1)])
        if len(rows) == 1:
            return rows[0][0]
        acc = UniPoly.zero()
        for j in range(len(rows)):
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            term = upoly_mulmod(rows[0][j], det(minor), qc)
            acc = acc + term if j % 2 == 0 else acc - term
        return acc

    dj = det(jc)
    if d_inv is None:
        def over_q(p: UniPoly) -> UniPoly:
            return p.map_coeffs(
                lambda c: c.constant_term() if isinstance(c, TruncSeries) else c)

        try:
            d_inv = upoly_ext_inv(over_q(dj), over_q(qc)).map_coeffs(small.constant)
        except ZeroDivisionError as exc:
            raise SingularJacobian("singular Jacobian at the expansion point") from exc
    else:
        d_inv = _reringed(d_inv, small)
        d_inv = upoly_mulmod(d_inv, UniPoly.const(2) - upoly_mulmod(dj, d_inv, qc), qc)
    d_full = _reringed(d_inv, ring)

    # adjugate: adj[i][j] = (-1)^{i+j} * minor_{j,i}
    out = []
    for i in range(m):
        acc = UniPoly.zero()
        for j in range(m):
            minor = [row[:i] + row[i + 1:] for k, row in enumerate(jc) if k != j]
            cof = _reringed(det(minor), ring)
            term = upoly_mulmod(cof, gvec[j], q)
            acc = acc + term if (i + j) % 2 == 0 else acc - term
        out.append(upoly_mulmod(acc, d_full, q))
    return out, d_inv


def newton_hensel_lift(system, base, xi, kappa: int):
    """Lift a fiber resolution, yielding it after each doubling up to order kappa.

    ``system``: m polynomials in t+m variables (free variables first);
    ``base``: resolution of system(xi, .) with simple roots; ``xi``: the
    expansion point (length t).  Yields the LiftedResolution at precisions
    1, 3, 7, ..., capped at ``kappa``; kappa = 0 yields nothing.  Raises
    SingularJacobian when the Jacobian is not invertible modulo q at xi,
    LiftingError on precondition failures and failed checks.
    """
    xi = tuple(rat(x) for x in xi)
    t = len(xi)
    system = list(system)
    m = len(system)
    if any(g.nvars != t + m for g in system):
        raise ValueError("system must live in t+m variables")
    if base.free_vars:
        raise LiftingError("base resolution must have no free variables")
    if base.degree() < 1:
        raise LiftingError("base resolution has no roots to lift")
    if not upoly_is_squarefree(base.q):
        raise LiftingError("base resolution is not squarefree (simple roots required)")

    jacobian = [[g.derivative(t + j) for j in range(m)] for g in system]
    lam = base.lam
    ring = SeriesRing(tuple(range(t)), xi, 0)
    q = base.q.map_coeffs(ring.constant)
    w = {t + j: base.params[j].map_coeffs(ring.constant) for j in range(m)}
    prec, d_inv = 0, None
    while prec < kappa:
        new_prec = min(2 * prec + 1, kappa)
        ring = ring.with_prec(new_prec)
        q = _reringed(q, ring)
        w = {v: _reringed(p, ring) for v, p in w.items()}
        series_term = _series_term(ring)
        compose = Composition(w, q, t, series_term)
        gvec = [compose(g) for g in system]
        _assert_valuation(gvec, prec, "residual from previous step")
        jmat = [[compose(d) for d in row] for row in jacobian]
        cvec, d_inv = _solve_jacobian(jmat, gvec, q, d_inv, new_prec - prec - 1, ring)
        rho = linear_form(dict(enumerate(cvec)), range(m), lam, q)

        new_w = {}
        for j in range(m):
            u = w[t + j] - cvec[j]
            new_w[t + j] = u + upoly_mulmod(u.derivative(), rho, q)
        q = q + upoly_mulmod(q.derivative(), rho, q)
        if not q.is_monic():
            raise LiftingError("lifted minimal polynomial lost monicity")
        w = new_w
        prec = new_prec

        if upoly_mod(linear_form(w, range(t, t + m), lam, q) - UniPoly.y_power(1), q):
            raise LiftingError("separating-form consistency lost during lifting")
        if prec == kappa:
            compose = Composition(w, q, t, series_term)
            _assert_valuation([compose(g) for g in system], kappa, "final residual")
        yield LiftedResolution(lam, q, w, ring)


def _assert_valuation(gvec, through: int, what: str) -> None:
    for k, gpoly in enumerate(gvec):
        for coeff in gpoly.coeffs:
            if isinstance(coeff, TruncSeries):
                if coeff.valuation() <= through:
                    raise LiftingError(
                        f"{what}: equation {k} does not vanish through degree {through}")
            elif coeff:
                raise LiftingError(f"{what}: equation {k} has a nonzero constant residual")

