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

A lift may stop at any precision and resume from the LiftedResolution it
returned; the doubling schedule, and so every series coefficient, is the same
as in one uninterrupted call.  The projection driver lifts this way one
doubling at a time, up to the cap 2 * MV(S, Delta^(t)), and certifies the
reconstruction after every step with the same exact audit; it stops at the
first certified one.  Reductions modulo the monic q go through
``upoly_mod``, which never divides by a leading coefficient of 1.

Two cost facts shape the implementation: components below the trusted degree
are exactly zero in all residuals, so the sparse component dicts skip that
work automatically; and the Jacobian inverse is only ever needed through
degree (new precision) - (old precision) - 1, so the adjugate/determinant
solve runs on truncated copies.
"""

from __future__ import annotations

import functools

from .mpoly import SparsePoly
from .rat import rat
from .series import NonUnitSeries, SeriesRing, TruncSeries
from .upoly import UniPoly, upoly_ext_inv, upoly_is_squarefree, upoly_mod
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


def _solve_jacobian(jmat, gvec, q: UniPoly, cut: int, ring: SeriesRing):
    """Solve J c = G mod q via adjugate and determinant.

    The corrections have valuation above the previously trusted degree, so
    the inverse Jacobian only matters through degree ``cut``: determinant,
    adjugate and the modular inverse all run in a ring truncated there,
    which keeps the extended Euclidean arithmetic away from full precision.
    """
    m = len(gvec)
    small = ring.with_prec(cut)
    jc = [[_reringed(x, small) for x in row] for row in jmat]
    qc = _reringed(q, small)

    def det(rows):
        if len(rows) == 1:
            return rows[0][0]
        if len(rows) == 2:
            return (upoly_mod(rows[0][0] * rows[1][1], qc)
                    - upoly_mod(rows[0][1] * rows[1][0], qc))
        acc = UniPoly.zero()
        for j in range(len(rows)):
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            term = upoly_mod(rows[0][j] * det(minor), qc)
            acc = acc + term if j % 2 == 0 else acc - term
        return acc

    try:
        d_inv = _reringed(upoly_ext_inv(det(jc), qc), ring)
    except (NonUnitSeries, ZeroDivisionError) as exc:
        raise SingularJacobian("singular Jacobian at the expansion point") from exc

    # adjugate: adj[i][j] = (-1)^{i+j} * minor_{j,i}
    out = []
    for i in range(m):
        acc = UniPoly.zero()
        for j in range(m):
            minor = [row[:i] + row[i + 1:] for k, row in enumerate(jc) if k != j]
            cof = _reringed(det(minor), ring) if m > 1 else UniPoly.const(1)
            term = upoly_mod(cof * gvec[j], q)
            acc = acc + term if (i + j) % 2 == 0 else acc - term
        out.append(upoly_mod(acc * d_inv, q))
    return out


def newton_hensel_lift(system, base, xi, kappa: int, *,
                       final_check: bool = True) -> LiftedResolution:
    """Lift a fiber resolution to truncated-series coefficients of order kappa.

    ``system``: m polynomials in t+m variables (free variables first);
    ``base``: resolution of system(xi, .) with simple roots, or an already
    lifted resolution to resume from a lower precision; ``xi``: the
    expansion point (length t).  Raises SingularJacobian when the Jacobian
    is not invertible modulo q at xi, LiftingError on precondition failures.

    ``final_check=False`` skips the closing residual evaluation: a caller
    that resumes the lift from the result gets the same assertion from the
    first step of the next call, which evaluates that residual anyway.
    """
    xi = tuple(rat(x) for x in xi)
    t = len(xi)
    system = list(system)
    m = len(system)
    if any(g.nvars != t + m for g in system):
        raise ValueError("system must live in t+m variables")

    jacobian = [[g.derivative(t + j) for j in range(m)] for g in system]

    if isinstance(base, LiftedResolution):
        if base.ring.shift != xi:
            raise LiftingError("resumed lift must keep the expansion point")
        lam = base.lam
        ring = base.ring
        q = base.q
        w = dict(base.params)
        prec = base.precision
        if prec >= kappa:
            raise LiftingError("resume precision must be below the target")
    else:
        if base.free_vars:
            raise LiftingError("base resolution must have no free variables")
        if base.degree() < 1:
            raise LiftingError("base resolution has no roots to lift")
        if not upoly_is_squarefree(base.q):
            raise LiftingError("base resolution is not squarefree (simple roots required)")
        lam = base.lam
        ring = SeriesRing(tuple(range(t)), xi, 0)
        q = base.q.map_coeffs(lambda c: ring.constant(c))
        w = {t + j: base.params[j].map_coeffs(lambda c: ring.constant(c))
             for j in range(m)}
        prec = 0
    while prec < kappa:
        new_prec = min(2 * prec + 1, kappa)
        new_ring = ring.with_prec(new_prec)
        q = q.map_coeffs(lambda c: c.truncated(new_prec, new_ring))
        w = {v: p.map_coeffs(lambda c: c.truncated(new_prec, new_ring))
             for v, p in w.items()}
        compose = Composition(w, q, t, _series_term(new_ring))
        gvec = [compose(g) for g in system]
        _assert_valuation(gvec, prec, "residual from previous step")
        jmat = [[compose(d) for d in row] for row in jacobian]
        cut = new_prec - prec - 1
        cvec = _solve_jacobian(jmat, gvec, q, cut, new_ring)
        rho = linear_form(dict(enumerate(cvec)), range(m), lam, q)

        new_w = {}
        for j in range(m):
            u = w[t + j] - cvec[j]
            new_w[t + j] = u + upoly_mod(u.derivative() * rho, q)
        q = q + upoly_mod(q.derivative() * rho, q)
        if not q.is_monic():
            raise LiftingError("lifted minimal polynomial lost monicity")
        w = new_w
        ring = new_ring
        prec = new_prec

        if upoly_mod(linear_form(w, range(t, t + m), lam, q) - UniPoly.y_power(1), q):
            raise LiftingError("separating-form consistency lost during lifting")

    lifted = LiftedResolution(lam, q, w, ring)
    if final_check and kappa > 0:
        compose = Composition(w, q, t, _series_term(ring))
        gvec = [compose(g) for g in system]
        _assert_valuation(gvec, kappa, "final residual")
    return lifted


def _assert_valuation(gvec, through: int, what: str) -> None:
    for k, gpoly in enumerate(gvec):
        for coeff in gpoly.coeffs:
            if isinstance(coeff, TruncSeries):
                if coeff.valuation() <= through:
                    raise LiftingError(
                        f"{what}: equation {k} does not vanish through degree {through}")
            elif coeff:
                raise LiftingError(f"{what}: equation {k} has a nonzero constant residual")

