"""Exact geometric resolution of the toric zeros of a square system over Q.

The toric solve saturates the ideal with T*X1*...*Xm - 1, computes a graded
Groebner basis, and reduces the Krylov vectors 1, lambda, lambda^2, ... of
the separating form on the quotient algebra in one incremental elimination
(``linalg.KrylovEchelon``).  The first dependent power gives the minimal
polynomial q of lambda, and every coordinate is solved against the same
elimination in the power basis {1, lambda, ..., lambda^(deg q - 1)}: the
rational univariate representation (Rouillier, AAECC 1999).

Detected failure modes are typed so the drivers can retry with fresh random
data: LambdaNotSeparating (the caller picks a new separating form) and
NonGenericInput (the saturated ideal is not zero-dimensional or not
reduced, or a computed resolution fails its own exactness audit).

The module also holds what the fiber solve, the lift and the projection
share: the identities every resolution satisfies modulo q
(``audit_parametric``), the seeded random draws with their one retry
routine (``Draws``), and the evaluation of a parametrization v(Y) modulo q
over a coefficient domain the caller picks (Q, Q(X_free) or the lift's
series): ``Composition`` composes polynomials with it, and ``linear_form``
forms sum c_j v_j.
"""

from __future__ import annotations

import random

from .groebner import IntBasis, NotZeroDimensional, buchberger, normal_form, quotient_basis
from .linalg import KrylovEchelon
from .mpoly import SparsePoly
from .rat import RAT_ONE, RAT_ZERO, rat
from .ratfun import RatFun
from .upoly import UniPoly, upoly_coprime, upoly_is_squarefree, upoly_mod, upoly_mulmod


class LambdaNotSeparating(ArithmeticError):
    pass


class NonGenericInput(ArithmeticError):
    pass


class GenericityFailure(ArithmeticError):
    pass


DEFAULT_BOUND = 100
DEFAULT_RETRIES = 5


class GeometricResolution:
    """Separating form lambda, its minimal polynomial q, and parametrizations.

    ``free_vars`` lists the parameter variables (empty for a genuinely
    zero-dimensional resolution, in which case all coefficients are Rat);
    ``dep_vars`` the parametrized ones.  ``lam`` pairs with ``dep_vars``.
    Coefficients of q/params are Rat when free_vars is empty, RatFun in the
    free variables otherwise.
    """

    __slots__ = ("free_vars", "dep_vars", "lam", "q", "params")

    def __init__(self, free_vars, dep_vars, lam, q: UniPoly, params: dict):
        self.free_vars = tuple(free_vars)
        self.dep_vars = tuple(dep_vars)
        self.lam = tuple(lam)
        self.q = q
        self.params = dict(params)

    def degree(self) -> int:
        return self.q.degree()

    def __repr__(self):
        return (f"GeometricResolution(free={self.free_vars}, dep={self.dep_vars}, "
                f"lam={self.lam}, deg={self.degree()})")


def _lambda_poly(nvars: int, lam) -> SparsePoly:
    terms = {}
    for v, c in enumerate(lam):
        if c:
            e = [0] * nvars
            e[v] = 1
            terms[tuple(e)] = rat(c)
    return SparsePoly(nvars, terms)


def solve_toric_0d(system, lam, *, check: bool = True) -> GeometricResolution:
    """Geometric resolution of the common toric zeros of a square system.

    ``system``: m polynomials in m variables; ``lam``: integer coefficients
    of the separating form over those variables.  Raises LambdaNotSeparating
    when the minimal polynomial of lambda on the quotient algebra has less
    than the algebra's dimension.  At full degree a minimal polynomial that
    is not squarefree proves the fiber is not reduced (the algebra has
    nilpotents, as Q[x]/(x^2) does): every multiplication map of a reduced
    algebra over Q is semisimple, so no lambda helps, and NonGenericInput
    is raised instead.
    """
    system = list(system)
    m = system[0].nvars if system else 0
    if len(system) != m:
        raise ValueError("square system required")
    if any(p.nvars != m for p in system):
        raise ValueError("ambient variable count mismatch")
    if any(not p for p in system):
        raise NonGenericInput("zero polynomial in system")
    lam = tuple(int(c) for c in lam)
    if len(lam) != m:
        raise ValueError("lambda length must match variable count")

    # saturate: T * X1...Xm - 1 in m+1 variables, T last
    n1 = m + 1
    sat = [p.embed(list(range(m)), n1) for p in system]
    sat.append(SparsePoly(n1, {tuple([1] * n1): RAT_ONE,
                               (0,) * n1: -RAT_ONE}))
    gb = buchberger(sat)
    try:
        std = quotient_basis(gb, n1)
    except NotZeroDimensional as exc:
        raise NonGenericInput(f"non-generic input: {exc}") from exc

    if not std:
        # saturated ideal is (1): no toric roots
        return GeometricResolution((), tuple(range(m)), lam,
                                   UniPoly.const(RAT_ONE),
                                   {j: UniPoly.zero() for j in range(m)})

    dim = len(std)
    index = {e: i for i, e in enumerate(std)}

    def coords(p: SparsePoly):
        vec = [RAT_ZERO] * dim
        for e, c in p.terms.items():
            vec[index[e]] = c
        return vec

    # Krylov vectors 1, lambda, lambda^2, ... until the first dependency; the
    # basis is cleared to integers once for all the normal forms
    divisors = IntBasis(gb)
    lam_poly = _lambda_poly(n1, lam)
    krylov = KrylovEchelon(RAT_ONE)
    power = SparsePoly.const(n1, 1)
    relation = krylov.add(coords(power))
    while relation is None:
        power = normal_form(lam_poly * power, divisors)
        relation = krylov.add(coords(power))
    q = UniPoly([-c for c in relation] + [RAT_ONE])
    if q.degree() < dim:
        raise LambdaNotSeparating(
            f"lambda not separating: minimal polynomial degree {q.degree()}, "
            f"quotient dimension {dim}")
    if not upoly_is_squarefree(q):
        raise NonGenericInput("fiber not reduced: minimal polynomial of full "
                              "degree is not squarefree")

    # the powers span the quotient, so every coordinate is in their span
    params = {}
    for v in range(m):
        xv = normal_form(SparsePoly.monomial(n1, [int(j == v) for j in range(n1)]), divisors)
        params[v] = UniPoly(krylov.solve(coords(xv)))
    res = GeometricResolution((), tuple(range(m)), lam, q, params)
    if check:
        audit_0d(res, system)
    return res


def audit_0d(res: GeometricResolution, system) -> None:
    """Exactness audit: the identities of ``audit_parametric``, and no
    coordinate vanishing on a root (the roots are toric)."""
    if res.q.degree() == 0:
        return
    audit_parametric(res, system, 0)
    for v in res.dep_vars:
        if res.params[v].is_zero() or not upoly_coprime(res.params[v], res.q):
            raise NonGenericInput(f"coordinate {v} vanishes on a root (not toric)")


def parametric_identities(res: GeometricResolution, system, t: int):
    """Yield (name, holds) for the identities every resolution satisfies.

    Both are exact modulo q, over Q(X_0..X_{t-1}) (plain Q when t = 0):
    sum_j lam_j v_j = Y, then f_k(X_free, v(Y)) = 0 for each polynomial of
    ``system``, whose first t variables are the free ones.  One Composition
    serves all of them.
    """
    q = res.q
    lam_comb = linear_form(res.params, res.dep_vars, res.lam, q)
    yield ("sum lambda_j v_j = Y",
           not upoly_mod(lam_comb - UniPoly.y_power(1), q))
    compose = Composition(res.params, q, t, fraction_term(t))
    for k, g in enumerate(system):
        yield f"membership f{k + 1}", not compose(g)


def audit_parametric(res: GeometricResolution, system, t: int) -> None:
    """Raise NonGenericInput naming the first identity of
    ``parametric_identities`` that fails."""
    for name, holds in parametric_identities(res, system, t):
        if not holds:
            raise NonGenericInput(f"{name} identity failed (resolution audit)")


def field_one(t: int):
    """1 in Q(X_0..X_{t-1}), or in Q when t = 0."""
    return RatFun.from_const(t, 1) if t else RAT_ONE


def fraction_term(t: int):
    """The free part c * X_free^e of a term as an element of Q(X_free), or
    c itself when t = 0: the ``free_part`` of a Composition over Q(X_free)."""
    if not t:
        return lambda e, c: c
    return lambda e, c: RatFun.from_poly(SparsePoly.monomial(t, e, c))


class Composition:
    """g(X_free, v(Y)) reduced mod q, for polynomials g in t + m variables.

    Variable t + j of g is replaced by ``params[t + j]``, and the free part
    c * X_free^e of a term by ``free_part(e, c)`` in the coefficient domain
    of q and the params: a fraction over Q(X_free) in the audits
    (``fraction_term``), a series at xi in the lift.  Products of powers of
    the params are cached: one Composition serves a system and its Jacobian.
    """

    def __init__(self, params: dict, q: UniPoly, t: int, free_part):
        self.params = params
        self.q = q
        self.t = t
        self.free_part = free_part
        self._powers: dict = {}    # (variable, k) -> params[variable]^k mod q
        self._products: dict = {}  # exponents of the params -> product mod q

    def _power(self, v: int, k: int) -> UniPoly:
        got = self._powers.get((v, k))
        if got is None:
            got = (self.params[v] if k == 1
                   else upoly_mulmod(self._power(v, k - 1), self.params[v], self.q))
            self._powers[(v, k)] = got
        return got

    def _product(self, pattern):
        """prod_j params[t + j]^pattern[j] mod q; None for the empty product."""
        if pattern not in self._products:
            got = None
            for j, k in enumerate(pattern):
                if k:
                    p = self._power(self.t + j, k)
                    got = p if got is None else upoly_mulmod(got, p, self.q)
            self._products[pattern] = got
        return self._products[pattern]

    def __call__(self, g: SparsePoly) -> UniPoly:
        t = self.t
        acc = UniPoly.zero()
        for e, c in g.terms.items():
            scalar = self.free_part(e[:t], c)
            dep = self._product(e[t:])
            acc = acc + (UniPoly.const(scalar) if dep is None
                         else dep.map_coeffs(lambda s: s * scalar))
        return upoly_mod(acc, self.q)


def linear_form(params: dict, variables, coeffs, q: UniPoly) -> UniPoly:
    """sum_j coeffs_j * params[variables_j] reduced mod q, for rational
    coeffs and params over Rat, RatFun or TruncSeries."""
    acc = UniPoly.zero()
    for v, c in zip(variables, coeffs, strict=True):
        if c:
            acc = acc + params[v].scale(rat(c))
    return upoly_mod(acc, q)


class Draws:
    """The run's random vectors, from one generator seeded once.

    ``nonzero`` and ``positive`` draw integer vectors with entries bounded by
    ``bound`` in absolute value; a draw of no entries neither checks the
    bound nor touches the generator.  ``retry`` is the one routine that
    redraws a vector after a failure it caused.  The messages of the
    failures that led to a redraw are kept per vector name in ``failures``.
    """

    def __init__(self, seed: int = 0, bound: int = DEFAULT_BOUND,
                 retry_limit: int = DEFAULT_RETRIES):
        self.rng = random.Random(seed)
        self.bound = bound
        self.retry_limit = retry_limit
        self.failures: dict[str, list[str]] = {}

    def _check_bound(self, count: int) -> None:
        if count and self.bound < 1:
            raise ValueError("bound must be at least 1")

    def nonzero(self, count: int) -> tuple:
        """``count`` integers drawn uniformly from [-bound, bound] without 0."""
        self._check_bound(count)
        out = []
        while len(out) < count:
            x = self.rng.randint(-self.bound, self.bound)
            if x:
                out.append(x)
        return tuple(out)

    def positive(self, count: int) -> tuple:
        """``count`` integers drawn uniformly from [1, bound]."""
        self._check_bound(count)
        return tuple(self.rng.randint(1, self.bound) for _ in range(count))

    def retry(self, attempt, *vectors):
        """``attempt(*values)``, one value per vector, redrawn on failure.

        Each vector is ``(name, pinned, draw, errors)``: its pinned value, or
        None to take ``draw()``, and the exception types that blame it.
        Unpinned vectors are drawn in the order given.  A failure redraws
        only the first vector whose types it matches, at most
        ``retry_limit`` times in all; one that matches none propagates.
        GenericityFailure is raised when a pinned vector is blamed and when
        the retries run out.
        """
        values = [None if pinned is None else tuple(pinned) for _, pinned, _, _ in vectors]
        failed = []
        for _ in range(self.retry_limit + 1):
            values = [draw() if v is None else v
                      for v, (_, _, draw, _) in zip(values, vectors)]
            try:
                return attempt(*values)
            except tuple(e for *_, errors in vectors for e in errors) as exc:
                k = next(k for k, (*_, errors) in enumerate(vectors)
                         if isinstance(exc, errors))
                name, pinned = vectors[k][:2]
                if pinned is not None:
                    raise GenericityFailure(
                        f"genericity failure with pinned {name}: {exc}") from exc
                self.failures.setdefault(name, []).append(str(exc))
                failed.append(f"{name}: {exc}")
                values[k] = None
        raise GenericityFailure("genericity failure after retries: " + "; ".join(failed))


def solve_separating(system, draws: Draws, lam=None, *,
                     check: bool = True) -> GeometricResolution:
    """solve_toric_0d with the separating form ``lam``, or one drawn and
    redrawn by ``draws`` while it does not separate."""
    return draws.retry(lambda lam: solve_toric_0d(system, lam, check=check),
                       ("lambda", lam, lambda: draws.nonzero(len(system)),
                        (LambdaNotSeparating,)))


def count_toric_roots(system, lam=None, *, retries: int = DEFAULT_RETRIES,
                      seed: int = 0, bound: int = DEFAULT_BOUND) -> int:
    """Number of toric roots = deg q for a successful separating form.

    The count only needs deg q; degeneracies still surface as typed
    failures, so the (expensive) exactness audit is skipped.
    """
    return solve_separating(system, Draws(seed, bound, retries), lam,
                            check=False).degree()
