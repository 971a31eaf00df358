"""Projection pipeline: parametric resolutions, projections, and the driver.

The driver follows the K-Projection recipe at its rational instantiation:
transcendence basis, variable permutation, specialization of the trailing
basis variables at a random point b, a parametric toric resolution of the
specialized system (fiber solve, Newton-Hensel lift, rational
reconstruction), and finally the projection step that rewrites the
resolution in terms of a separating form mu on the projected coordinates.

The lift is one generator, ``lifting.newton_hensel_lift``, run to the cap
2 * MV(S, Delta^(t)); ``_lift_and_reconstruct`` loops over the resolutions
it yields after each doubling.  Each one, the cap included, is
reconstructed at degree bound floor(prec / 2), which reaches
MV(S, Delta^(t)) at the cap, and the first reconstruction that passes one
exact certificate over Q(X_free), ``zerodim.audit_parametric``, is
returned (see ``_certified``); the lift goes no further.  A candidate
refused at the cap is a genericity failure like any other.

All random draws come from one seeded ``zerodim.Draws``, in the order b,
lambda, xi, mu, and are recorded in the result's provenance.  Its ``retry``
answers a detected failure (a polynomial vanishing at b, a non-separating
lambda, a singular Jacobian or refused reconstruction at xi, a
non-primitive mu) with a fresh draw of only the offending vector, up to the
retry limit.  Pinned vectors are never redrawn: a failure attributable to
one raises GenericityFailure immediately.
"""

from __future__ import annotations

from .lifting import LiftingError, SingularJacobian, newton_hensel_lift
from .linalg import InconsistentSystem, KrylovEchelon
from .mpoly import SparsePoly, mpoly_gcd, mpoly_lcm
from .pade import NoValidApproximant, pade, shifted_to_ratfun
from .polytope import Support, SupportFamily, mixed_volume
from .rat import rat
from .ratfun import RatFun
from .series import TruncSeries
from .supports import VarOrder, project_supports, trans_basis
from .upoly import Residue, UniPoly, upoly_is_squarefree
from .zerodim import (
    DEFAULT_BOUND,
    DEFAULT_RETRIES,
    Draws,
    GenericityFailure,  # noqa: F401  (re-exported)
    GeometricResolution,
    LambdaNotSeparating,
    NonGenericInput,
    audit_parametric,
    field_one,
    linear_form,
    parametric_identities,
    solve_toric_0d,
)


class MuNotPrimitive(ArithmeticError):
    pass


class ProjectionProblem:
    """A system with its target projection width and randomness policy."""

    __slots__ = ("system", "family", "ell", "seed", "bound", "retry_limit",
                 "lam", "mu", "b", "xi")

    def __init__(self, system, ell: int, *, seed: int = 0, bound: int = DEFAULT_BOUND,
                 retry_limit: int = DEFAULT_RETRIES, lam=None, mu=None, b=None, xi=None):
        system = list(system)
        if not system:
            raise ValueError("empty system")
        n = system[0].nvars
        r = len(system)
        if any(p.nvars != n for p in system):
            raise ValueError("ambient variable count mismatch")
        if any(not p for p in system):
            raise ValueError("zero polynomial in system")
        if r > n:
            raise ValueError("more equations than variables")
        if not 1 <= ell < n:
            raise ValueError("projection width must satisfy 1 <= l < n")
        self.system = system
        self.family = SupportFamily([Support(n, p.support()) for p in system])
        self.ell = ell
        self.seed = seed
        self.bound = bound
        self.retry_limit = retry_limit
        self.lam = tuple(lam) if lam is not None else None
        self.mu = tuple(mu) if mu is not None else None
        self.b = tuple(b) if b is not None else None
        self.xi = tuple(xi) if xi is not None else None

    @property
    def n(self) -> int:
        return self.system[0].nvars

    @property
    def r(self) -> int:
        return len(self.system)


class ProjectionResult:
    """Final resolution plus everything needed to audit and reproduce it."""

    __slots__ = ("order", "dense_image", "parametric", "resolution", "mu",
                 "provenance")

    def __init__(self, order: VarOrder, dense_image: bool, parametric,
                 resolution, mu, provenance: dict):
        self.order = order
        self.dense_image = dense_image
        self.parametric = parametric
        self.resolution = resolution
        self.mu = tuple(mu) if mu is not None else ()
        self.provenance = provenance

    @property
    def free_vars(self):
        return self.order.free_original


# -- parametric toric resolution ----------------------------------------------


def lift_precision(system, t: int) -> int:
    """Degree bound MV(S, Delta^(t)) for the coefficient fractions.

    This is the degree of the toric variety over the free variables.  The
    numerators and denominators of the coefficients of q stay below it, so
    a series precision of twice the bound suffices to reconstruct q.  That
    does not hold for the parametrizations v_j, whose denominators carry the
    discriminant of q: their degrees can exceed the bound, and then no
    candidate at the cap certifies.  The lift uses twice the bound as its
    cap: it stops earlier when a reconstruction at a lower precision passes
    the exact certificate.
    """
    n = system[0].nvars
    members = [Support(n, p.support()) for p in system] + [Support.simplex(n)] * t
    return mixed_volume(SupportFamily(members))


def _shifted_fractions(lifted, degree_bound: int, t: int):
    """Pade fractions (num, den) in the shifted variables, for q and params."""
    def fractions(upoly: UniPoly):
        return [pade(c, degree_bound) if isinstance(c, TruncSeries)
                else (SparsePoly.const(t, c), SparsePoly.const(t, 1))
                for c in upoly.coeffs]

    return fractions(lifted.q), {v: fractions(p) for v, p in lifted.params.items()}


def _resolution_from_fractions(q_z, params_z: dict, shift, t: int,
                               lam) -> GeometricResolution:
    def rebuild(fractions) -> UniPoly:
        return UniPoly([shifted_to_ratfun(num, den, shift) for num, den in fractions])

    params = {v: rebuild(p) for v, p in params_z.items()}
    return GeometricResolution(tuple(range(t)), tuple(sorted(params)), lam,
                               rebuild(q_z), params)


def _identities_at_point(q_z, params_z: dict, system, t: int, lam, shift) -> None:
    """``audit_parametric`` on the candidate specialized at one rational point.

    The identities hold modulo a monic q, so they survive specialization at
    any point where no denominator vanishes: failing at the point proves the
    candidate wrong, for the price of a few evaluations.  When none of the
    trial points is regular, the decision is left to the exact certificate.
    """
    m = len(system)
    for k in range(3):
        z = tuple(rat(2 * k + i + 3, 7) for i in range(t))
        try:
            q0 = UniPoly([num.eval_all(z) / den.eval_all(z) for num, den in q_z])
            v0 = {v - t: UniPoly([num.eval_all(z) / den.eval_all(z) for num, den in p])
                  for v, p in params_z.items()}
        except ZeroDivisionError:
            continue
        x = {i: shift[i] + z[i] for i in range(t)}
        fiber = [g.eval_partial(x).reindex(list(range(t, t + m))) for g in system]
        audit_parametric(GeometricResolution((), tuple(range(m)), lam, q0, v0), fiber, 0)
        return


def _certified(lifted, system, t: int, degree_bound: int, lam) -> GeometricResolution:
    """The reconstruction of ``lifted`` at ``degree_bound``, certified.

    The certificate is ``audit_parametric``, exact over Q(X_free), after the
    same identities at one rational point.  The candidate's q is monic of
    the fiber's degree, and every Pade denominator is nonzero at xi, so q(xi)
    and v(xi) are the fiber resolution, whose roots are simple.  A candidate
    that passes is then the resolution itself, by Hensel uniqueness at xi,
    whatever the degree bound was.  Raises NoValidApproximant when Pade
    finds no approximant and NonGenericInput when an identity fails.
    """
    q_z, params_z = _shifted_fractions(lifted, degree_bound, t)
    shift = lifted.ring.shift
    _identities_at_point(q_z, params_z, system, t, lam, shift)
    res = _resolution_from_fractions(q_z, params_z, shift, t, lam)
    audit_parametric(res, system, t)
    return res


def _lift_and_reconstruct(system, base, xi, t: int, lam,
                          degree_bound: int) -> GeometricResolution:
    """Certify after every doubling of the lift; return the first certified result.

    The lift runs to the cap 2 * ``degree_bound`` (at least 1) and yields
    after each doubling; each yield is reconstructed at degree bound
    floor(prec / 2), which is ``degree_bound`` at the cap, and certified.  A
    candidate refused below the cap lifts further; one refused at the cap
    raises.
    """
    cap = max(2 * degree_bound, 1)
    for lifted in newton_hensel_lift(system, base, xi, cap):
        try:
            return _certified(lifted, system, t, lifted.precision // 2, lam)
        except (NoValidApproximant, NonGenericInput):
            if lifted.precision == cap:
                raise


def parametric_toric_geomres(system, t: int, lam=None, *, xi=None,
                             degree_bound: int | None = None,
                             draws: Draws | None = None) -> GeometricResolution:
    """Geometric resolution of the toric zeros with X_0..X_{t-1} free.

    ``system``: m polynomials in t+m variables, free variables first; the
    free block must be algebraically independent modulo the saturated ideal
    (the driver guarantees this via the transcendence basis).  Unpinned
    lambda and xi come from ``draws`` (a fresh ``Draws()`` by default),
    which redraws only the failing one; pinned lambda/xi fail immediately.
    The lift stops at the first precision whose reconstruction passes the
    exact certificate, and at the latest at 2 * ``degree_bound`` (by
    default MV(S, Delta^(t)), see ``lift_precision``).
    """
    system = list(system)
    m = len(system)
    if any(g.nvars != t + m for g in system):
        raise ValueError("system must have t+m variables")
    if xi is not None and len(xi) != t:
        raise ValueError(f"xi must have {t} entries")
    if draws is None:
        draws = Draws()
    if degree_bound is None:
        degree_bound = lift_precision(system, t)

    def attempt(lam, xi=()):
        if t == 0:
            return solve_toric_0d(system, lam)
        specialized = [
            g.eval_partial({i: xi[i] for i in range(t)}).reindex(list(range(t, t + m)))
            for g in system
        ]
        if any(not g for g in specialized):
            raise NonGenericInput("system polynomial vanished at the sample point")
        base = solve_toric_0d(specialized, lam)
        if base.degree() == 0:
            raise NonGenericInput("no toric roots over the sample point")
        return _lift_and_reconstruct(system, base, xi, t, lam, degree_bound)

    # xi fails the fiber solve and the lift; at t = 0 there is no xi to blame
    xi_vector = [("xi", xi, lambda: draws.positive(t),
                  (SingularJacobian, NoValidApproximant, NonGenericInput,
                   LiftingError))] if t else []
    return draws.retry(attempt,
                       ("lambda", lam, lambda: draws.nonzero(m), (LambdaNotSeparating,)),
                       *xi_vector)


# -- projection of a resolution ------------------------------------------------


def geom_res_proj(res: GeometricResolution, projected_vars, mu) -> GeometricResolution:
    """Resolution of the projection onto (free vars + projected_vars).

    ``mu``: integer coefficients over ``projected_vars`` (a separating form
    of the projected points).  The Krylov vectors 1, p_mu, p_mu^2, ... of
    p_mu = sum mu_j v_j in K[Y]/q go through one incremental elimination:
    the first dependent power gives q_mu, and every projected coordinate is
    solved against the same elimination in the power basis of p_mu.  Raises
    MuNotPrimitive when some projected coordinate is not a polynomial in mu.
    """
    projected_vars = tuple(projected_vars)
    mu = tuple(int(c) for c in mu)
    if len(mu) != len(projected_vars):
        raise ValueError("mu length must match the projected variables")
    if not any(mu):
        raise MuNotPrimitive("mu is identically zero")
    missing = [v for v in projected_vars if v not in res.params]
    if missing:
        raise ValueError(f"projected variables {missing} not in the resolution")

    t = len(res.free_vars)
    q = res.q
    D = q.degree()
    one = field_one(t)
    if D == 0:
        return GeometricResolution(res.free_vars, projected_vars, mu,
                                   UniPoly.const(one),
                                   {v: UniPoly.zero() for v in projected_vars})

    mod = Residue(q)
    p_mu = linear_form(res.params, projected_vars, mu, mod)
    zero = one - one

    def vec(p: UniPoly):
        return [p[k] if p[k] else zero for k in range(D)]

    # D+1 vectors in a D-dimensional space guarantee a dependency
    krylov = KrylovEchelon(one)
    power = UniPoly.const(one)
    relation = krylov.add(vec(power))
    while relation is None:
        power = mod.mul(power, p_mu)
        relation = krylov.add(vec(power))
    q_mu = UniPoly([-c for c in relation] + [one])

    params = {}
    for v in projected_vars:
        try:
            params[v] = UniPoly(krylov.solve(vec(mod.reduce(res.params[v]))))
        except InconsistentSystem as exc:
            raise MuNotPrimitive(
                f"mu not primitive for projection (coordinate {v})") from exc

    return GeometricResolution(res.free_vars, projected_vars, mu, q_mu, params)


def _eval_at_upoly(p: UniPoly, x: UniPoly, mod: Residue) -> UniPoly:
    """p(x) in the residue ring ``mod``, by Horner's rule."""
    acc = UniPoly.zero()
    for c in reversed(p.coeffs):
        acc = mod.mul(acc, x) + UniPoly.const(c)
    return mod.reduce(acc)


# -- verification report ---------------------------------------------------------


def _upoly_squarefree(q: UniPoly, t: int) -> bool:
    """Squarefreeness of a monic q with RatFun (or Rat) coefficients.

    Euclidean gcds over a rational function field blow up, so first try to
    certify gcd(q, q') = 1 at a few evaluation points (a specialization can
    only enlarge the gcd, making "coprime there" an exact certificate);
    fall back to an exact gcd over the polynomial ring by clearing
    denominators and treating Y as one more variable.
    """
    if q.degree() <= 0:
        return True
    if t == 0:
        return upoly_is_squarefree(q)
    for point in ((rat(2),) * t, tuple(rat(3 + i) for i in range(t)),
                  tuple(rat(5 + 2 * i) for i in range(t))):
        try:
            spec = q.map_coeffs(
                lambda c: c.evaluate(point) if isinstance(c, RatFun) else rat(c))
        except ZeroDivisionError:
            continue
        if spec.degree() == q.degree() and upoly_is_squarefree(spec):
            return True
    # exact fallback: clear denominators, gcd in Q[X_1..X_t, Y]
    den = SparsePoly.const(t, 1)
    for c in q.coeffs:
        if isinstance(c, RatFun) and not c.den.is_constant():
            den = mpoly_lcm(den, c.den)
    terms: dict = {}
    for k in range(q.degree() + 1):
        c = q[k]
        if not c:
            continue
        if not isinstance(c, RatFun):
            c = RatFun.from_const(t, c)
        scaled = c.num * den.exact_div(c.den)
        for e, v in scaled.terms.items():
            terms[e + (k,)] = v
    big = SparsePoly(t + 1, terms)
    g = mpoly_gcd(big, big.derivative(t))
    return g.degree_in(t) == 0


class VerificationReport:
    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = list(entries)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __repr__(self):
        return f"VerificationReport(passed={self.passed}, entries={self.entries})"


def verify_resolution(res: GeometricResolution, context) -> VerificationReport:
    """Per-identity audit; context is either a system (parametric mode) or a
    (parent_resolution, projected_vars, mu) triple (projected mode)."""
    entries = []
    t = len(res.free_vars)
    if isinstance(context, (list, tuple)) and context and isinstance(context[0], SparsePoly):
        entries.extend(parametric_identities(res, context, t))
    else:
        parent, projected_vars, mu = context
        # modulo q/lc(q), as in ``parametric_identities``
        mod = Residue(parent.q.monic())
        p_mu = linear_form(parent.params, projected_vars, mu, mod)
        entries.append(("q_mu(p_mu) = 0 mod q_lambda",
                        not _eval_at_upoly(res.q, p_mu, mod)))
        for v in projected_vars:
            diff = _eval_at_upoly(res.params[v], p_mu, mod) - parent.params[v]
            entries.append((f"v(p_mu) = w mod q_lambda for X{v + 1}",
                            not mod.reduce(diff)))
    entries.append(("q monic", res.q.is_monic()))
    entries.append(("q squarefree", _upoly_squarefree(res.q, t)))
    entries.append(("deg params < deg q",
                    all(p.degree() < max(res.q.degree(), 1) or res.q.degree() == 0
                        for p in res.params.values())))
    return VerificationReport(entries)


# -- end-to-end driver ------------------------------------------------------------


def q_projection(problem: ProjectionProblem) -> ProjectionResult:
    """Geometric resolution of the closure of the projection of V*(f)."""
    n, r, ell = problem.n, problem.r, problem.ell
    draws = Draws(problem.seed, problem.bound, problem.retry_limit)
    family = problem.family
    tb = trans_basis(family)
    order = VarOrder(tb, n, r, ell)
    t = order.t
    provenance: dict = {
        "seed": problem.seed,
        "transcendence_basis": tuple(i + 1 for i in tb),
        "t": t,
        "order": tuple(i + 1 for i in order.to_original),
    }
    if t == ell:
        return ProjectionResult(order, True, None, None, None, provenance)

    degree_cap = mixed_volume(SupportFamily(
        list(family.members) + [Support.simplex(n)] * (n - r)))
    provenance["degree_cap"] = degree_cap

    spec_vars = order.specialized_original
    b = problem.b
    if b is not None:
        if len(b) != len(spec_vars):
            raise ValueError(f"b must have {len(spec_vars)} entries")
        b = tuple(int(x) for x in b)
        if any(x == 0 for x in b):
            raise ValueError("b entries must be nonzero")
    frame_positions = list(order.to_original[: t + r])

    def specialize(b):
        bindings = {v: rat(val) for v, val in zip(spec_vars, b)}
        specialized = [g.eval_partial(bindings).reindex(frame_positions)
                       for g in problem.system]
        if any(not g for g in specialized):
            raise NonGenericInput("system polynomial vanished after specialization")
        return b, specialized

    b, specialized = draws.retry(
        specialize,
        ("b", b, lambda: draws.positive(len(spec_vars)), (NonGenericInput,)))
    provenance["b"] = b

    projected_family = project_supports(family, frame_positions)
    mv = mixed_volume(SupportFamily(
        list(projected_family.members) + [Support.simplex(t + r)] * t))
    provenance["degree_bound"] = mv
    provenance["precision"] = 2 * mv

    # lambda and xi are drawn (and redrawn on failure) by the parametric
    # step, right after b, unless the problem pins them
    parametric = parametric_toric_geomres(
        specialized, t, problem.lam, xi=problem.xi, degree_bound=mv, draws=draws)
    provenance["lambda"] = parametric.lam

    proj_frame = tuple(range(t, ell))
    projected = draws.retry(
        lambda mu: geom_res_proj(parametric, proj_frame, mu),
        ("mu", problem.mu, lambda: draws.nonzero(len(proj_frame)), (MuNotPrimitive,)))
    mu = projected.lam
    provenance["mu"] = mu
    provenance["mu_attempts"] = len(draws.failures.get("mu", ()))

    report = verify_resolution(projected, (parametric, proj_frame, mu))
    if not report.passed:
        raise NonGenericInput(f"verification failed: {report}")
    if projected.degree() > degree_cap:
        raise NonGenericInput(
            f"projected degree {projected.degree()} exceeds the mixed-volume "
            f"bound {degree_cap}")
    provenance["projected_degree"] = projected.degree()

    return ProjectionResult(order, False, parametric, projected, mu, provenance)
