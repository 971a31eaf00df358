import inspect
import itertools
import random
import types

import pytest

import sparseproj.projection as projection
from conftest import threevar_fiber, threevar_system, fivevar_specialized, fivevar_system
from sparseproj.lifting import newton_hensel_lift
from sparseproj.mpoly import SparsePoly
from sparseproj.pade import NoValidApproximant
from sparseproj.projection import (
    GenericityFailure,
    MuNotPrimitive,
    ProjectionProblem,
    geom_res_proj,
    lift_precision,
    parametric_toric_geomres,
    q_projection,
    verify_resolution,
)
from sparseproj.rat import rat
from sparseproj.ratfun import RatFun, ratfun_normalize
from sparseproj.series import TruncSeries
from sparseproj.upoly import UniPoly
from sparseproj.zerodim import GeometricResolution, NonGenericInput, audit_parametric, solve_toric_0d


def F1(num_terms, den_terms=None):
    num = SparsePoly(1, num_terms)
    den = SparsePoly(1, den_terms) if den_terms else SparsePoly.const(1, 1)
    return ratfun_normalize(num, den)


def F2(num_terms, den_terms=None):
    num = SparsePoly(2, num_terms)
    den = SparsePoly(2, den_terms) if den_terms else SparsePoly.const(2, 1)
    return ratfun_normalize(num, den)


@pytest.fixture(scope="module")
def res3():
    return parametric_toric_geomres(threevar_system(), 1, (0, 1), xi=(1,))


@pytest.fixture(scope="module")
def res5(request):
    return parametric_toric_geomres(fivevar_specialized(), 2, (0, 1), xi=(2, 3))


def test_threevar_parametric_golden(res3):
    den = {(2,): 4, (1,): 2, (0,): -1}
    assert res3.q == UniPoly([
        F1({(2,): -9, (0,): 8}, den),
        F1({(3,): -12, (2,): -6, (1,): 6}, den),
        RatFun.from_const(1, 1),
    ])
    assert res3.params[1] == UniPoly([
        F1({(1,): rat(-3, 4)}),
        F1({(2,): -1, (1,): rat(-1, 2), (0,): rat(1, 4)}),
    ])
    assert res3.params[2] == UniPoly([RatFun.from_const(1, 0), RatFun.from_const(1, 1)])


def test_fivevar_parametric_golden(res5):
    q = res5.q
    assert q.degree() == 10 and q.is_monic()
    assert q[8] == F2({(2, 0): rat(-2, 5)})
    assert q[6] == F2({(4, 0): rat(1, 25), (0, 0): rat(6, 5)})
    assert q[4] == F2({(2, 0): rat(2, 75)})
    assert q[2] == F2({(3, 4): -28, (4, 0): -4, (0, 0): 27}, {(0, 0): 75})
    assert q[0] == F2({(2, 0): rat(4, 25)})
    assert not any(q[k] for k in (1, 3, 5, 7, 9))
    w3 = res5.params[2]
    assert w3[4] == F2({(0, 0): -5}, {(1, 1): 2})
    assert w3[2] == F2({(1, 0): 1}, {(0, 1): 2})
    assert w3[0] == F2({(0, 0): -3}, {(1, 1): 2})
    assert res5.params[3] == UniPoly([RatFun.from_const(2, 0), RatFun.from_const(2, 1)])


def test_fivevar_projection_golden(res5):
    proj = geom_res_proj(res5, (2,), (1,))
    assert proj.q == UniPoly([
        F2({(1, 3): 49}, {(0, 0): 6}),
        F2({(2, 4): 49, (3, 0): 7}, {(0, 0): 9}),
        F2({(0, 4): -63, (1, 0): 10}, {(0, 3): 9}),
        F2({(1, 4): -14, (2, 0): -1}, {(0, 2): 3}),
        F2({(0, 0): 3}, {(1, 1): 2}),
        RatFun.from_const(2, 1),
    ])
    assert proj.params[2] == UniPoly([RatFun.from_const(2, 0), RatFun.from_const(2, 1)])
    report = verify_resolution(proj, (res5, (2,), (1,)))
    assert report.passed


def test_identity_projection(res3):
    proj = geom_res_proj(res3, (1, 2), (0, 1))
    assert proj.q == res3.q
    assert proj.params[1] == res3.params[1]
    assert proj.params[2] == res3.params[2]


def test_rank_example_constant_parametrization():
    # (Y^2 - X1; X2 -> Y; X3 -> X1): projecting X3 gives delta = 1
    x1 = F1({(1,): 1})
    res = GeometricResolution((0,), (1, 2), (1, 0),
                              UniPoly([-x1, RatFun.from_const(1, 0),
                                       RatFun.from_const(1, 1)]),
                              {1: UniPoly([RatFun.from_const(1, 0),
                                           RatFun.from_const(1, 1)]),
                               2: UniPoly([x1])})
    proj = geom_res_proj(res, (2,), (1,))
    assert proj.q == UniPoly([-x1, RatFun.from_const(1, 1)])
    # the parametrization is the reduced representative of Y modulo q_mu
    assert proj.params[2] == UniPoly([x1])
    # projecting X2 and X3 jointly with mu = X3 is rank-defective in X2
    with pytest.raises(MuNotPrimitive):
        geom_res_proj(res, (1, 2), (0, 1))


def test_monotone_consistency(res3):
    # projecting {X2, X3} with mu = X3 and then {X2} agrees with projecting
    # {X2} directly
    step = geom_res_proj(res3, (1, 2), (0, 1))
    twice = geom_res_proj(step, (1,), (1,))
    direct = geom_res_proj(res3, (1,), (1,))
    assert twice.q == direct.q
    assert twice.params[1] == direct.params[1]


def test_verify_detects_mutation(res3):
    bad_q = UniPoly([res3.q[0] + 1, res3.q[1], res3.q[2]])
    mutated = GeometricResolution(res3.free_vars, res3.dep_vars, res3.lam,
                                  bad_q, res3.params)
    report = verify_resolution(mutated, threevar_system())
    assert not report.passed
    bad_params = dict(res3.params)
    bad_params[1] = res3.params[1] + UniPoly([RatFun.from_const(1, rat(1, 7))])
    mutated2 = GeometricResolution(res3.free_vars, res3.dep_vars, res3.lam,
                                   res3.q, bad_params)
    assert not verify_resolution(mutated2, threevar_system()).passed


def test_t_zero_projection_of_points():
    # V = {(1,2), (-1,-2)}; projection to X1 has minimal polynomial Y^2 - 1
    system = [SparsePoly(2, {(2, 0): 1, (0, 0): -1}),
              SparsePoly(2, {(0, 1): 1, (1, 0): -2})]
    prob = ProjectionProblem(system, 1, seed=3, mu=(1,))
    result = q_projection(prob)
    assert not result.dense_image
    assert result.order.t == 0
    assert result.resolution.q == UniPoly([rat(-1), rat(0), rat(1)])
    assert result.provenance["projected_degree"] == 2


def test_changed_projection_fails_verification(monkeypatch):
    # the projection of V = {(1,2), (-1,-2)} to X1 with X1's parametrization
    # shifted by 1: the driver's own verification must refuse it
    system = [SparsePoly(2, {(2, 0): 1, (0, 0): -1}),
              SparsePoly(2, {(0, 1): 1, (1, 0): -2})]
    real = projection.geom_res_proj

    def shifted(res, projected_vars, mu):
        proj = real(res, projected_vars, mu)
        params = dict(proj.params)
        params[0] = params[0] + UniPoly([rat(1)])
        return GeometricResolution(proj.free_vars, proj.dep_vars, proj.lam, proj.q, params)

    monkeypatch.setattr(projection, "geom_res_proj", shifted)
    with pytest.raises(NonGenericInput, match="verification failed"):
        q_projection(ProjectionProblem(system, 1, seed=3, mu=(1,)))


def test_dense_image_marker():
    system = [SparsePoly(2, {(0, 1): 1, (2, 0): -1})]  # X2 - X1^2
    result = q_projection(ProjectionProblem(system, 1, seed=5))
    assert result.dense_image
    assert result.order.t == 1
    assert result.resolution is None


def test_determinism_same_seed():
    system = fivevar_system()
    prob1 = ProjectionProblem(system, 3, seed=9, lam=(0, 1), mu=(1,), b=(1,),
                              xi=(2, 3))
    prob2 = ProjectionProblem(system, 3, seed=9, lam=(0, 1), mu=(1,), b=(1,),
                              xi=(2, 3))
    r1 = q_projection(prob1)
    r2 = q_projection(prob2)
    assert r1.provenance == r2.provenance
    assert r1.resolution.q == r2.resolution.q
    assert r1.resolution.params == r2.resolution.params


def test_pinned_mu_failure_is_genericity_failure():
    system = [SparsePoly(2, {(2, 0): 1, (0, 0): -1}),
              SparsePoly(2, {(0, 1): 1, (1, 0): -2})]
    with pytest.raises((GenericityFailure, MuNotPrimitive)):
        q_projection(ProjectionProblem(system, 1, seed=3, mu=(0,)))


def test_degree_bound_recorded(res5):
    proj = geom_res_proj(res5, (2,), (1,))
    assert proj.degree() == 5 <= 66


def _refuse(*args):
    raise NonGenericInput("candidate refused")


def test_fivevar_degree_bound_and_precision(monkeypatch):
    """The README five-variable run (b = X4 = 1) lifts with degree bound
    MV(S, Delta^2) = 22 and precision cap 44, under degree cap 66."""
    seen = {}
    real_geomres = projection.parametric_toric_geomres

    def recording_geomres(specialized, t, lam, **kwargs):
        seen.update(kwargs, t=t)
        return real_geomres(specialized, t, lam, **kwargs)

    mixed_volumes = []
    real_mv = projection.mixed_volume

    def recording_mv(family):
        mixed_volumes.append(real_mv(family))
        return mixed_volumes[-1]

    # the lift yields a stand-in at each precision of its doubling schedule
    # without computing a series, and every candidate is refused, so the
    # driver runs through to the cap
    caps, targets = [], []

    def idle_lift(system, base, xi, kappa):
        caps.append(kappa)
        prec = 0
        while prec < kappa:
            prec = min(2 * prec + 1, kappa)
            yield types.SimpleNamespace(precision=prec)

    def refuse_recording(lifted, *args):
        targets.append(lifted.precision)
        _refuse()

    monkeypatch.setattr(projection, "mixed_volume", recording_mv)
    monkeypatch.setattr(projection, "parametric_toric_geomres", recording_geomres)
    monkeypatch.setattr(projection, "newton_hensel_lift", idle_lift)
    monkeypatch.setattr(projection, "_certified", refuse_recording)
    with pytest.raises(GenericityFailure, match="pinned xi"):
        q_projection(ProjectionProblem(fivevar_system(), 3, seed=42, b=(1,), xi=(2, 3)))
    assert mixed_volumes == [66, 22]
    assert (seen["t"], seen["degree_bound"]) == (2, 22)
    assert caps == [44]
    assert targets == [1, 3, 7, 15, 31, 44]


# -- early termination of the lift ------------------------------------------------


def _record_lift_targets(monkeypatch):
    """Wrap the lift the driver runs; returns the list of precisions it yields."""
    targets = []
    real = projection.newton_hensel_lift

    def recording(system, base, xi, kappa):
        for lifted in real(system, base, xi, kappa):
            targets.append(lifted.precision)
            yield lifted

    monkeypatch.setattr(projection, "newton_hensel_lift", recording)
    return targets


def _full_precision(system, t, lam, xi):
    """The full-precision reference: lift to 2*MV, reconstruct at the MV bound."""
    mv = lift_precision(system, t)
    m = len(system)
    fiber = [g.eval_partial({i: rat(x) for i, x in enumerate(xi)}).reindex(
        list(range(t, t + m))) for g in system]
    *_, lifted = newton_hensel_lift(system, solve_toric_0d(fiber, lam), xi, 2 * mv)
    return projection._certified(lifted, system, t, mv, lam)


def _small_curves(rng):
    """Space curves: constant plus two monomials of exponents <= 2 each."""
    monomials = [e for e in itertools.product(range(3), repeat=3) if any(e)]
    while True:
        polys = []
        for _ in range(2):
            terms = {(0, 0, 0): rat(rng.choice((-1, 1)) * rng.randint(1, 9))}
            for e in rng.sample(monomials, 2):
                terms[e] = rat(rng.choice((-1, 1)) * rng.randint(1, 9))
            polys.append(SparsePoly(3, terms))
        yield polys


def test_threevar_stops_early_with_full_precision_result(monkeypatch):
    targets = _record_lift_targets(monkeypatch)
    res = parametric_toric_geomres(threevar_system(), 1, (0, 1), xi=(1,))
    assert max(targets) < 2 * lift_precision(threevar_system(), 1) == 12
    full = _full_precision(threevar_system(), 1, (0, 1), (1,))
    assert res.q == full.q
    assert res.params == full.params


def test_small_curves_early_result_equals_full_precision(monkeypatch):
    targets = _record_lift_targets(monkeypatch)
    curves = _small_curves(random.Random(7))
    compared = early = 0
    while compared < 6:
        system = next(curves)
        mv = lift_precision(system, 1)
        if not 1 <= mv <= 6:
            continue
        targets.clear()
        try:
            res = parametric_toric_geomres(system, 1, (1, 2), xi=(2,))
        except ArithmeticError:
            continue  # non-generic pins for this curve
        full = _full_precision(system, 1, (1, 2), (2,))
        assert res.q == full.q
        assert res.params == full.params
        compared += 1
        early += max(targets) < 2 * mv
    assert early >= 1


def test_certificate_rejects_one_changed_coefficient(res3):
    system = threevar_system()
    audit_parametric(res3, system, 1)
    bad_v = dict(res3.params)
    bad_v[1] = UniPoly([res3.params[1][0], res3.params[1][1] + rat(1, 3)])
    with pytest.raises(NonGenericInput):
        audit_parametric(
            GeometricResolution(res3.free_vars, res3.dep_vars, res3.lam, res3.q, bad_v),
            system, 1)
    bad_q = UniPoly([res3.q[0] + rat(1, 3), res3.q[1], res3.q[2]])
    with pytest.raises(NonGenericInput):
        audit_parametric(
            GeometricResolution(res3.free_vars, res3.dep_vars, res3.lam, bad_q, res3.params),
            system, 1)
    # a changed lambda fails the identity sum lambda_j v_j = Y alone
    with pytest.raises(NonGenericInput, match="lambda"):
        audit_parametric(
            GeometricResolution(res3.free_vars, res3.dep_vars, (3, 1), res3.q, res3.params),
            system, 1)


def test_early_candidate_with_changed_series_is_rejected():
    base = solve_toric_0d(threevar_fiber(), (0, 1))
    *_, lifted = newton_hensel_lift(threevar_system(), base, (1,), 7)
    good = projection._certified(lifted, threevar_system(), 1, 3, (0, 1))
    assert good is not None
    q1 = lifted.q[1]
    bumped = q1 + q1.ring.from_shifted_poly(SparsePoly(1, {(2,): 1}))
    lifted.q = UniPoly([lifted.q[0], bumped, lifted.q[2]])
    with pytest.raises((NoValidApproximant, NonGenericInput)):
        projection._certified(lifted, threevar_system(), 1, 3, (0, 1))


def _quartic_system():
    """X2 = 1 + (X1 - 1)^4: around X1 = 1 its q and v look constant through
    degree 3, so the Pade candidates at precisions 1 and 3 are wrong
    constants that still match every series term they are given."""
    return [SparsePoly(2, {(0, 1): 1, (4, 0): -1, (3, 0): 4, (2, 0): -6,
                           (1, 0): 4, (0, 0): -2})]


def _recording(monkeypatch, name):
    """Wrap a check that raises NonGenericInput; records True or False."""
    verdicts = []
    real = getattr(projection, name)

    def recording(*args):
        try:
            real(*args)
        except NonGenericInput:
            verdicts.append(False)
            raise
        verdicts.append(True)

    monkeypatch.setattr(projection, name, recording)
    return verdicts


def test_point_filter_rejects_candidates_that_pass_pade(monkeypatch):
    verdicts = _recording(monkeypatch, "_identities_at_point")
    res = parametric_toric_geomres(_quartic_system(), 1, (1,), xi=(1,))
    assert verdicts.count(False) == 2
    full = _full_precision(_quartic_system(), 1, (1,), (1,))
    assert res.q == full.q
    assert res.params == full.params


@pytest.mark.parametrize("explicit_bound", [True, False])
def test_exact_certificate_alone_rejects_wrong_candidates(monkeypatch, explicit_bound):
    # with the one-point filter waved through, the wrong early candidates
    # must fall to the exact certificate, and the loop goes on to the right
    # answer, which the same certificate accepts at the cap, whether the
    # degree bound is given or taken from lift_precision
    monkeypatch.setattr(projection, "_identities_at_point", lambda *args: None)
    verdicts = _recording(monkeypatch, "audit_parametric")
    kwargs = {"degree_bound": lift_precision(_quartic_system(), 1)} if explicit_bound else {}
    res = parametric_toric_geomres(_quartic_system(), 1, (1,), xi=(1,), **kwargs)
    assert verdicts == [False, False, True]
    full = _full_precision(_quartic_system(), 1, (1,), (1,))
    assert res.q == full.q
    assert res.params == full.params


def test_no_certified_step_falls_back_to_the_cap(monkeypatch, res3):
    targets = _record_lift_targets(monkeypatch)
    real = projection._certified
    full_bound = lift_precision(threevar_system(), 1)

    def below_full_bound_refused(lifted, system, t, degree_bound, lam):
        if degree_bound < full_bound:
            _refuse()
        return real(lifted, system, t, degree_bound, lam)

    monkeypatch.setattr(projection, "_certified", below_full_bound_refused)
    res = parametric_toric_geomres(threevar_system(), 1, (0, 1), xi=(1,))
    assert targets == [1, 3, 7, 12]
    assert res.q == res3.q
    assert res.params == res3.params


def test_degree_bound_zero_lifts_once():
    # X2 = 5 has a resolution constant in X1: degree bound 0 still lifts one
    # doubling and certifies it, and a wrong bound 0 is refused, not None
    res = parametric_toric_geomres([SparsePoly(2, {(0, 1): 1, (0, 0): -5})], 1, (1,),
                                   xi=(1,), degree_bound=0)
    assert res.q == UniPoly([RatFun.from_const(1, -5), RatFun.from_const(1, 1)])
    with pytest.raises(GenericityFailure, match="pinned xi"):
        parametric_toric_geomres(threevar_system(), 1, (0, 1), xi=(1,), degree_bound=0)


def test_refused_at_the_cap_with_pinned_xi_is_a_genericity_failure(monkeypatch):
    targets = _record_lift_targets(monkeypatch)
    monkeypatch.setattr(projection, "_certified", _refuse)
    with pytest.raises(GenericityFailure, match="pinned xi"):
        parametric_toric_geomres(threevar_system(), 1, (0, 1), xi=(1,))
    assert targets == [1, 3, 7, 12]


# -- three equations: the general cofactor branch of the lift ----------------------


THREE_EQUATIONS = {
    "deg_q_2_cap_10": [{(0, 0, 0, 0): 8, (1, 1, 0, 1): 7, (1, 1, 1, 0): 8},
                       {(0, 1, 0, 0): -1, (1, 1, 1, 0): -8, (0, 1, 0, 1): -5},
                       {(1, 1, 0, 1): 7, (1, 1, 0, 0): 6, (1, 0, 1, 0): 4}],
    "deg_q_2_cap_12": [{(1, 1, 0, 0): 9, (0, 1, 1, 1): -9, (1, 1, 0, 1): 7},
                       {(0, 1, 1, 1): 5, (1, 1, 1, 0): 9, (0, 1, 0, 0): 1},
                       {(1, 1, 0, 1): -7, (1, 0, 0, 1): -1, (0, 1, 0, 1): 8}],
}


@pytest.mark.parametrize("name", sorted(THREE_EQUATIONS))
def test_three_equations_in_four_variables(monkeypatch, name):
    # r = 3 and t = 1, so every lift solves a 3 x 3 Jacobian by cofactors,
    # and inverts its determinant over Q once, at the fiber
    _check_lift_of_equations(monkeypatch, THREE_EQUATIONS[name])


FOUR_EQUATIONS = {
    "deg_q_2_first": [{(1, 1, 0, 1, 1): 4, (1, 1, 1, 0, 0): 1, (0, 0, 1, 0, 1): -6},
                      {(0, 1, 1, 0, 1): 5, (1, 0, 1, 1, 1): -8, (0, 0, 1, 0, 1): 2},
                      {(0, 1, 0, 0, 0): -2, (0, 1, 0, 0, 1): 8, (1, 0, 1, 1, 0): 9},
                      {(1, 0, 1, 1, 0): 4, (1, 0, 1, 0, 0): -4, (0, 1, 1, 0, 0): -5}],
    "deg_q_2_second": [{(1, 1, 1, 0, 0): -9, (1, 1, 0, 1, 0): 4, (0, 1, 1, 0, 0): -2},
                       {(0, 0, 0, 0, 1): -6, (1, 0, 0, 1, 0): -1, (0, 1, 1, 1, 0): -3},
                       {(0, 1, 0, 1, 1): -5, (0, 0, 1, 0, 0): -5, (0, 0, 1, 0, 1): -7},
                       {(1, 0, 0, 0, 0): -8, (0, 1, 0, 1, 0): -6, (1, 0, 0, 0, 1): 8}],
}


@pytest.mark.parametrize("name", sorted(FOUR_EQUATIONS))
def test_four_equations_in_five_variables(monkeypatch, name):
    # r = 4 and t = 1: the cofactor expansion recurses through 3 x 3 minors
    _check_lift_of_equations(monkeypatch, FOUR_EQUATIONS[name])


def _check_lift_of_equations(monkeypatch, terms_list):
    """q_projection of r equations in r + 1 variables, seed 1, l = 2, with
    t = 1 and deg q = 2: every lift solves an r x r Jacobian and inverts
    its determinant over Q once; the result passes verify_resolution and
    agrees with an independent fiber solve at z = 3/7."""
    import sparseproj.lifting as lifting

    r = len(terms_list)
    n = r + 1
    system = [SparsePoly(n, {e: rat(c) for e, c in terms.items()}) for terms in terms_list]
    lifts, inverses = [], []
    real_lift, real_inv = projection.newton_hensel_lift, lifting.upoly_ext_inv

    def recording_lift(system, base, xi, kappa):
        lifts.append(len(system))
        yield from real_lift(system, base, xi, kappa)

    def recording_inv(a, q):
        inverses.append(all(not isinstance(c, TruncSeries) for c in a.coeffs + q.coeffs))
        return real_inv(a, q)

    monkeypatch.setattr(projection, "newton_hensel_lift", recording_lift)
    monkeypatch.setattr(lifting, "upoly_ext_inv", recording_inv)
    result = q_projection(ProjectionProblem(system, 2, seed=1))
    assert lifts and set(lifts) == {r}
    assert inverses == [True] * len(lifts)

    t = result.order.t
    frame = list(result.order.to_original[:n])
    parametric = result.parametric
    dep = tuple(range(1, n))
    assert (t, parametric.dep_vars, parametric.q.degree()) == (1, dep, 2)
    assert verify_resolution(parametric, [g.reindex(frame) for g in system]).passed
    assert verify_resolution(result.resolution, (parametric, (1,), result.mu)).passed
    # the point test against an independent fiber solve with the same lambda
    z = (rat(3, 7),)
    fiber = [g.reindex(frame).eval_partial({0: z[0]}).reindex(list(dep)) for g in system]
    at_z = solve_toric_0d(fiber, parametric.lam)
    assert parametric.q.map_coeffs(lambda c: c.evaluate(z)) == at_z.q
    for j in range(r):
        assert parametric.params[1 + j].map_coeffs(lambda c: c.evaluate(z)) == \
            at_z.params[j]


# -- ROADMAP item 1 with three equations: the cap bounds q, not the v_j -------------
#
# f1 = 3 X1X3 + 9 X1X2X3X4 - 4, f2 = -8 X1 + 2 X2 + 2 X4,
# f3 = -5 X1X2X4 + 7 X1X2X3 - X3.  At the MV cap the reconstructed q is
# right but the v_j need more precision; twice the cap certifies.

ITEM_1_SYSTEM = [{(1, 0, 1, 0): 3, (1, 1, 1, 1): 9, (0, 0, 0, 0): -4},
                 {(1, 0, 0, 0): -8, (0, 1, 0, 0): 2, (0, 0, 0, 1): 2},
                 {(1, 1, 0, 1): -5, (1, 1, 1, 0): 7, (0, 0, 1, 0): -1}]


def _item_1_system():
    return [SparsePoly(4, {e: rat(c) for e, c in terms.items()}) for terms in ITEM_1_SYSTEM]


def test_item_1_three_equations_certify_with_a_larger_cap():
    system = _item_1_system()
    res = parametric_toric_geomres(system, 1, (1, 2, 3), xi=(2,), degree_bound=16)
    assert res.dep_vars == (1, 2, 3) and res.q.degree() >= 1
    assert verify_resolution(res, system).passed


@pytest.mark.xfail(strict=True, raises=GenericityFailure, reason="ROADMAP item 1")
def test_item_1_three_equations_at_the_mv_cap():
    q_projection(ProjectionProblem(_item_1_system(), 2, seed=2))


# -- the exact fallback of the squarefree entry -------------------------------------


@pytest.mark.parametrize("squarefree,fractions",
                         [(True, False), (False, False), (True, True), (False, True)],
                         ids=["True", "False", "True-fractions", "False-fractions"])
def test_squarefree_entry_exact_fallback(monkeypatch, squarefree, fractions):
    # q = Y^2 - (X1-2)(X1-3)(X1-5) is squarefree, but its discriminant
    # vanishes at all three trial points X1 = 2, 3, 5; q = (Y - X1)^2 is
    # not squarefree anywhere.  Both leave the decision to the exact gcd.
    # With fractions, q = Y^2 - (X1-2)(X1-3)(X1-5)/(X1+1) and
    # q = (Y - X1/(X1+1))^2, each with a plain rational 1 as its leading
    # coefficient, so the gcd first clears the denominator X1 + 1.
    x1 = F1({(1,): 1})
    one = RatFun.from_const(1, 1)
    den = x1 + one if fractions else one
    cubic = (x1 - 2 * one) * (x1 - 3 * one) * (x1 - 5 * one)
    if squarefree:
        q = UniPoly([-cubic / den, RatFun.from_const(1, 0), one])
        # (X1 + 1)^k X2^2 - (X1-2)(X1-3)(X1-5), k = 1 with fractions
        system = [SparsePoly(2, {(0, 2): 1, (3, 0): -1, (2, 0): 10, (1, 0): -31,
                                 (0, 0): 30} | ({(1, 2): 1} if fractions else {}))]
    else:
        root = x1 / den
        q = UniPoly([root * root, -2 * root, one])
        # (X1 + 1)^k X2 - X1, squared
        system = [SparsePoly(2, {(0, 2): 1, (1, 1): -2, (2, 0): 1}
                             | ({(2, 2): 1, (1, 2): 2, (2, 1): -2} if fractions else {}))]
    if fractions:
        q = UniPoly(q.coeffs[:2] + (rat(1),))
    res = GeometricResolution((0,), (1,), (1,), q,
                              {1: UniPoly([RatFun.from_const(1, 0), one])})
    gcds, lcms = [], []
    real_gcd, real_lcm = projection.mpoly_gcd, projection.mpoly_lcm

    def recording_gcd(a, b):
        gcds.append(a.nvars)
        return real_gcd(a, b)

    def recording_lcm(a, b):
        lcms.append(a.nvars)
        return real_lcm(a, b)

    monkeypatch.setattr(projection, "mpoly_gcd", recording_gcd)
    monkeypatch.setattr(projection, "mpoly_lcm", recording_lcm)
    entries = dict(verify_resolution(res, system).entries)
    assert gcds == [2]
    assert bool(lcms) is fractions
    assert entries["q squarefree"] is squarefree
    # the membership identity holds either way: only the squarefree entry decides
    assert entries["membership f1"]


def test_tooling_names_stay_in_place():
    # perfbench/worker.py wraps these by name, and a missing one reads 0
    import sparseproj
    import sparseproj.groebner as groebner
    import sparseproj.kernels as kernels
    import sparseproj.lifting as lifting
    import sparseproj.mpoly as mpoly
    import sparseproj.polytope as polytope
    import sparseproj.ratfun as ratfun
    import sparseproj.series as series
    import sparseproj.upoly as upoly

    for name in ("audit_parametric", "geom_res_proj", "verify_resolution"):
        assert callable(getattr(projection, name))
    # polytope.mixed_volume is timed and polytope.hull_volume_and_corners
    # counted (polytope.hull_calls, polytope.hull_points)
    for name in ("mixed_volume", "hull_volume_and_corners"):
        assert callable(getattr(polytope, name))
    # the span pade.pade wraps the function the module holds, so the package
    # must not shadow the module with it, and projection must call it by name
    assert isinstance(sparseproj.pade, types.ModuleType)
    assert projection.pade is sparseproj.pade.pade
    # the span lifting.newton_hensel_lift wraps the one generator the driver
    # runs; it times the creation of the generator, not the lift
    assert projection.newton_hensel_lift is lifting.newton_hensel_lift
    assert inspect.isgeneratorfunction(lifting.newton_hensel_lift)
    # the recorder replaces kernels.series_mul and mpoly.mpoly_gcd wherever
    # those objects are held, so their callers must call those very objects
    assert series.series_mul is kernels.series_mul
    # the counted span kernels.poly_mul
    assert mpoly.poly_mul is kernels.poly_mul
    # the timed span groebner.buchberger and the counted groebner.normal_form
    assert callable(groebner.buchberger) and callable(groebner.normal_form)
    # the univariate division over Q, called by upoly through the same object
    assert upoly.dense_divrem is kernels.dense_divrem
    # the product mod q over Q and over truncated series, called by
    # upoly.upoly_mulmod
    assert upoly.series_mulmod is kernels.series_mulmod
    # and no other kernel
    assert {name for name, f in vars(kernels).items()
            if callable(f) and getattr(f, "__module__", None) == kernels.__name__
            and not name.startswith("_")} == {"poly_mul", "poly_addmul", "series_mul",
                                              "dense_divrem", "series_mulmod"}
    assert ratfun.mpoly_gcd is mpoly.mpoly_gcd
    assert upoly.mpoly_gcd is mpoly.mpoly_gcd
    assert projection.mpoly_gcd is mpoly.mpoly_gcd


# -- lambda draws in the driver -----------------------------------------------------


def test_unpinned_lambda_failure_does_not_blame_a_pin():
    # f2 = -2*(X2 - 1)^2: the fiber has a double point, so no lambda separates
    f1 = SparsePoly(3, {(0, 0, 0): 2, (1, 0, 0): 1, (2, 0, 1): 9})
    f2 = SparsePoly(3, {(0, 0, 0): -2, (0, 1, 0): 4, (0, 2, 0): -2})
    with pytest.raises(GenericityFailure) as info:
        q_projection(ProjectionProblem([f1, f2], 2, seed=218546))
    assert "pinned" not in str(info.value)
    assert "after retries" in str(info.value)


def test_fiber_not_reduced_redraws_xi():
    # at X1 = 4 the fiber of f1 is 9*(2*X3 + 1)^2, not reduced for any lambda;
    # seed 567109 draws that xi first, and a fresh xi gives a reduced fiber
    f1 = SparsePoly(3, {(1, 0, 2): 9, (1, 0, 1): 9, (0, 0, 0): 9})
    f2 = SparsePoly(3, {(2, 1, 2): 2, (2, 0, 2): 7, (0, 0, 0): 2})
    result = q_projection(ProjectionProblem([f1, f2], 2, seed=567109))
    frame = list(result.order.to_original[:3])
    audit_parametric(result.parametric, [g.reindex(frame) for g in (f1, f2)], 1)
    with pytest.raises(GenericityFailure, match="pinned xi: fiber not reduced"):
        q_projection(ProjectionProblem([f1, f2], 2, seed=567109, xi=(4,)))


def test_provenance_lambda_is_the_parametric_lambda():
    f1 = SparsePoly(3, {(0, 0, 0): 3, (1, 1, 0): -2, (0, 1, 1): 5})
    f2 = SparsePoly(3, {(0, 0, 0): -1, (1, 0, 1): 4, (0, 2, 0): 7})
    result = q_projection(ProjectionProblem([f1, f2], 2, seed=5))
    assert result.provenance["lambda"] == result.parametric.lam
    # the seeded draw order b, lambda, xi, mu: these values pin it
    prov = result.provenance
    assert (prov["b"], prov["lambda"], prov["mu"], prov["mu_attempts"]) == \
        ((), (59, -35), (-9,), 0)


def _two_point_fiber(f2_terms):
    # X1 in {1, 2}; at bound 1 or 2 many lambdas take one value on both roots
    f1 = SparsePoly(3, {(2, 0, 0): 1, (1, 0, 0): -3, (0, 0, 0): 2})
    return [f1, SparsePoly(3, f2_terms)]


def test_zero_free_variables_redraw_lambda():
    # f2 = X3 + X1 - 3: t = 0, and lambda = +-(1, 1) takes the value 3 on
    # both roots; seeds 2, 3, 5 and 6 draw such a lambda first
    system = _two_point_fiber({(0, 0, 1): 1, (1, 0, 0): 1, (0, 0, 0): -3})
    for seed in (2, 3, 5, 6):
        result = q_projection(ProjectionProblem(system, 1, seed=seed, bound=1))
        assert result.provenance["t"] == 0
        assert result.resolution.degree() == 2


def test_vanishing_at_b_redraws_b():
    # f2 = (X2 - 1)(X3 - X1) vanishes at b = X2 = 1, which seeds 1-4 draw first
    system = _two_point_fiber({(0, 1, 1): 1, (1, 1, 0): -1, (0, 0, 1): -1,
                               (1, 0, 0): 1})
    for seed in range(1, 5):
        result = q_projection(ProjectionProblem(system, 1, seed=seed, bound=2))
        assert result.provenance["b"] == (2,)
    with pytest.raises(GenericityFailure, match="pinned b: system polynomial vanished"):
        q_projection(ProjectionProblem(system, 1, seed=1, b=(1,)))


def test_fully_pinned_projection_draws_nothing():
    # no specialized variable and every vector pinned: bound 0 is never read
    result = q_projection(ProjectionProblem(threevar_system(), 2, bound=0, lam=(0, 1),
                                            xi=(1,), mu=(1,)))
    assert result.provenance["b"] == () and result.resolution.degree() == 2


def test_pinned_xi_of_the_wrong_length_is_rejected():
    # threevar_system with l = 2 has t = 1 free variable, so xi has one entry
    for xi in ((), (1, 5)):
        with pytest.raises(ValueError, match="xi must have 1 entries"):
            q_projection(ProjectionProblem(threevar_system(), 2, xi=xi))
