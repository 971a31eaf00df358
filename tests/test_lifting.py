import pytest

from conftest import expand_fraction, threevar_fiber, threevar_system
from sparseproj.lifting import LiftingError, SingularJacobian, _series_term, newton_hensel_lift
from sparseproj.mpoly import SparsePoly
from sparseproj.rat import rat
from sparseproj.series import TruncSeries
from sparseproj.upoly import Residue, UniPoly
from sparseproj.projection import parametric_toric_geomres
from sparseproj.zerodim import Composition, GeometricResolution, fraction_term, solve_toric_0d


def _series_coeffs(s):
    return [s.comps[k].get((k,), 0) for k in range(s.prec + 1)]


GOLDEN_Q1 = [(-12, 5), (-18, 5), (18, 25), (-24, 25), (168, 125), (-48, 25),
             (1728, 625), (-2496, 625), (18048, 3125), (-26112, 3125),
             (188928, 15625), (-273408, 15625), (1978368, 78125)]
GOLDEN_Q0 = [(-1, 5), (-16, 5), (119, 25), (-174, 25), (1264, 125),
             (-1832, 125), (13264, 625), (-768, 25), (138944, 3125),
             (-201088, 3125), (1455104, 15625), (-2105856, 15625),
             (15238144, 78125)]


def lifted_threevar(kappa=12):
    """The last resolution the lift of the three-variable system yields."""
    base = solve_toric_0d(threevar_fiber(), (0, 1))
    *_, last = newton_hensel_lift(threevar_system(), base, (1,), kappa)
    return last


def test_golden_lift_coefficients():
    lift = lifted_threevar()
    assert _series_coeffs(lift.q[1]) == [rat(*f) for f in GOLDEN_Q1]
    assert _series_coeffs(lift.q[0]) == [rat(*f) for f in GOLDEN_Q0]
    w2 = lift.params[1]
    got21 = _series_coeffs(w2[1])
    assert got21[:3] == [rat(-5, 4), rat(-5, 2), rat(-1)] and not any(got21[3:])
    got20 = _series_coeffs(w2[0])
    assert got20[:2] == [rat(-3, 4), rat(-3, 4)] and not any(got20[2:])
    w3 = lift.params[2]
    assert w3.degree() == 1 and w3[1] == 1 and not w3[0]


def test_kappa_zero_yields_nothing():
    base = solve_toric_0d(threevar_fiber(), (0, 1))
    assert list(newton_hensel_lift(threevar_system(), base, (1,), 0)) == []
    # one doubling keeps the base as the constant terms
    [lift] = newton_hensel_lift(threevar_system(), base, (1,), 1)
    assert lift.precision == 1
    assert [c.constant_term() for c in lift.q.coeffs] == list(base.q.coeffs)


def test_exact_polynomial_parametrization():
    # X2 - X1^2 with base (Y-1, X2 -> Y) at xi=1: q = Y - (1 + 2Z + Z^2)
    system = [SparsePoly(2, {(0, 1): 1, (2, 0): -1})]
    base = GeometricResolution((), (0,), (1,), UniPoly([rat(-1), rat(1)]),
                               {0: UniPoly([rat(0), rat(1)])})
    *_, lift = newton_hensel_lift(system, base, (1,), 4)
    assert lift.q.degree() == 1
    const = lift.q[0]
    assert _series_coeffs(const)[:3] == [rat(-1), rat(-2), rat(-1)]
    assert not any(_series_coeffs(const)[3:])


def test_one_equation_lift_stays_in_the_kernel(monkeypatch):
    # X2^2 - X1 - 3 at xi = 1: q = Y^2 - (4 + Z) and X2 = Y at every precision,
    # and every product mod q of the lift, the adjugate's included, runs on
    # integers over the series
    import sparseproj.upoly as upoly

    calls = {"mulmod": 0, "kernel": 0}

    def counting(name, f):
        def wrapped(*args):
            calls[name] += 1
            return f(*args)
        return wrapped

    monkeypatch.setattr(upoly.Residue, "mul", counting("mulmod", upoly.Residue.mul))
    monkeypatch.setattr(upoly, "series_mulmod", counting("kernel", upoly.series_mulmod))
    system = [SparsePoly(2, {(0, 2): 1, (1, 0): -1, (0, 0): -3})]
    base = GeometricResolution((), (0,), (1,), UniPoly([rat(-4), rat(0), rat(1)]),
                               {0: UniPoly([rat(0), rat(1)])})
    lifts = list(newton_hensel_lift(system, base, (1,), 15))
    assert [lift.precision for lift in lifts] == [1, 3, 7, 15]
    for lift in lifts:
        q0 = _series_coeffs(lift.q[0])
        assert lift.q.degree() == 2 and lift.q[2] == 1 and not lift.q[1]
        assert q0[:2] == [rat(-4), rat(-1)] and not any(q0[2:])
        assert lift.params[1] == UniPoly([lift.ring.zero(), lift.ring.constant(1)])
    assert calls["mulmod"] > 0 and calls["kernel"] == calls["mulmod"]


def _truncated(p, ring):
    return p.map_coeffs(lambda c: c.truncated(ring.prec, ring))


def test_schedule_independence():
    base = solve_toric_0d(threevar_fiber(), (0, 1))
    *steps, full = newton_hensel_lift(threevar_system(), base, (1,), 12)
    assert [s.precision for s in steps] == [1, 3, 7] and full.precision == 12
    # every yield is the truncation of the lift to 12
    for step in steps:
        assert step.q == _truncated(full.q, step.ring)
        assert step.params == {v: _truncated(p, step.ring) for v, p in full.params.items()}
    # and so is a lift with a different cap
    half = lifted_threevar(6)
    for k in range(half.q.degree() + 1):
        assert _series_coeffs(half.q[k]) == _series_coeffs(full.q[k])[:7]


def test_det_inverse_over_q_once_per_lift(monkeypatch):
    # four doublings, one extended Euclid over Q at the fiber; the later
    # inverses come from Newton steps, and the golden series stay the same
    import sparseproj.lifting as lifting

    calls = []
    real = lifting.upoly_ext_inv

    def recording(a, q):
        calls.append(all(not isinstance(c, TruncSeries) for c in a.coeffs + q.coeffs))
        return real(a, q)

    monkeypatch.setattr(lifting, "upoly_ext_inv", recording)
    lift = lifted_threevar(12)
    assert calls == [True]
    assert _series_coeffs(lift.q[1]) == [rat(*f) for f in GOLDEN_Q1]


def test_singular_jacobian_detected():
    # double root at the expansion point: Jacobian vanishes there
    system = [SparsePoly(2, {(0, 2): 1, (0, 1): -2, (0, 0): 1})]
    base = GeometricResolution((), (0,), (1,), UniPoly([rat(-1), rat(1)]),
                               {0: UniPoly([rat(1)])})
    with pytest.raises(SingularJacobian):
        list(newton_hensel_lift(system, base, (1,), 4))


def test_requires_squarefree_base():
    system = [SparsePoly(2, {(0, 2): 1})]
    base = GeometricResolution((), (0,), (1,),
                               UniPoly([rat(0), rat(0), rat(1)]),
                               {0: UniPoly([rat(0), rat(1)])})
    with pytest.raises(LiftingError):
        list(newton_hensel_lift(system, base, (1,), 2))


def test_one_composition_over_fractions_and_series():
    # g is not in the system, so both compositions are nonzero
    g = SparsePoly(3, {(1, 1, 0): 1, (0, 0, 2): 1})
    res = parametric_toric_geomres(threevar_system(), 1, (0, 1), xi=(1,))
    over_q = Composition(res.params, Residue(res.q), 1, fraction_term(1))(g)
    lift = lifted_threevar(12)
    over_series = Composition(lift.params, Residue(lift.q), 1, _series_term(lift.ring))(g)
    assert over_q.degree() == over_series.degree() == 1
    for k in range(over_q.degree() + 1):
        c = over_q[k]
        assert over_series[k] == expand_fraction(lift.ring, c.num, c.den)


# -- the checks inside the lift -------------------------------------------------------


def _without_corrections(monkeypatch):
    import sparseproj.lifting as lifting

    monkeypatch.setattr(lifting, "_solve_jacobian",
                        lambda jmat, gvec, q, d_inv, cut, ring:
                        ([UniPoly.zero()] * len(gvec), d_inv))


def test_final_residual_is_asserted(monkeypatch):
    _without_corrections(monkeypatch)
    base = solve_toric_0d(threevar_fiber(), (0, 1))
    with pytest.raises(LiftingError, match="final residual"):
        list(newton_hensel_lift(threevar_system(), base, (1,), 1))


def test_residual_from_previous_step_is_asserted(monkeypatch):
    _without_corrections(monkeypatch)
    base = solve_toric_0d(threevar_fiber(), (0, 1))
    with pytest.raises(LiftingError, match="residual from previous step"):
        list(newton_hensel_lift(threevar_system(), base, (1,), 3))


def test_separating_form_consistency_is_asserted():
    # the fiber residual does not involve lambda, so only the consistency
    # check sees that sum lambda_j v_j = Y no longer holds
    base = solve_toric_0d(threevar_fiber(), (0, 1))
    wrong = GeometricResolution((), base.dep_vars, (1, 0), base.q, base.params)
    with pytest.raises(LiftingError, match="separating-form consistency lost"):
        list(newton_hensel_lift(threevar_system(), wrong, (1,), 1))
