"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the per-criterion
lines and timings.  All comparisons are exact equality after canonical
normalization; runtime limits are asserted with the stated budgets.
"""

import time
from contextlib import contextmanager

import pytest

from conftest import expand_fraction, threevar_fiber, threevar_system, fivevar_system, random_poly
from sparseproj.lifting import newton_hensel_lift
from sparseproj.mpoly import SparsePoly
from sparseproj.pade import pade, shifted_to_ratfun
from sparseproj.polytope import Support, SupportFamily, mixed_volume
from sparseproj.projection import (
    ProjectionProblem,
    geom_res_proj,
    parametric_toric_geomres,
    q_projection,
    verify_resolution,
)
from sparseproj.rat import rat
from sparseproj.ratfun import RatFun, ratfun_normalize
from sparseproj.supports import trans_basis
from sparseproj.upoly import UniPoly
from sparseproj.zerodim import (
    GenericityFailure,
    GeometricResolution,
    NonGenericInput,
    count_toric_roots,
    solve_toric_0d,
)


@contextmanager
def criterion(num, name, budget):
    t0 = time.perf_counter()
    box = {}
    try:
        yield box
    except BaseException:
        print(f"[criterion {num}] {name}: FAIL ({time.perf_counter() - t0:.1f}s)")
        raise
    elapsed = time.perf_counter() - t0
    status = "PASS" if elapsed < budget else "FAIL (over budget)"
    print(f"[criterion {num}] {name}: {status} ({elapsed:.1f}s, budget {budget}s)")
    assert elapsed < budget, f"runtime {elapsed:.1f}s exceeds budget {budget}s"


def F1(num_terms, den_terms=None):
    num = SparsePoly(1, num_terms)
    den = SparsePoly(1, den_terms) if den_terms else SparsePoly.const(1, 1)
    return ratfun_normalize(num, den)


def F2(num_terms, den_terms=None):
    num = SparsePoly(2, num_terms)
    den = SparsePoly(2, den_terms) if den_terms else SparsePoly.const(2, 1)
    return ratfun_normalize(num, den)


GOLDEN_Q1 = [(-12, 5), (-18, 5), (18, 25), (-24, 25), (168, 125), (-48, 25),
             (1728, 625), (-2496, 625), (18048, 3125), (-26112, 3125),
             (188928, 15625), (-273408, 15625), (1978368, 78125)]


@pytest.fixture(scope="module")
def lift3():
    base = solve_toric_0d(threevar_fiber(), (0, 1))
    *_, last = newton_hensel_lift(threevar_system(), base, (1,), 12)
    return last


@pytest.fixture(scope="module")
def result5():
    prob = ProjectionProblem(fivevar_system(), 3, seed=42,
                             lam=(0, 1), mu=(1,), b=(1,))
    t0 = time.perf_counter()
    result = q_projection(prob)
    return result, time.perf_counter() - t0


def test_criterion_1_zero_dimensional_step():
    with criterion(1, "fiber resolution", 1.0):
        res = solve_toric_0d(threevar_fiber(), (0, 1))
        assert res.q == UniPoly([rat(-1, 5), rat(-12, 5), rat(1)])
        assert res.params[0] == UniPoly([rat(-3, 4), rat(-5, 4)])
        assert res.params[1] == UniPoly([rat(0), rat(1)])


def test_criterion_2_lifting(lift3):
    with criterion(2, "series lifting to precision 12", 10.0):
        lift = lift3

        def coeffs(s):
            return [s.comps[k].get((k,), 0) for k in range(13)]

        assert coeffs(lift.q[1]) == [rat(*f) for f in GOLDEN_Q1]
        got21 = coeffs(lift.params[1][1])
        assert got21[:3] == [rat(-5, 4), rat(-5, 2), rat(-1)]
        assert not any(got21[3:])
        got20 = coeffs(lift.params[1][0])
        assert got20[:2] == [rat(-3, 4), rat(-3, 4)]
        assert not any(got20[2:])


def test_criterion_3_reconstruction(lift3):
    with criterion(3, "rational reconstruction", 5.0):
        den = {(2,): 4, (1,): 2, (0,): -1}
        xi = lift3.ring.shift
        assert shifted_to_ratfun(*pade(lift3.q[1], 6), xi) == \
            F1({(3,): -12, (2,): -6, (1,): 6}, den)
        assert shifted_to_ratfun(*pade(lift3.q[0], 6), xi) == \
            F1({(2,): -9, (0,): 8}, den)
        assert shifted_to_ratfun(*pade(lift3.params[1][1], 6), xi) == \
            F1({(2,): -1, (1,): rat(-1, 2), (0,): rat(1, 4)})
        assert shifted_to_ratfun(*pade(lift3.params[1][0], 6), xi) == \
            F1({(1,): rat(-3, 4)})
        assert shifted_to_ratfun(*pade(lift3.params[2][1], 6), xi) == \
            RatFun.from_const(1, 1)


def test_criterion_4_end_to_end(result5):
    result, elapsed = result5
    t0 = time.perf_counter()
    par = result.parametric
    assert par.q.degree() == 10 and par.q.is_monic()
    assert par.q[8] == F2({(2, 0): rat(-2, 5)})
    assert par.q[6] == F2({(4, 0): rat(1, 25), (0, 0): rat(6, 5)})
    assert par.q[4] == F2({(2, 0): rat(2, 75)})
    assert par.q[2] == F2({(3, 4): -28, (4, 0): -4, (0, 0): 27}, {(0, 0): 75})
    assert par.q[0] == F2({(2, 0): rat(4, 25)})
    assert par.params[2] == UniPoly([
        F2({(0, 0): -3}, {(1, 1): 2}),
        RatFun.from_const(2, 0),
        F2({(1, 0): 1}, {(0, 1): 2}),
        RatFun.from_const(2, 0),
        F2({(0, 0): -5}, {(1, 1): 2}),
    ])
    assert par.params[3] == UniPoly([RatFun.from_const(2, 0), RatFun.from_const(2, 1)])
    proj = result.resolution
    assert proj.q == UniPoly([
        F2({(1, 3): 49}, {(0, 0): 6}),
        F2({(2, 4): 49, (3, 0): 7}, {(0, 0): 9}),
        F2({(0, 4): -63, (1, 0): 10}, {(0, 3): 9}),
        F2({(1, 4): -14, (2, 0): -1}, {(0, 2): 3}),
        F2({(0, 0): 3}, {(1, 1): 2}),
        RatFun.from_const(2, 1),
    ])
    assert proj.params[2] == UniPoly([RatFun.from_const(2, 0),
                                      RatFun.from_const(2, 1)])
    total = elapsed + (time.perf_counter() - t0)
    status = "PASS" if total < 120 else "FAIL (over budget)"
    print(f"[criterion 4] five-variable end-to-end: {status} ({total:.1f}s, budget 120s)")
    assert total < 120


def test_criterion_5_mixed_volume_and_basis():
    with criterion(5, "mixed volume = 6", 5.0):
        s1 = Support(3, [(0, 0, 0), (1, 1, 0), (0, 1, 1)])
        s2 = Support(3, [(0, 0, 0), (2, 1, 1), (0, 2, 0), (1, 1, 1)])
        assert mixed_volume(SupportFamily([s1, s2, Support.simplex(3)])) == 6
    with criterion(5, "transcendence basis = {1,2,4}", 5.0):
        fam = SupportFamily([Support(5, p.support()) for p in fivevar_system()])
        assert tuple(i + 1 for i in trans_basis(fam)) == (1, 2, 4)


def test_criterion_6_bernstein_suite():
    import random

    with criterion(6, "Bernstein root-count suite (50 systems)", 600.0):
        rng = random.Random(271828)
        trials = 0
        matches = 0
        flagged = 0
        while trials < 50:
            n = rng.randint(1, 3)
            system = [random_poly(rng, n, max_terms=5, max_exp=3, bound=50)
                      for _ in range(n)]
            trials += 1
            mv = mixed_volume(SupportFamily(
                [Support(n, p.support()) for p in system]))
            try:
                deg = count_toric_roots(system, retries=6,
                                        seed=rng.randint(0, 10**6))
            except (GenericityFailure, NonGenericInput):
                flagged += 1
                continue
            if deg == mv:
                matches += 1
            else:
                raise AssertionError(
                    f"silent Bernstein mismatch: deg {deg} != MV {mv} for {system}")
        assert matches >= 0.95 * trials, (matches, flagged, trials)


def test_criterion_7_verification_suite(result5):
    with criterion(7, "verification and mutation detection", 120.0):
        result, _ = result5
        par, proj = result.parametric, result.resolution

        frame = [g.eval_partial({3: 1}).reindex([0, 1, 2, 4])
                 for g in fivevar_system()]
        assert verify_resolution(par, frame).passed
        assert verify_resolution(proj, (par, (2,), (1,))).passed

        res3 = parametric_toric_geomres(threevar_system(), 1, (0, 1), xi=(1,))
        assert verify_resolution(res3, threevar_system()).passed
        proj41 = geom_res_proj(res3, (1,), (1,))
        assert verify_resolution(proj41, (res3, (1,), (1,))).passed

        # single-coefficient mutations are detected
        bad_q = UniPoly([proj.q[0] + RatFun.from_const(2, rat(1, 3))]
                        + list(proj.q.coeffs[1:]))
        mutated = GeometricResolution(proj.free_vars, proj.dep_vars, proj.lam,
                                      bad_q, proj.params)
        assert not verify_resolution(mutated, (par, (2,), (1,))).passed
        bad_w = dict(par.params)
        bad_w[2] = par.params[2] + UniPoly([RatFun.from_const(2, rat(1, 5))])
        mutated2 = GeometricResolution(par.free_vars, par.dep_vars, par.lam,
                                       par.q, bad_w)
        assert not verify_resolution(mutated2, frame).passed


def test_criterion_8_pade_roundtrip():
    import random

    from sparseproj.series import SeriesRing

    with criterion(8, "Pade roundtrip (100 random fractions)", 120.0):
        rng = random.Random(314159)
        done = 0
        while done < 100:
            t = rng.randint(1, 2)
            d = 4
            num = random_poly(rng, t, max_terms=4, max_exp=2, bound=9)
            den = random_poly(rng, t, max_terms=3, max_exp=2, bound=9)
            if num.total_degree() > d or den.total_degree() > d:
                continue
            shift = tuple(rng.randint(1, 6) for _ in range(t))
            if not den.eval_all(shift):
                continue
            ring = SeriesRing(tuple(range(t)), shift, 2 * d)
            ser = expand_fraction(ring, num, den)
            assert shifted_to_ratfun(*pade(ser, d), ser.ring.shift) == ratfun_normalize(num, den)
            done += 1


def test_criterion_9_specialization_independence(result5):
    with criterion(9, "specialization independence over three b", 600.0):
        reference, _ = result5
        outputs = [reference.resolution]
        for b in (2, 3):
            prob = ProjectionProblem(fivevar_system(), 3, seed=42,
                                     lam=(0, 1), mu=(1,), b=(b,))
            outputs.append(q_projection(prob).resolution)
        for other in outputs[1:]:
            assert other.q == outputs[0].q
            assert other.params[2] == outputs[0].params[2]
