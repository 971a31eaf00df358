import pytest

from conftest import random_poly, run_guarded, threevar_fiber
from sparseproj.mpoly import SparsePoly
from sparseproj.polytope import Support, SupportFamily, mixed_volume
from sparseproj.rat import rat
from sparseproj.upoly import UniPoly, upoly_mod
from sparseproj.zerodim import (
    Composition,
    Draws,
    GenericityFailure,
    GeometricResolution,
    LambdaNotSeparating,
    NonGenericInput,
    audit_0d,
    count_toric_roots,
    fraction_term,
    solve_separating,
    solve_toric_0d,
)


def upoly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd over Q by the plain Euclidean algorithm, independent of the
    package's integer gcd."""
    while not b.is_zero():
        a, b = b, upoly_mod(a, b)
    return a.scale(1 / a.lc())


def _unit_squares():
    # x^2 = 1, y^2 = 1: a lambda with |lam_1| = |lam_2| does not separate
    return [SparsePoly(2, {(2, 0): 1, (0, 0): -1}),
            SparsePoly(2, {(0, 2): 1, (0, 0): -1})]


def test_fiber_resolution_golden():
    res = solve_toric_0d(threevar_fiber(), (0, 1))
    assert res.q == UniPoly([rat(-1, 5), rat(-12, 5), rat(1)])
    assert res.params[0] == UniPoly([rat(-3, 4), rat(-5, 4)])
    assert res.params[1] == UniPoly([rat(0), rat(1)])


def test_single_point():
    res = solve_toric_0d([SparsePoly(1, {(1,): 1, (0,): -2})], (1,))
    assert res.q == UniPoly([rat(-2), rat(1)])
    assert res.params[0] == UniPoly([rat(2)])


def test_two_toric_roots():
    res = solve_toric_0d([SparsePoly(1, {(2,): 1, (0,): -1})], (1,))
    assert res.q == UniPoly([rat(-1), rat(0), rat(1)])
    assert res.params[0] == UniPoly([rat(0), rat(1)])


def test_membership_and_saturation_invariants():
    system = threevar_fiber()
    res = solve_toric_0d(system, (0, 1))
    compose = Composition(res.params, res.q, 0, fraction_term(0))
    for g in system:
        assert compose(g).is_zero()
    for v in res.dep_vars:
        assert upoly_gcd(res.params[v], res.q).degree() == 0
    assert upoly_gcd(res.q, res.q.derivative()).degree() == 0
    lam_comb = UniPoly.zero()
    for v, c in zip(res.dep_vars, res.lam):
        lam_comb = lam_comb + res.params[v].scale(rat(c))
    assert upoly_mod(lam_comb - UniPoly([rat(0), rat(1)]), res.q).is_zero()


def test_three_variable_audit_stays_in_the_kernel(monkeypatch):
    # every product mod q of the audit over Q runs on integers, in the same
    # kernel as the lift's products over truncated series
    import sparseproj.upoly as upoly
    import sparseproj.zerodim as zerodim

    calls = {"mulmod": 0, "kernel": 0}

    def counting(name, f):
        def wrapped(*args):
            calls[name] += 1
            return f(*args)
        return wrapped

    system = [SparsePoly(3, {(1, 1, 0): 1, (0, 0, 1): 2, (0, 0, 0): -3}),
              SparsePoly(3, {(0, 1, 1): 3, (1, 0, 0): -1, (0, 0, 0): 1}),
              SparsePoly(3, {(0, 0, 2): 1, (1, 0, 1): 1, (0, 1, 0): -2})]
    res = solve_toric_0d(system, (1, 2, 3), check=False)
    assert res.q.degree() == 5
    monkeypatch.setattr(zerodim, "upoly_mulmod", counting("mulmod", zerodim.upoly_mulmod))
    monkeypatch.setattr(upoly, "series_mulmod", counting("kernel", upoly.series_mulmod))
    audit_0d(res, system)
    assert calls["mulmod"] > 0 and calls["kernel"] == calls["mulmod"]


def test_audit_rejects_one_changed_coefficient():
    # a fiber of degree 11; lambda ignores X3, so a changed v_3 leaves
    # sum lambda_j v_j = Y intact and only the membership identities see it
    system = [SparsePoly(3, {(1, 3, 0): -7, (0, 2, 0): 7, (1, 0, 0): 4}),
              SparsePoly(3, {(0, 1, 0): 8, (3, 0, 0): -2, (0, 3, 0): -2, (0, 1, 2): 4}),
              SparsePoly(3, {(0, 2, 1): -6, (1, 2, 0): 8})]
    res = solve_toric_0d(system, (1, 3, 0))
    assert res.degree() == 11
    audit_0d(res, system)
    k = res.degree() // 2
    bad_v = dict(res.params)
    bad_v[2] = UniPoly([c + rat(1, 3) if i == k else c
                        for i, c in enumerate(res.params[2].coeffs)])
    with pytest.raises(NonGenericInput, match="membership"):
        audit_0d(GeometricResolution((), res.dep_vars, res.lam, res.q, bad_v), system)
    bad_q = UniPoly([c + rat(1, 3) if i == k else c for i, c in enumerate(res.q.coeffs)])
    with pytest.raises(NonGenericInput, match="membership"):
        audit_0d(GeometricResolution((), res.dep_vars, res.lam, bad_q, res.params), system)


def test_audit_rejects_a_coordinate_vanishing_on_a_root():
    # f = X1^2 - X1 with q = Y^2 - Y and X1 = Y: both identities hold, but
    # the root Y = 0 puts X1 = 0 off the torus
    system = [SparsePoly(1, {(2,): 1, (1,): -1})]
    res = GeometricResolution((), (0,), (1,), UniPoly([rat(0), rat(-1), rat(1)]),
                              {0: UniPoly([rat(0), rat(1)])})
    with pytest.raises(NonGenericInput, match="coordinate 0 vanishes on a root"):
        audit_0d(res, system)


def test_lambda_not_separating_detected_and_policy():
    # x^2 = 1, y^2 = 1: lambda = x takes only two values on four points
    sysm = [SparsePoly(2, {(2, 0): 1, (0, 0): -1}),
            SparsePoly(2, {(0, 2): 1, (0, 0): -1})]
    with pytest.raises(LambdaNotSeparating):
        solve_toric_0d(sysm, (1, 0))
    res = solve_toric_0d(sysm, (1, 2))
    assert res.degree() == 4
    # squared separable factor: the fiber is not reduced, no lambda helps
    dbl = SparsePoly(1, {(4,): 1, (3,): -6, (2,): 13, (1,): -12, (0,): 4})
    with pytest.raises(NonGenericInput, match="fiber not reduced"):
        solve_toric_0d([dbl], (1,))


def test_separating_retry_draws_in_order():
    sysm = _unit_squares()
    same_seed = Draws(7, 2)
    drawn = [same_seed.nonzero(2) for _ in range(8)]
    failing = next(k for k, lam in enumerate(drawn) if abs(lam[0]) != abs(lam[1]))
    draws = Draws(7, 2, 7)
    res = solve_separating(sysm, draws)
    assert res.lam == drawn[failing] and res.degree() == 4
    assert len(draws.failures["lambda"]) == failing
    # bound 1 draws only lambdas with |lam_1| = |lam_2|: one try plus two retries
    draws = Draws(7, 1, 2)
    with pytest.raises(GenericityFailure, match="after retries"):
        solve_separating(sysm, draws)
    assert len(draws.failures["lambda"]) == 3
    with pytest.raises(GenericityFailure, match="pinned lambda"):
        solve_separating(sysm, Draws(7, 2), (1, 1))


def test_count_toric_roots_retries_k_times():
    # seed 7 at bound 2 draws four non-separating forms before one that
    # separates: retries=4 allows exactly that many, as solve0d --retries 4
    assert count_toric_roots(_unit_squares(), retries=4, seed=7, bound=2) == 4
    with pytest.raises(GenericityFailure, match="after retries"):
        count_toric_roots(_unit_squares(), retries=3, seed=7, bound=2)


def test_draw_nonzero_rejects_an_empty_range():
    code = ("from sparseproj.zerodim import Draws\n"
            "for draw in (Draws(0, 0).nonzero, Draws(0, 0).positive):\n"
            "    try:\n"
            "        draw(2)\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n")
    out = run_guarded(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["bound must be at least 1"] * 2


def test_empty_draws_leave_the_generator_alone():
    draws = Draws(3, 0)
    state = draws.rng.getstate()
    assert draws.nonzero(0) == () and draws.positive(0) == ()
    assert draws.rng.getstate() == state


def test_retry_redraws_only_the_blamed_vector():
    class FailA(ArithmeticError):
        pass

    class FailB(ArithmeticError):
        pass

    calls = []
    script = iter([FailB("b bad"), FailA("a bad"), None])

    def attempt(a, b):
        calls.append((a, b))
        exc = next(script)
        if exc is not None:
            raise exc
        return a, b

    draws = Draws(11, 50)
    got = draws.retry(attempt, ("a", None, lambda: draws.positive(1), (FailA,)),
                      ("b", None, lambda: draws.positive(2), (FailB,)))
    replay = Draws(11, 50)
    a1, b1 = replay.positive(1), replay.positive(2)
    b2 = replay.positive(2)
    a2 = replay.positive(1)
    assert calls == [(a1, b1), (a1, b2), (a2, b2)] and got == (a2, b2)
    assert draws.failures == {"b": ["b bad"], "a": ["a bad"]}
    # a failure blamed on no vector is not retried
    with pytest.raises(ZeroDivisionError):
        draws.retry(lambda a: 1 // 0, ("a", None, lambda: draws.positive(1), (FailA,)))


def test_non_generic_positive_dimensional():
    # x*y - 1 twice: the saturated ideal is one-dimensional
    g = SparsePoly(2, {(1, 1): 1, (0, 0): -1})
    with pytest.raises(NonGenericInput):
        solve_toric_0d([g, g], (1, 2))


def test_no_toric_roots():
    res = solve_toric_0d([SparsePoly(1, {(2,): 5})], (1,))
    assert res.degree() == 0
    assert count_toric_roots([SparsePoly(1, {(2,): 5})]) == 0


def test_count_examples():
    assert count_toric_roots(threevar_fiber(), (0, 1)) == 2
    assert count_toric_roots([SparsePoly(1, {(1,): 1, (0,): -2})]) == 1
    s1 = SparsePoly(2, {(0, 0): 3, (1, 0): -2, (1, 1): 5})
    s2 = SparsePoly(2, {(0, 0): 7, (1, 1): 2, (2, 0): -4})
    assert count_toric_roots([s1, s2]) == 2


def test_bernstein_consistency_sample(rng):
    matches = 0
    flagged = 0
    trials = 12
    for _ in range(trials):
        n = rng.randint(1, 3)
        system = [random_poly(rng, n, max_terms=4, max_exp=3) for _ in range(n)]
        mv = mixed_volume(SupportFamily(
            [Support(n, p.support()) for p in system]))
        try:
            deg = count_toric_roots(system, retries=6, seed=rng.randint(0, 10**6))
        except (GenericityFailure, NonGenericInput):
            flagged += 1
            continue
        if deg == mv:
            matches += 1
        else:
            pytest.fail(f"silent Bernstein mismatch: deg {deg} != MV {mv}")
    assert matches + flagged == trials
    assert matches >= trials - 2
