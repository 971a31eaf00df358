import pytest

from conftest import fivevar_system, threevar_system
from sparseproj.formats import (
    ParseError,
    emit_resolution,
    parse_ratfun,
    parse_resolution,
    parse_system,
)
from sparseproj.mpoly import SparsePoly, grlex_key
from sparseproj.projection import ProjectionProblem, q_projection
from sparseproj.rat import rat_str
from sparseproj.zerodim import DEFAULT_BOUND, DEFAULT_RETRIES

SYSTEM_5VAR = """\
# five variables, two equations, project to the first three
system n=5 r=2 l=3
seed 42
poly
0 0 0 0 0 : 3
1 1 1 0 0 : 2
2 0 0 4 2 : -1
0 0 0 8 4 : 5
poly
1 0 1 1 2 : 2
0 1 2 5 4 : -3
1 3 0 5 4 : 7
"""


def test_parse_fivevar_system():
    prob = parse_system(SYSTEM_5VAR)
    assert prob.n == 5 and prob.r == 2 and prob.ell == 3
    assert prob.seed == 42
    assert prob.system == fivevar_system()


def test_parse_system_errors():
    with pytest.raises(ParseError, match="header"):
        parse_system("poly\n0 : 1\n")
    with pytest.raises(ParseError, match="empty support"):
        parse_system("system n=1 r=1 l=1\npoly\n")
    with pytest.raises(ParseError, match="exponents"):
        parse_system("system n=2 r=1 l=1\npoly\n0 : 1\n")
    with pytest.raises(ParseError, match="negative"):
        parse_system("system n=1 r=1 l=1\npoly\n-1 : 1\n")
    with pytest.raises(ParseError, match="rational"):
        parse_system("system n=1 r=1 l=1\npoly\n0 : x\n")
    with pytest.raises(ParseError, match="poly blocks"):
        parse_system("system n=1 r=2 l=1\npoly\n0 : 1\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_system("system n=2 r=1 l=1\nprecision 30\npoly\n0 1 : 1\n")


def emit_system(problem) -> str:
    """The SystemFile text of a problem, terms in descending graded-lex order."""
    out = [f"system n={problem.n} r={problem.r} l={problem.ell}"]
    if problem.seed:
        out.append(f"seed {problem.seed}")
    if problem.bound != DEFAULT_BOUND:
        out.append(f"bound {problem.bound}")
    if problem.retry_limit != DEFAULT_RETRIES:
        out.append(f"retries {problem.retry_limit}")
    for p in problem.system:
        out.append("poly")
        for e in sorted(p.terms, key=grlex_key, reverse=True):
            out.append(" ".join(str(x) for x in e) + " : " + rat_str(p.terms[e]))
    return "\n".join(out) + "\n"


def test_system_roundtrip():
    prob = parse_system(SYSTEM_5VAR)
    text = emit_system(prob)
    again = parse_system(text)
    assert again.system == prob.system
    assert emit_system(again) == text


def test_parse_ratfun_roundtrip():
    labels = ("X1", "X2")
    cases = [
        "(-12*X1^3-6*X1^2+6*X1)/(4*X1^2+2*X1-1)",
        "(3/2)/(X1*X2)",
        "-X1^2-1/2*X1+1/4",
        "49/9*X1^2*X2^4+7/9*X1^3",
        "0",
        "7",
        "-7/3",
    ]
    for text in cases:
        f = parse_ratfun(text, labels)
        assert f.format(labels) == text


def test_resolution_roundtrip_bytes():
    prob = parse_system(SYSTEM_5VAR)
    prob = ProjectionProblem(prob.system, prob.ell, seed=42,
                             lam=(0, 1), mu=(1,), b=(1,), xi=(2, 3))
    result = q_projection(prob)
    text = emit_resolution(result)
    assert "(3/2)/(X1*X2)" in text
    parsed = parse_resolution(text)
    assert parsed.resolution.q == result.resolution.q
    assert parsed.parametric.q == result.parametric.q
    assert parsed.mu == result.mu
    # byte-exact idempotence through the parsed objects
    from sparseproj.projection import verify_resolution

    spec_frame = tuple(range(parsed.t, parsed.t + len(parsed.projected)))
    assert verify_resolution(parsed.resolution,
                             (parsed.parametric, spec_frame, parsed.mu)).passed


def test_resolution_reemit_byte_identity():
    prob = parse_system(SYSTEM_5VAR)
    prob = ProjectionProblem(prob.system, prob.ell, seed=42,
                             lam=(0, 1), mu=(1,), b=(1,), xi=(2, 3))
    text = emit_resolution(q_projection(prob))
    assert parse_resolution(text).reemit() == text


def test_resolution_reemit_with_no_specialized_variable():
    # n = t + r: nothing is specialized, so b is empty
    text = emit_resolution(q_projection(ProjectionProblem(threevar_system(), 2, seed=3)))
    assert "\nprovenance b \n" in text
    assert parse_resolution(text).reemit() == text


def test_dense_image_emission():
    system = [SparsePoly(2, {(0, 1): 1, (2, 0): -1})]
    result = q_projection(ProjectionProblem(system, 1, seed=5))
    text = emit_resolution(result)
    assert "DENSE_IMAGE t=1" in text
    parsed = parse_resolution(text)
    assert parsed.dense_image and parsed.t == 1
    assert parsed.reemit() == text
