"""The convolution kernels of the hot loops, in pure Python.

Exponent vectors are plain int tuples.  ``poly_mul`` and ``poly_addmul``
take any exact scalar supporting ``+``, ``*`` and truthiness (Rat, and in a
few call sites whole coefficient objects); they carry the sparse sums and
products of ``mpoly``.  (The reductions of ``groebner`` run on integer
polynomials in that module.)  The truncated-series products share one
integer row form (``series_rows``), which keys each term by its degree and
packed exponent: ``series_mul`` is the product of two series, for the
lift's compositions, inverses and the Pade residual, and ``series_mulmod``
is a*b mod a monic q for polynomials in Y whose coefficients are series,
the lift's hot loop, or rationals, those of the fiber audits: Q is the
series ring in no variables at order 0.  ``series_mulmod`` takes q's rows
ready-made: ``upoly.Residue`` builds them once per modulus.  Both are one
integer convolution in Y and the series variables that drops the terms
above the truncation order; ``series_mulmod`` follows it with the
fraction-free reduction, and each output coefficient is normalised once.
A compiled build of these loops was at most a few percent faster end to
end, so there is none.
"""

from __future__ import annotations

from math import lcm

from .rat import rat


def poly_mul(a: dict, b: dict) -> dict:
    """Sparse product of two exponent-dict polynomials."""
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    out: dict = {}
    get = out.get
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(sum, zip(ea, eb)))
            c = get(e)
            if c is None:
                out[e] = ca * cb
            else:
                c = c + ca * cb
                if c:
                    out[e] = c
                else:
                    del out[e]
    return out


def poly_addmul(acc: dict, coeff, b: dict) -> None:
    """In-place ``acc += coeff * b``; removes cancelled terms."""
    if not coeff or not b:
        return
    get = acc.get
    for e, cb in b.items():
        c = get(e)
        if c is None:
            acc[e] = coeff * cb
        else:
            c = c + coeff * cb
            if c:
                acc[e] = c
            else:
                del acc[e]


def series_mul(ac: list, bc: list, kappa: int) -> list:
    """Convolution of homogeneous-component lists, truncated at degree kappa.

    ``ac``/``bc`` are lists of exponent dicts of Rat coefficients (index =
    homogeneous degree).  Returns a list of kappa+1 dicts with no zero entry.
    It is ``series_mulmod``'s product for polynomials of degree 0 in Y: one
    integer convolution of the two operands' rows (see ``series_rows``), and
    one normalisation per output coefficient, as ``rat(N, da*db)``.
    """
    (a,), da = series_rows([ac], kappa)
    (b,), db = series_rows([bc], kappa)
    if not a or not b:
        return [{} for _ in range(kappa + 1)]
    nvars = len(next(e for comp in ac for e in comp))
    prod: dict = {}
    _convolve_into(prod, a, b, (kappa + 1) ** (nvars + 1))
    return _components(prod, da * db, kappa, nvars)


def series_mulmod(ac: list, bc: list, q: tuple, kappa: int, nvars: int) -> list:
    """a*b mod q for polynomials in Y whose coefficients are truncated series
    in ``nvars`` variables.

    ``ac`` and ``bc`` list the Y-coefficients (lowest degree first), each a
    list of homogeneous-component dicts of Rat coefficients as in
    ``series_mul``; ``q`` is ``series_rows`` of a monic q, which the caller
    checks.  Returns the remainder's coefficients, at most deg q of them,
    each a list of kappa+1 dicts.

    The product is one convolution of the operands' rows in Y and Z
    together, which drops every term of degree above kappa.  With q written
    as Q/d_q, whose leading row is the constant d_q, the reduction is a
    fraction-free division (Knuth, TAOCP vol. 2, 4.6.1): the step that
    clears the row ``top`` of Y^(k+n) sets A <- d_q*A - top*Y^k*Q and
    den <- den*d_q, and the factor d_q reaches a row below the window only
    when the window first covers it.  Each remaining coefficient is
    normalised once, as ``rat(N, den)``.
    """
    q, dq = q
    n = len(q) - 1
    if not ac or not bc or not n:
        return []
    limit = (kappa + 1) ** (nvars + 1)
    a, da = series_rows(ac, kappa)
    b, db = series_rows(bc, kappa)
    prod = [{} for _ in range(len(a) + len(b) - 1)]
    for i, ra in enumerate(a):
        if ra:
            for j, rb in enumerate(b):
                if rb:
                    _convolve_into(prod[i + j], ra, rb, limit)
    den = da * db
    scale = 1  # dq to the number of steps so far
    for k in range(len(prod) - 1 - n, -1, -1):
        row = prod[k]
        if scale != 1:
            for key in row:
                row[key] *= scale
        top = sorted((key, -x) for key, x in prod[k + n].items() if x)
        if not top:
            continue
        for i in range(n):
            row = prod[k + i]
            if dq != 1:
                for key in row:
                    row[key] *= dq
            if q[i]:
                _convolve_into(row, top, q[i], limit)
        den *= dq
        scale *= dq
    return [_components(row, den, kappa, nvars) for row in prod[:n]]


def series_rows(coeffs: list, kappa: int) -> tuple[list, int]:
    """``(rows, den)`` for a polynomial in Y, given as the component lists
    of its Y-coefficients.

    ``den`` is the lcm of the coefficient denominators below degree
    kappa+1, and the row of a Y-coefficient is its ``(key, numerator)``
    pairs in increasing key order.  The key of a term of degree d and
    exponent e is d*(kappa+1)^t + e_1 + e_2*(kappa+1) + ... +
    e_t*(kappa+1)^(t-1).  No coordinate of a term of degree <= kappa exceeds
    kappa, so the sum of two keys is the key of the product term, and a key
    below (kappa+1)^(t+1) is a term of degree at most kappa.
    """
    base = kappa + 1
    coeffs = [comps[:base] for comps in coeffs]
    den = lcm(*[c.denominator for comps in coeffs for comp in comps
                for c in comp.values()])
    rows = []
    for comps in coeffs:
        row = []
        for d, comp in enumerate(comps):
            for e, c in comp.items():
                k = d
                for x in reversed(e):
                    k = k * base + x
                row.append((k, c.numerator * (den // c.denominator)))
        row.sort()
        rows.append(row)
    return rows, den


def _components(row: dict, den: int, kappa: int, nvars: int) -> list:
    """A row, its numerators over ``den``, back as kappa+1 components with
    no zero entry."""
    base = kappa + 1
    comps = [{} for _ in range(base)]
    for key, x in row.items():
        if x:
            e = []
            for _ in range(nvars):
                key, y = divmod(key, base)
                e.append(y)
            comps[key][tuple(e)] = rat(x, den)
    return comps


def _convolve_into(acc: dict, xs: list, ys: list, limit: int) -> None:
    """``acc += xs * ys`` over the keys below ``limit``; xs and ys are
    ``(key, int)`` lists in increasing key order."""
    get = acc.get
    for kx, nx in xs:
        room = limit - kx
        for ky, ny in ys:
            if ky >= room:
                break
            k = kx + ky
            acc[k] = get(k, 0) + nx * ny
