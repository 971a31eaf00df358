"""The convolution kernels of the hot loops, in pure Python.

Exponent vectors are plain int tuples.  ``poly_mul`` and ``poly_addmul``
take any exact scalar supporting ``+``, ``*`` and truthiness (Rat, and in a
few call sites whole coefficient objects); they carry the sparse products of
``mpoly`` and the reductions of ``groebner``.  ``series_mul`` is the product
of truncated series, the lift's and the Pade residual's hot loop: it takes
Rat coefficients only, clears denominators once per operand and convolves
Python ints, with ``SMALL_PRODUCT`` as the size below which it multiplies the
Rat coefficients directly.  ``dense_mul`` and ``dense_divrem`` are the same
idea for dense polynomials in one variable over Q, the product and the
division with remainder of ``upoly`` that every audit of a fiber runs mod q:
the first convolves integer numerators, the second is a fraction-free
(pseudo-)division, and both normalise each output coefficient once.
``series_mulmod`` joins the two ideas for the lift: a*b mod a monic q for
polynomials in Y whose coefficients are truncated series, one integer
convolution in Y and Z together followed by the fraction-free reduction,
with one normalisation per output coefficient.  A compiled build of these
loops was at most a few percent faster end to end, so there is none.
"""

from __future__ import annotations

from math import lcm

from .rat import RAT_ZERO, rat


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


# Products of at most this many term pairs multiply the Rat coefficients
# directly: below it, clearing denominators costs more than the gcds it saves.
SMALL_PRODUCT = 4


def series_mul(ac: list, bc: list, kappa: int) -> list:
    """Convolution of homogeneous-component lists, truncated at degree kappa.

    ``ac``/``bc`` are lists of exponent dicts of Rat coefficients (index =
    homogeneous degree).  Returns a list of kappa+1 dicts with no zero entry.

    Each operand is written over one common denominator, the lcm of its
    coefficients' denominators, and its exponents are packed into ints in
    base kappa+1: no coordinate of a term of degree <= kappa exceeds kappa,
    so packed sums never carry.  The integer numerators are convolved and
    every output coefficient is normalised once, as ``rat(N, da*db)``.
    """
    out = [{} for _ in range(kappa + 1)]
    ac, bc = ac[: kappa + 1], bc[: kappa + 1]
    pairs = sum(map(len, ac)) * sum(map(len, bc))
    if not pairs:
        return out
    if pairs <= SMALL_PRODUCT:
        for i, ai in enumerate(ac):
            if not ai:
                continue
            for j, bj in enumerate(bc[: kappa + 1 - i]):
                if not bj:
                    continue
                tgt = out[i + j]
                get = tgt.get
                for ea, ca in ai.items():
                    for eb, cb in bj.items():
                        e = tuple(map(sum, zip(ea, eb)))
                        c = get(e)
                        if c is None:
                            tgt[e] = ca * cb
                        else:
                            c = c + ca * cb
                            if c:
                                tgt[e] = c
                            else:
                                del tgt[e]
        return out
    nvars = len(next(e for comp in ac for e in comp))
    base = kappa + 1
    (a,), da = _over_common_denominator([ac], base)
    (b,), db = _over_common_denominator([bc], base)
    acc: dict = {}
    get = acc.get
    for i, ai in a:
        for j, bj in b:
            if i + j > kappa:
                break
            for ka, na in ai:
                for kb, nb in bj:
                    k = ka + kb
                    acc[k] = get(k, 0) + na * nb
    den = da * db
    for k, n in acc.items():
        if n:
            e = []
            for _ in range(nvars):
                k, x = divmod(k, base)
                e.append(x)
            out[sum(e)][tuple(e)] = rat(n, den)
    return out


def _over_common_denominator(operands: list, base: int):
    """Each series of ``operands`` (a list of component lists) as its nonzero
    components ``(degree, [(packed exponent, numerator)])``, every numerator
    over the lcm of all the operands' denominators, and that lcm."""
    den = lcm(*[c.denominator for comps in operands for comp in comps
                for c in comp.values()])
    out = []
    for comps in operands:
        series = []
        for d, comp in enumerate(comps):
            if not comp:
                continue
            terms = []
            for e, c in comp.items():
                k = 0
                for x in reversed(e):
                    k = k * base + x
                terms.append((k, c.numerator * (den // c.denominator)))
            series.append((d, terms))
        out.append(series)
    return out, den


def series_mulmod(ac: list, bc: list, qc: list, kappa: int) -> list:
    """a*b mod q for polynomials in Y whose coefficients are truncated series.

    ``ac``, ``bc`` and ``qc`` list the Y-coefficients (lowest degree first),
    each a list of homogeneous-component dicts of Rat coefficients as in
    ``series_mul``; q is monic, else ValueError.  Returns the remainder's
    coefficients, at most deg q of them, each a list of kappa+1 dicts.

    Each polynomial is written as integer rows over one common denominator.
    A row keys a term by its packed exponent plus degree*(kappa+1)^nvars, so
    a sum of keys is the key of the product term and a key below
    (kappa+1)^(nvars+1) is a term of degree at most kappa.  The product is
    one convolution in Y and Z together that drops every higher term.  With
    q written as Q/d_q, whose leading row is the constant d_q, the reduction
    is ``dense_divrem``'s fraction-free division: the step that clears the
    row ``top`` of Y^(k+n) sets A <- d_q*A - top*Y^k*Q and den <- den*d_q,
    and the factor d_q reaches a row below the window only when the window
    first covers it.  Each remaining coefficient is normalised once, as
    ``rat(N, den)``.
    """
    n = len(qc) - 1
    lead = qc[-1][: kappa + 1]
    if (len(lead[0]) != 1 or next(iter(lead[0].values())) != 1
            or any(lead[1:])):
        raise ValueError("modulus must be monic")
    if not ac or not bc or not n:
        return []
    nvars = len(next(iter(lead[0])))
    base = kappa + 1
    shift = base ** nvars
    limit = base * shift

    def rows(operands):
        grouped, den = _over_common_denominator(
            [comps[: kappa + 1] for comps in operands], base)
        return [sorted((d * shift + k, x) for d, terms in series for k, x in terms)
                for series in grouped], den

    (a, da), (b, db), (q, dq) = rows(ac), rows(bc), rows(qc)
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

    out = []
    for row in prod[:n]:
        comps = [{} for _ in range(base)]
        for key, x in row.items():
            if x:
                d, key = divmod(key, shift)
                e = []
                for _ in range(nvars):
                    key, y = divmod(key, base)
                    e.append(y)
                comps[d][tuple(e)] = rat(x, den)
        out.append(comps)
    return out


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


def _integer_vector(coeffs) -> tuple[list, int]:
    """Int or Rat coefficients as integer numerators over their lcm
    denominator, and that denominator."""
    den = lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def dense_mul(ac, bc) -> list:
    """Product of dense coefficient sequences (lowest degree first) over Q.

    Entries are ints or Rats.  Each operand is written over one common
    denominator, the integer numerators are convolved, and every output
    coefficient is normalised once, as ``rat(N, da*db)``.
    """
    a, da = _integer_vector(ac)
    b, db = _integer_vector(bc)
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    den = da * db
    return [rat(n, den) for n in out]


def dense_divrem(ac, bc) -> tuple[list, list]:
    """Quotient and remainder of dense coefficient sequences over Q.

    Entries are ints or Rats, ``bc`` ends in a nonzero entry and is no
    longer than ``ac``.  With the divisor written as B/d_B and L = B[-1],
    the dividend is kept as integers A over one denominator ``den``; the
    step that clears the coefficient ``top`` of Y^(k+n) records the quotient
    coefficient ``rat(top*d_B, den*L)`` and sets A <- L*A - top*Y^k*B,
    den <- den*L (Knuth, TAOCP vol. 2, 4.6.1).  The factor L reaches a
    coefficient of A below the current window only when the window first
    covers it.  The remainder is normalised once per coefficient.
    """
    a, den = _integer_vector(ac)
    b, db = _integer_vector(bc)
    n = len(b) - 1
    lead = b[-1]
    top_k = len(a) - 1 - n
    quo = [RAT_ZERO] * (top_k + 1)
    scale = 1  # product of the L of every step so far
    for k in range(top_k, -1, -1):
        a[k] *= scale
        top = a[k + n]
        if not top:
            continue
        quo[k] = rat(top * db, den * lead)
        for i in range(n):
            a[k + i] = lead * a[k + i] - top * b[i]
        den *= lead
        scale *= lead
    return quo, [rat(x, den) for x in a[:n]]
