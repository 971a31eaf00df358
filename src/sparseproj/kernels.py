"""The convolution kernels of the hot loops, in pure Python.

Exponent vectors are plain int tuples.  ``poly_mul`` and ``poly_addmul``
take any exact scalar supporting ``+``, ``*`` and truthiness (Rat, and in a
few call sites whole coefficient objects); they carry the sparse products of
``mpoly`` and the reductions of ``groebner``.  ``series_mul`` is the product
of truncated series, the lift's and the Pade residual's hot loop: it takes
Rat coefficients only, clears denominators once per operand and convolves
Python ints, with ``SMALL_PRODUCT`` as the size below which it multiplies the
Rat coefficients directly.  A compiled build of these loops was at most a
few percent faster end to end, so there is none.
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
    a, da = _over_common_denominator(ac, base)
    b, db = _over_common_denominator(bc, base)
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


def _over_common_denominator(comps: list, base: int):
    """The nonzero components as ``(degree, [(packed exponent, numerator)])``,
    every numerator over the lcm of the denominators, and that lcm."""
    den = lcm(*[c.denominator for comp in comps for c in comp.values()])
    out = []
    for d, comp in enumerate(comps):
        if not comp:
            continue
        terms = []
        for e, c in comp.items():
            k = 0
            for x in reversed(e):
                k = k * base + x
            terms.append((k, c.numerator * (den // c.denominator)))
        out.append((d, terms))
    return out, den
