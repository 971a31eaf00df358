"""Sparse multivariate polynomials over exact rationals.

A polynomial in n variables is a dict mapping exponent tuples (length n,
entries >= 0) to nonzero Rat coefficients; the zero polynomial is the empty
dict.  Variables are addressed by 0-based position everywhere in the library;
the 1-based ``X1..Xn`` labels of the text formats are applied only at the
rendering/parsing boundary.

Two monomial orders are used:

* graded lexicographic with X1 > X2 > ... -- the canonical order for
  normalization and printing,
* graded reverse lexicographic -- internal order of the Groebner machinery.

The gcd's result is the canonical gcd: integer coefficients with content 1
and positive graded-lex leading coefficient.  Operands in one variable are
cleared once to dense primitive integer vectors.  Their gcd is certified to be
1 when the leading coefficients survive reduction modulo the prime 2^61 - 1
and the images there are coprime: a specialization can only enlarge the gcd
(Brown, JACM 1971).  Otherwise a primitive pseudo-remainder sequence runs on
the integer vectors.  Operands in more variables go through a
content/primitive-part recursion over a chosen main variable with a
primitive pseudo-remainder sequence, whose content gcds reach the
one-variable case.
"""

from __future__ import annotations

from math import gcd as int_gcd
from math import lcm as int_lcm

from .kernels import poly_addmul, poly_mul
from .rat import RAT_ONE, RAT_ZERO, Rat, rat, rat_str


def grlex_key(e):
    return (sum(e), e)


def grevlex_key(e):
    return (sum(e), tuple(-x for x in reversed(e)))


class NotDivisible(ArithmeticError):
    pass


class SparsePoly:
    """Immutable-by-convention sparse polynomial; do not mutate ``terms``."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None, *, _clean: bool = False):
        self.nvars = nvars
        if terms is None:
            self.terms = {}
        elif _clean:
            self.terms = terms
        else:
            clean = {}
            for e, c in terms.items():
                c = rat(c)
                if c:
                    t = tuple(e)
                    if len(t) != nvars:
                        raise ValueError(f"exponent arity {len(t)} != {nvars}")
                    if any(x < 0 for x in t):
                        raise ValueError(f"negative exponent in {t}")
                    clean[t] = clean.get(t, RAT_ZERO) + c
            self.terms = {e: c for e, c in clean.items() if c}

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "SparsePoly":
        return cls(nvars, {}, _clean=True)

    @classmethod
    def const(cls, nvars: int, value) -> "SparsePoly":
        value = rat(value)
        if not value:
            return cls.zero(nvars)
        return cls(nvars, {(0,) * nvars: value}, _clean=True)

    @classmethod
    def monomial(cls, nvars: int, exps, coeff=1) -> "SparsePoly":
        coeff = rat(coeff)
        if not coeff:
            return cls.zero(nvars)
        return cls(nvars, {tuple(exps): coeff}, _clean=True)

    # -- basic queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, var: int) -> int:
        if not self.terms:
            return -1
        return max(e[var] for e in self.terms)

    def lead(self, key=grlex_key):
        """(exponent, coefficient) of the leading term; poly must be nonzero."""
        e = max(self.terms, key=key)
        return e, self.terms[e]

    def __eq__(self, other):
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        return f"SparsePoly({self.nvars}, {self.format()})"

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "SparsePoly"):
        if self.nvars != other.nvars:
            raise ValueError("ambient variable count mismatch")

    def __add__(self, other):
        if isinstance(other, (int, Rat)):
            other = SparsePoly.const(self.nvars, other)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        poly_addmul(out, RAT_ONE, other.terms)
        return SparsePoly(self.nvars, out, _clean=True)

    __radd__ = __add__

    def __neg__(self):
        return SparsePoly(self.nvars, {e: -c for e, c in self.terms.items()}, _clean=True)

    def __sub__(self, other):
        if isinstance(other, (int, Rat)):
            other = SparsePoly.const(self.nvars, other)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        poly_addmul(out, -RAT_ONE, other.terms)
        return SparsePoly(self.nvars, out, _clean=True)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Rat)):
            return self.scale(other)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        self._check(other)
        return SparsePoly(self.nvars, poly_mul(self.terms, other.terms), _clean=True)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if isinstance(scalar, (int, Rat)):
            s = rat(scalar)
            if not s:
                raise ZeroDivisionError("division by zero scalar")
            return self.scale(RAT_ONE / s)
        return NotImplemented

    def scale(self, c) -> "SparsePoly":
        c = rat(c)
        if not c:
            return SparsePoly.zero(self.nvars)
        return SparsePoly(self.nvars, {e: c * v for e, v in self.terms.items()}, _clean=True)

    def __pow__(self, n: int) -> "SparsePoly":
        if n < 0:
            raise ValueError("negative power")
        out = SparsePoly.const(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def derivative(self, var: int) -> "SparsePoly":
        out = {}
        for e, c in self.terms.items():
            k = e[var]
            if k:
                e2 = e[:var] + (k - 1,) + e[var + 1:]
                out[e2] = out.get(e2, RAT_ZERO) + c * k
        return SparsePoly(self.nvars, {e: c for e, c in out.items() if c}, _clean=True)

    # -- substitution / reindexing -------------------------------------------

    def eval_partial(self, bindings: dict) -> "SparsePoly":
        """Substitute the bound variables (0-based index -> value), merge terms.

        The ambient variable count is unchanged; the bound slots simply end up
        unused.  Use :meth:`reindex` to compress them away.
        """
        if not bindings:
            return self
        for v in bindings:
            if not 0 <= v < self.nvars:
                raise ValueError(f"variable index {v} out of range")
        vals = {v: rat(c) for v, c in bindings.items()}
        out: dict = {}
        for e, c in self.terms.items():
            for v, val in vals.items():
                k = e[v]
                if k:
                    c = c * val**k
                    if not c:
                        break
            if not c:
                continue
            e2 = tuple(0 if v in vals else x for v, x in enumerate(e))
            acc = out.get(e2, RAT_ZERO) + c
            if acc:
                out[e2] = acc
            else:
                out.pop(e2, None)
        return SparsePoly(self.nvars, out, _clean=True)

    def eval_all(self, point):
        """Full evaluation at a rational point (length nvars)."""
        total = RAT_ZERO
        pt = [rat(x) for x in point]
        for e, c in self.terms.items():
            for v, k in enumerate(e):
                if k:
                    c = c * pt[v] ** k
            total += c
        return total

    def translate(self, shift) -> "SparsePoly":
        """p(X + shift): the Taylor shift by a rational point."""
        n = self.nvars
        if len(shift) != n:
            raise ValueError("shift length must match variable count")
        powers: dict[tuple[int, int], SparsePoly] = {}

        def power(i: int, k: int) -> SparsePoly:
            # (X_i + shift_i)^k, built once per (i, k)
            got = powers.get((i, k))
            if got is None:
                base = SparsePoly(n, {tuple(int(j == i) for j in range(n)): RAT_ONE,
                                      (0,) * n: shift[i]})
                got = base if k == 1 else power(i, k - 1) * base
                powers[(i, k)] = got
            return got

        out: dict = {}
        for e, c in self.terms.items():
            term = None
            for i, k in enumerate(e):
                if k:
                    term = power(i, k) if term is None else term * power(i, k)
            poly_addmul(out, c, {(0,) * n: RAT_ONE} if term is None else term.terms)
        return SparsePoly(n, out, _clean=True)

    def reindex(self, positions) -> "SparsePoly":
        """Keep the variables at ``positions`` (in order), drop the rest.

        Every dropped variable must have exponent 0 in every term.
        """
        positions = list(positions)
        keep = set(positions)
        out = {}
        for e, c in self.terms.items():
            if any(x and v not in keep for v, x in enumerate(e)):
                raise ValueError("dropped variable occurs in a term")
            out[tuple(e[p] for p in positions)] = c
        return SparsePoly(len(positions), out, _clean=True)

    def embed(self, positions, nvars: int) -> "SparsePoly":
        """Map variable i of self to ``positions[i]`` inside a larger ambient."""
        out = {}
        for e, c in self.terms.items():
            e2 = [0] * nvars
            for i, x in enumerate(e):
                e2[positions[i]] = x
            out[tuple(e2)] = c
        return SparsePoly(nvars, out, _clean=True)

    def support(self):
        return set(self.terms)

    # -- exact division and gcd ----------------------------------------------

    def exact_div(self, other: "SparsePoly") -> "SparsePoly":
        """Exact quotient self/other; raises NotDivisible when not exact."""
        self._check(other)
        if not other:
            raise ZeroDivisionError("zero divisor")
        if not self:
            return SparsePoly.zero(self.nvars)
        lb, cb = other.lead()
        rem = dict(self.terms)
        out = {}
        while rem:
            la = max(rem, key=grlex_key)
            e = tuple(x - y for x, y in zip(la, lb))
            if any(x < 0 for x in e):
                raise NotDivisible("leading term not divisible")
            c = rem[la] / cb
            out[e] = c
            poly_addmul(rem, -c, {tuple(x + y for x, y in zip(e, eb)): v
                                  for eb, v in other.terms.items()})
        return SparsePoly(self.nvars, out, _clean=True)

    def int_clear(self):
        """Write self = content * primitive with primitive integer, content-1,
        positive graded-lex leading coefficient.  Returns (content, primitive).
        """
        if not self.terms:
            return RAT_ZERO, self
        num_g = 0
        den_l = 1
        for c in self.terms.values():
            num_g = int_gcd(num_g, abs(c.numerator))
            d = c.denominator
            den_l = den_l * d // int_gcd(den_l, d)
        content = rat(num_g, den_l)
        lead_c = self.terms[max(self.terms, key=grlex_key)]
        if lead_c < 0:
            content = -content
        prim = SparsePoly(
            self.nvars, {e: c / content for e, c in self.terms.items()}, _clean=True)
        return content, prim

    def content_free(self) -> "SparsePoly":
        return self.int_clear()[1] if self.terms else self

    def format(self, labels=None) -> str:
        return format_poly(self, labels)


def _min_exponent(p: SparsePoly):
    mins = None
    for e in p.terms:
        mins = e if mins is None else tuple(map(min, mins, e))
    return mins


def _as_univar(p: SparsePoly, var: int) -> dict:
    """View p as univariate in ``var``: degree -> coefficient poly (var zeroed)."""
    out: dict = {}
    for e, c in p.terms.items():
        k = e[var]
        e2 = e[:var] + (0,) + e[var + 1:]
        d = out.setdefault(k, {})
        d[e2] = c
    return {k: SparsePoly(p.nvars, d, _clean=True) for k, d in out.items()}


def _from_univar(coeffs: dict, var: int, nvars: int) -> SparsePoly:
    out = {}
    for k, poly in coeffs.items():
        for e, c in poly.terms.items():
            out[e[:var] + (k,) + e[var + 1:]] = c
    return SparsePoly(nvars, out, _clean=True)


def _univar_content(coeffs: dict) -> SparsePoly:
    g = None
    for poly in coeffs.values():
        g = poly if g is None else mpoly_gcd(g, poly)
        if g.is_constant():
            break
    return g


def _pseudo_rem(a: dict, b: dict, var: int, nvars: int):
    """Pseudo-remainder of univariate views (dicts degree -> poly coeff)."""
    db = max(b)
    lb = b[db]
    r = dict(a)
    while r:
        dr = max(r)
        if dr < db:
            break
        lr = r[dr]
        # r <- lb*r - lr*x^(dr-db)*b, which cancels the degree-dr term
        new = {}
        for k, c in r.items():
            if k != dr:
                new[k] = c * lb
        for k, c in b.items():
            if k != db:
                t = k + dr - db
                cur = new.get(t, SparsePoly.zero(nvars))
                new[t] = cur - lr * c
        r = {k: c for k, c in new.items() if c}
    return r


# the prime of the one-variable coprimality certificate
_PRIME = (1 << 61) - 1


def _only_variable(a: SparsePoly, b: SparsePoly):
    """The one variable a and b both live in, or None when they use more."""
    if a.nvars == 1:
        return 0
    var = None
    for p in (a, b):
        for e in p.terms:
            for v, k in enumerate(e):
                if k and v != var:
                    if var is not None:
                        return None
                    var = v
    return var


def _primitive(vec: list) -> list:
    g = int_gcd(*vec)
    return vec if g == 1 else [c // g for c in vec]


def _dense_primitive(p: SparsePoly, var: int) -> list:
    """p, living in variable ``var``, as a primitive integer vector, lowest
    degree first."""
    den = int_lcm(*(c.denominator for c in p.terms.values()))
    vec = [0] * (p.degree_in(var) + 1)
    for e, c in p.terms.items():
        vec[e[var]] = c.numerator * (den // c.denominator)
    return _primitive(vec)


def _coprime_mod_prime(a: list, b: list) -> bool:
    """deg gcd(a mod p, b mod p) = 0, for leading coefficients prime to p."""
    a = [c % _PRIME for c in a]
    b = [c % _PRIME for c in b]
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        db = len(b) - 1
        inv = pow(b[-1], -1, _PRIME)
        for k in range(len(a) - 1 - db, -1, -1):
            top = a[db + k] * inv % _PRIME
            if top:
                for i in range(db):
                    a[k + i] = (a[k + i] - top * b[i]) % _PRIME
        del a[db:]
        while a and not a[-1]:
            a.pop()
        if not a:
            return False
        a, b = b, a
    return True


def _int_pseudo_rem(a: list, b: list) -> list:
    """lb^j * a mod b over Z for some j >= 0; vectors lowest degree first."""
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    for k in range(len(a) - 1 - db, -1, -1):
        top = r.pop()
        if top:
            # r <- lb*r - top*x^k*b, which cancels the dropped term
            r = [c * lb for c in r]
            for i in range(db):
                r[k + i] -= top * b[i]
    while r and not r[-1]:
        r.pop()
    return r


def _dense_gcd(a: list, b: list) -> list:
    """Canonical gcd of nonzero primitive integer vectors: content 1,
    positive leading coefficient."""
    ka = next(i for i, c in enumerate(a) if c)
    kb = next(i for i, c in enumerate(b) if c)
    a, b = a[ka:], b[kb:]
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1 or (a[-1] * b[-1] % _PRIME and _coprime_mod_prime(a, b)):
        g = [1]
    else:
        while True:
            r = _int_pseudo_rem(a, b)
            if not r:
                g = b
                break
            if len(r) == 1:
                g = [1]
                break
            a, b = b, _primitive(r)
    if g[-1] < 0:
        g = [-c for c in g]
    return [0] * min(ka, kb) + g


def mpoly_gcd(a: SparsePoly, b: SparsePoly) -> SparsePoly:
    """Canonical gcd: integer coefficients, content 1, positive grlex lead."""
    if a.nvars != b.nvars:
        raise ValueError("ambient variable count mismatch")
    n = a.nvars
    if not a and not b:
        raise ZeroDivisionError("gcd(0, 0) undefined")
    if not a:
        return b.content_free()
    if not b:
        return a.content_free()
    if a.is_constant() or b.is_constant():
        return SparsePoly.const(n, 1)
    if len(a.terms) == 1 or len(b.terms) == 1:
        mins = tuple(map(min, _min_exponent(a), _min_exponent(b)))
        return SparsePoly.monomial(n, mins, 1)
    var = _only_variable(a, b)
    if var is not None:
        g = _dense_gcd(_dense_primitive(a, var), _dense_primitive(b, var))
        zero = (0,) * n
        return SparsePoly(n, {zero[:var] + (k,) + zero[var + 1:]: rat(c)
                              for k, c in enumerate(g) if c}, _clean=True)
    pa = a.content_free()
    pb = b.content_free()
    # main variable: smallest positive min-degree keeps the PRS short
    var = None
    best = None
    for v in range(n):
        da, db = pa.degree_in(v), pb.degree_in(v)
        if da > 0 and db > 0:
            score = min(da, db)
            if best is None or score < best:
                best, var = score, v
    if var is None:
        return SparsePoly.const(n, 1)
    ua, ub = _as_univar(pa, var), _as_univar(pb, var)
    ca, cb = _univar_content(ua), _univar_content(ub)
    gc = mpoly_gcd(ca, cb)
    ra = {k: c.exact_div(ca) for k, c in ua.items()}
    rb = {k: c.exact_div(cb) for k, c in ub.items()}
    if max(ra) < max(rb):
        ra, rb = rb, ra
    while True:
        rem = _pseudo_rem(ra, rb, var, n)
        if not rem:
            break
        cont = _univar_content(rem)
        ra, rb = rb, {k: c.exact_div(cont) for k, c in rem.items()}
        if max(rb) == 0:
            return gc.content_free()
    g = _from_univar(rb, var, n) * gc
    return g.content_free()


def mpoly_lcm(a: SparsePoly, b: SparsePoly) -> SparsePoly:
    if not a or not b:
        return SparsePoly.zero(a.nvars)
    g = mpoly_gcd(a, b)
    return a.exact_div(g) * b


# -- canonical text rendering ------------------------------------------------

def default_labels(n: int):
    return tuple(f"X{i + 1}" for i in range(n))


def _format_monomial(e, labels) -> str:
    parts = []
    for v, k in enumerate(e):
        if k == 1:
            parts.append(labels[v])
        elif k > 1:
            parts.append(f"{labels[v]}^{k}")
    return "*".join(parts)


def format_poly(p: SparsePoly, labels=None) -> str:
    """Graded-lex descending rendering with explicit signs: ``-12*X1^3+6*X1``."""
    if not p.terms:
        return "0"
    if labels is None:
        labels = default_labels(p.nvars)
    out = []
    for e in sorted(p.terms, key=grlex_key, reverse=True):
        c = p.terms[e]
        mono = _format_monomial(e, labels)
        neg = c < 0
        mag = -c if neg else c
        if not mono:
            body = rat_str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{rat_str(mag)}*{mono}"
        if not out:
            out.append(("-" if neg else "") + body)
        else:
            out.append(("-" if neg else "+") + body)
    return "".join(out)
