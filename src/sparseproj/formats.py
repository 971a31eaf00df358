"""Text formats: system files in, resolution files out, both exact.

System file grammar (``#`` starts a comment anywhere, blank lines ignored)::

    system n=5 r=2 l=3
    seed 42            # optional: seed / bound / retries
    poly
    0 0 0 0 0 : 3      # one term per line: n exponents, colon, rational
    1 1 1 0 0 : 2
    poly
    ...

Resolution files are line-oriented key/value records mirroring
ProjectionResult: the projected resolution, the intermediate parametric
resolution it was computed from (so a verifier can audit both identity
families), and the provenance of every random draw.  Emission is canonical
(graded-lex monomials, normalized fractions, sorted keys), and parsing an
emitted file reproduces it byte for byte.
"""

from __future__ import annotations

from .mpoly import SparsePoly
from .rat import rat, rat_from_str, rat_str
from .ratfun import RatFun
from .upoly import UniPoly
from .zerodim import GeometricResolution


class ParseError(ValueError):
    pass


# -- system files -----------------------------------------------------------------


def parse_system(text: str):
    """Parse a SystemFile into a ProjectionProblem."""
    from .projection import ProjectionProblem

    header = None
    options: dict = {}
    polys: list[dict] = []
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if header is None:
            if parts[0] != "system":
                raise ParseError(f"line {lineno}: expected 'system n=.. r=.. l=..' header")
            header = {}
            for p in parts[1:]:
                if "=" not in p:
                    raise ParseError(f"line {lineno}: malformed header field {p!r}")
                k, _, v = p.partition("=")
                if k not in ("n", "r", "l"):
                    raise ParseError(f"line {lineno}: unknown header field {k!r}")
                try:
                    header[k] = int(v)
                except ValueError as exc:
                    raise ParseError(f"line {lineno}: non-integer {k}={v!r}") from exc
            for k in ("n", "r", "l"):
                if k not in header:
                    raise ParseError(f"line {lineno}: header missing {k}")
            continue
        if parts[0] in ("seed", "bound", "retries"):
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: '{parts[0]}' takes one integer")
            try:
                options[parts[0]] = int(parts[1])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: non-integer {parts[0]}") from exc
            continue
        if parts[0] == "poly":
            if len(parts) != 1:
                raise ParseError(f"line {lineno}: 'poly' takes no arguments")
            polys.append({})
            continue
        if ":" not in line:
            raise ParseError(f"line {lineno}: expected 'e1 .. en : coeff' term line")
        if not polys:
            raise ParseError(f"line {lineno}: term before any 'poly' block")
        left, _, right = line.partition(":")
        exps = left.split()
        if len(exps) != header["n"]:
            raise ParseError(
                f"line {lineno}: {len(exps)} exponents, expected n={header['n']}")
        try:
            e = tuple(int(x) for x in exps)
        except ValueError as exc:
            raise ParseError(f"line {lineno}: non-integer exponent") from exc
        if any(x < 0 for x in e):
            raise ParseError(f"line {lineno}: negative exponent")
        try:
            c = rat_from_str(right.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"line {lineno}: bad rational {right.strip()!r}") from exc
        block = polys[-1]
        acc = block.get(e, rat(0)) + c
        if acc:
            block[e] = acc
        else:
            block.pop(e, None)

    if header is None:
        raise ParseError("empty file: no 'system' header")
    if len(polys) != header["r"]:
        raise ParseError(f"{len(polys)} poly blocks, header says r={header['r']}")
    for i, block in enumerate(polys):
        if not block:
            raise ParseError(f"poly {i + 1}: empty support")
    system = [SparsePoly(header["n"], block) for block in polys]
    return ProjectionProblem(system, header["l"],
                             seed=options.get("seed", 0),
                             bound=options.get("bound", 100),
                             retry_limit=options.get("retries", 5))


def emit_system(problem) -> str:
    out = [f"system n={problem.n} r={problem.r} l={problem.ell}"]
    if problem.seed:
        out.append(f"seed {problem.seed}")
    if problem.bound != 100:
        out.append(f"bound {problem.bound}")
    if problem.retry_limit != 5:
        out.append(f"retries {problem.retry_limit}")
    from .mpoly import grlex_key

    for p in problem.system:
        out.append("poly")
        for e in sorted(p.terms, key=grlex_key, reverse=True):
            out.append(" ".join(str(x) for x in e) + " : " + rat_str(p.terms[e]))
    return "\n".join(out) + "\n"


# -- canonical fraction text <-> RatFun ---------------------------------------------


class _Tok:
    __slots__ = ("kind", "value")

    def __init__(self, kind, value=None):
        self.kind = kind
        self.value = value


def _tokenize(text: str):
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*/^()":
            out.append(_Tok(ch))
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(_Tok("int", int(text[i:j])))
            i = j
        elif ch == "X" or ch == "Y":
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            out.append(_Tok("var", text[i:j]))
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r} in expression")
    out.append(_Tok("end"))
    return out


class _PolyParser:
    """Parser for the canonical polynomial/fraction rendering."""

    def __init__(self, text: str, var_index: dict, nvars: int):
        self.toks = _tokenize(text)
        self.pos = 0
        self.var_index = var_index
        self.nvars = nvars

    def peek(self):
        return self.toks[self.pos]

    def take(self, kind=None):
        tok = self.toks[self.pos]
        if kind is not None and tok.kind != kind:
            raise ParseError(f"expected {kind}, found {tok.kind}")
        self.pos += 1
        return tok

    def parse_fraction(self) -> RatFun:
        if self.peek().kind == "(":
            save = self.pos
            self.take("(")
            num = self.parse_poly()
            self.take(")")
            if self.peek().kind == "/":
                self.take("/")
                self.take("(")
                den = self.parse_poly()
                self.take(")")
                self.take("end")
                return RatFun(num, den)
            self.pos = save
        num = self.parse_poly()
        self.take("end")
        return RatFun(num)

    def parse_poly(self) -> SparsePoly:
        acc = SparsePoly.zero(self.nvars)
        sign = 1
        if self.peek().kind in "+-":
            sign = -1 if self.take().kind == "-" else 1
        while True:
            acc = acc + self.parse_term(sign)
            if self.peek().kind in "+-":
                sign = -1 if self.take().kind == "-" else 1
            else:
                return acc

    def parse_term(self, sign: int) -> SparsePoly:
        coeff = rat(sign)
        exps = [0] * self.nvars
        saw_anything = False
        if self.peek().kind == "int":
            num = self.take().value
            den = 1
            if self.peek().kind == "/":
                self.take("/")
                den = self.take("int").value
            coeff = coeff * rat(num, den)
            saw_anything = True
            if self.peek().kind == "*":
                self.take("*")
        while self.peek().kind == "var":
            name = self.take().value
            if name not in self.var_index:
                raise ParseError(f"unknown variable {name!r}")
            k = 1
            if self.peek().kind == "^":
                self.take("^")
                k = self.take("int").value
            exps[self.var_index[name]] += k
            saw_anything = True
            if self.peek().kind == "*":
                self.take("*")
            else:
                break
        if not saw_anything:
            raise ParseError("empty term")
        return SparsePoly.monomial(self.nvars, exps, coeff)


def parse_ratfun(text: str, labels) -> RatFun:
    var_index = {name: i for i, name in enumerate(labels)}
    return _PolyParser(text, var_index, len(labels)).parse_fraction()


# -- resolution files ------------------------------------------------------------------


def _upoly_lines(prefix: str, p: UniPoly, labels) -> list[str]:
    out = []
    for k in range(p.degree(), -1, -1):
        c = p[k]
        if c:
            out.append(f"{prefix} {k} : {c.format(labels) if isinstance(c, RatFun) else rat_str(c)}")
    if not out:
        out.append(f"{prefix} zero")
    return out


def emit_resolution(result) -> str:
    """Canonical ResolutionFile text for a ProjectionResult."""
    order = result.order
    lines = ["resolution projection"]
    prov = result.provenance
    if result.dense_image:
        lines.append(f"DENSE_IMAGE t={order.t}")
    lines.append(f"n {len(order.to_original)}")
    lines.append(f"l {order.ell}")
    lines.append("free " + " ".join(str(v + 1) for v in order.free_original))
    if not result.dense_image:
        labels = tuple(f"X{v + 1}" for v in order.free_original)
        proj_orig = order.projected_original
        lines.append("projected " + " ".join(str(v + 1) for v in proj_orig))
        lines.append("mu " + " ".join(str(c) for c in result.mu))
        res = result.resolution
        lines.extend(_upoly_lines("q", res.q, labels))
        for frame_v, orig_v in zip(range(order.t, order.ell), proj_orig):
            for line in _upoly_lines(f"v {orig_v + 1}", res.params[frame_v], labels):
                lines.append(line)
        par = result.parametric
        dep_orig = order.dependent_original
        lines.append("parent_dependent " + " ".join(str(v + 1) for v in dep_orig))
        lines.append("parent_lambda " + " ".join(str(c) for c in par.lam))
        lines.extend(_upoly_lines("parent_q", par.q, labels))
        for frame_v, orig_v in zip(range(order.t, order.t + order.r), dep_orig):
            for line in _upoly_lines(f"parent_w {orig_v + 1}", par.params[frame_v], labels):
                lines.append(line)
    for key in sorted(prov):
        val = prov[key]
        if isinstance(val, tuple):
            lines.append(f"provenance {key} " + " ".join(str(x) for x in val))
        else:
            lines.append(f"provenance {key} {val}")
    return "\n".join(lines) + "\n"


class ParsedResolution:
    """Structured view of a ResolutionFile, rebuilt into frame objects."""

    __slots__ = ("n", "ell", "dense_image", "t", "free", "projected", "mu",
                 "resolution", "parent_dependent", "parent_lambda", "parametric",
                 "provenance")

    def __init__(self):
        self.dense_image = False
        self.mu = ()
        self.resolution = None
        self.parametric = None
        self.provenance = {}

    def reemit(self) -> str:
        """Reproduce the canonical file text (parse . reemit is the identity)."""
        lines = ["resolution projection"]
        if self.dense_image:
            lines.append(f"DENSE_IMAGE t={self.t}")
        lines.append(f"n {self.n}")
        lines.append(f"l {self.ell}")
        lines.append("free " + " ".join(str(v + 1) for v in self.free))
        if not self.dense_image:
            labels = tuple(f"X{v + 1}" for v in self.free)
            lines.append("projected " + " ".join(str(v + 1) for v in self.projected))
            lines.append("mu " + " ".join(str(c) for c in self.mu))
            lines.extend(_upoly_lines("q", self.resolution.q, labels))
            t = self.t
            for frame_v, orig_v in zip(range(t, t + len(self.projected)),
                                       self.projected):
                lines.extend(_upoly_lines(f"v {orig_v + 1}",
                                          self.resolution.params[frame_v], labels))
            lines.append("parent_dependent "
                         + " ".join(str(v + 1) for v in self.parent_dependent))
            lines.append("parent_lambda "
                         + " ".join(str(c) for c in self.parent_lambda))
            lines.extend(_upoly_lines("parent_q", self.parametric.q, labels))
            for frame_v, orig_v in zip(range(t, t + len(self.parent_dependent)),
                                       self.parent_dependent):
                lines.extend(_upoly_lines(f"parent_w {orig_v + 1}",
                                          self.parametric.params[frame_v], labels))
        for key in sorted(self.provenance):
            val = self.provenance[key]
            lines.append(f"provenance {key} {val}" if val else f"provenance {key}")
        return "\n".join(lines) + "\n"


def parse_resolution(text: str) -> ParsedResolution:
    out = ParsedResolution()
    q_terms: dict[int, str] = {}
    v_terms: dict[int, dict[int, str]] = {}
    pq_terms: dict[int, str] = {}
    pw_terms: dict[int, dict[int, str]] = {}
    lines = text.splitlines()
    if not lines or lines[0].strip() != "resolution projection":
        raise ParseError("missing 'resolution projection' header")
    for raw in lines[1:]:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("DENSE_IMAGE"):
            out.dense_image = True
            out.t = int(line.partition("t=")[2])
            continue
        parts = line.split(None, 1)
        key, rest = parts[0], parts[1] if len(parts) > 1 else ""
        if key == "n":
            out.n = int(rest)
        elif key == "l":
            out.ell = int(rest)
        elif key == "free":
            out.free = tuple(int(x) - 1 for x in rest.split())
            out.t = len(out.free)
        elif key == "projected":
            out.projected = tuple(int(x) - 1 for x in rest.split())
        elif key == "mu":
            out.mu = tuple(int(x) for x in rest.split())
        elif key == "q":
            deg, _, expr = rest.partition(":")
            if deg.strip() != "zero":
                q_terms[int(deg)] = expr.strip()
        elif key == "v":
            parts_v = rest.split(None, 2)
            if len(parts_v) >= 2 and parts_v[1] != "zero":
                expr = rest.split(":", 1)[1].strip()
                v_terms.setdefault(int(parts_v[0]) - 1, {})[int(parts_v[1])] = expr
            else:
                v_terms.setdefault(int(parts_v[0]) - 1, {})
        elif key == "parent_dependent":
            out.parent_dependent = tuple(int(x) - 1 for x in rest.split())
        elif key == "parent_lambda":
            out.parent_lambda = tuple(int(x) for x in rest.split())
        elif key == "parent_q":
            deg, _, expr = rest.partition(":")
            if deg.strip() != "zero":
                pq_terms[int(deg)] = expr.strip()
        elif key == "parent_w":
            parts_w = rest.split(None, 2)
            if len(parts_w) >= 2 and parts_w[1] != "zero":
                expr = rest.split(":", 1)[1].strip()
                pw_terms.setdefault(int(parts_w[0]) - 1, {})[int(parts_w[1])] = expr
            else:
                pw_terms.setdefault(int(parts_w[0]) - 1, {})
        elif key == "provenance":
            pkey = rest.split(None, 1)[0]
            pval = rest.split(None, 1)[1] if " " in rest else ""
            out.provenance[pkey] = pval
        else:
            raise ParseError(f"unknown resolution line {key!r}")
    if out.dense_image:
        return out

    labels = tuple(f"X{v + 1}" for v in out.free)
    t = out.t

    def build_upoly(terms: dict[int, str]) -> UniPoly:
        if not terms:
            return UniPoly.zero()
        coeffs = [RatFun.from_const(t, 0)] * (max(terms) + 1)
        for k, expr in terms.items():
            coeffs[k] = parse_ratfun(expr, labels)
        return UniPoly(coeffs)

    proj_frame = tuple(range(t, t + len(out.projected)))
    out.resolution = GeometricResolution(
        tuple(range(t)), proj_frame, out.mu,
        build_upoly(q_terms),
        {fv: build_upoly(v_terms.get(ov, {}))
         for fv, ov in zip(proj_frame, out.projected)})
    dep_frame = tuple(range(t, t + len(out.parent_dependent)))
    out.parametric = GeometricResolution(
        tuple(range(t)), dep_frame, out.parent_lambda,
        build_upoly(pq_terms),
        {fv: build_upoly(pw_terms.get(ov, {}))
         for fv, ov in zip(dep_frame, out.parent_dependent)})
    return out
