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
from .zerodim import DEFAULT_BOUND, DEFAULT_RETRIES, GeometricResolution


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
                             bound=options.get("bound", DEFAULT_BOUND),
                             retry_limit=options.get("retries", DEFAULT_RETRIES))


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
    view = ParsedResolution()
    view.dense_image = result.dense_image
    view.n = len(order.to_original)
    view.ell = order.ell
    view.t = order.t
    view.free = order.free_original
    if not result.dense_image:
        view.projected = order.projected_original
        view.mu = result.mu
        view.resolution = result.resolution
        view.parent_dependent = order.dependent_original
        view.parent_lambda = result.parametric.lam
        view.parametric = result.parametric
    view.provenance = {
        key: " ".join(str(x) for x in val) if isinstance(val, tuple) else str(val)
        for key, val in result.provenance.items()}
    return view.reemit()


# (variables, separating form, q, coordinates) line keys of the two resolutions
_BLOCKS = (("projected", "mu", "q", "v"),
           ("parent_dependent", "parent_lambda", "parent_q", "parent_w"))


class ParsedResolution:
    """Structured view of a ResolutionFile, rebuilt into frame objects.

    Provenance values are kept as their text.  ``reemit`` is the one writer
    of the file layout: ``emit_resolution`` fills a view and calls it.
    """

    __slots__ = ("n", "ell", "dense_image", "t", "free", "projected", "mu",
                 "resolution", "parent_dependent", "parent_lambda", "parametric",
                 "provenance")

    def __init__(self):
        self.dense_image = False
        self.resolution = None
        self.parametric = None
        self.provenance = {}

    def reemit(self) -> str:
        """The canonical file text (parse . reemit is the identity)."""
        lines = ["resolution projection"]
        if self.dense_image:
            lines.append(f"DENSE_IMAGE t={self.t}")
        lines.append(f"n {self.n}")
        lines.append(f"l {self.ell}")
        lines.append("free " + " ".join(str(v + 1) for v in self.free))
        if not self.dense_image:
            labels = tuple(f"X{v + 1}" for v in self.free)
            blocks = ((self.projected, self.mu, self.resolution),
                      (self.parent_dependent, self.parent_lambda, self.parametric))
            for (vars_key, form_key, q_key, v_key), (variables, form, res) in zip(
                    _BLOCKS, blocks):
                lines.append(f"{vars_key} " + " ".join(str(v + 1) for v in variables))
                lines.append(f"{form_key} " + " ".join(str(c) for c in form))
                lines.extend(_upoly_lines(q_key, res.q, labels))
                for frame_v, orig_v in zip(range(self.t, self.t + len(variables)),
                                           variables):
                    lines.extend(_upoly_lines(f"{v_key} {orig_v + 1}",
                                              res.params[frame_v], labels))
        for key in sorted(self.provenance):
            lines.append(f"provenance {key} {self.provenance[key]}")
        return "\n".join(lines) + "\n"


def parse_resolution(text: str) -> ParsedResolution:
    out = ParsedResolution()
    upolys: dict = {}   # (line key, original variable or None) -> {degree: text}
    seen: set = set()
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
        if key in seen and key not in ("q", "v", "parent_q", "parent_w", "provenance"):
            raise ParseError(f"repeated {key!r} line")
        seen.add(key)
        if key == "n":
            out.n = int(rest)
        elif key == "l":
            out.ell = int(rest)
        elif key == "free":
            out.free = tuple(int(x) - 1 for x in rest.split())
            out.t = len(out.free)
        elif key in ("projected", "parent_dependent"):
            setattr(out, key, tuple(int(x) - 1 for x in rest.split()))
        elif key in ("mu", "parent_lambda"):
            setattr(out, key, tuple(int(x) for x in rest.split()))
        elif key in ("q", "v", "parent_q", "parent_w"):
            # "q DEG : EXPR" or "q zero"; "v VAR DEG : EXPR" or "v VAR zero"
            head, _, expr = rest.partition(":")
            fields = head.split()
            if len(fields) != (2 if key in ("v", "parent_w") else 1):
                raise ParseError(f"malformed resolution line {line!r}")
            var = int(fields[0]) - 1 if len(fields) == 2 else None
            degree = None if fields[-1] == "zero" else int(fields[-1])
            if degree is not None and degree < 0:
                raise ParseError(f"negative degree in resolution line {line!r}")
            terms = upolys.setdefault((key, var), {})
            if terms is None or (terms and degree is None) or degree in terms:
                raise ParseError(f"repeated term in resolution line {line!r}")
            if degree is None:
                upolys[(key, var)] = None   # a "zero" line stands alone
            else:
                terms[degree] = expr.strip()
        elif key == "provenance":
            if not rest:
                raise ParseError(f"malformed resolution line {line!r}")
            pkey = rest.split(None, 1)[0]
            if pkey in out.provenance:
                raise ParseError(f"repeated provenance {pkey!r} line")
            out.provenance[pkey] = rest.split(None, 1)[1] if " " in rest else ""
        else:
            raise ParseError(f"unknown resolution line {key!r}")
    required = ["n", "l", "free"]
    if not out.dense_image:
        required += [key for block in _BLOCKS for key in block[:2]]
    for key in required:
        if key not in seen:
            raise ParseError(f"missing {key!r} line")
    if out.dense_image:
        return out
    for vars_key, form_key, _, v_key in _BLOCKS:
        variables, form = getattr(out, vars_key), getattr(out, form_key)
        if len(form) != len(variables):
            raise ParseError(f"{form_key} has {len(form)} entries for "
                             f"{len(variables)} {vars_key} variables")
        for key, var in upolys:
            if key == v_key and var not in variables:
                raise ParseError(f"{v_key} line for X{var + 1}, which is not "
                                 f"among the {vars_key} variables")

    labels = tuple(f"X{v + 1}" for v in out.free)
    t = out.t

    def build_upoly(key: str, var=None) -> UniPoly:
        terms = upolys.get((key, var))
        if not terms:
            return UniPoly.zero()
        coeffs = [RatFun.from_const(t, 0)] * (max(terms) + 1)
        for k, expr in terms.items():
            coeffs[k] = parse_ratfun(expr, labels)
        return UniPoly(coeffs)

    def build(variables, form, q_key: str, v_key: str) -> GeometricResolution:
        frame = tuple(range(t, t + len(variables)))
        return GeometricResolution(
            tuple(range(t)), frame, form, build_upoly(q_key),
            {fv: build_upoly(v_key, ov) for fv, ov in zip(frame, variables)})

    out.resolution = build(out.projected, out.mu, "q", "v")
    out.parametric = build(out.parent_dependent, out.parent_lambda,
                           "parent_q", "parent_w")
    return out
