"""Expression trees for vector fields and constraint maps.

Each tree is lowered once, on first use, to a flat post-order `Tape` that
is kept on the root node (`Expr.tape`).  Its values are straight-line code
compiled through one op->code table and bound three ways: point values,
natural interval values, and numpy values over many points (`eval_vec`).
Clarke-derivative bounds come from one compiled forward pass that carries
all partials of every node at once (forward-mode interval differentiation),
and evaluates only what the root's partials read and what can raise.  What
is known when that pass is generated (constants, and every line over known
values only) is evaluated then, once, so a linear row's partials are
constants, returned as the same prebuilt entries on every call.
lanes.py binds the point and Clarke code once more, to numpy operators that
run many points or boxes at once.  Trees are immutable; sums and products
are n-ary and flattened by the parser to keep natural-inclusion dependency
pessimism deterministic.

Grammar (see parse_expr):
    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' integer)?
    base   := number | ident | '(' expr ')' | func '(' expr (',' expr)? ')'
              | '-' base
    func   in {sin, cos, exp, sqrt, arctan, abs, min, max}
"""

from __future__ import annotations

import math
import operator
import re
import types
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial, reduce
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    ExprSyntaxError,
    UnboundedBothSides,
    UnknownIdentifier,
)
from .interval import (
    _MAXF,
    Box,
    Interval,
    _exp_float,
    _pow_float,
    iabs,
    iarctan,
    icos,
    iexp,
    imax,
    imin,
    ipow,
    isin,
    isqrt,
    outward,
)

_INF = math.inf

# ---------------------------------------------------------------------------
# Node types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Expr:
    @cached_property
    def tape(self) -> Tape:
        """This tree lowered to a tape, built on first use and kept on the node.

        cached_property writes the instance __dict__, so the tape takes no
        part in equality or hashing, and no cache is keyed by the tree.
        """
        return Tape(self)

    def __getstate__(self):
        # the tape's compiled functions do not pickle; an unpickled tree
        # lowers itself again on first use
        return {k: v for k, v in self.__dict__.items() if k != "tape"}


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    index: int


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # neg | sin | cos | exp | sqrt | arctan | abs
    child: Expr


@dataclass(frozen=True)
class Pow(Expr):
    child: Expr
    exponent: int


@dataclass(frozen=True)
class Div(Expr):
    num: Expr
    den: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str  # min | max
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Sum(Expr):
    children: tuple[Expr, ...]


@dataclass(frozen=True)
class Prod(Expr):
    children: tuple[Expr, ...]


_UNARY_FUNCS = ("sin", "cos", "exp", "sqrt", "arctan", "abs")
_BINARY_FUNCS = ("min", "max")


def max_var_index(e: Expr) -> int:
    """Largest variable index referenced, or -1 for a constant tree."""
    return e.tape.max_var


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


class _Parser:
    def __init__(self, text: str, variables: Sequence[str]):
        self.text = text
        self.vars = {name: i for i, name in enumerate(variables)}
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None or m.end() == pos:
                stripped = text[pos:].lstrip()
                if not stripped:
                    break
                raise ExprSyntaxError(f"unexpected character {stripped[0]!r}",
                                      len(text) - len(stripped))
            kind = m.lastgroup
            self.tokens.append((kind, m.group(kind), m.start(kind)))
            pos = m.end()
        self.i = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ExprSyntaxError("unexpected end of input", len(self.text))
        self.i += 1
        return tok

    def expect(self, value: str) -> None:
        tok = self.next()
        if tok[1] != value:
            raise ExprSyntaxError(f"expected {value!r}, found {tok[1]!r}", tok[2])

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ExprSyntaxError(f"trailing input {tok[1]!r}", tok[2])
        return e

    def expr(self) -> Expr:
        terms = [self.term()]
        while (tok := self.peek()) is not None and tok[1] in "+-":
            self.next()
            t = self.term()
            terms.append(Unary("neg", t) if tok[1] == "-" else t)
        return terms[0] if len(terms) == 1 else Sum(tuple(terms))

    def term(self) -> Expr:
        factors = [self.factor()]
        while (tok := self.peek()) is not None and tok[1] in "*/":
            self.next()
            f = self.factor()
            if tok[1] == "/":
                left = factors[0] if len(factors) == 1 else Prod(tuple(factors))
                factors = [Div(left, f)]
            else:
                factors.append(f)
        return factors[0] if len(factors) == 1 else Prod(tuple(factors))

    def factor(self) -> Expr:
        b = self.base()
        if (tok := self.peek()) is not None and tok[1] == "^":
            self.next()
            sign = 1
            tok = self.next()
            if tok[1] == "-":
                sign = -1
                tok = self.next()
            if tok[0] != "num" or not tok[1].isdigit():
                raise ExprSyntaxError("exponent must be an integer", tok[2])
            return Pow(b, sign * int(tok[1]))
        return b

    def base(self) -> Expr:
        tok = self.next()
        kind, value, offset = tok
        if value == "-":
            return Unary("neg", self.base())
        if value == "(":
            e = self.expr()
            self.expect(")")
            return e
        if kind == "num":
            return Const(float(value))
        if kind == "ident":
            if value in _UNARY_FUNCS or value in _BINARY_FUNCS:
                self.expect("(")
                first = self.expr()
                if value in _BINARY_FUNCS:
                    self.expect(",")
                    second = self.expr()
                    self.expect(")")
                    return Binary(value, first, second)
                self.expect(")")
                return Unary(value, first)
            if value not in self.vars:
                raise UnknownIdentifier(f"unknown identifier {value!r}")
            return Var(self.vars[value])
        raise ExprSyntaxError(f"unexpected token {value!r}", offset)


def parse_expr(text: str, variables: Sequence[str]) -> Expr:
    """Parse an expression over the declared variable names."""
    return _Parser(text, variables).parse()


# ---------------------------------------------------------------------------
# Pretty printer (round-trips through parse_expr)
# ---------------------------------------------------------------------------

_PREC_SUM, _PREC_PROD, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4


def to_string(e: Expr, variables: Sequence[str]) -> str:
    return _fmt(e, variables, 0)


def _fmt(e: Expr, names: Sequence[str], parent_prec: int) -> str:
    if isinstance(e, Const):
        s, prec = repr(e.value), _PREC_ATOM
    elif isinstance(e, Var):
        s, prec = names[e.index], _PREC_ATOM
    elif isinstance(e, Unary) and e.op == "neg":
        # a Pow child must keep its parens: "-(x^2)" and "-x^2" parse
        # differently because unary minus binds to the base
        inner = _PREC_ATOM if isinstance(e.child, Pow) else _PREC_POW
        s, prec = "-" + _fmt(e.child, names, inner), _PREC_PROD
    elif isinstance(e, Unary):
        s, prec = f"{e.op}({_fmt(e.child, names, 0)})", _PREC_ATOM
    elif isinstance(e, Binary):
        s = f"{e.op}({_fmt(e.left, names, 0)}, {_fmt(e.right, names, 0)})"
        prec = _PREC_ATOM
    elif isinstance(e, Pow):
        exp = str(e.exponent) if e.exponent >= 0 else f"-{-e.exponent}"
        s, prec = f"{_fmt(e.child, names, _PREC_POW + 1)}^{exp}", _PREC_POW
    elif isinstance(e, Div):
        s = f"{_fmt(e.num, names, _PREC_PROD)}/{_fmt(e.den, names, _PREC_PROD + 1)}"
        prec = _PREC_PROD
    elif isinstance(e, Sum):
        parts = [_fmt(e.children[0], names, _PREC_SUM)]
        for c in e.children[1:]:
            if isinstance(c, Unary) and c.op == "neg":
                inner = _PREC_ATOM if isinstance(c.child, Pow) else _PREC_POW
                parts.append(" - " + _fmt(c.child, names, inner))
            else:
                parts.append(" + " + _fmt(c, names, _PREC_SUM + 1))
        s, prec = "".join(parts), _PREC_SUM
    elif isinstance(e, Prod):
        s = "*".join(_fmt(c, names, _PREC_PROD + 1) for c in e.children)
        prec = _PREC_PROD
    else:
        raise TypeError(f"unknown node {e!r}")
    return f"({s})" if prec < parent_prec else s


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def eval_point(e: Expr, z: Sequence[float]) -> float:
    """Real evaluation of e at a point; NaN, as in IEEE 754, where libm
    rejects an infinite coordinate (cos(inf))."""
    try:
        return e.tape.point(z)
    except (ValueError, ZeroDivisionError) as exc:
        if isinstance(exc, ValueError) and not all(map(math.isfinite, z)):
            return math.nan
        raise DomainError(str(exc)) from exc
    except IndexError as exc:
        raise DimensionMismatch("expression references variable outside point") from exc


def eval_interval(e: Expr, box: Box) -> Interval:
    """Natural interval evaluation: a sound enclosure of the range over box."""
    if e.tape.max_var >= len(box):
        raise DimensionMismatch("expression references variable outside box")
    return e.tape.interval(box.dims)


def eval_vec(e: Expr, cols: np.ndarray) -> np.ndarray:
    """Vectorized evaluation; cols has shape (n_vars, n_points)."""
    try:
        values = e.tape.vec(cols)  # one value, which every point takes, if no variables
        return np.repeat(values, cols.shape[1]) if e.tape.max_var < 0 else values
    except IndexError as exc:
        raise DimensionMismatch("expression references variable outside columns") from exc


# ---------------------------------------------------------------------------
# Clarke-derivative bounds
# ---------------------------------------------------------------------------


# The one entry for a partial that is exactly zero by construction: the
# pair object Z of the Clarke pass, or a pinned coordinate's slope (decomp).
# Code that reads bounds may skip it by identity; an equal entry built
# elsewhere (an override, a computed zero pair) is read like any other.
ZERO_PARTIAL = Interval(0.0, 0.0)
_ONE_PARTIAL = Interval(1.0, 1.0)


@dataclass(frozen=True)
class JacobianBounds:
    """Per-entry bounds on Clarke partial derivatives, as Intervals.

    derived holds values that callers compute from these bounds once and
    reuse for as long as the bounds live (decomp keeps each row's
    supporting vectors there); it takes no part in equality.
    """

    entries: tuple[tuple[Interval, ...], ...]
    derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def rows(self) -> int:
        return len(self.entries)

    def row(self, i: int) -> tuple[Interval, ...]:
        return self.entries[i]

    def __getitem__(self, ij: tuple[int, int]) -> Interval:
        return self.entries[ij[0]][ij[1]]


def _row_overrides(overrides: dict | None, i: int, n: int) -> dict:
    """Row i's overridden entries of an n-column Jacobian, {column: bound}."""
    if not overrides:
        return {}
    return {j: overrides[(i, j)] for j in range(n) if (i, j) in overrides}


def _entry(pair: tuple[float, float], prebuilt: dict) -> Interval:
    return prebuilt.get(id(pair)) or Interval(*pair)


def clarke_jacobian_bounds(
    exprs: Sequence[Expr],
    box: Box,
    overrides: dict[tuple[int, int], Interval] | None = None,
) -> JacobianBounds:
    """Symbolic Clarke differentiation + natural interval evaluation.

    Each row runs its tape's compiled Clarke pass (`Tape.clarke`) once over
    the box.  overrides replaces individual (row, col) entries, e.g. with
    tighter analytically-known bounds from a model file.  A row whose
    entries are all overridden is never evaluated.  A row that reads a
    variable outside the box raises DimensionMismatch.  Every entry that the
    pass gives as the pair Z is the shared ZERO_PARTIAL, and every partial it
    folded to a constant is an entry built when it compiled (`Tape.clarke`),
    the same object on every call; each entry is still checked for bounds
    unbounded on both sides on every call.
    """
    n_z = len(box)
    rows = []
    bad = []
    for i, e in enumerate(exprs):
        if e.tape.max_var >= n_z:
            raise DimensionMismatch(f"row {i} references variable outside box")
        fixed = _row_overrides(overrides, i, n_z)
        if len(fixed) < n_z:
            run = e.tape.clarke
            default, partials = run(box.dims)
        row = []
        shared = None  # the default's entry, built where a column first reads it
        for j in range(n_z):
            if j in fixed:
                row.append(fixed[j])
            elif j in partials:
                row.append(_entry(partials[j], run.entries))
            else:
                if shared is None:
                    shared = _entry(default, run.entries)
                row.append(shared)
        bad += [(i, j) for j, entry in enumerate(row)
                if entry is not ZERO_PARTIAL and entry.unbounded_both]
        rows.append(tuple(row))
    if bad:
        raise UnboundedBothSides(f"Clarke bounds unbounded on both sides at {bad}")
    return JacobianBounds(tuple(rows))


# ---------------------------------------------------------------------------
# The tape: each tree lowered once, interpreted four ways
# ---------------------------------------------------------------------------

def _fsum(terms: Sequence[float]) -> float:
    try:
        return math.fsum(terms)
    except (OverflowError, ValueError):
        return sum(terms)  # an overflow gives inf or nan, as float + does


def _same(value):
    return value


class _Unit:
    def __mul__(self, other):  # one * x is x, whatever x is
        return other


_UNIT = _Unit()
_fold_add = partial(reduce, operator.add)  # a left fold of +, called from C

# op -> code of each value, bound to each name table below.  {0} and {1} are
# the children, which read a constant as c<k> and a variable as z[j], {arg}
# the exponent, and {kids} and {prod} the children joined by ", " and " * ".
_POINT_CODE = {
    "neg": "-{0}", "sin": "sin({0})", "cos": "cos({0})", "exp": "exp({0})",
    "sqrt": "sqrt({0})", "arctan": "atan({0})", "abs": "abs({0})",
    "pow": "pow_float({0}, {arg})", "div": "div({0}, {1})",
    "min": "min({0}, {1})", "max": "max({0}, {1})", "sum": "fsum(({kids},))",
    "prod": "one * {prod}",  # one is 1.0 for points, so integer inputs give a float
}
_POINT_NAMES = {
    "sin": math.sin, "cos": math.cos, "exp": _exp_float, "sqrt": math.sqrt, "atan": math.atan,
    "pow_float": _pow_float, "fsum": _fsum, "div": operator.truediv, "one": 1.0,
}
# the interval operators round each endpoint outward (see interval.py)
_INTERVAL_NAMES = {
    "sin": isin, "cos": icos, "exp": iexp, "sqrt": isqrt, "atan": iarctan, "abs": iabs,
    "pow_float": ipow, "fsum": _fold_add, "div": operator.truediv, "min": imin, "max": imax,
    "one": _UNIT,
}
# numpy's functions, with sums, products and quotients as for intervals; z is
# the (n_vars, n_points) array of columns, and a constant a 1-entry array
_VEC_NAMES = {
    **_INTERVAL_NAMES, "sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt,
    "atan": np.arctan, "abs": np.abs, "pow_float": lambda x, n: x ** float(n),
    "min": np.minimum, "max": np.maximum,
}


def _raises(op: str, arg) -> bool:
    """Whether op's value or slope can raise."""
    return op in ("div", "sqrt") or op == "pow" and arg < 0


class Tape:
    """An expression tree lowered to a flat post-order list of nodes.

    nodes[k] is (op, arg, kids): kids are the slots of earlier nodes, arg is
    the constant, variable index or exponent (None for other ops), and the
    root is the last node.  `point` is straight-line code compiled on first
    use, one local t<k> per node that is not a leaf; `interval` and `vec`
    bind its code object to other operators.  `clarke` is a forward pass that
    carries every node's partials sparsely: a default plus one local per
    column its subtree reads, so at most one line per node and column.
    """

    def __init__(self, root: Expr):
        nodes: list[tuple[str, object, tuple[int, ...]]] = []

        def lower(e: Expr) -> int:
            if isinstance(e, Const):
                node = ("const", e.value, ())
            elif isinstance(e, Var):
                node = ("var", e.index, ())
            elif isinstance(e, Unary):
                node = (e.op, None, (lower(e.child),))
            elif isinstance(e, Pow):
                node = ("pow", e.exponent, (lower(e.child),))
            elif isinstance(e, Div):
                node = ("div", None, (lower(e.num), lower(e.den)))
            elif isinstance(e, Binary):
                node = (e.op, None, (lower(e.left), lower(e.right)))
            elif isinstance(e, (Sum, Prod)):
                op = "sum" if isinstance(e, Sum) else "prod"
                node = (op, None, tuple(lower(c) for c in e.children))
            else:
                raise TypeError(f"unknown node {e!r}")
            nodes.append(node)
            return len(nodes) - 1

        lower(root)
        self.nodes = tuple(nodes)
        self.max_var = max((arg for op, arg, _ in nodes if op == "var"), default=-1)

    def _ref(self, k: int) -> str:
        """How the code reads node k's value: a leaf in place, else t<k>."""
        op, arg, _ = self.nodes[k]
        return f"c{k}" if op == "const" else f"z[{arg}]" if op == "var" else f"t{k}"

    def _value(self, k: int) -> str:
        op, arg, kids = self.nodes[k]
        a = [self._ref(c) for c in kids]
        return _POINT_CODE[op].format(*a, arg=arg, kids=", ".join(a), prod=" * ".join(a))

    def _namespace(self, names: dict, constant) -> dict:
        """names, and c<k> for each constant: constant of its value."""
        return {**names, **{f"c{k}": constant(arg) for k, (op, arg, _) in enumerate(self.nodes)
                            if op == "const"}}

    def _compile(self, namespace: dict, lines: list[str] | None = None):
        """def run(z) with the body lines, or else the point code, over namespace."""
        if lines is None:
            return types.FunctionType(self.point.__code__, namespace)
        exec("\n".join(["def run(z):", *(f"    {line}" for line in lines)]), namespace)
        return namespace["run"]

    @cached_property
    def point(self):
        """z -> the value at the point z."""
        lines = [f"t{k} = {self._value(k)}" for k, (op, _, _) in enumerate(self.nodes)
                 if op not in ("const", "var")]
        ret = f"return {self._ref(len(self.nodes) - 1)}"
        return self._compile(self._namespace(_POINT_NAMES, _same), [*lines, ret])

    @cached_property
    def interval(self):
        """box.dims -> the natural interval value over the box."""
        return self._compile(self._namespace(_INTERVAL_NAMES, Interval.point))

    @cached_property
    def vec(self):
        """cols -> the values at the columns' points (1 value without variables)."""
        return self._compile(self._namespace(_VEC_NAMES, partial(np.full, 1)))

    @cached_property
    def clarke(self):
        """box.dims -> (default, partials), every Clarke partial of the root.

        partials[j] bounds the j-th partial as a (lo, hi) pair, and every
        column missing from it equals default.  The code computes the
        interval values the rules read (_POINT_CODE), then per node its
        factor (_CLARKE_CODE) and its partial in its default column and in
        every column its subtree reads.  Partials that are zero by
        construction are folded, not computed (see _VANISH).  A product by
        the unit pair and a one-term sum are one normalizing xnorm, and a
        product with one nonzero term is its chain of xmul.

        Every line whose inputs are all known when the code is generated
        (the constants, Z, ONE and earlier such lines) is evaluated then,
        through _CLARKE_NAMES, and its value is bound by the line's name; a
        line that raises is left in place, to raise when called.  Then a
        backward liveness pass keeps the lines the returned partials read,
        and each line that can raise (_raises) with the lines it reads, so
        every error stays, in order; every other interval operator returns an
        Interval for any Interval, its ends in the extended reals.

        The function carries `folded`, the values it reads in place of
        lines, and `entries`, the prebuilt Interval of Z, ONE and each
        folded partial it returns, keyed by the id of the pair.
        """
        nodes = self.nodes
        # A node's interval value is computed only below an op that reads
        # values.  Evaluating any other node could raise where the partials
        # are well defined: 1/x1 over a box holding 0.
        needed = [False] * len(nodes)
        for k in reversed(range(len(nodes))):
            op, _, kids = nodes[k]
            for c in kids:
                needed[c] = needed[k] or _CLARKE_CODE[op][0] is not None
        # known holds every value known now, folded those of folded lines;
        # zero the names certain to hold a (signed) zero pair, and normal
        # those whose pairs hold no -0.0
        known = {"Z": _Z, "ONE": _ONE, **self._namespace({}, Interval.point)}
        refs = [self._ref(k) for k in range(len(nodes))]
        folded: dict = {}
        zero, normal = {"Z"}, {"ONE"}
        lines: list = []  # (name, template over {0}, {1}, ..., the args, stays unread)

        def emit(name: str, template: str, args: list, stays: bool = False) -> str:
            if all(map(known.__contains__, args)):
                try:
                    value = _folder(template, len(args))(*[known[a] for a in args])
                except (DomainError, ArithmeticError, ValueError):
                    pass  # the compiled code raises it, in its place
                else:
                    known[name] = folded[name] = value
                    if value == _Z:
                        zero.add(name)
                    return name
            lines.append((name, template, args, stays))
            if template.startswith(("xnorm(", "xsum(", "xprod(")):
                normal.add(name)
            return name

        def is_one(x) -> bool:
            return isinstance(x, str) and known.get(x) == _ONE

        pairs: dict = {}

        def pair(c: int):
            """Node c's value as a (lo, hi) pair: a name if known, else a part to _nest."""
            if c not in pairs:
                ref = refs[c]
                pairs[c] = emit(f"v{c}", "xfrom({0})", [ref]) if ref in known else ("xfrom({0})", [ref])
            return pairs[c]

        def chain(name: str, term: str, factors: list) -> str:
            """_xprod with one nonzero term: the term times each factor in turn,
            then normalized as its _xadd(Z, .) does."""
            if not factors:
                return emit(name, "xnorm({0})", [term])
            for s, f in enumerate(factors):
                last = s == len(factors) - 1
                if is_one(term) or is_one(f):
                    step = _nest("xnorm({0})", f if is_one(term) else term)
                else:
                    step = _nest("xnorm(xmul({0}, {1}))" if last else "xmul({0}, {1})", term, f)
                term = emit(name if last else f"{name}_{s}", *step)
            return term

        for k, (op, arg, kids) in enumerate(nodes):
            if needed[k] and op not in ("const", "var"):
                emit(f"t{k}", _fields(_POINT_CODE[op], len(kids), arg),
                     [refs[c] for c in kids], _raises(op, arg))
        # local[k][j] names the local holding node k's partial in column j,
        # and local[k][None] the one holding its default
        local: list[dict] = []
        for k, (op, arg, kids) in enumerate(nodes):
            if op in ("const", "var"):
                local.append({None: "Z", arg: "ONE"} if op == "var" else {None: "Z"})
                continue
            factor, apply = _CLARKE_CODE["pow0" if op == "pow" and arg == 0 else op]
            values = [refs[c] for c in kids]
            terms = []  # a product's xprod lines, each with the kids whose partial is not Z
            f = f"f{k}"
            if op == "prod":
                lines.append((f, None, ([pair(c) for c in kids], terms), False))
            elif op == "div":
                emit(f, "ipow({0}, 2)", values[1:])
            elif factor is not None:
                emit(f, _fields(factor, len(kids), arg), values, _raises(op, arg))
            here = {}
            for j in [None, *sorted(set().union(*(local[c] for c in kids)) - {None})]:
                a = [local[c].get(j, local[c][None]) for c in kids]
                name = f"d{k}" if j is None else f"p{k}_{j}"
                nonzero = [i for i, x in enumerate(a) if x not in zero]
                if op in _VANISH and not nonzero or apply == "Z":  # Z: x^0's rule
                    here[j] = "Z"
                elif op == "sum" and len(nonzero) == 1:  # _xsum(x) is _xadd(Z, x)
                    x = a[nonzero[0]]
                    here[j] = x if x in normal else emit(name, "xnorm({0})", [x])
                elif op == "sum":
                    here[j] = emit(name, _fields(apply, len(nonzero)), [a[i] for i in nonzero])
                elif op == "prod" and len(nonzero) == 1:
                    i = nonzero[0]
                    here[j] = chain(name, a[i], [pair(c) for n, c in enumerate(kids) if n != i])
                elif op == "prod":
                    a = ["Z" if x in zero else x for x in a]
                    here[j] = emit(name, _fields(apply, len(a)), [*a, f])
                    terms.append((name, nonzero))
                elif op == "div":
                    du, dv = (None if x in zero else "ONE" if is_one(x) else x for x in a)
                    here[j] = emit(name, *_quotient_rule(du, dv, pair(kids[0]), pair(kids[1]), f))
                elif apply == "xmul({f}, {0})" and is_one(a[0]):
                    here[j] = emit(name, "xnorm({0})", [f])
                else:
                    args = a if factor is None else [*a, f]
                    here[j] = emit(name, _fields(apply, len(a)), args)
                if not nonzero:
                    zero.add(here[j])
            local.append(here)
        root = local[-1]
        partials = ", ".join(f"{j}: {name}" for j, name in root.items() if j is not None)
        ret = f"return {root[None]}, {{{partials}}}"
        live, kept = {*root.values()}, []
        for name, template, args, stays in reversed(lines):
            if stays or name in live:
                if template is None:  # a product's factors: term i reads all but factor i
                    factors, terms = args
                    read = {i for term, kids in terms if term in live for i in kids}
                    parts = [x if read - {c} else "Z" for c, x in enumerate(factors)]
                    template, args = _nest("".join(f"{{{c}}}, " for c in range(len(parts))), *parts)
                live.update(args)
                kept.append(f"{name} = {template.format(*args)}")
        bound = {name: value for name, value in folded.items() if name in live}
        run = self._compile({**_CLARKE_NAMES, **{name: known[name] for name in live if name in known}},
                            [*reversed(kept), ret])
        run.folded, run.entries = bound, dict(_PREBUILT)
        for value in (bound[name] for name in root.values() if name in bound):
            if id(value) not in run.entries:
                try:
                    run.entries[id(value)] = Interval(*value)
                except DomainError:  # inverted or NaN: every call raises it
                    pass
        return run


@lru_cache(maxsize=1024)
def _fields(template: str, n: int, arg=None) -> str:
    """template over n kids as one over {0}, ..., {n-1}: {kids} and {prod}
    join them all, {f} is field n and {arg} is filled in."""
    ph = [f"{{{i}}}" for i in range(n)]
    return template.format(*ph, arg=arg, kids=", ".join(ph), prod=" * ".join(ph), f=f"{{{n}}}")


def _nest(template: str, *parts) -> tuple[str, list]:
    """template over parts, each a name or a (template, args) part, as one
    (template, args) part."""
    codes, args = [], []
    for part in parts:
        code, names = part if isinstance(part, tuple) else ("{0}", [part])
        codes.append(code.format(*[f"{{{len(args) + i}}}" for i in range(len(names))]))
        args += names
    return template.format(*codes), args


def _quotient_rule(du, dv, u, v, w) -> tuple[str, list]:
    """(u'v - uv') / w over the pairs u and v and w = v^2, with u' and v'
    None where zero and "ONE" where the unit pair (not both None)."""
    if du is not None:
        left = _nest("xnorm({0})", v) if du == "ONE" else _nest("xmul({0}, {1})", du, v)
    if dv is not None:
        right = _nest("xnorm({0})", u) if dv == "ONE" else _nest("xmul({0}, {1})", u, dv)
    if dv is None:
        num = left  # _xadd(X, _xneg(Z)) is X bit for bit
    elif du is None:
        num = _nest("xnorm(xneg({0}))", right)  # _xadd(Z, X) is _xnorm(X)
    else:
        num = _nest("xadd({0}, xneg({1}))", left, right)
    return _nest("xdiv_pos({0}, {1})", num, w)


@lru_cache(maxsize=1024)
def _folder(template: str, n: int):
    """template over n args as a function of them, reading _CLARKE_NAMES."""
    params = [f"a{i}" for i in range(n)]
    code = compile(f"lambda {', '.join(params)}: {template.format(*params)}", "<fold>", "eval")
    return types.FunctionType(next(c for c in code.co_consts if isinstance(c, types.CodeType)),
                              _CLARKE_NAMES)


# A Clarke partial during the forward pass: (lo, hi) in the extended reals.
_Pair = tuple[float, float]
_Z: _Pair = (0.0, 0.0)
_ONE: _Pair = (1.0, 1.0)
_xfrom = operator.attrgetter("lo", "hi")  # an interval's (lo, hi) pair
# the entries of the pairs Z and ONE (clarke_jacobian_bounds)
_PREBUILT = {id(_Z): ZERO_PARTIAL, id(_ONE): _ONE_PARTIAL}


def _clip_overflow(value: float, *operands: float) -> float:
    """Clamp the overflow of finite operands to +-MAXF, where
    interval.outward would round one side to +-inf; keep a result that an
    infinite operand makes infinite.  Only the pair operators clamp."""
    if math.isinf(value) and all(math.isfinite(x) for x in operands):
        return math.copysign(_MAXF, value)
    return value


def _xadd(a: _Pair, b: _Pair) -> _Pair:
    lo = -_INF if (a[0] == -_INF or b[0] == -_INF) else _clip_overflow(a[0] + b[0], a[0], b[0])
    hi = _INF if (a[1] == _INF or b[1] == _INF) else _clip_overflow(a[1] + b[1], a[1], b[1])
    return (lo, hi)


def _xneg(a: _Pair) -> _Pair:
    return (-a[1], -a[0])


def _corner(a: float, b: float) -> float:
    # 0 * inf contributes 0 to corner enumeration (exact-zero endpoint)
    if a == 0.0 or b == 0.0:
        return 0.0
    return _clip_overflow(a * b, a, b)


def _xmul(a: _Pair, b: _Pair) -> _Pair:
    c = (_corner(a[0], b[0]), _corner(a[0], b[1]),
         _corner(a[1], b[0]), _corner(a[1], b[1]))
    return (min(c), max(c))


def _xdiv_pos(a: _Pair, den: Interval) -> _Pair:
    """a / den for den with den.lo >= 0 (den.lo == 0 yields infinite sides)."""
    if den.lo > 0.0:
        c = tuple(
            _clip_overflow(num / d, num, d) if math.isfinite(num) else num
            for num in a
            for d in (den.lo, den.hi)
        )
        return (min(c), max(c))
    if den.hi == 0.0:
        # derivative through a flat sqrt(0) point: unbounded wherever a != 0
        lo = -_INF if a[0] < 0.0 else 0.0
        hi = _INF if a[1] > 0.0 else 0.0
        return (lo, hi)
    lo = -_INF if a[0] < 0.0 else (0.0 if a[0] == 0.0 else a[0] / den.hi)
    hi = _INF if a[1] > 0.0 else (0.0 if a[1] == 0.0 else a[1] / den.hi)
    return outward(lo, hi)  # a / den.hi past the largest float is no lower end


def _xsum(*terms: _Pair) -> _Pair:
    acc = _Z
    for d in terms:
        # acc is never -0.0, so adding a (signed) zero leaves it unchanged
        if d != _Z:
            acc = _xadd(acc, d)
    return acc


def _xprod(factors: tuple[_Pair, ...], ds: tuple[_Pair, ...]) -> _Pair:
    """The product rule: sum over i of ds[i] times every factor but the i-th."""
    acc = _Z
    for i, d in enumerate(ds):
        if d == _Z:
            continue  # a zero partial times anything is (0.0, 0.0)
        term = d
        for k, f in enumerate(factors):
            if k != i:
                term = _xmul(term, f)
        acc = _xadd(acc, term)
    return acc


def _xkink(d: _Pair) -> _Pair:
    return _xmul((-1.0, 1.0), d)


def _first(a: _Pair, b: _Pair) -> _Pair:
    return a


def _second(a: _Pair, b: _Pair) -> _Pair:
    return b


def _xhull(a: _Pair, b: _Pair) -> _Pair:
    return (min(a[0], b[0]), max(a[1], b[1]))


def _abs_rule(u: Interval):
    """sign(u) * u'; the kink at 0 contributes conv{+-u'}."""
    return _same if u.lo > 0.0 else _xneg if u.hi < 0.0 else _xkink


def _min_rule(u: Interval, v: Interval):
    """Where no branch wins outright they can tie: the hull of both."""
    return _first if u.hi < v.lo else _second if v.hi < u.lo else _xhull


def _max_rule(u: Interval, v: Interval):
    return _first if u.lo > v.hi else _second if v.lo > u.hi else _xhull


def _xnorm(a: _Pair) -> _Pair:
    """a with each -0.0 made 0.0: _xmul(a, _ONE) and _xsum(a), exactly."""
    return (a[0] + 0.0, a[1] + 0.0)


# op -> (factor, apply) code for the compiled Clarke pass.  The factor line
# runs once per node and reads the children's interval values {0} and {1};
# None means the rule reads no values, and "" that Tape.clarke builds it: a
# product's factors as (lo, hi) pairs, or Z where no live term reads one,
# and a quotient's v^2 (the quotient rule is _quotient_rule).  The apply line
# runs for the node's default and for each column its subtree reads; it reads
# the children's partials in that column, {0} and {1} or all of them as
# {kids}, and the factor {f}.  A rule whose branch depends on the values
# (abs, min, max) picks its apply function in the factor line through a rule
# function, which the lane binding (lanes.py) replaces by one that picks per
# lane.  The interval values the factor lines read are rounded outward; the
# pair arithmetic of the partials (_xadd, _xmul, _xdiv_pos) still rounds to
# nearest, and clamps a finite overflow (_clip_overflow).
_CLARKE_CODE = {
    "neg": (None, "xneg({0})"),
    "sum": (None, "xsum({kids})"),
    "sin": ("xfrom(icos({0}))", "xmul({f}, {0})"),
    "cos": ("xneg(xfrom(isin({0})))", "xmul({f}, {0})"),
    "exp": ("xfrom(iexp({0}))", "xmul({f}, {0})"),
    "arctan": ("unit + ipow({0}, 2)", "xdiv_pos({0}, {f})"),
    "sqrt": ("isqrt({0}).scale(2.0)", "xdiv_pos({0}, {f})"),
    "abs": ("abs_rule({0})", "{f}({0})"),
    "pow": ("xfrom(ipow({0}, {arg} - 1).scale({arg}.0))", "xmul({f}, {0})"),
    "pow0": (None, "Z"),  # x^0 is constant
    "div": ("", None),
    "min": ("min_rule({0}, {1})", "{f}({0}, {1})"),
    "max": ("max_rule({0}, {1})", "{f}({0}, {1})"),
    "prod": ("", "xprod({f}, ({kids},))"),
}
# Tape.clarke folds and rewrites partials on four facts about the pair
# operators that any change to them must keep:
# - _corner gives an exact 0.0 for any zero operand, so _xmul with a (signed)
#   zero pair is exactly Z; so is every rule of _VANISH whose partials are
#   all zero (div: _xdiv_pos of _xadd(Z, _xneg(Z)) over v^2 >= 0);
# - _xsum and _xprod skip +-0 terms, so a zero term can be left out of a
#   sum, and passed to a product as Z;
# - _xadd(X, (-0.0, -0.0)) is X bit for bit, so the quotient rule with a
#   zero denominator partial is u'v / v^2 alone;
# - x * 1 and 0.0 + x are exact, so _xmul(X, ONE), _xsum(X) and _xadd(Z, X)
#   are _xnorm(X), and _xprod with one nonzero term is its _xmul chain,
#   normalized.
# The rules of the other ops map zero partials to a zero pair whose signs
# they decide (_xneg(Z) is (-0.0, -0.0)), so those lines stay where the
# root reads them.
_VANISH = {"sin", "cos", "exp", "pow", "div", "sum", "prod"}

_CLARKE_NAMES = {
    **_INTERVAL_NAMES, "isin": isin, "icos": icos, "iexp": iexp, "isqrt": isqrt,
    "ipow": ipow, "Z": _Z, "ONE": _ONE, "unit": Interval(1.0, 1.0),
    "xneg": _xneg, "xsum": _xsum, "xmul": _xmul, "xadd": _xadd, "xfrom": _xfrom,
    "xdiv_pos": _xdiv_pos, "xprod": _xprod, "xnorm": _xnorm, "abs_rule": _abs_rule,
    "min_rule": _min_rule, "max_rule": _max_rule,
}
