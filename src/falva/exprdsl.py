"""Lagrangian expression language.

Grammar (whitespace-insensitive)::

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right-associative
    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

Known functions: sin, cos, exp, log, sqrt, abs.  Any identifier is a free
variable; it must be bound in the evaluation environment or evaluation
fails.  Slot names are fixed by the problem dimension (qdot/q/tau in 1D,
qx/qy/q/x/y in 2D, qx1../q/x1.. in ND); the operators that consume a
Lagrangian enforce their slot sets.

Evaluation runs in real mode when every binding is real and in complex
mode otherwise.  Real mode raises on domain violations (sqrt/log of a
non-positive value, a negative base under a fractional power) instead of
silently switching branches; complex mode uses principal branches, and
takes a real-typed argument of sqrt, log or a general power as complex
when it holds a negative value (any other argument keeps its bits).
Bindings may be numpy arrays, in which case evaluation is elementwise and
errors carry the flat index of the first offending node.

Partial derivatives are exact: differentiating the expression tree gives a
derivative tree, built once per parse and variable, that the same
evaluator runs.  Domain checks and node indices therefore mean the same
for a derivative as for the value.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import EvalError, ExprSyntaxError, UnknownFunctionError

__all__ = [
    "LagrangianExpr",
    "parse",
    "serialize",
    "evaluate",
    "partial",
    "partials",
    "second_partials",
    "KNOWN_FUNCTIONS",
]

KNOWN_FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "abs")


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    child: object


@dataclass(frozen=True)
class Bin:
    op: str
    lhs: object
    rhs: object


@dataclass(frozen=True)
class Call:
    fn: str
    arg: object


@dataclass(frozen=True)
class LagrangianExpr:
    """Parsed expression tree plus the exact set of identifiers it uses.

    ``_derivatives`` caches the derivative trees by variable tuple.
    """

    ast: object
    free_vars: frozenset
    _derivatives: dict = field(default_factory=dict, compare=False, repr=False)


# ---------------------------------------------------------------------------
# Tokenizer / parser


_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
)


def _tokenize(source: str):
    """Yield (kind, text, offset) with 1-based offsets; append an EOF token."""
    tokens = []
    pos = 0
    n = len(source)
    while pos < n:
        ch = source[pos]
        if ch.isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {ch!r}", pos + 1)
        kind = m.lastgroup
        tokens.append((kind, m.group(), pos + 1))
        pos = m.end()
    tokens.append(("eof", "", n + 1))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse_expr(self):
        node = self.parse_term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            op = self.advance()[1]
            node = Bin(op, node, self.parse_term())
        return node

    def parse_term(self):
        node = self.parse_unary()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            op = self.advance()[1]
            node = Bin(op, node, self.parse_unary())
        return node

    def parse_unary(self):
        if self.peek()[:2] == ("op", "-"):
            self.advance()
            return Neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        if self.peek()[:2] == ("op", "^"):
            self.advance()
            return Bin("^", base, self.parse_unary())
        return base

    def parse_atom(self):
        kind, text, offset = self.peek()
        if kind == "num":
            self.advance()
            return Num(float(text))
        if kind == "ident":
            self.advance()
            if self.peek()[:2] == ("op", "("):
                if text not in KNOWN_FUNCTIONS:
                    raise UnknownFunctionError(
                        f"unknown function {text!r}", offset,
                        expected="one of " + ", ".join(KNOWN_FUNCTIONS))
                self.advance()
                arg = self.parse_expr()
                self._expect_close()
                return Call(text, arg)
            return Var(text)
        if (kind, text) == ("op", "("):
            self.advance()
            node = self.parse_expr()
            self._expect_close()
            return node
        if kind == "eof":
            raise ExprSyntaxError("unexpected end of input", offset,
                                  expected="a value")
        raise ExprSyntaxError(f"unexpected token {text!r}", offset,
                              expected="a value")

    def _expect_close(self):
        kind, text, offset = self.peek()
        if (kind, text) != ("op", ")"):
            raise ExprSyntaxError("unclosed parenthesis", offset, expected="')'")
        self.advance()


def _collect_vars(node, out):
    if isinstance(node, Var):
        out.add(node.name)
    elif isinstance(node, Neg):
        _collect_vars(node.child, out)
    elif isinstance(node, Bin):
        _collect_vars(node.lhs, out)
        _collect_vars(node.rhs, out)
    elif isinstance(node, Call):
        _collect_vars(node.arg, out)


def parse(source: str) -> LagrangianExpr:
    """Parse ``source`` into an expression tree.

    Syntax errors raise ExprSyntaxError with a 1-based byte offset; an
    unknown function name raises the distinct UnknownFunctionError.
    """
    if not isinstance(source, str) or not source.strip():
        raise ExprSyntaxError("empty expression", 1, expected="a value")
    parser = _Parser(_tokenize(source))
    ast = parser.parse_expr()
    kind, text, offset = parser.peek()
    if kind != "eof":
        raise ExprSyntaxError(f"unexpected trailing input {text!r}", offset)
    names = set()
    _collect_vars(ast, names)
    return LagrangianExpr(ast, frozenset(names))


def serialize(expr: LagrangianExpr) -> str:
    """Fully parenthesised text form; reparsing yields an identical tree."""
    return _ser(expr.ast)


def _ser(node) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"(-{_ser(node.child)})"
    if isinstance(node, Bin):
        return f"({_ser(node.lhs)} {node.op} {_ser(node.rhs)})"
    if isinstance(node, Call):
        return f"{node.fn}({_ser(node.arg)})"
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# Evaluation


def _is_complex_binding(v):
    return isinstance(v, complex) or np.iscomplexobj(v)


def _principal(x):
    """``x`` as complex if it is real-typed and holds a negative element, so
    that complex mode takes principal branches; otherwise ``x`` itself."""
    if _is_complex_binding(x) or not np.any(np.asarray(x) < 0):
        return x
    return np.asarray(x, dtype=np.complex128) if np.ndim(x) else complex(x)


def _bad_index(mask):
    mask = np.asarray(mask)
    if mask.ndim == 0:
        return None
    return int(np.argmax(mask.ravel()))


def _check(mask, message):
    """Raise EvalError if any element of ``mask`` is truthy."""
    if np.any(mask):
        idx = _bad_index(mask)
        where = "" if idx is None else f" (node {idx})"
        raise EvalError(message + where, index=idx)


def _int_literal(node):
    """Return the integer value of a literal exponent node, or None."""
    neg = False
    while isinstance(node, Neg):
        neg = not neg
        node = node.child
    if isinstance(node, Num) and float(node.value).is_integer():
        n = int(node.value)
        return -n if neg else n
    return None


def _intpow(x, n: int):
    """x**n by repeated multiplication (n a Python int, possibly negative)."""
    if n == 0:
        return 1.0
    if n < 0:
        return 1.0 / _intpow(x, -n)
    out = x
    for _ in range(n - 1):
        out = out * x
    return out


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "/": operator.truediv}

# ``sign`` only occurs in derivative trees, as the derivative of ``abs``
_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log,
              "sqrt": np.sqrt, "abs": np.abs, "sign": np.sign}


class _Evaluator:
    def __init__(self, env):
        self.env = env
        self.complex_mode = any(_is_complex_binding(v) for v in env.values())

    def eval(self, node):
        if isinstance(node, Num):
            return node.value
        if isinstance(node, Var):
            try:
                return self.env[node.name]
            except KeyError:
                raise EvalError(f"unbound variable {node.name!r}") from None
        if isinstance(node, Neg):
            return -self.eval(node.child)
        if isinstance(node, Bin):
            return self._binary(node)
        if isinstance(node, Call):
            return self._call(node)
        raise TypeError(f"not an expression node: {node!r}")

    def _binary(self, node):
        op = node.op
        if op == "^":
            return self._power(node)
        a = self.eval(node.lhs)
        b = self.eval(node.rhs)
        if op == "/":
            _check(b == 0, "division by zero")
        return _ARITH[op](a, b)

    def _power(self, node):
        base = self.eval(node.lhs)
        n = _int_literal(node.rhs)
        if n is not None:
            if n < 0:
                _check(base == 0, "zero base under a negative power")
            return _intpow(base, n)
        expo = self.eval(node.rhs)
        if self.complex_mode:
            _check(base == 0, "zero base under a general power")
            base = _principal(base)
        else:
            _check(np.real(base) < 0,
                   "negative base under a fractional power in real mode")
            zero = np.asarray(np.real(base) == 0)
            if np.any(zero):
                _check(zero & np.asarray(np.real(expo) <= 0),
                       "zero base under a non-positive power")
                return np.power(base, expo)  # 0^positive = 0, elementwise
        return np.exp(expo * np.log(base))

    def _call(self, node):
        arg = self.eval(node.arg)
        fn = node.fn
        if fn == "log":
            if self.complex_mode:
                _check(arg == 0, "log of zero")
            else:
                _check(np.real(arg) <= 0, "log of a non-positive value in real mode")
        elif fn == "sqrt" and not self.complex_mode:
            _check(np.real(arg) < 0, "sqrt of a negative value in real mode")
        if self.complex_mode and fn in ("log", "sqrt"):
            arg = _principal(arg)
        elif fn == "sign" and _is_complex_binding(arg):
            raise EvalError("abs is not differentiable for complex values")
        if fn not in _FUNCTIONS:
            raise UnknownFunctionError(f"unknown function {fn!r}", 1)
        return _FUNCTIONS[fn](arg)


def evaluate(expr: LagrangianExpr, env: dict):
    """Evaluate ``expr`` with the given bindings.

    Returns a scalar (or an array when bindings are arrays); dtype follows
    the bindings.  Unbound free variables, division by zero and real-mode
    domain violations raise EvalError.
    """
    return _Evaluator(env).eval(expr.ast)


# ---------------------------------------------------------------------------
# Differentiation
#
# The constructors fold 0*x, 1*x, 0/x, x+-0 and x^1, and compute an operator
# on two literals once, with the float operation the evaluator would do.  A
# structurally zero derivative is therefore never evaluated, so an overflow
# in a term that does not depend on the variable cannot poison it (inf*0).

_ZERO = Num(0.0)
_ONE = Num(1.0)


def _is(node, value) -> bool:
    return isinstance(node, Num) and node.value == value


def _bin(op, a, b):
    if isinstance(a, Num) and isinstance(b, Num) and not (op == "/" and b.value == 0):
        return Num(_ARITH[op](a.value, b.value))
    return Bin(op, a, b)


def _neg(a):
    return Num(-a.value) if isinstance(a, Num) else Neg(a)


def _add(a, b):
    if _is(a, 0):
        return b
    if _is(b, 0):
        return a
    return _bin("+", a, b)


def _sub(a, b):
    if _is(b, 0):
        return a
    if _is(a, 0):
        return _neg(b)
    return _bin("-", a, b)


def _mul(a, b):
    if _is(a, 0) or _is(b, 0):
        return _ZERO
    if _is(a, 1):
        return b
    if _is(b, 1):
        return a
    return _bin("*", a, b)


def _div(a, b):
    return _ZERO if _is(a, 0) else _bin("/", a, b)


def _pow(a, n: int):
    if n == 0:
        return _ONE
    return a if n == 1 else Bin("^", a, Num(float(n)))


def _d(node, var):
    """Derivative tree of ``node`` with respect to the variable ``var``."""
    if isinstance(node, Num):
        return _ZERO
    if isinstance(node, Var):
        return _ONE if node.name == var else _ZERO
    if isinstance(node, Neg):
        return _neg(_d(node.child, var))
    if isinstance(node, Call):
        a = node.arg
        da = _d(a, var)
        fn = node.fn
        if fn == "sign" or _is(da, 0):  # sign is piecewise constant
            return _ZERO
        if fn == "sin":
            return _mul(Call("cos", a), da)
        if fn == "cos":
            return _mul(Neg(Call("sin", a)), da)
        if fn == "exp":
            return _mul(node, da)
        if fn == "log":
            return _div(da, a)
        if fn == "sqrt":
            return _div(da, _mul(Num(2.0), node))
        if fn == "abs":
            return _mul(Call("sign", a), da)
        raise UnknownFunctionError(f"unknown function {fn!r}", 1)
    a, b = node.lhs, node.rhs
    da, db = _d(a, var), _d(b, var)
    if node.op == "+":
        return _add(da, db)
    if node.op == "-":
        return _sub(da, db)
    if node.op == "*":
        return _add(_mul(a, db), _mul(da, b))
    if node.op == "/":
        if _is(db, 0):
            return _div(da, b)
        return _div(_sub(_mul(da, b), _mul(a, db)), _mul(b, b))
    n = _int_literal(b)
    if n is not None:
        return _mul(_mul(Num(float(n)), _pow(a, n - 1)), da) if n else _ZERO
    # a^b = exp(b log a), so that a zero base fails in da/a or in log(a)
    return _mul(node, _add(_mul(b, _div(da, a)), _mul(db, Call("log", a))))


def _derivative(expr: LagrangianExpr, variables: tuple):
    """Tree of the partial of ``expr`` by ``variables[0]``, then by each
    following variable; built on first use and kept on ``expr``."""
    tree = expr._derivatives.get(variables)
    if tree is None:
        inner = expr.ast if len(variables) == 1 else _derivative(expr, variables[:-1])
        tree = expr._derivatives[variables] = _d(inner, variables[-1])
    return tree


def partial(expr: LagrangianExpr, var: str, env: dict):
    """Exact first partial derivative of ``expr`` with respect to ``var``.

    The value is evaluated first, so its domain errors are raised as by
    ``evaluate``.  Returns exactly 0.0 when ``var`` does not occur in the
    expression; like ``evaluate``, a derivative that depends on no binding
    is a scalar.
    """
    if var not in expr.free_vars:
        return 0.0
    return partials(expr, [(var,)], env)[1]


def partials(expr: LagrangianExpr, variable_tuples, env: dict) -> list:
    """Return [value, d1, d2, ...]: the value, then the partial of ``expr``
    by each variable tuple in the order given (``(b, a)`` is d/da of dL/db).

    One evaluator runs the value first, so its domain errors come first,
    and then each cached derivative tree once, in order.
    """
    ev = _Evaluator(env)
    return [ev.eval(expr.ast)] + [ev.eval(_derivative(expr, v))
                                  for v in variable_tuples]


def second_partials(expr: LagrangianExpr, var_a: str, var_b: str, env: dict):
    """Return (value, dL/da, dL/db, d2L/dadb), the last as d/da of dL/db."""
    value, d_b, d_a, d_ab = partials(expr, [(var_b,), (var_a,), (var_b, var_a)],
                                     env)
    return value, d_a, d_b, d_ab
