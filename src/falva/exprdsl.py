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
every real-typed argument of sqrt, log or a general power is taken as
complex.  Bindings may be numpy arrays, in which case evaluation is
elementwise: the value at a node depends on that node alone, never on
the others.  Errors carry the flat index of the first offending node.

``parse`` returns one shared expression per source text: the last
``_PARSED_TEXTS`` texts are kept, so a text parsed again, by a later CLI
call or a library call, reuses its expression with the derivative trees
and compiled programs built for it so far.  An expression is immutable;
what it caches are functions of its tree alone.

Partial derivatives are exact: differentiating the expression tree gives a
derivative tree, built once per parsed text and variable.

Evaluation is compiled.  The value tree and the requested derivative trees
are hash-consed into one DAG (a literal is keyed by its bits, so 0.0 and
-0.0 stay apart) and emitted as one straight-line Python function of the
bindings, built on first use and kept on the expression per variable-tuple
list and mode.  Each distinct operation runs once, in the order in which a
walk of the value tree and then of each derivative tree first meets it,
and each variable is looked up at its first occurrence.  Each domain check
runs just before its operation, so values keep their bits and the first
error keeps its message and node index; the one check dropped is the
division check of a nonzero literal divisor, which cannot fire.  Domain
checks and node indices therefore mean the same for a derivative as for
the value.

A caller inside the package can ask for a pruned program that returns only
some of the entries (the RK4 field reads five of its seven, and the partial
fields of the residuals and the minimizer all but the value).  The trees
are walked in the same order, and an operation is emitted only if a
returned entry or a check reads it; every check, every variable lookup and
every helper that can raise keeps its place.  A pruned program therefore
returns its entries with the bits of the full program and fails with the
same first error (type, message and node index).  It can also be a
function of positional parameters instead of a dictionary: a variable
named by a parameter is read from it, with no lookup, and the program
returns one expression of its entries and parameters.  The shooting
integrator's field is such a program of an RK4 stage's (qdot, q, tau) and
damping, and returns the stage's force and d2L/dqdot^2.  ``evaluate``,
``partial``, ``partials`` and ``second_partials`` run the full program.

Such a program can also be compiled in float mode, for Python float
parameters in real mode.  A float program runs the same IEEE operations in
the same order and returns Python floats with the bits of the array
program at every node (a NaN may differ in its sign bit), or
raises its first EvalError without a node index.  The shooting integrator
inlines its lines into one RK4 loop per Lagrangian, and calls it to
replay a step with every stage checked.
"""

from __future__ import annotations

import functools
import math
import operator
import re
import struct
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

    ``_derivatives`` caches the derivative trees by variable tuple, and
    ``_programs`` the compiled programs by variable tuples, mode, returned
    entries and signature.  ``parse`` shares one expression among all the
    callers of a source text, and keeps these caches with it: the tree and
    its identifiers never change, and each cached entry is a function of
    the tree alone, so a warm expression computes the bits of a cold one.
    """

    ast: object
    free_vars: frozenset
    _derivatives: dict = field(default_factory=dict, compare=False, repr=False)
    _programs: dict = field(default_factory=dict, compare=False, repr=False)


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
    """Recursive-descent parser; ``names`` gathers the variables it reads."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.names = set()

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
            self.names.add(text)
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


# source texts whose parse ``parse`` keeps, least recently used first out
_PARSED_TEXTS = 128


def parse(source: str) -> LagrangianExpr:
    """Parse ``source`` into an expression tree.

    The expression is shared: a text parsed again returns the same
    immutable ``LagrangianExpr``, with the derivative trees and compiled
    programs built for it so far (the last ``_PARSED_TEXTS`` texts are
    kept).  Syntax errors raise ExprSyntaxError with a 1-based byte offset;
    an unknown function name raises the distinct UnknownFunctionError.  A
    text that nests too deeply for Python's recursion limit raises
    ExprSyntaxError as well, here or when a derivative or program of it is
    first built (``_program``).  A failed parse is not kept.
    """
    # checked before the cache lookup, which would raise TypeError on an
    # unhashable value
    if not isinstance(source, str) or not source.strip():
        raise ExprSyntaxError("empty expression", 1, expected="a value")
    return _parsed(source)


@functools.lru_cache(maxsize=_PARSED_TEXTS)
def _parsed(source: str) -> LagrangianExpr:
    """The expression of a non-blank ``source``, built once per kept text."""
    parser = _Parser(_tokenize(source))
    try:
        ast = parser.parse_expr()
    except RecursionError:
        raise ExprSyntaxError("expression nests too deeply",
                              parser.peek()[2]) from None
    kind, text, offset = parser.peek()
    if kind != "eof":
        raise ExprSyntaxError(f"unexpected trailing input {text!r}", offset)
    return LagrangianExpr(ast, frozenset(parser.names))


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
    """``x`` as complex, so that complex mode takes principal branches at
    every node; a complex ``x`` is returned as it is."""
    if _is_complex_binding(x):
        return x
    return np.asarray(x, dtype=np.complex128) if np.ndim(x) else complex(x)


def _check(mask, message):
    """Raise EvalError if any element of ``mask`` is truthy.  An array mask
    reports the flat index of its first truthy element; a scalar mask (a
    comparison of floats) is tested without a numpy call."""
    if not isinstance(mask, np.ndarray):
        if mask:
            raise EvalError(message)
    elif mask.any():
        idx = None if mask.ndim == 0 else int(np.argmax(mask.ravel()))
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
        p = _intpow(x, -n)
        try:
            return 1.0 / p
        except ZeroDivisionError:  # a float power that underflowed to zero
            return 1.0 / np.float64(p)  # a signed inf, as numpy divides
    out = x
    for _ in range(n - 1):
        out = out * x
    return out


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "/": operator.truediv}

# ``sign`` only occurs in derivative trees, as the derivative of ``abs``
_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log,
              "sqrt": np.sqrt, "abs": np.abs, "sign": np.sign}


def _unbound(name):
    raise EvalError(f"unbound variable {name!r}") from None


def _sign(x):
    if _is_complex_binding(x):
        raise EvalError("abs is not differentiable for complex values")
    return np.sign(x)


def _real_power(base, expo):
    """base^expo in real mode for an exponent that is not an integer literal:
    ``np.power`` at every node, after its two domain checks."""
    _check(np.real(base) < 0, "negative base under a fractional power in real mode")
    _check((np.real(base) == 0) & (np.real(expo) <= 0),
           "zero base under a non-positive power")
    return np.power(base, expo)


def _complex_power(base, expo):
    """base^expo in complex mode, on the principal branch."""
    _check(base == 0, "zero base under a general power")
    return np.exp(expo * np.log(_principal(base)))


# the names a compiled program calls; a float program raises EvalError
# itself and takes sqrt from math, which rounds as correctly as numpy
_RUNTIME = {"_check": _check, "_unbound": _unbound, "_principal": _principal,
            "_intpow": _intpow, "_real_power": _real_power,
            "_complex_power": _complex_power, "_sign": _sign,
            "EvalError": EvalError, "_float_sqrt": math.sqrt,
            **{"_" + name: fn for name, fn in _FUNCTIONS.items() if name != "sign"}}

# the largest integer power a float program writes out as a product
_WRITTEN_POWER = 16


class _Compiler:
    """Hash-conses expression trees into the body of one straight-line
    function of ``env``, or of the positional ``params`` (see ``_compile``).

    A node's key is its operation and the registers of its operands, and a
    literal's key is its bits (``0.0`` and ``-0.0`` stay apart).  The trees
    are walked in evaluation order, children first, and each distinct
    operation is emitted once, at its first occurrence, with its checks just
    before it.  A check that would pass at a later occurrence passed at the
    first, so the first error keeps its place.
    """

    def __init__(self, complex_mode: bool, params=None, floats=False):
        self.complex_mode = complex_mode
        self.params = params  # None: the variables are looked up in env
        self.floats = floats  # a float program (see ``_compile``)
        # (register, check, lines, operands, raises) of each operation
        self.ops = []
        self.names = {}  # literal name -> value, bound in the program's namespace
        self.refs = {}  # key -> operand text
        self.seen = {}  # id(node) -> operand text, so a shared subtree is walked once

    def _literal(self, value):
        key = ("num", struct.pack("<d", value))
        if key not in self.refs:
            name = self.refs[key] = f"k{len(self.names)}"
            self.names[name] = value
        return self.refs[key]

    def _emit(self, key, operands, lines, check=None, raises=False):
        """Register for ``key``.  The first time, the operation is recorded
        as its value ``lines``, with ``{r}`` for the register, and its
        ``check``: None or an (operand, condition, message) triple that runs
        just before them.  ``raises`` marks value lines that can fail."""
        ref = self.refs.get(key)
        if ref is None:
            ref = self.refs[key] = f"r{len(self.refs)}"
            if check is not None:
                operand, condition, message = check
                check = operand, (f"if {condition}: raise EvalError({message!r})"
                                  if self.floats
                                  else f"_check({condition}, {message!r})")
            self.ops.append((ref, check, [line.format(r=ref) for line in lines],
                             operands, raises))
        return ref

    def _helper(self, call):
        """The value line of a helper ``call``, a Python float in a float
        program."""
        return f"{{r}} = float({call})" if self.floats else f"{{r}} = {call}"

    def ref(self, node) -> str:
        """Operand text of ``node``, emitting what is new in its subtree."""
        ref = self.seen.get(id(node))
        if ref is None:
            ref = self.seen[id(node)] = self._ref(node)
        return ref

    def _ref(self, node) -> str:
        if isinstance(node, Num):
            return self._literal(node.value)
        if isinstance(node, Var):
            name = repr(node.name)
            if self.params is None:
                lines = ["try:", f"    {{r}} = env[{name}]",
                         "except KeyError:", f"    _unbound({name})"]
            elif node.name in self.params:
                return node.name  # a parameter is its own operand
            else:
                lines = [f"_unbound({name})"]
            return self._emit(("var", node.name), (), lines, raises=True)
        if isinstance(node, Neg):
            a = self.ref(node.child)
            return self._emit(("neg", a), (a,), [f"{{r}} = -{a}"])
        if isinstance(node, Bin):
            return self._power(node) if node.op == "^" else self._binary(node)
        if isinstance(node, Call):
            return self._call(node.fn, self.ref(node.arg))
        raise TypeError(f"not an expression node: {node!r}")

    def _binary(self, node):
        a, b = self.ref(node.lhs), self.ref(node.rhs)
        check = None
        literal = isinstance(node.rhs, Num) and node.rhs.value != 0
        if node.op == "/" and not literal:
            check = b, f"{b} == 0", "division by zero"
        return self._emit((node.op, a, b), (a, b), [f"{{r}} = {a} {node.op} {b}"],
                          check)

    def _power(self, node):
        a = self.ref(node.lhs)
        n = _int_literal(node.rhs)
        if n is None:
            b = self.ref(node.rhs)
            fn = "_complex_power" if self.complex_mode else "_real_power"
            return self._emit(("^", a, b), (a, b), [self._helper(f"{fn}({a}, {b})")],
                              raises=True)
        if n == 0:
            return self._literal(1.0)
        if n == 1:
            return a
        check = None
        if n < 0:
            check = a, f"{a} == 0", "zero base under a negative power"
        if self.floats and 1 < n <= _WRITTEN_POWER:
            # the products of _intpow, left to right
            return self._emit(("^", a, n), (a,), [f"{{r}} = {' * '.join([a] * n)}"],
                              check)
        return self._emit(("^", a, n), (a,), [self._helper(f"_intpow({a}, {n})")],
                          check)

    def _call(self, fn, a):
        if fn not in _FUNCTIONS:
            raise UnknownFunctionError(f"unknown function {fn!r}", 1)
        arg, check = a, None
        if self.complex_mode:
            if fn == "log":
                check = a, f"{a} == 0", "log of zero"
            if fn in ("log", "sqrt"):
                arg = f"_principal({a})"
        elif fn == "log":
            check = a, f"{a} <= 0", "log of a non-positive value in real mode"
        elif fn == "sqrt":
            check = a, f"{a} < 0", "sqrt of a negative value in real mode"
        line = (f"{{r}} = _float_sqrt({a})" if self.floats and fn == "sqrt"
                else self._helper(f"_{fn}({arg})"))
        return self._emit((fn, a), (a,), [line], check, raises=fn == "sign")


def _compile(trees, complex_mode: bool, returns=None, signature=None,
             floats=False):
    """One function of ``env`` that returns the values of ``trees`` as a
    list, or only those at the indices ``returns``; its ``source``
    attribute holds the program text.

    A program that returns some of the values is pruned: it keeps every
    check and every operation that can raise, each in its place, and the
    operations that a returned value or a check reads; the rest is left
    out.  Each register that is not an output is deleted after the line
    that reads it last, so an intermediate array is freed as early as a
    tree walk frees it (holding them all makes a program on wide arrays
    slower).  The source holds only register names, the fixed operators and
    helper names, and the reprs of variable names; literals are bound by
    name.

    With ``signature``, a pair (parameters, result), the function takes the
    positional ``parameters`` instead of ``env``.  A variable named by a
    parameter is that parameter, so it needs no lookup, and any other
    variable raises its unbound-variable error in its place.  The function
    returns the expression ``result`` with ``{i}`` standing for the i-th
    returned entry; it may also read the parameters, whose names must not
    look like a register (``r3``) or a literal (``k0``).

    ``floats`` asks for a float program, a real-mode function of
    ``signature`` for Python float parameters.  It runs the same IEEE
    operations in the same order and raises the same first EvalError,
    without a node index.  Each check is an inline ``if ...: raise``; the
    result of a numpy function or helper is turned into a Python float;
    sqrt is ``math.sqrt``, correctly rounded as numpy's; an integer power up
    to ``_WRITTEN_POWER`` is written out as the products of ``_intpow``; and
    no register is deleted.  Besides ``source`` it has the attributes
    ``body``, its lines before the return, ``returned``, the returned
    expression, and ``reads``, the parameters that the body or a returned
    entry reads.  The other names these lines read are the function's
    ``__globals__``.
    """
    params, result = signature or (None, None)
    compiler = _Compiler(complex_mode, params, floats)
    outputs = [compiler.ref(tree) for tree in trees]
    if returns is not None:
        outputs = [outputs[i] for i in returns]
    live = set(outputs)
    steps = []  # (lines, operands they read) of each emitted operation, last first
    for ref, check, lines, operands, raises in reversed(compiler.ops):
        if returns is not None and not raises and ref not in live:
            lines, operands = [], ()
        if check is not None:
            lines = [check[1]] + lines
            operands = operands + (check[0],)
        if lines:
            live.update(operands)
            steps.append((lines, operands))
    steps.reverse()
    last = {a: i for i, (_, operands) in enumerate(steps) for a in operands}
    body = []
    for i, (lines, operands) in enumerate(steps):
        body += lines
        dead = [a for a in dict.fromkeys(operands)
                if last[a] == i and a[0] == "r" and a not in outputs]
        if dead and not floats:
            body.append(f"del {', '.join(dead)}")
    if params is None:
        head, returned = "env", f"[{', '.join(outputs)}]"
    else:
        head, returned = ", ".join(params), result.format(*outputs)
    source = (f"def program({head}):\n"
              + "".join(f"    {line}\n" for line in body + [f"return {returned}"]))
    namespace = dict(_RUNTIME, **compiler.names)
    filename = "<falva float program>" if floats else "<falva program>"
    exec(compile(source, filename, "exec"), namespace)
    program = namespace["program"]
    program.source = source
    if floats:
        program.body, program.returned = body, returned
        program.reads = tuple(name for name in params if name in live)
    return program


def _program(expr: LagrangianExpr, variable_tuples: tuple, complex_mode: bool,
             returns: tuple = None, signature: tuple = None, floats=False):
    """The compiled program of the value of ``expr`` and its partials by
    ``variable_tuples``; built on first use and kept on ``expr``.  With
    ``returns``, the program is pruned to return only the entries at those
    indices of [value, d1, d2, ...], with ``signature`` it is a function
    of positional parameters, and with ``floats`` a float program (see
    ``_compile``)."""
    key = (variable_tuples, complex_mode, returns, signature, floats)
    program = expr._programs.get(key)
    if program is None:
        try:
            trees = [expr.ast] + [_derivative(expr, v) for v in variable_tuples]
            program = _compile(trees, complex_mode, returns, signature, floats)
        except RecursionError:  # a tree as deep as a long chain of one operator
            raise ExprSyntaxError("expression nests too deeply", 1) from None
        expr._programs[key] = program
    return program


def _complex_mode(env) -> bool:
    return any(_is_complex_binding(v) for v in env.values())


def evaluate(expr: LagrangianExpr, env: dict):
    """Evaluate ``expr`` with the given bindings.

    Returns a scalar (or an array when bindings are arrays); dtype follows
    the bindings.  Unbound free variables, division by zero and real-mode
    domain violations raise EvalError.
    """
    return _program(expr, (), _complex_mode(env))(env)[0]


# ---------------------------------------------------------------------------
# Differentiation
#
# The constructors fold 0*x, 1*x, 0/x, x+-0 and x^1, and compute an operator
# on two literals once, with the float operation the program would do.  A
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
    return partials(expr, ((var,),), env)[1]


def partials(expr: LagrangianExpr, variable_tuples, env: dict) -> list:
    """Return [value, d1, d2, ...]: the value, then the partial of ``expr``
    by each variable tuple in the order given (``(b, a)`` is d/da of dL/db).

    One compiled program computes them all.  It runs the value first, so
    its domain errors come first, and then each derivative tree in order,
    every distinct operation once.  Entries may therefore be one and the
    same array (for ``exp(q)`` the value is also d/dq), and an entry may be
    a binding of ``env`` itself: change none of them in place.
    """
    return _program(expr, tuple(variable_tuples), _complex_mode(env))(env)


def second_partials(expr: LagrangianExpr, var_a: str, var_b: str, env: dict):
    """Return (value, dL/da, dL/db, d2L/dadb), the last as d/da of dL/db.

    As with ``partials``, entries may share storage with each other or with
    a binding: change none of them in place.
    """
    value, d_b, d_a, d_ab = partials(expr, [(var_b,), (var_a,), (var_b, var_a)],
                                     env)
    return value, d_a, d_b, d_ab
