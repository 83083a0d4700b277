"""Command line front end.

Subcommands: deriv | action | residual | solve-ivp | solve-bvp | minimize |
sweep.  Problem parameters come from a flat key=value spec file (--spec)
and/or flags; flags override file keys.  One key table (``_KEYS``) makes
the flags and the spec-file keys, one parser reads the subcommand and the
flags in any order (the token after a flag is its value, even if it
starts with one '-'), and ``Spec`` checks the allowed values of every
choice key whichever way it came.  A key is given once: a repeated flag,
like a repeated spec-file key, is an error, and only the per-axis flags
(--domain, --n) take one value per axis.  ``Spec`` records the keys a run
reads; every key that was given and left unread is an error.
The parser is built once per process, and expressions are parsed through
the shared cache of ``parse``, so a repeated call rebuilds neither.
Axis-specific keys carry .x/.y/.z suffixes (domain.y=0,1); bare
"domain"/"n" mean the x axis.  A sweep runs its alpha values serially, in
the order given, and builds what no alpha changes once for all its rows
(``_Inputs``): the grids, the Lagrangian, the sampled field and, for a 1D
action, the velocity samples and the classical reference.

All output is CSV: one leading comment line with the tool version and the
order-pair convention, optional further comment lines with scalar results,
a header row, then data rows.  Each runner returns its library result as
comments and columns, and every float is written as ``'%.17g' % x`` writes
it, with LF line endings, so identical specs produce byte-identical files.
The rows are formatted in blocks of ``_BLOCK_ROWS``.  The float array
columns of a block, and the nodes of every axis of a grid, are formatted
together: at least ``_VECTOR_FLOATS`` floats in all go through one
``csvfmt.fields`` call, exact integer arithmetic on whole arrays that
hands Python's ``'%.17g'`` only the cells it cannot prove (a tie or
near-tie at the 18th digit, a subnormal, ±inf, NaN, a misjudged decade);
fewer floats, strings and the comment lines are formatted cell by
cell.  An array column of any layout, a broadcast coordinate column
included, is read block by block through views of its rows (``_read``)
and copied once on its way to its fields, which are placed in the rows
whole; a float column's fields leave out the sign place and the exponent
places where no value of the block uses them.  A table of at least
2 x ``_CELLS_PER_PROCESS`` = 800 000 cells is formatted in forked
processes, one row chunk per usable CPU, into the same bytes.  Failures
print a single "FALVA-ERR <code>: ..." line on stderr and exit with status
2 (validation) or 3 (numerical).  A run dispatches with numpy's
floating-point warnings off: the library rejects non-finite results
itself, so an overflow on the way to one is not also printed as a numpy
RuntimeWarning.

Where the C library is glibc, the first ``main`` call of a process raises
glibc's mmap and trim thresholds to 32 MiB and 64 MiB (``_keep_freed_heap``),
so the line kernel's temporaries and numpy's FFT scratch are served from
heap the process keeps instead of being mapped and faulted in again on
every call (some 2000 minor faults for one 1D Cresson residual at
n = 16384 before, none after).  An allocation of 32 MiB or more is still
mapped afresh, and at most 64 MiB of freed heap is kept.  Importing the
module changes no allocator setting; a library caller gets the same from
glibc's MALLOC_MMAP_THRESHOLD_ and MALLOC_TRIM_THRESHOLD_ variables.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import math
import os
import shutil
import sys
import tempfile
import threading
from typing import NamedTuple

import numpy as np

from . import __version__
from .action import (
    SLOTS,
    action_1d,
    action_1d_cresson,
    action_2d,
    action_nd,
    trapezoid_action,
)
from .errors import FalvaError, NonConvergedError, SpecError
from .euler import (
    MINIMIZE_MAX_ITER,
    BoundaryData1D,
    direct_minimize,
    el_residual_1d,
    el_residual_1d_cresson,
    el_residual_2d,
    el_residual_nd,
    solve_el_bvp,
    solve_el_ivp,
)
from .exprdsl import LagrangianExpr, evaluate, parse
from .fracops import (
    ORDER_CONVENTION,
    GridFunctionND,
    OrderSet,
    rl_left,
    rl_right,
    axis_cresson,
    _check_order,
)
from .numcore import Grid1D, GridFunction

KINDS = ("deriv", "action", "residual", "solve-ivp", "solve-bvp",
         "minimize", "sweep")

_AXES = ("x", "y", "z")

# cap on the total node count prod(n + 1) of a grid, checked before any
# node array is allocated
_MAX_NODES = 2**22

# Every problem key: its help text and its allowed values (None: free
# text).  The flags, the spec-file keys and the flag merge come from here,
# and Spec checks the allowed values wherever a value came from.  The
# per-axis keys take one flag per axis and spec-file keys with .x/.y/.z.
# A run names the first key it was given and left unread in this order.
_KEYS = {
    "gamma": ("complex weight: RE,IM or i or -i", None),
    "beta": ("order(s)", None),
    "alpha": ("order(s), scalar or comma list", None),
    "delta": ("order(s)", None),
    "chi": ("order(s)", None),
    "n": ("intervals per axis (repeat for y, z)", None),
    "qdot": ("analytic velocity expression (1D)", None),
    "boundary": ("qa,qb endpoint values", None),
    "margin_target": ("boundary value at the truncated match time", None),
    "q0": ("initial position (solve-ivp)", None),
    "v0": ("initial velocity (solve-ivp)", None),
    "lagrangian": ("Lagrangian expression", None),
    "domain": ("LO,HI per axis (repeat for y, z)", None),
    "path": ("path/field expression over the coordinates", None),
    "path_file": ("CSV field file with a shape header line", None),
    "operator": ("deriv operator (default cresson)", ("left", "right", "cresson")),
    "axis": ("deriv axis for ND fields", _AXES),
    "variant": ("1D action/residual variant", ("classic", "cresson")),
    "sweep_kind": ("underlying kind for sweep (default action)",
                   tuple(k for k in KINDS if k != "sweep")),
    "out": ("output file path", None),
    "format": ("output format", ("csv",)),
}
_AXIS_KEYS = ("domain", "n")

# the spec-file keys, in the order of _KEYS, which _check_read walks
_KNOWN_KEYS = ("kind", *(k for key in _KEYS for k in
                         [key, *(f"{key}.{a}" for a in _AXES if key in _AXIS_KEYS)]))

# the flags that take a value
_VALUE_FLAGS = ("--spec", *("--" + key.replace("_", "-") for key in _KEYS))


class _ArgumentParser(argparse.ArgumentParser):
    # route argparse failures through the FALVA-ERR machinery
    def error(self, message):
        raise SpecError(message)


class _StoreOnce(argparse.Action):
    """Store a flag's value; the flag given a second time is a SpecError,
    as a key repeated in a spec file is."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            raise SpecError(f"repeated flag {self.option_strings[0]!r}")
        setattr(namespace, self.dest, values)


def _join_values(argv: list) -> list:
    """``argv`` with each value flag, written in full, joined to a next
    token that starts with one '-' (-1,2, -i, -q^2/2) as ``--flag=value``,
    which argparse would read as an option.  A next token that is -h or
    starts with '--' (a flag, abbreviated or not, or the '--' separator)
    stays apart, so a missing value keeps argparse's message."""
    out = []
    for token in argv:
        if (out and out[-1] in _VALUE_FLAGS and token.startswith("-")
                and not token.startswith("--") and token != "-h"):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


@functools.cache
def _build_parser() -> _ArgumentParser:
    """The one parser of the process, built on first use: parsing reads
    it and leaves it as it was."""
    parser = _ArgumentParser(prog="falva",
                             description="fractional action-like variational toolkit")
    parser.add_argument("kind", nargs="?", choices=KINDS)
    parser.add_argument("--spec", action=_StoreOnce,
                        help="key=value problem spec file")
    for key, (text, allowed) in _KEYS.items():
        parser.add_argument(
            "--" + key.replace("_", "-"), dest=key, help=text,
            action="append" if key in _AXIS_KEYS else _StoreOnce,
            metavar=None if allowed is None else "{%s}" % ",".join(allowed))
    return parser


# ---------------------------------------------------------------------------
# spec assembly


def _load_spec_file(path: str) -> dict:
    table = {}
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as err:
        raise SpecError(f"cannot read spec file {path!r}: {err}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SpecError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip().lower()
        if key not in _KNOWN_KEYS:
            raise SpecError(f"{path}:{lineno}: unknown key {key!r}")
        key += ".x" if key in _AXIS_KEYS else ""  # bare domain and n: the x axis
        if key in table:
            raise SpecError(f"{path}:{lineno}: repeated key {key!r}")
        table[key] = value.strip()
    return table


def _merge(args) -> "Spec":
    table = _load_spec_file(args.spec) if args.spec else {}
    kind = table.pop("kind", args.kind)
    if kind != args.kind:
        raise SpecError(
            f"spec file kind {kind!r} conflicts with subcommand {args.kind!r}"
        )
    for name in _KEYS:
        values = getattr(args, name)
        if values is None:
            continue
        if name not in _AXIS_KEYS:
            table[name] = values
            continue
        if len(values) > len(_AXES):
            raise SpecError(f"too many --{name} axes (max {len(_AXES)})")
        for a in _AXES:
            table.pop(f"{name}.{a}", None)
        for i, v in enumerate(values):
            table[f"{name}.{_AXES[i]}"] = v
    return Spec(args.kind, table)


class Spec:
    """Merged problem description with typed accessors.

    ``get`` and ``req``, and the accessors built on them, add each key whose
    value the run takes to ``read``; a presence test reads nothing.  A given
    key that the run leaves out of ``read`` ends it in one SpecError.
    ``expr`` reads an expression key through ``parse``, which returns one
    shared expression per text, so the rows of a sweep and repeated calls
    parse each text once and reuse its compiled programs.
    """

    def __init__(self, kind: str, table: dict):
        if kind not in KINDS:
            raise SpecError(f"unknown kind {kind!r}")
        for key, (_, allowed) in _KEYS.items():
            if allowed is not None and key in table and table[key] not in allowed:
                raise SpecError(f"key {key!r}: expected one of "
                                f"{', '.join(allowed)}, got {table[key]!r}")
        functional = table.get("sweep_kind", "action") if kind == "sweep" else kind
        if (functional in ("action", "residual") and "domain.y" in table
                and table.get("variant", "cresson") != "cresson"):
            raise SpecError(f"key 'variant': 2D and 3D {functional}s are cresson "
                            f"only, got {table['variant']!r}")
        self.kind = kind
        self.table = table
        self.read = set()

    def get(self, key, default=None):
        self.read.add(key)
        return self.table.get(key, default)

    def req(self, key) -> str:
        if key not in self.table:
            raise SpecError(f"missing required key {key!r} for kind {self.kind!r}")
        self.read.add(key)
        return self.table[key]

    def expr(self, key) -> LagrangianExpr:
        return parse(self.req(key))

    def floats(self, key) -> list:
        raw = self.req(key)
        try:
            return [float(part) for part in raw.split(",")]
        except ValueError:
            raise SpecError(f"key {key!r}: expected number(s), got {raw!r}") from None

    def scalar(self, key, default=None) -> float:
        if default is not None and key not in self.table:
            return default
        values = self.floats(key)
        if len(values) != 1:
            raise SpecError(f"key {key!r} must be a single number")
        return values[0]

    def gamma_w(self) -> complex:
        """The Cresson weight; -i (the left derivative) when not given."""
        raw = self.get("gamma")
        if raw is None:
            return -1j
        text = raw.strip().lower()
        if text == "i":
            return 1j
        if text == "-i":
            return -1j
        parts = text.split(",")
        try:
            if len(parts) == 1:
                return complex(float(parts[0]), 0.0)
            if len(parts) == 2:
                return complex(float(parts[0]), float(parts[1]))
        except ValueError:
            pass
        raise SpecError(f"key 'gamma': expected RE,IM or i or -i, got {raw!r}")

    def pair(self, key) -> tuple:
        values = self.floats(key)
        if len(values) != 2:
            raise SpecError(f"key {key!r} must be LO,HI")
        return values[0], values[1]

    def dimension(self) -> int:
        dims = [f"domain.{a}" in self.table for a in _AXES]
        if not dims[0]:
            raise SpecError("missing required key 'domain' (or 'domain.x')")
        if dims[2] and not dims[1]:
            raise SpecError("domain.z given without domain.y")
        return sum(dims)

    def grids(self) -> tuple:
        dim = self.dimension()
        grids = []
        for i in range(dim):
            lo, hi = self.pair(f"domain.{_AXES[i]}")
            nk = f"n.{_AXES[i]}"
            if nk not in self.table and "n.x" in self.table:
                nk = "n.x"  # one n serves all axes unless overridden
            n = self.scalar(nk)
            if not math.isfinite(n) or n != int(n):
                raise SpecError(f"key {nk!r} must be an integer")
            grids.append(Grid1D(lo, hi, int(n)))
        nodes = math.prod(g.n + 1 for g in grids)
        if nodes > _MAX_NODES:
            raise SpecError(f"the grid has {nodes} nodes; at most {_MAX_NODES} "
                            "are allowed")
        return tuple(grids)


def _pair(spec: Spec, dim: int, axis: int) -> tuple:
    """(left, right) orders of ``axis`` from its keys alone: (alpha, beta) in
    1D; (alpha, delta) on x, (beta, chi) on y in 2D; (alpha_i, delta_i) in 3D."""
    alphas = spec.floats("alpha")
    if len(alphas) == 1:
        alphas = alphas * dim
    if len(alphas) != dim:
        raise SpecError(f"'alpha' needs 1 or {dim} entries for dimension {dim}")
    if dim == 1:
        return alphas[0], spec.scalar("beta", default=alphas[0])
    if dim == 2 and axis == 1:
        beta = spec.scalar("beta", default=alphas[1])
        return beta, spec.scalar("chi", default=beta)
    if dim == 2:
        return alphas[0], spec.scalar("delta", default=alphas[0])
    deltas = spec.floats("delta") if "delta" in spec.table else alphas
    if len(deltas) == 1:
        deltas = deltas * dim
    if len(deltas) != dim:
        raise SpecError(f"'delta' needs 1 or {dim} entries")
    return alphas[axis], deltas[axis]


def _orders_for(spec: Spec, dim: int) -> OrderSet:
    return OrderSet(tuple(_pair(spec, dim, i) for i in range(dim)), spec.gamma_w())


def _sample_expression(spec: Spec, key: str, slot_names, grids) -> np.ndarray:
    expr = spec.expr(key)
    extra = set(expr.free_vars) - set(slot_names)
    if extra:
        raise SpecError(
            f"path expression uses {sorted(extra)}; allowed coordinates "
            f"are {list(slot_names)}"
        )
    meshes = np.meshgrid(*[g.nodes for g in grids], indexing="ij")
    env = dict(zip(slot_names, meshes))
    shape = tuple(g.n + 1 for g in grids)
    return np.broadcast_to(np.asarray(evaluate(expr, env)), shape).copy()


def _read_field_file(path: str, grids) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = [ln for ln in map(str.strip, fh) if ln and not ln.startswith("#")]
    except (OSError, UnicodeDecodeError) as err:
        raise SpecError(f"cannot read field file {path!r}: {err}") from None
    if not lines or not lines[0].lower().startswith("shape"):
        raise SpecError(f"field file {path!r} must start with a 'shape,...' line")
    try:
        shape = tuple(int(p) for p in lines[0].split(",")[1:])
    except ValueError:
        raise SpecError(
            f"field file {path!r}: shape line {lines[0]!r} must list integers"
        ) from None
    expected = tuple(g.n + 1 for g in grids)
    if shape != expected:
        raise SpecError(
            f"field file shape {shape} does not match the grid shape {expected}"
        )
    try:
        values = np.array([float(v) for v in lines[1:]])
    except ValueError as err:
        raise SpecError(f"field file {path!r}: {err}") from None
    if values.size != int(np.prod(shape)):
        raise SpecError(
            f"field file holds {values.size} values, expected {int(np.prod(shape))}"
        )
    return values.reshape(shape)


def _field_for(spec: Spec, grids) -> np.ndarray:
    dim = len(grids)
    if "path" in spec.table and "path_file" in spec.table:
        raise SpecError("give either 'path' or 'path_file', not both")
    if "path" in spec.table:
        return _sample_expression(spec, "path", SLOTS[dim][1], grids)
    if "path_file" in spec.table:
        return _read_field_file(spec.req("path_file"), grids)
    raise SpecError("missing required key 'path' (or 'path_file')")


class _Inputs:
    """What a deriv, action or residual run of ``kind`` takes from its spec
    whatever its orders: the grids, the Lagrangian (None for a deriv) and
    the sampled field, a checked GridFunctionND (a GridFunction in 1D),
    read in that order when built.  The field's samples, from the path
    expression or the path file, are a read-only array that owns its
    memory, so ``fracops`` keeps a 1D path's slope spectrum for as long as
    the field lives and every Cresson row of a sweep shares it.  The
    velocity samples and, for a 1D action, the classical reference are
    built on first use and kept, so a run meets their errors where it
    reads them.  A sweep builds one and hands it to every alpha row."""

    def __init__(self, spec: Spec, kind: str):
        self.spec = spec
        self.grids = spec.grids()
        self.expr = None if kind == "deriv" else spec.expr("lagrangian")
        values = np.require(_field_for(spec, self.grids), requirements="O")
        values.flags.writeable = False
        self.field = (GridFunction(self.grids[0], values) if len(self.grids) == 1
                      else GridFunctionND(self.grids, values))

    @functools.cached_property
    def qdot(self):
        """The velocity samples of a 1D run's ``qdot`` key, or None."""
        if "qdot" not in self.spec.table:
            return None
        return _sample_expression(self.spec, "qdot", SLOTS[1][1], self.grids)

    @functools.cached_property
    def reference(self) -> float:
        """The alpha-free ``trapezoid_action`` of a 1D action."""
        return trapezoid_action(self.expr, self.field, qdot=self.qdot)


# ---------------------------------------------------------------------------
# output


class _Table(NamedTuple):
    """One CSV output: comment (key, value) pairs, a header and its columns.

    A column is a numpy array of floats, integers (0/1 flags, counts) or
    NUL-padded byte fields (``_coordinates``), written in row-major order,
    or a sequence of floats and strings.
    ``failure`` is raised after the file is written.
    """

    comments: list
    header: list
    columns: list
    failure: Exception = None


def _text(value) -> str:
    """A float, or a tuple of floats, with 17 significant digits; a string
    as it is."""
    if isinstance(value, str):
        return value
    if isinstance(value, tuple):
        return ",".join(map(_text, value))
    return "%.17g" % value


def _coordinates(grids):
    """The coordinate columns of a deriv or residual table, in row-major
    order.  The nodes of every axis are formatted once, together
    (``_float_fields``), into NUL-padded byte fields without the places
    that no node of the axis uses, and repeated along the other axes as a
    broadcast view, so no column is built at table size: the writer reads
    each block of rows from the view (``_read``)."""
    axes = []
    for nodes in _float_fields([(g.nodes, 0, g.n + 1) for g in grids]):
        nodes = np.ascontiguousarray(nodes[:, nodes.any(axis=0)])
        axes.append(nodes.view(f"S{nodes.shape[1]}").ravel())
    return np.meshgrid(*axes, indexing="ij", copy=False)


def _read(array: np.ndarray, lo: int, hi: int, out: np.ndarray) -> np.ndarray:
    """``out``, a contiguous 1D array, filled with elements ``lo`` to
    ``hi - 1`` of ``array`` in row-major order straight from views of it,
    whatever its layout (broadcast, strided, transposed, reversed): a
    slice of a 1D or C-contiguous array, else the run of whole subarrays
    between the partial ones at either end, each of those read alike."""
    if array.ndim <= 1 or array.flags.c_contiguous:
        out[:] = array.reshape(-1)[lo:hi]
        return out
    inner = math.prod(array.shape[1:])
    first, head = divmod(lo, inner)
    last, tail = divmod(hi, inner)
    if first == last and tail:  # inside one subarray; else empty or whole ones
        return _read(array[first], head, tail, out)
    if head:
        _read(array[first], head, inner, out[:inner - head])
        first += 1
    whole = out[first * inner - lo:last * inner - lo]  # element k is out[k - lo]
    whole.reshape(last - first, *array.shape[1:])[...] = array[first:last]
    if tail:
        _read(array[last], 0, tail, out[last * inner - lo:])
    return out


# Below this many floats in all, the float columns of a block (or the axes
# of a grid) are formatted cell by cell.  On a 2-vCPU Xeon (Python 3.11,
# numpy 2.4), ``_float_fields`` on three arrays cost some 190 us through
# ``csvfmt.fields``, its hundred-odd numpy calls, plus 0.09 us a float, and
# 1.0 to 1.15 us a float cell by cell.  In four interleaved scans from 120
# to 330 floats (one on a host 1.5 times slower) the two crossed between
# 171 and 186 floats.
_VECTOR_FLOATS = 184


def _cells(values) -> np.ndarray:
    """The fields of a sequence of floats and strings, formatted cell by
    cell by ``_text``, as a (len(values), width) uint8 array."""
    values = np.array([_text(value).encode() for value in values], dtype="S")
    return values.view(np.uint8).reshape(len(values), values.dtype.itemsize)


def _float_fields(parts) -> list:
    """The fields of the floats of ``parts``, a list of (array, lo, hi):
    elements ``lo`` to ``hi - 1`` of a float array in row-major order.
    Each part's fields are a (hi - lo, width) uint8 array of NUL-padded
    byte fields.

    Parts of at least ``_VECTOR_FLOATS`` floats in all are read end to end
    into one float64 buffer (``_read``) and go through one ``csvfmt.fields``
    call, each part's fields without the sign place or the five exponent
    places where none of them uses it; fewer floats are formatted cell by
    cell by ``_text``.
    """
    sizes = [hi - lo for _, lo, hi in parts]
    if sum(sizes) < _VECTOR_FLOATS:
        return [_cells(_read(array, lo, hi, np.empty(hi - lo)).tolist())
                for array, lo, hi in parts]
    # imported here, not with this module: a process that writes no large
    # float block never compiles or loads it
    from . import csvfmt

    ends = np.cumsum(sizes).tolist()
    buffer = np.empty(ends[-1])
    for (array, lo, hi), end in zip(parts, ends):
        _read(array, lo, hi, buffer[end - (hi - lo):end])
    fields = csvfmt.fields(buffer)[0]
    blocks = [fields[end - size:end] for size, end in zip(sizes, ends)]
    # a field that Python's formatter wrote is at most 24 bytes, so an "e" in
    # the first exponent place marks every field that uses those places
    e = csvfmt.WIDTH - 5
    return [block[:, 0 if block[:, 0].any() else 1:None if block[:, e].any() else e]
            for block in blocks]


def _fields(column, lo: int, hi: int) -> np.ndarray:
    """Rows ``lo`` to ``hi - 1`` of an output column other than a float
    array (those go through ``_float_fields``) as a (rows, width) uint8
    array of NUL-padded byte fields.

    A column is a numpy array, read in row-major order (``_read``), or a
    sequence.  An integer or flag array goes through ``astype``, an array
    of byte fields (``_coordinates``) is read as it is, and an object
    array or a sequence of floats and strings is formatted cell by cell by
    ``_text``.
    """
    if not isinstance(column, np.ndarray):
        return _cells(column[lo:hi])
    values = _read(column, lo, hi, np.empty(hi - lo, column.dtype))
    kind = values.dtype.kind
    if kind == "b":
        values = values.view(np.uint8) + np.uint8(ord("0"))
    elif kind in ("i", "u"):
        values = values.astype("S")
    elif kind != "S":
        return _cells(values.tolist())
    return values.view(np.uint8).reshape(hi - lo, values.dtype.itemsize)


# Rows per block of ``_format_rows``.  A block's fields, the float64 buffer
# and work arrays of the one ``csvfmt.fields`` call on its floats, the rows
# read from each other array column, its byte rows and their copies are the
# writer's only large temporaries: 2.4 MB at most for a 2D residual table
# (six cells a row, three of them floats; by tracemalloc, the same at
# n = 256 and n = 512), where a chunk of rows as Python objects took some
# 3 MB more.  Blocks of 2048 and 1024 rows measured slower, and a block of
# 8192 rows would double the temporaries for a few percent at most.
_BLOCK_ROWS = 4096


def _format_rows(fh, columns, lo: int, hi: int) -> None:
    """Write rows ``lo`` to ``hi - 1`` of a table to the binary file ``fh``,
    ``_BLOCK_ROWS`` at a time: the fields of the block's float array
    columns, all together (``_float_fields``), and of each other column
    (``_fields``) are placed whole in one byte block with the separators,
    and its bytes other than NUL are the rows.  An array column's rows are
    copied once, from views of it (``_read``), on their way to its fields.
    Nothing before row ``lo`` is read, so a forked child neither walks the
    rows before its chunk nor writes to the parent's objects."""
    is_float = [isinstance(column, np.ndarray) and column.dtype.kind == "f"
                for column in columns]
    for start in range(lo, hi, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, hi)
        float_blocks = _float_fields(
            [(column, start, stop) for column, f in zip(columns, is_float) if f])
        blocks = [float_blocks.pop(0) if f else _fields(column, start, stop)
                  for column, f in zip(columns, is_float)]
        ends = np.cumsum([b.shape[1] + 1 for b in blocks])
        rows = np.empty((stop - start, int(ends[-1])), dtype=np.uint8)
        for block, end in zip(blocks, ends):
            # each field placed whole, as one void item, not byte by byte
            item = f"V{block.shape[1]}"
            rows[:, end - 1 - block.shape[1]:end - 1].view(item)[...] = block.view(item)
            rows[:, end - 1] = ord(",")
        rows[:, -1] = ord("\n")
        blocks = None  # freed before the copies below
        fh.write(rows.tobytes().translate(None, b"\0"))


# A table is split into row chunks, one per usable CPU, only while each
# chunk holds at least this many cells.  On a 2-vCPU Xeon (Python 3.11,
# numpy 2.4), forking and reaping a 70 MB interpreter took 1.5 to 1.9 ms
# (median of 200; 2.3 ms at 94 MB) and appending a 2.4 MB chunk file 2 ms,
# while a cell costs about 0.07 us to format and join (a 2D residual table
# at n = 256 in 27 ms of CPU time).  A chunk of this size takes about
# 27 ms, so the fork and the merge cost it about a seventh.  The
# fork also costs the parent a copy-on-write fault, some 4.5 us, for each
# heap page it writes afterwards, in the write and in the calls after it.
# So a 2D residual at n = 256 (396 294 cells) stays in one process: with
# the second vCPU idle, split in two it took 3.47 to 3.86 calibration
# units a job, one process 2.82 to 3.07, faster in 10 of 10 alternating
# 30 s runs.  Only tables of 800 000 cells or more are split, such as a
# 2D residual at n >= 365.  There the split pays on whole fresh
# ``python -m falva residual`` calls (field2d's Lagrangian and path, split
# and one process alternating, same bytes): at n = 1024 (6.3M cells) it
# was faster in 10 of 10 pairs, medians 1.12 s against 1.49 s, and in 7
# of 8 in a second set; at n = 768 (3.5M cells) in 9 of 10, 0.71 s against
# 0.78 s.  At n = 512 (1.6M cells) it was unresolved (2 of 10, then 6 of
# 8).  An ordered thread pool over row blocks was slower than one process
# (1.84 s against 1.54 s at n = 1024).
_CELLS_PER_PROCESS = 400_000


def _processes(cells: int) -> int:
    """How many processes format a table of ``cells`` cells: one per usable
    CPU while each gets ``_CELLS_PER_PROCESS`` cells, and one where the
    process cannot fork or runs another thread (a forked child holds only
    the calling thread, and a lock another thread held stays locked)."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return max(1, min(cpus, cells // _CELLS_PER_PROCESS))


def _fork_rows(part, columns, lo: int, hi: int):
    """Fork a child that writes rows ``lo`` to ``hi - 1`` to the temporary
    file ``part`` and exits with status 0, or 1 if that fails; return its
    pid.  The child leaves by ``os._exit`` whatever happens, so it never
    returns into the caller, flushes an inherited buffer or prints.  Where
    no process can be forked, write the rows here and return None."""
    try:
        pid = os.fork()
    except OSError:
        pid = None
    if pid:
        return pid
    status = 1
    try:
        with open(part.fileno(), "wb", closefd=False) as out:
            _format_rows(out, columns, lo, hi)
        status = 0
    finally:
        if pid == 0:
            os._exit(status)
    return None


def _rows(columns) -> int:
    """The row count of a table's columns; a ValueError, an internal error,
    if they differ."""
    lengths = {column.size if isinstance(column, np.ndarray) else len(column)
               for column in columns}
    if len(lengths) > 1:
        raise ValueError(f"table columns of unequal lengths {sorted(lengths)}")
    return lengths.pop() if lengths else 0


def _write_rows(fh, columns, rows: int) -> None:
    """Write the ``rows`` rows of a table to the binary file ``fh``.

    The rows are split into ``_processes`` contiguous chunks.  This process
    formats the first chunk into ``fh`` while a forked child formats each
    other chunk into an unnamed temporary file; the children are reaped,
    even on an error, and their files are appended in order, block by
    block.  One chunk, the case of a small table, one CPU, a second thread
    or a temporary file that cannot be made, forks nothing.  The bytes are
    those of one loop over every row.
    """
    with contextlib.ExitStack() as stack:
        try:
            parts = [stack.enter_context(tempfile.TemporaryFile())
                     for _ in range(_processes(rows * len(columns)) - 1)]
        except OSError:
            parts = []  # the files made so far close with the stack
        bounds = [rows * i // (len(parts) + 1) for i in range(len(parts) + 2)]
        pids = []
        try:
            for part, lo, hi in zip(parts, bounds[1:], bounds[2:]):
                pids.append(_fork_rows(part, columns, lo, hi))
            _format_rows(fh, columns, 0, bounds[1])
        finally:
            failed = sum(os.waitpid(pid, 0)[1] != 0 for pid in pids if pid)
        if failed:
            raise OSError(f"{failed} forked row formatting process(es) failed")
        fh.flush()
        for part in parts:
            part.seek(0)
            shutil.copyfileobj(part, fh)


def _write_csv(path: str, kind: str, table: _Table) -> None:
    """Write a table: the version line, its comments, its header and its
    rows (``_write_rows``, which splits a large table over forked
    processes).  Columns of unequal lengths are an internal error, raised
    before the file is opened."""
    rows = _rows(table.columns)
    lead = f"falva {__version__} kind={kind} orders[{ORDER_CONVENTION}]"
    head = [f"# {lead}\n"]
    head += [f"# {key}={_text(value)}\n" for key, value in table.comments]
    head.append(",".join(table.header) + "\n")
    try:
        with open(path, "wb") as fh:
            fh.write("".join(head).encode())
            _write_rows(fh, table.columns, rows)
    except OSError as err:
        raise SpecError(f"cannot write output file {path!r}: {err}") from None


# ---------------------------------------------------------------------------
# runners: each computes a library result and returns it as a _Table


def _derivative(spec: Spec, inputs: _Inputs):
    """The derivative of a deriv spec's sampled field."""
    field = inputs.field
    dim = field.ndim
    axis_name = spec.get("axis", "x")
    axis = _AXES.index(axis_name)
    if axis >= dim:
        raise SpecError(f"axis {axis_name!r} out of range for dimension {dim}")
    operator = spec.get("operator", "cresson")
    if operator == "cresson":
        # every axis takes the pair of the deriv's axis, the one axis_cresson
        # reads; a bad order is named at that axis's slot, as an action does
        left, right = _pair(spec, dim, axis)
        pair = (_check_order(f"left[{axis}]", left),
                _check_order(f"right[{axis}]", right))
        orders = OrderSet((pair,) * dim, spec.gamma_w())
        return axis_cresson(field, axis, orders)
    if dim > 1:
        raise SpecError("ND deriv supports only the cresson operator")
    if operator == "left":
        return rl_left(field, spec.scalar("alpha"))
    # right reads beta, or alpha when beta is not given
    return rl_right(field, spec.scalar("beta" if "beta" in spec.table else "alpha"))


def _run_deriv(spec: Spec) -> _Table:
    inputs = _Inputs(spec, spec.kind)
    grids, values = inputs.grids, inputs.field.values
    out = _derivative(spec, inputs)
    header = [*SLOTS[len(grids)][1], "f_re", "f_im", "deriv_re", "deriv_im",
              "flagged"]
    return _Table([], header, [*_coordinates(grids), values.real, values.imag,
                               out.values.real, out.values.imag, out.flags])


def _functional(spec: Spec, inputs: _Inputs, classic, cresson_1d, axes_2, axes_n):
    """Apply an action or residual functional to the spec's sampled field.

    The four functionals cover the 1D classic and Cresson variants and the
    2D and ND fields; the 1D classic one reads the velocity samples of the
    ``qdot`` key.
    """
    expr, field = inputs.expr, inputs.field
    dim = field.ndim
    if dim == 1:
        implied = "cresson" if {"gamma", "beta"} & spec.table.keys() else "classic"
        if spec.get("variant", implied) == "classic":
            alpha = spec.scalar("alpha")
            return classic(expr, field, alpha, qdot=inputs.qdot)
        return cresson_1d(expr, field, _orders_for(spec, dim))
    spec.get("variant")  # cresson: Spec rejects classic here
    orders = _orders_for(spec, dim)
    observer = tuple(g.t for g in field.grids)
    functional = axes_2 if dim == 2 else axes_n
    return functional(expr, field, orders, observer)


def _action(spec: Spec, inputs: _Inputs):
    return _functional(spec, inputs, action_1d, action_1d_cresson, action_2d,
                       action_nd)


def _run_action(spec: Spec) -> _Table:
    av = _action(spec, _Inputs(spec, spec.kind))
    comments = [("observer", av.observer), ("weight_orders", av.weight_orders)]
    if av.qdot_source:
        comments.append(("qdot_source", av.qdot_source))
    return _Table(comments, ["value_re", "value_im", "singular_excluded"],
                  [[av.value.real], [av.value.imag],
                   np.array([av.singular_nodes_excluded])])


def _residual_field(spec: Spec, inputs: _Inputs):
    return _functional(spec, inputs, el_residual_1d, el_residual_1d_cresson,
                       el_residual_2d, el_residual_nd)


def _run_residual(spec: Spec) -> _Table:
    inputs = _Inputs(spec, spec.kind)
    rf = _residual_field(spec, inputs)
    residual = rf.residual.values
    comments = [("sup_norm", rf.sup_norm), ("epsilon_margin", rf.epsilon_margin)]
    header = [*SLOTS[len(inputs.grids)][1], "q", "residual_re", "residual_im",
              "excluded"]
    return _Table(comments, header, [*_coordinates(inputs.grids),
                                     inputs.field.values, residual.real,
                                     residual.imag, rf.excluded])


def _line_grid(spec: Spec) -> Grid1D:
    grids = spec.grids()
    if len(grids) != 1:
        raise SpecError(f"{spec.kind} is one-dimensional")
    return grids[0]


def _boundary(spec: Spec, g: Grid1D) -> BoundaryData1D:
    qa, qb = spec.pair("boundary")
    return BoundaryData1D(g.a, g.t, qa, qb)


def _ivp(spec: Spec):
    g = _line_grid(spec)
    return solve_el_ivp(spec.expr("lagrangian"), g.a, g.t, spec.scalar("q0"),
                        spec.scalar("v0"), spec.scalar("alpha"), g.n)


def _run_solve_ivp(spec: Spec) -> _Table:
    q, qdot = _ivp(spec)
    return _Table([("truncated_t", q.grid.t)], ["tau", "q", "qdot"],
                  [q.grid.nodes, q.values, qdot.values])


def _bvp(spec: Spec):
    g = _line_grid(spec)
    bd = _boundary(spec, g)
    target = spec.scalar("margin_target") if "margin_target" in spec.table else None
    return solve_el_bvp(spec.expr("lagrangian"), bd,
                        spec.scalar("alpha"), g.n, qb_at_margin=target)


def _run_solve_bvp(spec: Spec) -> _Table:
    result = _bvp(spec)
    comments = [("v0", result.v0), ("matched_time", result.matched_time),
                ("target", result.target)]
    return _Table(comments, ["tau", "q", "qdot"],
                  [result.q.grid.nodes, result.q.values, result.qdot.values])


def _minimized(spec: Spec):
    g = _line_grid(spec)
    bd = _boundary(spec, g)
    return direct_minimize(spec.expr("lagrangian"), bd,
                           spec.scalar("alpha"), g.n)


def _nonconverged(result) -> str:
    """Why a minimizer run stopped short: its iteration cap, or a Newton
    solve or line search that found no step before it."""
    if result.iterations >= MINIMIZE_MAX_ITER:
        return "minimizer hit its iteration cap"
    return (f"minimizer stopped after {result.iterations} of "
            f"{MINIMIZE_MAX_ITER} iterations, where its Newton solve or line "
            "search failed")


def _run_minimize(spec: Spec) -> _Table:
    result = _minimized(spec)
    comments = [
        ("converged", "true" if result.converged else "false"),
        ("iterations", str(result.iterations)),
        ("grad_norm", result.grad_norm),
        ("action_value", result.action_value),
    ]
    failure = None
    if not result.converged:
        failure = NonConvergedError(
            f"{_nonconverged(result)} (grad_norm={result.grad_norm:g}); "
            f"partial result written to {spec.req('out')}"
        )
    return _Table(comments, ["tau", "q"], [result.q.grid.nodes, result.q.values],
                  failure)


def _sweep_value(spec: Spec, inputs: _Inputs):
    """Scalar summary of one sweep entry, read from the library result:
    (complex value, classical_ref or None).  ``inputs`` is the sweep's,
    None for a kind that samples no field."""
    kind = spec.kind
    if kind == "action":
        av = _action(spec, inputs)
        if len(inputs.grids) != 1:
            return av.value, None
        return av.value, inputs.reference
    if kind == "deriv":
        return complex(_derivative(spec, inputs).values.flat[-1]), None
    if kind == "residual":
        return complex(_residual_field(spec, inputs).sup_norm), None
    if kind == "solve-ivp":
        return complex(_ivp(spec)[0].values[-1]), None
    if kind == "solve-bvp":
        return complex(_bvp(spec).v0), None
    result = _minimized(spec)
    if not result.converged:
        raise NonConvergedError(_nonconverged(result))
    return complex(result.action_value), None


def _run_sweep(spec: Spec) -> _Table:
    """One row per alpha, in the order given.  The grids, the Lagrangian and
    the sampled field, which no alpha changes, are built once for all the
    rows (``_Inputs``), and so are a 1D action's velocity samples and
    classical reference, on the first row that reads them; an error
    building them is the status of every row that would read it."""
    alphas = spec.floats("alpha")
    for a in alphas:
        if not 0.0 < a < 1.0:
            raise SpecError(f"sweep alpha {a!r} outside (0,1)")
    kind = spec.get("sweep_kind", "action")
    inputs = failure = None
    if kind in ("deriv", "action", "residual"):
        try:
            inputs = _Inputs(spec, kind)
        except FalvaError as err:
            failure = err
    rows, read = [], set()
    for alpha in alphas:
        try:
            if failure is not None:
                raise failure
            row = Spec(kind, dict(spec.table, alpha=_text(alpha)))
            value, ref = _sweep_value(row, inputs)
        except FalvaError as err:
            rows.append(("", "", f"FALVA-ERR {err.code}", ""))
        else:
            rows.append((value.real, value.imag, "ok", "" if ref is None else ref))
            read |= row.read
    # the rows that ran to the end read the keys, with the sweep's own reads
    # but not its alpha list; a sweep none of whose rows finished checks nothing
    spec.read = (spec.read - {"alpha"}) | read if read else spec.table.keys()
    value_re, value_im, status, classical = zip(*rows)

    header = ["alpha", "value_re", "value_im", "status"]
    columns = [np.array(alphas), value_re, value_im, status]
    if kind == "action" and spec.dimension() == 1:
        header.append("classical_ref")
        columns.append(classical)
    return _Table([("sweep_kind", kind)], header, columns)


_RUNNERS = {
    "deriv": _run_deriv,
    "action": _run_action,
    "residual": _run_residual,
    "solve-ivp": _run_solve_ivp,
    "solve-bvp": _run_solve_bvp,
    "minimize": _run_minimize,
    "sweep": _run_sweep,
}


def _check_read(spec: Spec) -> None:
    """Raise a SpecError for the first given key of _KNOWN_KEYS left unread."""
    name = spec.table.get("sweep_kind", "action") if spec.kind == "sweep" else spec.kind
    if name == "deriv":
        name = f"{spec.table.get('operator', 'cresson')} deriv"
    for key in _KNOWN_KEYS:
        if key in spec.table and key not in spec.read:
            given = " when beta is given" if key == "alpha" else ""
            raise SpecError(f"key {key!r}: a {spec.dimension()}D {name} reads "
                            f"no {key}{given}")


def _dispatch(spec: Spec) -> int:
    out = spec.req("out")
    spec.get("format")  # csv, the one format
    table = _RUNNERS[spec.kind](spec)
    _check_read(spec)
    _write_csv(out, spec.kind, table)
    if table.failure is not None:
        raise table.failure
    return 0


# glibc's mallopt parameters (malloc.h) and the values ``main`` sets: the
# 2:1 ratio of glibc's own dynamic thresholds, at the largest mmap threshold
# a 64-bit glibc accepts.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 64 << 20


def _mallopt():
    """glibc's ``mallopt`` through ctypes, or None where the C library is not
    glibc or has no such function."""
    try:  # os.confstr or the name is missing off glibc-style platforms
        if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
            return None
        return ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return None


@functools.cache
def _keep_freed_heap() -> None:
    """Raise glibc's mmap and trim thresholds once per process (see the
    module notes); on another C library, or where glibc refuses the mmap
    threshold, change nothing."""
    mallopt = _mallopt()
    if mallopt is not None and mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD):
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def main(argv=None) -> int:
    _keep_freed_heap()
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_values(
            sys.argv[1:] if argv is None else list(argv)))
        if args.kind is None:
            raise SpecError("missing subcommand; expected one of " + ", ".join(KINDS))
        spec = _merge(args)
        with np.errstate(all="ignore"):
            return _dispatch(spec)
    except FalvaError as err:
        message = " ".join(str(err).split())
        print(f"FALVA-ERR {err.code}: {message}", file=sys.stderr)
        return err.exit_status


if __name__ == "__main__":
    sys.exit(main())
