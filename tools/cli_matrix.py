"""Byte matrix of the falva command line.

Runs a fixed list of calls through ``falva.cli.main`` in one process and
prints one line per call: its name, the sha256 of the output file it wrote
(``-`` when it wrote none), its exit status and its stderr.  Two source
trees that print the same lines write the same bytes, exit statuses and
messages for every call of the list.  To compare two trees, run the script
of one of them with each tree's ``src`` and diff the outputs:

    python tools/cli_matrix.py > change.txt
    python tools/cli_matrix.py --src ../parent/src > parent.txt
    diff parent.txt change.txt

``--keep DIR`` also writes each call's output file to ``DIR/<name>.csv``,
and ``--compare DIR_A DIR_B`` prints one line per call whose kept files
differ: the largest |a - b| / (1 + max|column of a|) over the numeric
cells, and whether any other cell differs (text, a non-finite value, or a
row or cell that only one file has):

    python tools/cli_matrix.py --keep change > change.txt
    python tools/cli_matrix.py --src ../parent/src --keep parent > parent.txt
    python tools/cli_matrix.py --compare parent change

The list covers every subcommand; 1D, 2D and 3D grids, among them a 3D box
whose axes differ in length, extent and orders, so that a swap of two axes
shows; the default, +i, -i and a general gamma; path files and spec files;
sweeps of every kind, with rows that fail, among them 1D Cresson sweeps that
share the kept slope spectrum of their path (from a path expression or a
path file, after a first row that fails), at a general gamma and at -i;
zero paths, whose exact zeros print as 0 (not -0) at +i, -i and through
the one-sided operators; +i along the first and a middle axis of a 3D box,
which the right side alone reads through reversed line views; raw velocity
samples that overflow; and calls that fail
before any output, among them a path file with a NaN node and residuals
whose step underflows along one axis, which name a node in C order.  The
spec and path files led by a UTF-8 byte-order mark give the bytes of the
same files without it.  The calls run in a temporary directory that holds
the input files, so every path in a message is relative and the lines do not
depend on where the script runs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import math
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# input files, written into the working directory before the calls
FILES = {
    "line.csv": "shape,9\n" + "".join(f"{0.1 * k * k:.17g}\n" for k in range(9)),
    "plane.csv": "shape,5,5\n" + "".join(f"{0.5 + 0.1 * (k % 5) * (k // 5):.17g}\n"
                                          for k in range(25)),
    "short.csv": "shape,9\n1\n2\n",
    # a 1D path with nan at node 4: the sampled field's check rejects it
    "nanline.csv": "shape,9\n" + "".join("nan\n" if k == 4 else f"{0.1 * k:.17g}\n"
                                         for k in range(9)),
    "action.spec": ("kind=action\nlagrangian=qdot^2/2 - q^2/2\nalpha=0.5\n"
                    "domain=0,1\nn=16\npath=sin(tau)\n"),
    "unknown.spec": "kind=action\nlagrnagian=q\n",
}
# the same files led by a UTF-8 byte-order mark, as some editors save them
FILES["bom.spec"] = "\ufeff" + FILES["action.spec"]
FILES["bomline.csv"] = "\ufeff" + FILES["line.csv"]

L1 = ["--lagrangian", "qdot^2/2 - q^2/2"]
LINE = ["--domain", "0,1", "--n", "16", "--path", "sin(tau) + tau^2"]
ZERO = ["--domain", "0,1", "--n", "16", "--path", "0"]
PLANE = ["--domain", "0,1", "--domain", "0,2", "--n", "8", "--n", "6",
         "--path", "sin(x)*cos(y) + x*y"]
CUBE = ["--domain", "0,1", "--domain", "0,1", "--domain", "0,1", "--n", "4",
        "--path", "x1*x2 + x3^2 + 1"]
# three axes of different lengths and extents, a path nonzero on every
# start plane (flagged) and per-axis orders: a swap of two axes shows
BOX = ["--domain", "0,1", "--domain", "0,2", "--domain", "-1,0.5", "--n", "5",
       "--n", "4", "--n", "6", "--path", "1 + x1 + 2*x2 + x3^2",
       "--alpha", "0.3,0.5,0.7", "--delta", "0.6,0.4,0.2", "--gamma=0.3,0.2"]
# the step of one axis underflows: the error names a C-order node
TINY = "0,1e-320"
UNDERFLOW_2D = ["residual", "--lagrangian", "(qx^2+qy^2)/2", "--alpha", "0.5",
                "--beta", "0.6", "--gamma=0.3,0.2", "--n", "6", "--n", "5",
                "--path", "1 + x + y"]
UNDERFLOW_3D = ["residual", "--lagrangian", "(qx1^2+qx2^2+qx3^2)/2", "--alpha",
                "0.5", "--delta", "0.3", "--gamma=0.3,0.2", "--n", "4", "--n", "3",
                "--n", "5", "--path", "1 + x1 + x2 + x3"]
L2 = ["--lagrangian", "(qx^2 + qy^2)/2 + q*x*y"]
L3 = ["--lagrangian", "(qx1^2 + qx2^2 + qx3^2)/2 + q^2"]
BVP = ["--domain", "0,1", "--n", "40", "--boundary", "0,1"]

# (name, argv without --out); each call writes out.csv, removed after it
CALLS = (
    # deriv
    ("deriv-1d-default", ["deriv", "--alpha", "0.4", *LINE]),
    ("deriv-1d-plus-i", ["deriv", "--alpha", "0.4", "--beta", "0.7", "--gamma", "i",
                         *LINE]),
    ("deriv-1d-minus-i", ["deriv", "--alpha", "0.4", "--gamma", "-i", *LINE]),
    ("deriv-1d-gamma", ["deriv", "--alpha", "0.4", "--gamma=0.3,-0.7", *LINE]),
    ("deriv-1d-left", ["deriv", "--operator", "left", "--alpha", "0.3", *LINE]),
    ("deriv-1d-right", ["deriv", "--operator", "right", "--beta", "0.6", *LINE]),
    ("deriv-1d-right-alpha", ["deriv", "--operator", "right", "--alpha", "0.6",
                              *LINE]),
    ("deriv-1d-file", ["deriv", "--alpha", "0.5", "--domain", "0,1", "--n", "8",
                       "--path-file", "line.csv"]),
    ("deriv-1d-left-nan", ["deriv", "--operator", "left", "--alpha", "0.3",
                           "--domain", "0,1", "--n", "8", "--path-file",
                           "nanline.csv"]),
    ("deriv-2d-y", ["deriv", "--alpha", "0.3,0.6", "--axis", "y",
                    "--gamma=0.2,0.5", *PLANE]),
    ("deriv-2d-file", ["deriv", "--alpha", "0.5", "--domain", "0,1", "--domain",
                       "0,1", "--n", "4", "--path-file", "plane.csv"]),
    ("deriv-3d-z", ["deriv", "--alpha", "0.5", "--axis", "z", *CUBE]),
    ("deriv-2d-left", ["deriv", "--operator", "left", "--alpha", "0.5", *PLANE]),
    ("deriv-axis-range", ["deriv", "--alpha", "0.5", "--axis", "y", *LINE]),
    # zero paths: every value an exact zero, which prints as 0, not -0
    ("deriv-1d-zero-plus-i", ["deriv", "--alpha", "0.4", "--beta", "0.7",
                              "--gamma=i", *ZERO]),
    ("deriv-1d-zero-minus-i", ["deriv", "--alpha", "0.4", "--gamma=-i", *ZERO]),
    ("deriv-1d-zero-left", ["deriv", "--operator", "left", "--alpha", "0.3",
                            *ZERO]),
    ("deriv-1d-zero-right", ["deriv", "--operator", "right", "--beta", "0.6",
                             *ZERO]),
    # +i along the first and a middle axis: reversed views of both layouts
    ("deriv-3d-plus-i-x", ["deriv", "--axis", "x", "--gamma=i", *BOX[:-1]]),
    ("deriv-3d-plus-i-y", ["deriv", "--axis", "y", "--gamma=i", *BOX[:-1]]),
    # action
    ("action-classic-fd", ["action", *L1, "--alpha", "0.5", *LINE]),
    ("action-classic-qdot", ["action", *L1, "--alpha", "0.5", "--domain", "0,1",
                             "--n", "16", "--path", "sin(tau)", "--qdot",
                             "cos(tau)"]),
    ("action-classic-qdot-overflow", ["action", *L1, "--alpha", "0.5", "--domain",
                                      "0,1", "--n", "16", "--path", "sin(tau)",
                                      "--qdot", "exp(800*tau)"]),
    ("action-cresson-default", ["action", *L1, "--alpha", "0.5", "--variant",
                                "cresson", *LINE]),
    ("action-cresson-plus-i", ["action", *L1, "--alpha", "0.5", "--gamma", "i",
                               *LINE]),
    ("action-cresson-minus-i", ["action", *L1, "--alpha", "0.5", "--gamma", "-i",
                                *LINE]),
    ("action-cresson-gamma", ["action", *L1, "--alpha", "0.5", "--beta", "0.3",
                              "--gamma=0.3,-0.7", *LINE]),
    ("action-file", ["action", *L1, "--alpha", "0.5", "--domain", "0,1", "--n",
                     "8", "--path-file", "line.csv"]),
    ("action-spec-file", ["action", "--spec", "action.spec"]),
    ("action-spec-override", ["action", "--spec", "action.spec", "--alpha",
                              "0.25"]),
    ("action-spec-bom", ["action", "--spec", "bom.spec"]),
    ("action-file-bom", ["action", *L1, "--alpha", "0.5", "--domain", "0,1", "--n",
                         "8", "--path-file", "bomline.csv"]),
    ("action-file-nan", ["action", *L1, "--alpha", "0.5", "--variant", "cresson",
                         "--domain", "0,1", "--n", "8", "--path-file",
                         "nanline.csv"]),
    ("action-2d", ["action", *L2, "--alpha", "0.4", "--beta", "0.6",
                   "--gamma=0.5,0.5", *PLANE]),
    ("action-3d", ["action", *L3, "--alpha", "0.3,0.5,0.7", *CUBE]),
    ("action-3d-box", ["action", *L3, *BOX]),
    ("action-log-q", ["action", "--lagrangian", "log(q)", "--alpha", "0.5",
                      "--domain", "0,1", "--n", "16", "--path", "tau - 0.5"]),
    ("action-slots", ["action", "--lagrangian", "qx^2", "--alpha", "0.5", *LINE]),
    ("action-flagged", ["action", *L1, "--alpha", "0.5", "--gamma", "i",
                        "--domain", "0,1", "--n", "16", "--path", "1 + tau"]),
    # residual
    ("residual-classic", ["residual", *L1, "--alpha", "0.5", *LINE]),
    ("residual-classic-qdot", ["residual", "--lagrangian", "qdot^2/2 + log(q)",
                               "--alpha", "0.5", "--domain", "0,1", "--n", "16",
                               "--path", "1 + tau", "--qdot", "1"]),
    ("residual-classic-qdot-overflow", ["residual", *L1, "--alpha", "0.5",
                                        "--domain", "0,1", "--n", "16", "--path",
                                        "sin(tau)", "--qdot", "exp(800*tau)"]),
    ("residual-cresson", ["residual", *L1, "--alpha", "0.5", "--gamma", "-i",
                          *LINE]),
    ("residual-sqrt-q", ["residual", "--lagrangian", "qdot^2/2 + sqrt(q)",
                         "--alpha", "0.5", "--domain", "0,1", "--n", "16",
                         "--path", "tau - 0.5"]),
    ("residual-pow-q", ["residual", "--lagrangian", "qdot^2/2 + q^0.5",
                        "--alpha", "0.5", "--domain", "0,1", "--n", "16",
                        "--path", "tau - 0.5"]),
    ("residual-inv-q", ["residual", "--lagrangian", "qdot^2/2 + 1/q",
                        "--alpha", "0.5", "--domain", "0,1", "--n", "16",
                        "--path", "tau - 0.5"]),
    ("residual-file-nan", ["residual", *L1, "--alpha", "0.5", "--domain", "0,1",
                           "--n", "8", "--path-file", "nanline.csv"]),
    ("residual-2d", ["residual", *L2, "--alpha", "0.4", "--beta", "0.6",
                     "--delta", "0.5", "--chi", "0.7", "--gamma=0.3,0.2", *PLANE]),
    ("residual-2d-file", ["residual", *L2, "--alpha", "0.5", "--domain", "0,1",
                          "--domain", "0,1", "--n", "4", "--path-file",
                          "plane.csv"]),
    ("residual-3d", ["residual", *L3, "--alpha", "0.5", "--delta", "0.3", *CUBE]),
    ("residual-3d-box", ["residual", *L3, *BOX]),
    ("residual-2d-tiny-x", [*UNDERFLOW_2D, "--domain", TINY, "--domain", "0,1"]),
    ("residual-2d-tiny-y", [*UNDERFLOW_2D, "--domain", "0,1", "--domain", TINY]),
    ("residual-3d-tiny-x1", [*UNDERFLOW_3D, "--domain", TINY, "--domain", "0,1",
                             "--domain", "0,1"]),
    ("residual-3d-tiny-x2", [*UNDERFLOW_3D, "--domain", "0,1", "--domain", TINY,
                             "--domain", "0,1"]),
    ("residual-3d-tiny-x3", [*UNDERFLOW_3D, "--domain", "0,1", "--domain", "0,1",
                             "--domain", TINY]),
    # solvers
    ("solve-ivp", ["solve-ivp", *L1, "--alpha", "0.5", "--domain", "0,1", "--n",
                   "40", "--q0", "0", "--v0", "1"]),
    ("solve-bvp", ["solve-bvp", *L1, "--alpha", "0.5", *BVP]),
    ("solve-bvp-margin", ["solve-bvp", *L1, "--alpha", "0.5", *BVP,
                          "--margin-target", "0.9"]),
    ("solve-bvp-log", ["solve-bvp", "--lagrangian", "qdot^2/2 + log(q)",
                       "--alpha", "0.5", *BVP]),
    ("minimize", ["minimize", *L1, "--alpha", "0.5", *BVP]),
    ("minimize-quartic", ["minimize", "--lagrangian", "qdot^2/2 + q^4/4",
                          "--alpha", "0.3", *BVP]),
    ("minimize-length", ["minimize", "--lagrangian", "sqrt(1+qdot^2)", "--alpha",
                         "0.5", *BVP]),
    ("minimize-failing", ["minimize", "--lagrangian", "qdot^2/2 - 30*q^2",
                          "--alpha", "0.5", "--domain", "0,1", "--n", "12",
                          "--boundary", "0,1"]),
    ("solve-bvp-no-bracket", ["solve-bvp", "--lagrangian", "qdot^2/2 - 30*q^2",
                              "--alpha", "0.5", *BVP]),
    # sweeps
    ("sweep-action-classic", ["sweep", *L1, "--alpha", "0.25,0.5,0.75",
                              "--domain", "0,1", "--n", "16", "--path", "sin(tau)",
                              "--qdot", "cos(tau)"]),
    ("sweep-action-fd", ["sweep", *L1, "--alpha", "0.25,0.5", *LINE]),
    ("sweep-action-cresson", ["sweep", *L1, "--alpha", "0.25,0.5,0.75",
                              "--gamma=0.3,-0.7", *LINE]),
    ("sweep-action-cresson-qdot", ["sweep", *L1, "--alpha", "0.25,0.75",
                                   "--gamma", "i", "--domain", "0,1", "--n", "16",
                                   "--path", "sin(tau)", "--qdot", "cos(tau)"]),
    ("sweep-action-file", ["sweep", *L1, "--alpha", "0.3,0.6", "--domain", "0,1",
                           "--n", "8", "--path-file", "line.csv"]),
    ("sweep-action-cresson-file", ["sweep", *L1, "--alpha", "0.25,0.5,0.75",
                                   "--gamma=0.3,-0.7", "--domain", "0,1", "--n",
                                   "8", "--path-file", "line.csv"]),
    ("sweep-action-cresson-subnormal", ["sweep", *L1, "--alpha",
                                        "1e-310,0.5,0.75", "--gamma=0.3,-0.7",
                                        *LINE]),
    ("sweep-action-file-nan", ["sweep", *L1, "--alpha", "0.25,0.5,0.75",
                               "--gamma=0.3,-0.7", "--domain", "0,1", "--n", "8",
                               "--path-file", "nanline.csv"]),
    ("sweep-action-2d", ["sweep", "--sweep-kind", "action", *L2, "--alpha",
                         "0.3,0.6", *PLANE]),
    ("sweep-action-3d", ["sweep", *L3, "--alpha", "0.4,0.8", *CUBE]),
    ("sweep-action-bad-path", ["sweep", *L1, "--alpha", "0.25,0.5", "--domain",
                               "0,1", "--n", "16", "--path", "log(tau - 2)"]),
    ("sweep-action-bad-qdot", ["sweep", *L1, "--alpha", "0.25,0.5", "--domain",
                               "0,1", "--n", "16", "--path", "sin(tau)", "--qdot",
                               "log(tau - 2)"]),
    ("sweep-action-cresson-bad-qdot", ["sweep", *L1, "--alpha", "1e-310,0.5",
                                       "--gamma", "i", "--domain", "0,1", "--n",
                                       "16", "--path", "sin(tau)", "--qdot",
                                       "log(tau - 2)"]),
    ("sweep-action-grid-and-qdot", ["sweep", *L1, "--alpha", "0.25,0.5",
                                    "--gamma", "i", "--domain", "0,1", "--n", "2",
                                    "--path", "1", "--qdot", "log(tau - 2)"]),
    ("sweep-action-bad-reference", ["sweep", "--lagrangian", "log(q)", "--alpha",
                                    "0.25,0.5", "--gamma", "i", "--domain", "0,1",
                                    "--n", "16", "--path", "tau - 0.55"]),
    ("sweep-action-subnormal", ["sweep", *L1, "--alpha", "1e-310,0.5", *LINE]),
    ("sweep-action-bad-n", ["sweep", *L1, "--alpha", "0.25,0.5", "--domain", "0,1",
                            "--n", "1.5", "--path", "tau"]),
    ("sweep-action-no-domain", ["sweep", *L1, "--alpha", "0.25,0.5", "--path",
                                "tau"]),
    ("sweep-action-bad-lagrangian", ["sweep", "--lagrangian", "qdot^", "--alpha",
                                     "0.25,0.5", "--domain", "0,1", "--n", "16",
                                     "--path", "log(tau - 2)"]),
    ("sweep-action-unread-qdot", ["sweep", *L2, "--alpha", "0.3,0.6", *PLANE,
                                  "--qdot", "1"]),
    ("sweep-deriv", ["sweep", "--sweep-kind", "deriv", "--alpha", "1e-310,0.7",
                     "--gamma=0.3,0.4", *LINE]),
    ("sweep-deriv-2d", ["sweep", "--sweep-kind", "deriv", "--alpha", "0.2,0.7",
                        "--axis", "y", *PLANE]),
    ("sweep-deriv-left", ["sweep", "--sweep-kind", "deriv", "--operator", "left",
                          "--alpha", "0.2,0.7", *LINE]),
    ("sweep-deriv-bad-path", ["sweep", "--sweep-kind", "deriv", "--alpha",
                              "0.2,0.7", "--domain", "0,1", "--n", "8",
                              "--path-file", "short.csv"]),
    ("sweep-residual", ["sweep", "--sweep-kind", "residual", *L1, "--alpha",
                        "0.25,0.5,0.75", "--domain", "0,1", "--n", "16", "--path",
                        "sin(tau)", "--qdot", "cos(tau)"]),
    ("sweep-residual-cresson", ["sweep", "--sweep-kind", "residual", *L1,
                                "--alpha", "1e-310,0.5", "--gamma", "-i", *LINE]),
    ("sweep-residual-cresson-minus-i", ["sweep", "--sweep-kind", "residual", *L1,
                                        "--alpha", "0.25,0.5,0.75", "--gamma=-i",
                                        *LINE]),
    ("sweep-residual-cresson-subnormal", ["sweep", "--sweep-kind", "residual",
                                          *L1, "--alpha", "1e-310,0.5,0.75",
                                          "--gamma=0.3,-0.7", *LINE]),
    ("sweep-residual-2d", ["sweep", "--sweep-kind", "residual", *L2, "--alpha",
                           "0.3,0.6", "--gamma=0.3,0.2", *PLANE]),
    ("sweep-residual-log", ["sweep", "--sweep-kind", "residual", "--lagrangian",
                            "qdot^2/2 + log(q)", "--alpha", "0.25,0.5",
                            "--domain", "0,1", "--n", "16", "--path", "tau - 0.5"]),
    ("sweep-solve-ivp", ["sweep", "--sweep-kind", "solve-ivp", *L1, "--alpha",
                         "1e-310,0.5", "--domain", "0,1", "--n", "40", "--q0", "0",
                         "--v0", "1"]),
    ("sweep-solve-bvp", ["sweep", "--sweep-kind", "solve-bvp", *L1, "--alpha",
                         "0.25,0.5,0.75", *BVP]),
    ("sweep-solve-bvp-failing", ["sweep", "--sweep-kind", "solve-bvp",
                                 "--lagrangian", "qdot^2/2 - 30*q^2", "--alpha",
                                 "1e-310,0.5", *BVP]),
    ("sweep-minimize", ["sweep", "--sweep-kind", "minimize", *L1, "--alpha",
                        "0.25,0.5", *BVP]),
    ("sweep-minimize-failing", ["sweep", "--sweep-kind", "minimize",
                                "--lagrangian", "qdot^2/2 - 30*q^2", "--alpha",
                                "1e-310,0.5", "--domain", "0,1", "--n", "12",
                                "--boundary", "0,1"]),
    ("sweep-alpha-range", ["sweep", *L1, "--alpha", "0.5,1.0", *LINE]),
    # failures before any output
    ("no-subcommand", ["--alpha", "0.5"]),
    ("unknown-flag", ["action", "--alpah", "0.5"]),
    ("repeated-flag", ["action", *L1, "--alpha", "0.5", "--alpha", "0.6", *LINE]),
    ("unknown-spec-key", ["action", "--spec", "unknown.spec"]),
    ("missing-spec-file", ["action", "--spec", "missing.spec"]),
    ("spec-kind-conflict", ["residual", "--spec", "action.spec"]),
    ("bad-gamma", ["action", *L1, "--alpha", "0.5", "--gamma", "j", *LINE]),
    ("bad-variant", ["action", *L2, "--alpha", "0.5", "--variant", "classic",
                     *PLANE]),
    ("alpha-range", ["action", *L1, "--alpha", "1.5", *LINE]),
    ("alpha-list", ["action", *L1, "--alpha", "0.3,0.4", "--variant", "classic",
                    *LINE]),
    ("too-many-nodes", ["deriv", "--alpha", "0.5", "--domain", "0,1", "--domain",
                        "0,1", "--n", "2048", "--path", "x"]),
    ("path-and-file", ["action", *L1, "--alpha", "0.5", *LINE, "--path-file",
                       "line.csv"]),
    ("missing-path", ["action", *L1, "--alpha", "0.5", "--domain", "0,1", "--n",
                      "16"]),
    ("path-coordinates", ["action", *L1, "--alpha", "0.5", "--domain", "0,1",
                          "--n", "16", "--path", "x"]),
    ("file-shape", ["action", *L1, "--alpha", "0.5", "--domain", "0,1", "--n", "4",
                    "--path-file", "line.csv"]),
    ("unread-key", ["action", *L1, "--alpha", "0.5", "--q0", "1", *LINE]),
    ("parse-error", ["action", "--lagrangian", "qdot^^2", "--alpha", "0.5", *LINE]),
    ("bad-grid", ["action", *L1, "--alpha", "0.5", "--domain", "1,0", "--n", "16",
                  "--path", "tau"]),
    ("grid-width-overflow", ["action", "--lagrangian", "qdot^2/2", "--alpha", "0.5",
                             "--domain", "-1e308,1e308", "--n", "4", "--path",
                             "tau"]),
    ("unwritable-out", ["action", *L1, "--alpha", "0.5", *LINE, "--out",
                        "missing/out.csv"]),
)


def run_call(main, argv, keep=None) -> str:
    """One line for one call of ``main``: sha256 of out.csv, the exit
    status and stderr, with the output file removed after it (its bytes
    written to the path ``keep`` first, if given)."""
    if "--out" not in argv:
        argv = [*argv, "--out", "out.csv"]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        status = main(argv)
    out = Path("out.csv")
    digest = "-"
    if out.exists():
        data = out.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if keep is not None:
            keep.write_bytes(data)
        out.unlink()
    return f"{digest} {status} {err.getvalue()!r}"


def run(calls, keep=None) -> list:
    """The line "name sha256 status stderr" of each (name, argv) of
    ``calls``, run through the ``falva.cli.main`` that ``import falva``
    finds, in a temporary working directory.  With a directory ``keep``,
    each output file is also written there as ``<name>.csv``."""
    from falva.cli import main

    if keep is not None:
        keep = Path(keep).resolve()
        keep.mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for name, text in FILES.items():
                Path(name).write_text(text, encoding="utf-8")
            lines = []
            for name, argv in calls:
                kept = None if keep is None else keep / f"{name}.csv"
                lines.append(f"{name} {run_call(main, argv, kept)}")
            return lines
        finally:
            os.chdir(cwd)


def _number(cell: str):
    """The finite float ``cell`` holds, else None."""
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def compare_files(a: bytes, b: bytes):
    """(worst, other) for two CSV outputs: ``worst`` the largest
    |a - b| / (1 + max|column of a|) over the cells that hold a finite
    number in both, ``other`` whether any other cell differs."""
    rows_a = [line.split(",") for line in a.decode("utf-8").splitlines()]
    rows_b = [line.split(",") for line in b.decode("utf-8").splitlines()]
    scale = {}
    for row in rows_a:
        for col, cell in enumerate(row):
            value = _number(cell)
            if value is not None:
                scale[col] = max(scale.get(col, 0.0), abs(value))
    worst, other = 0.0, len(rows_a) != len(rows_b)
    for row_a, row_b in zip(rows_a, rows_b):
        other |= len(row_a) != len(row_b)
        for col, (cell_a, cell_b) in enumerate(zip(row_a, row_b)):
            if cell_a == cell_b:
                continue
            x, y = _number(cell_a), _number(cell_b)
            if x is None or y is None:
                other = True
            else:
                worst = max(worst, abs(x - y) / (1.0 + scale[col]))
    return worst, other


def compare(dir_a, dir_b) -> list:
    """One line "name worst other" for each call whose kept files in
    ``dir_a`` and ``dir_b`` differ (see ``compare_files``); a file that
    only one directory holds gives "name only in DIR"."""
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    order = {name: k for k, (name, _) in enumerate(CALLS)}
    names = {p.stem for d in (dir_a, dir_b) for p in d.glob("*.csv")}
    lines = []
    for name in sorted(names, key=lambda n: (order.get(n, len(order)), n)):
        a, b = dir_a / f"{name}.csv", dir_b / f"{name}.csv"
        if not (a.exists() and b.exists()):
            lines.append(f"{name} only in {a.parent if a.exists() else b.parent}")
            continue
        data_a, data_b = a.read_bytes(), b.read_bytes()
        if data_a != data_b:
            worst, other = compare_files(data_a, data_b)
            text = "other cells differ" if other else "numeric cells only"
            lines.append(f"{name} {worst:.3g} {text}")
    return lines


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the src directory of the falva to run")
    parser.add_argument("--keep", type=Path, metavar="DIR",
                        help="write each call's output file to DIR/<name>.csv")
    parser.add_argument("--compare", type=Path, nargs=2,
                        metavar=("DIR_A", "DIR_B"),
                        help="compare the kept files of two runs instead")
    args = parser.parse_args()
    if args.compare:
        lines = compare(*args.compare)
    else:
        sys.path.insert(0, str(args.src.resolve()))
        lines = run(CALLS, args.keep)
    for line in lines:
        print(line)
