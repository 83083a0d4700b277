import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from falva import cli
from falva.cli import main


def _read(path):
    return path.read_text(encoding="utf-8")


def _data_rows(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


class TestActionKind:
    def test_constant_action_value(self, tmp_path):
        out = tmp_path / "action.csv"
        code = main([
            "action", "--lagrangian", "1", "--variant", "classic",
            "--alpha", "0.5", "--domain", "0,1", "--n", "512",
            "--path", "0", "--out", str(out),
        ])
        assert code == 0
        header, rows = _data_rows(_read(out))
        value = float(rows[0][header.index("value_re")])
        assert abs(value - 1.0 / math.gamma(1.5)) < 1e-10

    def test_spec_file_with_flag_override(self, tmp_path):
        spec = tmp_path / "run.spec"
        spec.write_text(
            "kind=action\nlagrangian=1\nvariant=classic\nalpha=0.25\n"
            "domain=0,1\nn=128\npath=0\nout=" + str(tmp_path / "a.csv") + "\n",
            encoding="utf-8",
        )
        out = tmp_path / "b.csv"
        code = main(["action", "--spec", str(spec), "--alpha", "0.5",
                     "--out", str(out)])
        assert code == 0
        header, rows = _data_rows(_read(out))
        value = float(rows[0][header.index("value_re")])
        assert abs(value - 1.0 / math.gamma(1.5)) < 1e-10  # 0.5 won

    def test_2d_action(self, tmp_path):
        out = tmp_path / "a2.csv"
        code = main([
            "action", "--lagrangian", "1", "--alpha", "0.5", "--gamma=-i",
            "--domain", "0,1", "--domain", "0,1", "--n", "32",
            "--path", "0", "--out", str(out),
        ])
        assert code == 0
        header, rows = _data_rows(_read(out))
        value = float(rows[0][header.index("value_re")])
        assert abs(value - 4.0 / math.pi) < 1e-10


class TestDerivKind:
    def test_zero_function_all_zero(self, tmp_path):
        out = tmp_path / "deriv.csv"
        code = main(["deriv", "--path", "0", "--domain", "0,1", "--n", "32",
                     "--alpha", "0.5", "--out", str(out)])
        assert code == 0
        header, rows = _data_rows(_read(out))
        col = header.index("deriv_re")
        assert all(float(r[col]) == 0.0 for r in rows)

    def test_left_operator(self, tmp_path):
        out = tmp_path / "deriv.csv"
        code = main(["deriv", "--path", "tau", "--operator", "left",
                     "--domain", "0,1", "--n", "64", "--alpha", "0.5",
                     "--out", str(out)])
        assert code == 0
        header, rows = _data_rows(_read(out))
        last = rows[-1]
        assert abs(float(last[header.index("deriv_re")])
                   - 1.0 / math.gamma(1.5)) < 1e-10


class TestSolveKinds:
    def test_bvp_slope_in_comments(self, tmp_path):
        out = tmp_path / "bvp.csv"
        eps = max(0.02, 2.0 / 400)
        code = main([
            "solve-bvp", "--lagrangian", "qdot^2/2", "--alpha", "0.5",
            "--domain", "0,1", "--n", "400", "--boundary", "0,1",
            "--margin-target", format(1.0 - eps**1.5, ".17g"),
            "--out", str(out),
        ])
        assert code == 0
        text = _read(out)
        v0 = float(next(ln for ln in text.splitlines()
                        if ln.startswith("# v0=")).split("=", 1)[1])
        assert abs(v0 - 1.5) < 1e-3

    def test_ivp(self, tmp_path):
        out = tmp_path / "ivp.csv"
        code = main([
            "solve-ivp", "--lagrangian", "qdot^2/2", "--alpha", "0.5",
            "--domain", "0,1", "--n", "500", "--q0", "0", "--v0", "1.5",
            "--out", str(out),
        ])
        assert code == 0
        header, rows = _data_rows(_read(out))
        tau = np.array([float(r[0]) for r in rows])
        q = np.array([float(r[1]) for r in rows])
        assert np.max(np.abs(q - (1 - (1 - tau) ** 1.5))) < 1e-3

    def test_minimize(self, tmp_path):
        out = tmp_path / "dm.csv"
        code = main([
            "minimize", "--lagrangian", "qdot^2/2", "--alpha", "0.9",
            "--domain", "0,1", "--n", "100", "--boundary", "0,1",
            "--out", str(out),
        ])
        assert code == 0
        assert "# converged=true" in _read(out)

    def test_residual(self, tmp_path):
        out = tmp_path / "res.csv"
        code = main([
            "residual", "--lagrangian", "qdot^2/2", "--variant", "classic",
            "--alpha", "0.5", "--domain", "0,1", "--n", "200",
            "--path", "1 - (1-tau)^1.5", "--out", str(out),
        ])
        assert code == 0
        sup = float(next(ln for ln in _read(out).splitlines()
                         if ln.startswith("# sup_norm=")).split("=", 1)[1])
        assert sup < 0.05


class TestSweep:
    def test_alpha_sweep_values(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--lagrangian", "1", "--variant", "classic",
            "--alpha", "0.25,0.5,0.75", "--domain", "0,1", "--n", "256",
            "--path", "0", "--out", str(out),
        ])
        assert code == 0
        header, rows = _data_rows(_read(out))
        i_alpha = header.index("alpha")
        i_val = header.index("value_re")
        i_status = header.index("status")
        assert [float(r[i_alpha]) for r in rows] == [0.25, 0.5, 0.75]
        for row in rows:
            alpha = float(row[i_alpha])
            assert row[i_status] == "ok"
            assert abs(float(row[i_val]) - 1.0 / math.gamma(alpha + 1.0)) < 1e-10

    def test_single_alpha_with_classical_reference(self, tmp_path):
        out = tmp_path / "sweep1.csv"
        code = main([
            "sweep", "--lagrangian", "qdot^2/2 - q^2/2", "--variant", "classic",
            "--alpha", "0.999", "--domain", "0,1", "--n", "512",
            "--path", "sin(tau)", "--qdot", "cos(tau)", "--out", str(out),
        ])
        assert code == 0
        header, rows = _data_rows(_read(out))
        value = float(rows[0][header.index("value_re")])
        classical = float(rows[0][header.index("classical_ref")])
        assert abs(value - classical) / abs(classical) < 1e-2

    def test_empty_alpha_is_validation_error(self, tmp_path, capsys):
        code = main(["sweep", "--lagrangian", "1", "--alpha", "",
                     "--domain", "0,1", "--n", "64", "--path", "0",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("FALVA-ERR ")

    def test_failed_entry_recorded_and_sweep_continues(self, tmp_path):
        # sqrt(q-10) fails at evaluation for every node, per alpha
        out = tmp_path / "sweepfail.csv"
        code = main([
            "sweep", "--lagrangian", "sqrt(q - 10)", "--variant", "classic",
            "--alpha", "0.25,0.5", "--domain", "0,1", "--n", "32",
            "--path", "tau", "--out", str(out),
        ])
        assert code == 0
        header, rows = _data_rows(_read(out))
        i_status = header.index("status")
        assert all(r[i_status].startswith("FALVA-ERR") for r in rows)


class TestFailurePaths:
    def test_unknown_kind_like_misuse(self, capsys):
        code = main(["action"])  # missing everything
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("FALVA-ERR ") and err.count("\n") == 1

    def test_parse_error_exit_2(self, tmp_path, capsys):
        code = main(["action", "--lagrangian", "sin(q", "--variant", "classic",
                     "--alpha", "0.5", "--domain", "0,1", "--n", "32",
                     "--path", "0", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "FALVA-ERR parse:" in capsys.readouterr().err

    def test_numerical_failure_exit_3(self, tmp_path, capsys):
        # conjugate point: unreachable boundary value
        t = format(math.pi / 0.98, ".17g")
        code = main([
            "solve-bvp", "--lagrangian", "qdot^2/2 - q^2/2",
            "--alpha", "0.999999", "--domain", f"0,{t}", "--n", "400",
            "--boundary", "0,1", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 3
        assert "FALVA-ERR bracket:" in capsys.readouterr().err

    def test_slot_mismatch_exit_2(self, tmp_path, capsys):
        code = main(["action", "--lagrangian", "qx^2", "--variant", "classic",
                     "--alpha", "0.5", "--domain", "0,1", "--n", "32",
                     "--path", "0", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "FALVA-ERR slots:" in capsys.readouterr().err


class TestDeterminism:
    def test_three_runs_byte_identical(self, tmp_path):
        outs = []
        for k in range(3):
            out = tmp_path / f"run{k}.csv"
            code = main([
                "sweep", "--lagrangian", "qdot^2/2 - q^2/2",
                "--variant", "classic", "--alpha", "0.25,0.5,0.75",
                "--domain", "0,1", "--n", "256", "--path", "sin(tau)",
                "--out", str(out),
            ])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_console_entry_point(self, tmp_path):
        out = tmp_path / "sub.csv"
        cmd = [sys.executable, "-m", "falva", "action", "--lagrangian", "1",
               "--variant", "classic", "--alpha", "0.5", "--domain", "0,1",
               "--n", "64", "--path", "0", "--out", str(out)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0
        assert out.exists()

    def test_threaded_sweep_matches_serial(self, tmp_path, monkeypatch):
        args = ["sweep", "--lagrangian", "1", "--variant", "classic",
                "--alpha", "0.2,0.4,0.6,0.8", "--domain", "0,1", "--n", "128",
                "--path", "0"]
        serial = tmp_path / "serial.csv"
        threaded = tmp_path / "threaded.csv"
        monkeypatch.setenv("FALVA_THREADS", "1")
        assert main(args + ["--out", str(serial)]) == 0
        monkeypatch.setenv("FALVA_THREADS", "4")
        assert main(args + ["--out", str(threaded)]) == 0
        assert serial.read_bytes() == threaded.read_bytes()


class TestFieldFile:
    def test_round_trip_2d_residual(self, tmp_path):
        # row-major flat CSV with a shape header line
        n = 24
        nodes = np.linspace(0.0, 1.0, n + 1)
        X, Y = np.meshgrid(nodes, nodes, indexing="ij")
        field = X * Y
        path = tmp_path / "field.csv"
        lines = ["shape,%d,%d" % (n + 1, n + 1)]
        lines += [format(v, ".17g") for v in field.ravel()]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "res2.csv"
        code = main([
            "residual", "--lagrangian", "(qx^2 + qy^2)/2",
            "--alpha", "0.999", "--gamma=-i",
            "--domain", "0,1", "--domain", "0,1", "--n", str(n),
            "--path-file", str(path), "--out", str(out),
        ])
        assert code == 0
        header, rows = _data_rows(_read(out))
        assert header[:2] == ["x", "y"]
        assert len(rows) == (n + 1) ** 2


def _glibc() -> bool:
    try:
        return os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc")
    except (AttributeError, ValueError):
        return False


_DERIV = ["deriv", "--alpha", "0.4", "--gamma=0.3,-0.6", "--path", "1+tau^1.5",
          "--domain", "0,1", "--n", "64"]


class TestFreedHeap:
    @pytest.mark.skipif(not sys.platform.startswith("linux") or not _glibc(),
                        reason="the mallopt thresholds are glibc's")
    def test_line_kernel_stops_faulting_after_main(self, tmp_path):
        # without the thresholds each call faults its temporaries and
        # pocketfft's scratch in again, about 1900 minor faults at n = 16384
        code = textwrap.dedent(f"""
            import resource, sys
            import falva
            from falva.cli import main
            assert main({_DERIV + ["--out", str(tmp_path / "d.csv")]!r}) == 0
            grid = falva.Grid1D(0.0, 1.0, 16384)
            L = falva.parse("qdot^2/2 - 0.7*q^2/2")
            q = falva.GridFunction(grid, 1.1 * grid.nodes ** 1.5)
            orders = falva.OrderSet.for_1d(0.5, 0.5, complex(0.3, -0.6))
            falva.el_residual_1d_cresson(L, q, orders)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for _ in range(5):
                falva.el_residual_1d_cresson(L, q, orders)
            after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            print((after - before) / 5)
            """)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) < 100

    def test_import_leaves_the_allocator_alone(self):
        code = ("import falva, falva.cli; "
                "print(falva.cli._keep_freed_heap.cache_info().currsize)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True)
        assert (proc.returncode, proc.stdout) == (0, "0\n"), proc.stderr

    def _run_twice(self, tmp_path, monkeypatch, mallopt):
        monkeypatch.setattr(cli, "_mallopt", lambda: mallopt)
        cli._keep_freed_heap.cache_clear()
        try:
            outs = []
            for k in range(2):
                out = tmp_path / f"run{k}.csv"
                assert main(_DERIV + ["--out", str(out)]) == 0
                outs.append(out.read_bytes())
        finally:
            cli._keep_freed_heap.cache_clear()
        return outs

    def test_no_mallopt_writes_the_same_bytes(self, tmp_path, monkeypatch):
        reference = tmp_path / "reference.csv"
        assert main(_DERIV + ["--out", str(reference)]) == 0
        outs = self._run_twice(tmp_path, monkeypatch, None)
        assert outs == [reference.read_bytes()] * 2

    @pytest.mark.parametrize("accepts", [1, 0])
    def test_set_at_most_once_per_process(self, tmp_path, monkeypatch, accepts):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return accepts

        self._run_twice(tmp_path, monkeypatch, mallopt)
        thresholds = [(cli._M_MMAP_THRESHOLD, 32 << 20),
                      (cli._M_TRIM_THRESHOLD, 64 << 20)]
        # a refused mmap threshold leaves the trim threshold alone too
        assert calls == thresholds[:1 + accepts]
