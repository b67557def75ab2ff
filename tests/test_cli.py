"""CLI tests: flags, formats, exit codes, round-trips and golden schemas."""

import csv
import io
import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

from asianlns import WeightParams, weight_density
from asianlns.cli import build_parser, main


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestPriceCommand:
    def test_case1_table(self):
        code, out, err = run_cli(["price", "--r", ".02", "--sigma", ".10", "--T", "1",
                                  "--S0", "2", "--K", "2", "--N", "20"])
        assert code == 0
        val = float(out.splitlines()[1].split()[1])
        assert val == pytest.approx(0.05599, abs=1e-4)

    def test_zero_strike_forward(self):
        code, out, _ = run_cli(["price", "--K", "0", "--N", "5", "--r", ".05",
                                "--sigma", ".25", "--T", "1", "--S0", "1",
                                "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        want = math.exp(-0.05) * math.expm1(0.05) / 0.05
        assert doc["results"][0]["price"] == pytest.approx(want, rel=1e-12)

    def test_tau_record_on_stderr(self):
        code, _, err = run_cli(["price", "--sigma", "1", "--T", "1", "--r", ".05"])
        assert code == 0
        assert "# N=20 code=tau_above_rule stage=model value=1.0 threshold=0.5\n" in err

    def test_config_echo_includes_weight(self):
        code, out, _ = run_cli(["price", "--r", ".02", "--sigma", ".1", "--T", "1",
                                "--format", "json"])
        doc = json.loads(out)
        assert doc["config"]["weight_nu2"] == pytest.approx(0.0051)
        assert "weight_mu" in doc["config"]
        # case-1 nu^2: the basis keeps degrees 0..9 of the requested 20
        assert [res["resolvable_degree"] for res in doc["results"]] == [9, 9, 9]
        # so the convergence diagnostic reads |f_9 ell_9|, not the zero term N
        assert all(res["convergence_diag"] > 0.0 for res in doc["results"])

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["price", "--bogus", "1"]) == 2
        capsys.readouterr()

    def test_bad_market_exits_2(self):
        for sigma in ("-0.5", "1e160"):  # the second has an infinite sigma^2 T
            code, _, err = run_cli(["price", "--sigma", sigma])
            assert code == 2
            assert "sigma" in err

    def test_bad_order_list_exits_2(self):
        code, _, _ = run_cli(["price", "--N", "10,abc"])
        assert code == 2
        code, _, err = run_cli(["price", "--N", ","])
        assert code == 2 and "empty order list" in err

    def test_numerical_failure_exits_3_named_module(self):
        code, _, err = run_cli(["price", "--sigma", "9", "--T", "9", "--N", "20"])
        assert code == 3
        assert "module basis" in err


class TestBenchCommand:
    def test_csv_schema_and_values(self):
        code, out, err = run_cli(["bench", "--format", "csv"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["case", "r", "sigma", "T", "S0", "K",
                          "LNS10", "LNS15", "LNS20"]
        assert len(rows) == 7
        lns20 = [float(r[8]) for r in rows]
        refs = [.05599, .2184, .1722, .1928, .2461, .3061, .3499]
        for got, ref in zip(lns20, refs):
            assert got == pytest.approx(ref, abs=2e-4)
        assert "# config:" in err

    def test_with_mc_deterministic(self):
        args = ["bench", "--with-mc", "--seed", "42", "--paths", "20000",
                "--dt", "1e-2", "--format", "csv"]
        _, out1, _ = run_cli(args)
        _, out2, _ = run_cli(args)
        assert out1 == out2
        header, rows = parse_csv(out1)
        assert header[-2:] == ["mc_lo", "mc_hi"]
        for r in rows:
            assert float(r[-2]) < float(r[-1])

    def test_timings_under_budget(self):
        code, out, _ = run_cli(["bench", "--timings", "--format", "csv"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header[-1] == "ms"
        for r in rows:
            assert float(r[-1]) < 100.0

    def test_batches_flag_is_gone(self, capsys):
        # the worker count follows the CPU affinity; no flag sets it
        assert main(["bench", "--batches", "2"]) == 2
        assert "--batches" in capsys.readouterr().err

    def test_table_shows_reference_block(self):
        _, out, _ = run_cli(["bench"])
        assert "reference values (external fixture data)" in out

    def test_17_digit_round_trip(self):
        _, out, _ = run_cli(["bench", "--format", "csv"])
        _, rows = parse_csv(out)
        # every emitted number parses back to the same double it came from
        for cell in rows[0][6:]:
            assert "%.17g" % float(cell) == cell


class TestDensityCommand:
    def test_g0_column_is_weight_density(self):
        code, out, _ = run_cli(["density", "--case", "1", "--N", "8",
                                "--grid-points", "40", "--format", "csv"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["x", "g0", "g4", "g8"]
        x = np.array([float(r[0]) for r in rows])
        g0 = np.array([float(r[1]) for r in rows])
        _, out_cfg, _ = run_cli(["density", "--case", "1", "--N", "8",
                                 "--grid-points", "40", "--format", "json"])
        cfg = json.loads(out_cfg)["config"]
        w = WeightParams(mu=cfg["weight_mu"], nu=math.sqrt(cfg["weight_nu2"]))
        np.testing.assert_allclose(g0, weight_density(w, x), rtol=1e-12)

    def test_default_grid_mass(self):
        code, out, _ = run_cli(["density", "--case", "3", "--N", "20",
                                "--format", "csv"])
        assert code == 0
        _, rows = parse_csv(out)
        x = np.array([float(r[0]) for r in rows])
        g = np.array([float(r[3]) for r in rows])
        assert np.trapezoid(g, x) == pytest.approx(1.0, abs=1e-4)

    def test_with_mc_columns(self):
        code, out, _ = run_cli(["density", "--case", "2", "--N", "6",
                                "--grid-points", "10", "--with-mc",
                                "--paths", "8192", "--dt", "1e-2",
                                "--seed", "3", "--format", "csv"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header[-2:] == ["mc_density", "mc_se"]
        assert all(float(r[-1]) >= 0.0 for r in rows)

    def test_explicit_grid_and_case_validation(self):
        code, _, _ = run_cli(["density", "--case", "9"])
        assert code == 2
        code, _, _ = run_cli(["density", "--case", "2", "--grid-min", "2",
                              "--grid-max", "1"])
        assert code == 2

    def test_output_file(self, tmp_path):
        target = tmp_path / "dens.csv"
        code, out, _ = run_cli(["density", "--case", "2", "--N", "4",
                                "--grid-points", "9", "--format", "csv",
                                "--output", str(target)])
        assert code == 0 and out == ""
        header, rows = parse_csv(target.read_text())
        assert header[0] == "x" and len(rows) == 9

    def test_case1_series_tracks_mc_density(self):
        # full verification budget: the N=20 curve sits on the Monte-Carlo
        # estimate at >= 95% of points, with the tolerance floored at 1% of
        # the peak (the dt-discretization offset of the estimator exceeds
        # its control-variate standard errors)
        code, out, _ = run_cli(["density", "--case", "1", "--N", "20",
                                "--grid-points", "60", "--with-mc",
                                "--paths", "200000", "--dt", "1e-3",
                                "--seed", "42", "--format", "csv"])
        assert code == 0
        header, rows = parse_csv(out)
        g = np.array([float(r[header.index("g20")]) for r in rows])
        mc = np.array([float(r[header.index("mc_density")]) for r in rows])
        se = np.array([float(r[header.index("mc_se")]) for r in rows])
        tol = np.maximum(3.0 * se, 0.01 * mc.max())
        assert np.mean(np.abs(g - mc) <= tol) >= 0.95


class TestErrboundCommand:
    def test_zero_strike_bound_is_zero(self):
        code, out, _ = run_cli(["errbound", "--K", "0", "--r", ".05",
                                "--sigma", ".5", "--T", "1", "--S0", "1",
                                "--paths", "8192", "--dt", "1e-2",
                                "--format", "csv"])
        assert code == 0
        header, rows = parse_csv(out)
        assert float(rows[0][header.index("bound")]) == 0.0

    def test_sigma_grid_rows(self):
        code, out, err = run_cli(["errbound", "--sigma-grid", "0.3,0.8",
                                  "--r", ".05", "--T", "1", "--S0", "2", "--K", "2",
                                  "--paths", "8192", "--dt", "1e-2",
                                  "--format", "csv"])
        assert code == 0
        header, rows = parse_csv(out)
        assert [float(r[0]) for r in rows] == [0.3, 0.8]
        assert "tau=" not in rows[0]
        assert header == ["sigma", "N", "price", "eps_F", "eps_ell", "eps_ell_se",
                          "bound", "bound_hi", "mc_price", "mc_se", "sqrt_sre"]
        # sigma=0.8 exceeds the recommended regime: its record on stderr
        assert ("# sigma=0.8 N=20 code=tau_above_rule stage=model "
                "value=0.6400000000000001 threshold=0.5\n") in err
        assert "sigma=0.3" not in err

    def test_zero_series_price(self):
        # far out of the money the series price is exactly 0, so the
        # relative error is undefined: nan, not a crash
        code, out, err = run_cli(["errbound", "--K", "100", "--sigma", "0.1",
                                  "--paths", "2000", "--dt", "0.1", "--format", "csv"])
        assert code == 0, err
        header, rows = parse_csv(out)
        assert float(rows[0][header.index("price")]) == 0.0
        assert math.isnan(float(rows[0][header.index("sqrt_sre")]))

    def test_bad_sigma_grid_exits_2(self):
        code, _, err = run_cli(["errbound", "--sigma-grid", "0.3,abc"])
        assert code == 2
        assert "module cli" in err and "sigma grid" in err


class TestDiagnosticRecords:
    @pytest.mark.parametrize("argv", [
        ["price", "--r", ".02", "--sigma", ".1", "--T", "1", "--N", "5,20"],
        ["bench"],
        ["density", "--case", "1", "--N", "20", "--grid-points", "5"],
        ["errbound", "--sigma-grid", "0.1,0.8", "--paths", "4096", "--dt", "1e-2"],
    ])
    def test_json_diagnostics_are_records(self, argv):
        code, out, _ = run_cli(argv + ["--format", "json"])
        assert code == 0
        diagnostics = json.loads(out)["diagnostics"]
        assert diagnostics  # each run holds a truncated or tau_above_rule price
        for rec in diagnostics:
            assert {"code", "stage", "value", "threshold"} <= set(rec)

    def test_bench_failure_record(self, monkeypatch):
        import asianlns.cli as cli
        from asianlns import NumericalError
        case3, real_price = cli.benchmark_cases()[2], cli.price

        def failing_price(market, N):
            if market == case3:
                raise NumericalError("boom", module="basis")
            return real_price(market, N)

        monkeypatch.setattr(cli, "price", failing_price)
        code, out, _ = run_cli(["bench", "--format", "json"])
        assert code == 0
        failed = [rec for rec in json.loads(out)["diagnostics"] if rec["code"] == "failed"]
        assert failed == [{"case": 3, "code": "failed", "stage": "basis", "value": None,
                           "threshold": None, "message": "boom"}]

    def test_norm_skipped_record(self, monkeypatch):
        import asianlns.cli as cli
        from asianlns import ValidationError

        def refuse(*args, **kwargs):
            raise ValidationError("no norm", module="mc")

        monkeypatch.setattr(cli, "likelihood_norm_sq", refuse)
        code, out, err = run_cli(["errbound", "--sigma", ".3", "--paths", "4096",
                                  "--dt", "1e-2", "--format", "csv"])
        assert code == 0
        assert ("# sigma=0.3 N=20 code=norm_skipped stage=mc value=None "
                "threshold=None message=no norm\n") in err
        header, rows = parse_csv(out)
        assert math.isnan(float(rows[0][header.index("bound")]))


def strict_json(text):
    """Parse ``text`` as RFC 8259 JSON, which has no NaN or Infinity."""
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


class TestOutputContract:
    def test_json_writes_nonfinite_as_null(self, monkeypatch):
        _, out, _ = run_cli(["price", "--N", "0", "--format", "json"])
        assert strict_json(out)["results"][0]["convergence_diag"] is None
        _, out, _ = run_cli(["errbound", "--K", "100", "--sigma", "0.1",
                             "--paths", "2000", "--dt", "0.1", "--format", "json"])
        assert strict_json(out)["results"][0]["sqrt_sre"] is None

        import asianlns.cli as cli
        from asianlns import ValidationError

        def refuse(*args, **kwargs):
            raise ValidationError("no norm", module="mc")

        monkeypatch.setattr(cli, "likelihood_norm_sq", refuse)
        _, out, _ = run_cli(["errbound", "--sigma", ".3", "--paths", "4096",
                             "--dt", "1e-2", "--format", "json"])
        row = strict_json(out)["results"][0]
        assert [row[c] for c in ("eps_ell", "eps_ell_se", "bound", "bound_hi")] == [None] * 4
        assert row["price"] > 0.0

    @pytest.mark.parametrize("argv,json_only", [
        (["price", "--N", "0,5,20"], {"resolvable_degree"}),
        (["bench", "--with-mc", "--paths", "4096", "--dt", "5e-2", "--seed", "3"], {"mc_se"}),
        (["density", "--case", "2", "--N", "4", "--grid-points", "7"], set()),
        (["density", "--N", "0", "--grid-points", "7"], set()),
        (["density", "--case", "3", "--N", "6", "--grid-points", "7", "--with-mc",
          "--paths", "4096", "--dt", "5e-2"], set()),
        (["errbound", "--sigma-grid", "0.3,0.8", "--paths", "4096", "--dt", "5e-2"], set()),
    ])
    def test_csv_rows_match_json_results(self, argv, json_only):
        # one result table: a csv row holds its JSON result's values, each
        # column once; only these headers differ from their JSON keys
        key = {"conv_diag": "convergence_diag",
               "LNS10": "lns10", "LNS15": "lns15", "LNS20": "lns20"}
        _, out, _ = run_cli(argv + ["--format", "csv"])
        header, rows = parse_csv(out)
        _, out, _ = run_cli(argv + ["--format", "json"])
        results = strict_json(out)["results"]
        assert len(header) == len(set(header))
        assert len(rows) == len(results)
        for row, res in zip(rows, results):
            assert {key.get(h, h) for h in header} == set(res) - json_only
            for h, cell in zip(header, row):
                want = res[key.get(h, h)]
                assert (math.isnan(float(cell)) if want is None
                        else float(cell) == want), (h, cell, want)

    @pytest.mark.parametrize("argv", [
        ["price", "--r", ".07", "--sigma", ".35", "--T", "1.5", "--S0", "1.2", "--K", "1.1",
         "--N", "5,10"],
        ["bench", "--with-mc", "--paths", "4096", "--dt", "5e-2", "--seed", "3"],
        ["density", "--case", "3", "--N", "6", "--grid-points", "11", "--with-mc",
         "--paths", "4096", "--dt", "1e-2", "--seed", "5"],
        ["errbound", "--sigma-grid", "0.3,0.8", "--N", "10", "--paths", "4096",
         "--dt", "5e-2", "--seed", "7"],
    ])
    def test_json_config_roundtrip_is_bit_identical(self, argv):
        # the config block holds every flag but --output (--case as its
        # market) and, fed back as flags, reproduces the output byte for byte
        _, out1, _ = run_cli(argv + ["--format", "json"])
        cfg = json.loads(out1)["config"]
        dests = vars(build_parser().parse_args([argv[0]]))
        assert set(dests) - {"output", "case"} <= set(cfg)
        rebuilt = [cfg["command"]]
        for key, value in cfg.items():
            if key == "command" or key not in dests or value is None or value is False:
                continue
            rebuilt.append("--" + key.replace("_", "-"))
            if value is not True:
                rebuilt.append(str(value))
        _, out2, _ = run_cli(rebuilt)
        assert out1 == out2

    def test_failed_command_leaves_output_untouched(self, tmp_path):
        kept, fresh = tmp_path / "keep.csv", tmp_path / "fresh.csv"
        kept.write_text("x\n")
        for target in (kept, fresh):
            code, _, err = run_cli(["price", "--N", "99", "--output", str(target)])
            assert code == 2 and "module pricer" in err
        assert kept.read_text() == "x\n"
        assert not fresh.exists()


class TestEntryPoints:
    def test_public_names_resolve(self):
        import asianlns
        missing = [name for name in asianlns.__all__ if not hasattr(asianlns, name)]
        assert missing == []

    def test_import_leaves_out_scipy_stats(self):
        # importing scipy.stats costs more than half a second and ~36 MB;
        # the library needs no scipy at all (see test_runtime_leaves_out_scipy)
        res = subprocess.run(
            [sys.executable, "-c",
             "import asianlns, asianlns.cli, sys; print('scipy.stats' in sys.modules)"],
            capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "False"

    def test_runtime_leaves_out_scipy(self):
        # numpy is the only runtime dependency: a price, its density and an
        # MC price load no scipy module
        code = ("import sys, numpy as np, asianlns, asianlns.cli\n"
                "m = asianlns.benchmark_cases()[4]\n"
                "asianlns.price(m, 20).density()(np.linspace(0.5, 2.0, 5))\n"
                "asianlns.price_cv(m, asianlns.McConfig(paths=512, dt=0.05, seed=1))\n"
                "print([k for k in sys.modules if k == 'scipy' or k.startswith('scipy.')])")
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "[]"

    def test_module_invocation(self):
        res = subprocess.run([sys.executable, "-m", "asianlns.cli", "--version"],
                             capture_output=True, text=True)
        assert res.returncode == 0
        assert "asianlns" in res.stdout

    @pytest.mark.skipif(shutil.which("asianlns") is None,
                        reason="console script not on PATH")
    def test_console_script(self):
        res = subprocess.run(["asianlns", "price", "--r", "0", "--sigma", ".2",
                              "--T", "1", "--N", "0"], capture_output=True, text=True)
        assert res.returncode == 0
