import json
import math
import re
from pathlib import Path

import pytest

from neckfield import config
from neckfield.cli import main
from neckfield.config import (
    ConfigError,
    ExperimentConfig,
    default_config_text,
    emit_config,
    parse_config,
)

FAST_CONFIG = """
[geometry]
curvatures = 2.0

[sweep]
epsilons = 1e-2 2.15e-3 4.64e-4 1e-4

[mesh]
layers = 4
h_far = 0.3

[output]
directory = {outdir}
"""


class TestConfig:
    def test_default_round_trip(self):
        cfg = parse_config(default_config_text())
        assert parse_config(emit_config(cfg)) == cfg
        assert cfg == ExperimentConfig()

    def test_readme_block_parses_and_sets_every_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        (block,) = re.findall(r"```\n(\[geometry\].*?\[output\].*?)```", readme, re.S)
        parse_config(block)
        written, section = set(), None
        for line in block.splitlines():
            body = line.split("#", 1)[0].strip()
            if body.startswith("["):
                section = body[1:-1]
            elif body:
                written.add((section, body.split("=", 1)[0].strip()))
        assert written == {(sec, key) for sec, keys in config._SCHEMA.items() for key in keys}

    def test_unknown_key_is_error(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[geometry]\nwarp = 9\n")
        assert any(key == "warp" for _, key, _ in err.value.problems)

    def test_leading_ratio_is_an_unknown_key(self):
        # No criterion reads it, so it is refused rather than silently ignored.
        with pytest.raises(ConfigError) as err:
            parse_config("[tolerances]\nleading_ratio = 0.05\n")
        assert any(key == "leading_ratio" for _, key, _ in err.value.problems)

    def test_duplicate_key_located(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[mesh]\nlayers = 6\nlayers = 8\n")
        (line, key, msg), = err.value.problems
        assert line == 3 and key == "layers" and "duplicate" in msg

    def test_inadmissible_order_rejected(self):
        text = "[geometry]\ndimension = 3\nprofile = power\norder = 1.5\ncurvatures = 1.0 1.0\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert any("inadmissible" in msg for _, _, msg in err.value.problems)

    def test_type_mismatch_located(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[mesh]\nlayers = soon\n")
        (line, key, _), = err.value.problems
        assert (line, key) == (2, "layers")

    def test_eps_range_checked(self):
        with pytest.raises(ConfigError):
            parse_config("[sweep]\nepsilons = 2.0 0.5 0.1 0.01\n")

    def test_refinement_over_point_budget_located(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[mesh]\nrefinement = 8\n")
        (line, key, msg), = err.value.problems
        assert (line, key) == (2, "refinement")
        assert "241275 points" in msg and "budget of 200000" in msg

    @pytest.mark.parametrize(
        "key,value",
        [("h_far", "nan"), ("h_far", "inf"), ("neck_step_factor", "nan"), ("neck_step_factor", "inf")],
    )
    def test_non_finite_mesh_value_located(self, key, value):
        # NaN passed the sign test and hung the neck stations; inf gave a
        # one-column strip or a raw conversion error.
        with pytest.raises(ConfigError) as err:
            parse_config(f"[mesh]\nlayers = 6\n{key} = {value}\n")
        (line, where, msg), = err.value.problems
        assert (line, where) == (3, key)
        assert msg.startswith(f"{key} must be positive and finite, got {value}")

    @pytest.mark.parametrize(
        "key,value",
        [("layers", "3"), ("h_far", "0"), ("grading_exponent", "1.5"), ("neck_step_factor", "-1"), ("refinement", "-1")],
    )
    def test_mesh_error_on_the_line_of_its_key(self, key, value):
        with pytest.raises(ConfigError) as err:
            parse_config(f"[sweep]\ncount = 6\n[mesh]\n{key} = {value}\n")
        (line, where, msg), = err.value.problems
        assert (line, where) == (4, key)
        assert msg.startswith(f"{key} must be")

    @pytest.mark.parametrize("split,margin", [("0.7 0.3", "0.518"), ("0.75 0.25", "-0.124")])
    def test_inadmissible_split_located(self, split, margin):
        # the caps of a lopsided split reach the outer boundary
        with pytest.raises(ConfigError) as err:
            parse_config(f"[geometry]\nsplit = {split}\n")
        (line, key, msg), = err.value.problems
        assert (line, key) == (2, "split")
        assert f"within {margin} of the outer boundary" in msg
        assert all(name in msg for name in ("split", "curvatures", "outer_radius"))

    @pytest.mark.parametrize(
        "profile,split",
        [("", "0.7 0.3"), ("", "0.2 0.8"), ("profile = power\norder = 4\ncoefficient = 4\n", "0.9 0.1")],
    )
    def test_inadmissible_split_names_smallest_fraction(self, profile, split):
        # The bound the message names is admissible; 1% below it is not.
        with pytest.raises(ConfigError) as err:
            parse_config(f"[geometry]\n{profile}split = {split}\n")
        (_, _, msg), = err.value.problems
        bound = float(re.search(r"smaller split fraction must be at least ([\d.]+)", msg).group(1))
        thin_first = float(split.split()[0]) < 0.5
        for fraction, ok in ((bound, True), (0.99 * bound, False)):
            pair = (fraction, 1.0 - fraction) if thin_first else (1.0 - fraction, fraction)
            text = f"[geometry]\n{profile}split = {pair[0]!r} {pair[1]!r}\n"
            if ok:
                parse_config(text)
                continue
            with pytest.raises(ConfigError) as err:
                parse_config(text)
            (line, key, msg), = err.value.problems
            assert (line, key) == (text.count("\n"), "split")
            assert "outer boundary" in msg and "smaller split fraction must be at least" in msg

    @pytest.mark.parametrize(
        "sweep,msg",
        [
            ("count = 3", "at least four distinct gap values"),
            ("epsilons = 1e-2 1e-3 1e-3 1e-4", "at least four distinct gap values"),
            ("start = 1e-2\nfactor = 2.0", "span at least two decades"),
        ],
    )
    def test_short_sweep_located(self, sweep, msg):
        # run_sweep would refuse these gaps after start-up
        with pytest.raises(ConfigError) as err:
            parse_config(f"[geometry]\ndimension = 2\n\n[sweep]\n{sweep}\n")
        (line, key, text), = err.value.problems
        assert (line, key) == (4, "sweep")
        assert msg in text

    def test_inadmissible_pair_rejected_at_parse(self):
        # any geometry the pair constructor refuses fails before meshing,
        # reported on the line of the key at fault
        for text, cause, at in (
            ("neck_radius = 1.5", "neck radius must lie in (0, 1)", (2, "neck_radius")),
            ("dimension = 3\ncurvatures = 1.0 2.0", "dimension 3 needs an isotropic profile", (3, "curvatures")),
        ):
            with pytest.raises(ConfigError) as err:
                parse_config(f"[geometry]\n{text}\n")
            (line, key, msg), = err.value.problems
            assert (line, key) == at
            assert cause in msg


class TestCommands:
    def test_init_config_prints(self, capsys):
        assert main(["init-config"]) == 0
        out = capsys.readouterr().out
        assert "[geometry]" in out

    def test_constants_exit_zero(self, capsys):
        assert main(["constants", "-n", "2", "-m", "2"]) == 0
        out = capsys.readouterr().out
        assert "oracle limit" in out

    @pytest.mark.parametrize(
        "flags,flag",
        [
            (["--coefficient", "nan"], "--coefficient"),
            (["--coefficient", "inf"], "--coefficient"),
            (["--curvature", "nan"], "--curvature"),
            (["--curvature", "inf"], "--curvature"),
            (["--curvature", "-1"], "--curvature"),
            (["--order", "inf"], "--order"),
            (["--order", "1e6"], "--order"),
            (["--order", "nan"], "--order"),
            (["--neck-radius", "-1"], "--neck-radius"),
            (["--neck-radius", "nan"], "--neck-radius"),
            (["--order", "40", "--neck-radius", "1e10"], "--neck-radius"),
            (["--dimension", "400"], "--dimension"),
            (["--eps", "nan"], "--eps"),
            # A subnormal gap printed an infinite gap integral, or failed
            # the quadrature with exit 3.
            (["--eps", "1e-310"], "--eps"),
            (["-n", "3", "--order", "2", "--eps", "5e-324"], "--eps"),
            (["--coefficient", "1e300"], "--coefficient"),
            (["--coefficient", "1e-300"], "--coefficient"),
            (["-n", "3", "--curvature", "1e200", "--curvature", "1e200"], "--curvature"),
            # Two curvatures in dimension 2 printed the 3D anisotropic integral.
            (["-n", "2", "--curvature", "1", "--curvature", "32"], "--curvature"),
        ],
    )
    def test_constants_bad_flag_is_one_line_exit_2(self, flags, flag, capsys, monkeypatch):
        # These ran into tracebacks, printed nan, or exited 3 as a solver failure.
        from neckfield import cli

        def no_quadrature(*args, **kwargs):
            raise AssertionError("the flags are checked before any quadrature")

        monkeypatch.setattr(cli, "constants_report", no_quadrature)
        assert main(["constants", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error: {flag} must be")

    def test_constants_order_range(self, capsys):
        from neckfield.closed_forms import MAX_ORDER

        assert main(["constants", "--order", repr(MAX_ORDER)]) == 0
        assert main(["constants", "--order", repr(MAX_ORDER + 0.5)]) == 2
        assert main(["constants", "-n", "3", "--order", "1.5"]) == 2
        assert "--order must be in [2, 100] in dimension 3" in capsys.readouterr().err

    @staticmethod
    def _constants_rows(out: str) -> dict[str, str]:
        return dict(re.split(r"\s{2,}", line.strip(), maxsplit=1) for line in out.splitlines())

    @pytest.mark.parametrize("n,order", [("3", "2.05"), ("10", "9.001"), ("50", "50.3")])
    def test_constants_order_just_above_n_minus_one(self, n, order, capsys):
        # The folded oracle tail t^(delta-1)/(1 + t^m) is singular at t = 0
        # below delta = 1, and not smooth there for any non-integer delta;
        # its bisection drove r**m into an OverflowError.
        assert main(["constants", "-n", n, "--order", order]) == 0
        rows = self._constants_rows(capsys.readouterr().out)
        closed = float(rows["order-m constant (closed form)"])
        assert math.isfinite(closed) and closed > 0.0
        assert float(rows["order-m constant (quadrature)"]) == pytest.approx(closed, rel=1e-10)
        assert float(rows["printed / oracle"]) == 1.0

    @pytest.mark.parametrize("coefficient", [1e-200, 1e200])
    def test_constants_curvature_constant_at_extreme_coefficients(self, coefficient, capsys):
        # lam1 * lam2 underflowed into a ZeroDivisionError, or overflowed
        # into a printed 0.
        from neckfield.closed_forms import AsymptoticParams, constants_report

        assert main(["constants", "-n", "3", "--coefficient", repr(coefficient)]) == 0
        rows = self._constants_rows(capsys.readouterr().out)
        want = math.pi / (2.0 * coefficient)
        assert float(rows["curvature constant (printed)"]) == pytest.approx(want, rel=1e-11, abs=0)  # 12 digits
        assert float(rows["printed / oracle"]) == 0.5
        report = constants_report(AsymptoticParams(n=3, m=2.0, coefficient=coefficient, eps=1e-8))
        assert report.curvature_constant == pytest.approx(want, rel=1e-15, abs=0)
        assert report.printed_constant == pytest.approx(want, rel=1e-15, abs=0)

    @pytest.mark.parametrize("coefficient", ["1e200", "1e-200"])
    def test_constants_printed_over_oracle_out_of_range(self, coefficient, capsys):
        # Away from m = 2 the quotient goes like coefficient**(2(n-1)/m): it
        # printed inf, or 0.
        assert main(["constants", "-n", "3", "--order", "2.000000001", "--coefficient", coefficient]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --coefficient must be nearer 1 at order 2.000000001, got {float(coefficient)}: "
            "printed / oracle out of range\n"
        )

    @pytest.mark.parametrize(
        "flags,same",
        [
            (["--curvature", "2"], ["--coefficient", "1"]),
            (["-n", "3", "--curvature", "2"], ["-n", "3", "--curvature", "2", "--curvature", "2"]),
        ],
    )
    def test_constants_curvatures_give_their_coefficient(self, flags, same, capsys):
        # One curvature stands for all n - 1; it gave sqrt(lam)/2 for lam/2.
        assert main(["constants", *flags]) == 0
        out = capsys.readouterr().out
        assert main(["constants", *same]) == 0
        assert capsys.readouterr().out == out

    @pytest.mark.parametrize("order", ["2", "4"])
    def test_constants_oracle_resolves_a_narrow_peak(self, order, capsys):
        # The peak of width (eps/coefficient)^(1/m) fell between the nodes:
        # the ratio printed 8.9e-22 at order 2 and 2.5e-28 at order 4.
        assert main(["constants", "--order", order, "--coefficient", "1e40"]) == 0
        rows = self._constants_rows(capsys.readouterr().out)
        assert float(rows["(gap integral * rate) / oracle"]) == pytest.approx(1.0, abs=1e-9)

    def test_constants_json(self, tmp_path, capsys):
        out = tmp_path / "constants.json"
        assert main(["constants", "-n", "3", "-m", "2", "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["printed_/_oracle"] == "0.5"

    def test_dump_fields_reuse_the_record_solve(self, tmp_path, capsys, monkeypatch):
        from neckfield import cli, conductivity, experiments
        from neckfield.config import parse_config
        from neckfield.mesh import generate

        path = tmp_path / "fast.cfg"
        path.write_text(FAST_CONFIG.format(outdir=tmp_path / "out"))
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return conductivity.solve_bundle(*args, **kwargs)

        monkeypatch.setattr(experiments, "solve_bundle", counted)
        assert not hasattr(cli, "solve_bundle")
        assert main(["solve", "--config", str(path), "--epsilon", "1e-3", "--dump-fields"]) == 0
        assert len(calls) == 1
        # The files hold what a separate solve and remainder give.
        cfg = parse_config(path.read_text())
        pair = cfg.geometry.pair(1e-3)
        bundle = conductivity.solve_bundle(generate(pair, cfg.mesh), cfg.boundary.data())
        w = conductivity.neck_remainder(bundle, conductivity.neck_interpolant(pair, bundle.mesh))
        outdir = tmp_path / "out"
        for name, f in (("u", bundle.u), ("v1", bundle.v1), ("v2", bundle.v2), ("v0", bundle.v0), ("vb", bundle.vb), ("w", w)):
            want = "".join(f"{i} {float(v)!r}\n" for i, v in enumerate(f.values))
            assert (outdir / f"field_{name}.txt").read_text() == want, name

    def test_bad_config_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("[geometry]\nprofile = cube\n")
        assert main(["mesh", "--config", str(path)]) == 2

    @pytest.mark.parametrize("split", ["0.7 0.3", "0.75 0.25"])
    def test_inadmissible_split_exit_two(self, tmp_path, capsys, split):
        path = tmp_path / "split.cfg"
        path.write_text(f"[geometry]\nsplit = {split}\n[output]\ndirectory = {tmp_path / 'out'}\n")
        assert main(["sweep", "--config", str(path)]) == 2
        assert "[split]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["mesh", "solve"])
    @pytest.mark.parametrize("eps", ["0", "2", "1", "nan"])
    def test_gap_outside_unit_interval_exit_two(self, tmp_path, capsys, command, eps):
        path = tmp_path / "fast.cfg"
        path.write_text(FAST_CONFIG.format(outdir=tmp_path / "out"))
        assert main([command, "--config", str(path), "--epsilon", eps]) == 2
        assert f"gap {float(eps):g} outside (0, 1)" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key,value", [("separation", "nan"), ("outer_radius", "inf"), ("neck_radius", "nan")])
    def test_non_finite_length_exit_two(self, tmp_path, capsys, key, value):
        path = tmp_path / "length.cfg"
        path.write_text(f"[geometry]\n{key} = {value}\n[output]\ndirectory = {tmp_path / 'out'}\n")
        assert main(["sweep", "--config", str(path)]) == 2
        assert f"line 2: [{key}] {key} must be finite, got {value}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "h_far,code,err",
        [
            ("4", 0, ""),
            # One outer segment, split at the centre: a NaN vertex for qhull.
            ("13", 2, "line 2: [h_far] h_far must be at most the outer radius 4, got 13.0"),
            # An OverflowError from h**2 in the point budget.
            ("1e300", 2, "line 2: [h_far] h_far must be at most the outer radius 4, got 1e+300"),
            # A ZeroDivisionError from h**2 underflowing in the point budget.
            ("1e-200", 2, "line 2: [h_far] far field at edge length 1e-200 needs more points, above the budget"),
        ],
        ids=["4", "13", "1e300", "1e-200"],
    )
    def test_h_far_meshes_or_is_refused(self, tmp_path, capsys, h_far, code, err):
        path = tmp_path / "coarse.cfg"
        path.write_text(f"[mesh]\nh_far = {h_far}\n[output]\ndirectory = {tmp_path / 'out'}\n")
        assert main(["mesh", "--config", str(path)]) == code
        captured = capsys.readouterr()
        if code == 0:
            assert captured.out.endswith("audit passed\n")
        else:
            assert err in captured.err

    def test_short_sweep_exit_two(self, tmp_path, capsys):
        path = tmp_path / "short.cfg"
        path.write_text(f"[sweep]\ncount = 3\n[output]\ndirectory = {tmp_path / 'out'}\n")
        assert main(["sweep", "--config", str(path)]) == 2
        assert "line 1: [sweep] a sweep needs at least four distinct gap values" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_mesh_solve_sweep_report(self, tmp_path, capsys):
        path = tmp_path / "fast.cfg"
        path.write_text(FAST_CONFIG.format(outdir=tmp_path / "out"))
        assert main(["mesh", "--config", str(path), "--epsilon", "1e-3"]) == 0
        assert main(["solve", "--config", str(path), "--epsilon", "1e-3", "--dump-fields"]) == 0
        assert main(["sweep", "--config", str(path), "--plots"]) == 0
        outdir = tmp_path / "out"
        for name in ("mesh.txt", "solve.json", "sweep.csv", "summary.json", "manifest.json"):
            assert (outdir / name).exists(), name
        doc = json.loads((outdir / "solve.json").read_text())
        for key in ("epsilon", "a11", "C1", "C2", "B_eps", "max_grad_u_neck"):
            assert key in doc
        field = (outdir / "field_u.txt").read_text().splitlines()
        idx, value = field[0].split()
        assert idx == "0" and float(value) is not None
        # --plots draws the summary's fitted line, and report redraws the
        # same two plots byte for byte.
        plots = {name: (outdir / name).read_text() for name in ("report_gradient.svg", "report_energy.svg")}
        assert set(plots) <= set(json.loads((outdir / "manifest.json").read_text())["outputs"])
        assert "stroke-dasharray" in plots["report_gradient.svg"]
        capsys.readouterr()
        assert main(["report", "--dir", str(outdir)]) == 0
        out = capsys.readouterr().out
        assert "energy_v1" in out
        assert {name: (outdir / name).read_text() for name in plots} == plots

    def test_sweep_plots_with_three_surviving_gaps(self, tmp_path, capsys, monkeypatch):
        # The smallest gap fails; three records cannot fit a rate, so the
        # gradient plot is drawn without its fitted line.
        from neckfield import experiments
        from neckfield.mesh import MeshError

        real = experiments.generate

        def flaky(pair, params):
            if pair.eps < 2e-4:
                raise MeshError("forced failure")
            return real(pair, params)

        monkeypatch.setattr(experiments, "generate", flaky)
        path = tmp_path / "fast.cfg"
        path.write_text(FAST_CONFIG.format(outdir=tmp_path / "out"))
        assert main(["sweep", "--config", str(path), "--plots"]) == 0
        assert "(3 records, 1 failures)" in capsys.readouterr().out
        outdir = tmp_path / "out"
        manifest = json.loads((outdir / "manifest.json").read_text())
        for name in ("report_gradient.svg", "report_energy.svg"):
            assert name in manifest["outputs"] and (outdir / name).exists()
        svg = (outdir / "report_gradient.svg").read_text()
        assert svg.count("<circle") == 3 and "stroke-dasharray" not in svg

    def test_sweep_bytes_reproducible(self, tmp_path):
        path = tmp_path / "fast.cfg"
        path.write_text(FAST_CONFIG.format(outdir=tmp_path / "o1"))
        assert main(["sweep", "--config", str(path)]) == 0
        path2 = tmp_path / "fast2.cfg"
        path2.write_text(FAST_CONFIG.format(outdir=tmp_path / "o2"))
        assert main(["sweep", "--config", str(path2)]) == 0
        a = (tmp_path / "o1" / "sweep.csv").read_bytes()
        b = (tmp_path / "o2" / "sweep.csv").read_bytes()
        assert a == b

    def test_manifest_contents(self, tmp_path):
        path = tmp_path / "fast.cfg"
        path.write_text(FAST_CONFIG.format(outdir=tmp_path / "out"))
        assert main(["sweep", "--config", str(path)]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        for key in ("config_sha256", "package", "numpy", "scipy", "timings_s", "outputs", "seed"):
            assert key in manifest

    def test_dimension3_solve_is_config_error(self, tmp_path):
        path = tmp_path / "d3.cfg"
        path.write_text("[geometry]\ndimension = 3\ncurvatures = 2.0 2.0\n")
        assert main(["solve", "--config", str(path)]) == 2

    def test_verify_exit_codes(self, monkeypatch, capsys):
        from neckfield import cli
        from neckfield.acceptance import CriterionResult

        def fake_run_all(cfg, echo=print):
            results = [
                CriterionResult(name="C1", passed=True, runtime=0.0, details=[]),
                CriterionResult(name="C2", passed=False, runtime=0.0, details=["BAD x"]),
            ]
            for r in results:
                echo(r.line())
            return results

        monkeypatch.setattr(cli, "run_all", fake_run_all)
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        assert "1/2 criteria passed" in out

        monkeypatch.setattr(
            cli,
            "run_all",
            lambda cfg, echo=print: [CriterionResult("C1", True, 0.0, [])],
        )
        assert main(["verify"]) == 0


@pytest.fixture(scope="module")
def stored_sweep(tmp_path_factory):
    """The sweep.csv and summary.json of a fast sweep, as text."""
    root = tmp_path_factory.mktemp("stored")
    path = root / "fast.cfg"
    path.write_text(FAST_CONFIG.format(outdir=root / "out"))
    assert main(["sweep", "--config", str(path)]) == 0
    return {name: (root / "out" / name).read_text() for name in ("sweep.csv", "summary.json")}


def _cut_last_row(files):
    lines = files["sweep.csv"].splitlines(keepends=True)
    files["sweep.csv"] = "".join(lines[:-1]) + ",".join(lines[-1].split(",")[:5]) + "\n"


def _nan_gradient(files):
    lines = files["sweep.csv"].splitlines(keepends=True)
    fields = lines[1].strip().split(",")
    row = lines[3].split(",")
    row[fields.index("max_grad_u_neck")] = "nan"
    lines[3] = ",".join(row)
    files["sweep.csv"] = "".join(lines)


def _header_only(files):
    files["sweep.csv"] = "".join(files["sweep.csv"].splitlines(keepends=True)[:2])


def _rate_without_slope(files):
    summary = json.loads(files["summary.json"])
    del summary["rate_max_grad_u_neck"]["slope"]
    files["summary.json"] = json.dumps(summary)


def _cut_summary(files):
    files["summary.json"] = files["summary.json"][:50]


def _list_summary(files):
    files["summary.json"] = "[1, 2]"


class TestDamagedReport:
    """``report --dir`` on a damaged sweep directory exits 2 with one line
    that names the file and the row or key at fault."""

    @pytest.mark.parametrize(
        "damage,name,where",
        [
            (_cut_last_row, "sweep.csv", "row 4 has 5 fields, the header 21"),
            (_nan_gradient, "sweep.csv", "row 2: max_grad_u_neck = nan is not positive and finite"),
            (_header_only, "sweep.csv", "no rows below the header"),
            (_rate_without_slope, "summary.json", "rate_max_grad_u_neck has no finite slope"),
            (_cut_summary, "summary.json", "line 3 column"),
            (_list_summary, "summary.json", "not a JSON object"),
        ],
    )
    def test_damage_is_located(self, tmp_path, capsys, stored_sweep, damage, name, where):
        files = dict(stored_sweep)
        damage(files)
        for file, text in files.items():
            (tmp_path / file).write_text(text)
        assert main(["report", "--dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / name}: ")
        assert err.count("\n") == 1 and where in err
        assert not (tmp_path / "report_gradient.svg").exists()

    def test_undamaged_copy_reports(self, tmp_path, stored_sweep):
        for file, text in stored_sweep.items():
            (tmp_path / file).write_text(text)
        assert main(["report", "--dir", str(tmp_path)]) == 0
