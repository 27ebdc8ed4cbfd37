"""Input harness: every value an input admits either works or fails at once
with an error that names it.

One derandomized property test draws configuration files, ``constants``
command lines, ``mesh`` and ``solve`` runs at an ``--epsilon`` override and
``init-config`` runs, each value from its key's or flag's admitted range
and from the extremes of a float.  A configuration is only parsed: it gives
a config or a ``ConfigError`` whose problems lie on lines of the file.  The
commands run in process: exit 0 with finite output, or exit 2 with one
``error:`` line that names the flag.  ``mesh`` and ``solve`` stop where the
mesher would start.  At m = 2 in dimensions 2 and 3 the printed gap
integral is held to its closed form.
"""

import contextlib
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exact_gap import exact_gap_integral_m2
from neckfield import cli, config
from neckfield.cli import main
from neckfield.config import ConfigError, ExperimentConfig, parse_config

# Zeros, subnormals, the smallest normal, +-1e300, the largest float,
# +-inf, nan, and a literal that overflows to inf.
EXTREMES = (
    "0", "-0.0", "5e-324", "-5e-324", "2.2250738585072014e-308", "1e-300",
    "1e300", "-1e300", "1.7976931348623157e308", "inf", "-inf", "nan", "1e400",
)


def _floats(lo: float, hi: float, *ends: float) -> st.SearchStrategy[str]:
    """A float of [lo, hi], one of the range's ``ends``, or an extreme."""
    return st.one_of(
        st.floats(lo, hi).map(repr),
        st.sampled_from([repr(float(e)) for e in ends] + list(EXTREMES)),
    )


def _ints(lo: int, hi: int, *ends: int) -> st.SearchStrategy[str]:
    return st.one_of(st.integers(lo, hi).map(str), st.sampled_from([str(e) for e in ends] + list(EXTREMES)))


def _lists(values: st.SearchStrategy[str], most: int) -> st.SearchStrategy[str]:
    return st.lists(values, max_size=most).map(" ".join)


_ANY = _floats(-10.0, 10.0)
_GAP = _floats(1e-12, 1.0, 1.0, 0.5, 1e-13)
KEYS = {
    "geometry": {
        "dimension": _ints(1, 4, 2, 3),
        "profile": st.sampled_from(["quadratic", "power", "cubic", "Power", ""]),
        "curvatures": _lists(_floats(1e-3, 100.0, 2.0), 3),
        "order": _floats(1.0, 120.0, 2.0, 2.0 + 1e-9, 100.0, 115.5),
        "coefficient": _floats(1e-3, 100.0, 1.0),
        "split": _lists(_floats(0.0, 1.0, 0.0, 0.5, 1.0), 3),
        "neck_radius": _floats(0.0, 1.0, 0.0, 1.0, 0.999999),
        "outer_radius": _floats(1.0, 100.0, 4.0),
        "separation": _floats(0.5, 10.0, 1.0),
    },
    "boundary": {
        "kind": st.sampled_from(["constant", "linear_xn", "linear_x1", "fourier", "cosine", ""]),
        "value": _ANY,
        "cos": _lists(_ANY, 3),
        "sin": _lists(_ANY, 3),
    },
    "sweep": {
        "epsilons": _lists(_GAP, 8),
        "start": _GAP,
        "factor": _floats(0.1, 100.0, 1.0, 4.0),
        "count": _ints(0, config._MAX_COUNT + 1, 4, config._MAX_COUNT, 10**8, 10**9),
    },
    "mesh": {
        "layers": _ints(0, 64, 4, 100_000),
        "h_far": _floats(1e-3, 20.0, 4.0, 13.0),
        "grading_exponent": _floats(0.0, 1.0, 0.0, 1.0),
        "neck_step_factor": _floats(1e-3, 10.0, 1e-9),
        "refinement": _ints(-1, 12, 0, 7, 8, 2200),
    },
    "tolerances": {key: _ANY for key in config._SCHEMA["tolerances"]},
    "output": {"directory": st.sampled_from(["out", "a b", "é"])},
}
assert {s: set(k) for s, k in KEYS.items()} == {s: set(k) for s, k in config._SCHEMA.items()}


@st.composite
def config_files(draw) -> tuple[str, str]:
    chosen = draw(st.lists(st.sampled_from([(s, k) for s in KEYS for k in KEYS[s]]), min_size=1, max_size=4))
    lines = []
    for section in KEYS:
        keys = dict.fromkeys(k for s, k in chosen if s == section)
        if keys:
            lines.append(f"[{section}]")
            lines += [f"{key} = {draw(KEYS[section][key])}" for key in keys]
    return "config", "\n".join(lines) + "\n"


@st.composite
def constants_runs(draw) -> tuple[str, tuple[str, ...]]:
    n = int(draw(st.sampled_from(["2", "2", "3", "3", "4", "10", "101", "102", "1", "-2"])))
    flags = {
        "--dimension": st.just(str(n)),
        "--order": st.one_of(
            _floats(2.0, 110.0, 2.0, 100.0, 100.5),
            st.sampled_from([repr(n - 1.0), repr(n - 1.0 + 1e-9), repr(n - 1.0 + 0.05)]),
        ),
        "--coefficient": _floats(1e-3, 100.0, 1e-200, 1e200),
        "--eps": _floats(1e-12, 1.0, 1e-310, 2.3e-308, 1.0),
        "--neck-radius": _floats(1e-3, 10.0, 0.5),
    }
    # --flag=value; test_negative_value_as_a_separate_token pins the
    # separate form against it.
    argv = ["constants"]
    argv += [f"{flag}={draw(flags[flag])}" for flag in draw(st.lists(st.sampled_from(sorted(flags)), unique=True))]
    argv += [f"--curvature={value}" for value in draw(st.lists(_floats(1e-3, 100.0, 1.0), max_size=3))]
    argv += ["--json"] if draw(st.booleans()) else []  # a path in a temporary directory
    return "constants", tuple(argv)


@st.composite
def epsilon_runs(draw) -> tuple[str, tuple[str, ...]]:
    command = draw(st.sampled_from(["mesh", "solve"]))
    return "epsilon", (command, f"--epsilon={draw(_floats(1e-16, 1.0, 1e-12, 1e-13, 1e-300, 1.0))}")


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _check_config(text: str) -> None:
    try:
        assert isinstance(parse_config(text), ExperimentConfig)
    except ConfigError as exc:
        last = len(text.splitlines())
        assert exc.problems and all(1 <= line <= last for line, _, _ in exc.problems), str(exc)


def _exact_gap_integral(argv: tuple[str, ...]) -> float | None:
    """The gap integral in closed form where the run is at m = 2 in
    dimension 2 or 3 with an isotropic profile, else None."""
    flags: dict[str, list[float]] = {}
    for arg in argv[1:]:
        if arg != "--json":
            flag, _, value = arg.partition("=")
            flags.setdefault(flag, []).append(float(value))
    n, m = int(flags.get("--dimension", [2])[0]), flags.get("--order", [2.0])[0]
    lams = flags.get("--curvature")
    if m != 2.0 or n not in (2, 3) or (lams and len(set(lams)) > 1):
        return None
    coefficient = lams[0] / 2.0 if lams else flags.get("--coefficient", [1.0])[0]
    return exact_gap_integral_m2(n, coefficient, flags.get("--eps", [1e-8])[0], flags.get("--neck-radius", [0.5])[0])


def _check_constants(argv: tuple[str, ...]) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "constants.json"
        code, out, err = _run([f"--json={path}" if arg == "--json" else arg for arg in argv])
        doc = json.loads(path.read_text()) if path.exists() else None
    if code == 0:
        lines = out.splitlines()
        if "--json" in argv:
            assert lines.pop() == f"wrote {path}"
        rows = dict(re.split(r"\s{2,}", row.strip(), maxsplit=1) for row in lines)
        for key, value in rows.items():
            assert math.isfinite(float(value)), (key, value)
        if "--json" in argv:
            assert doc == {key.replace(" ", "_"): value for key, value in rows.items()}
        exact = _exact_gap_integral(argv)
        if exact is not None:
            printed = float(rows["gap integral at eps"])
            assert math.isclose(printed, exact, rel_tol=1e-10, abs_tol=sys.float_info.min), (printed, exact)
        assert err == ""
        return
    assert code == 2, (code, err)
    (line,) = err.splitlines()
    # The flag at fault may be one left at its default, as --order is at -n 4.
    assert re.match(r"error: --(dimension|order|coefficient|curvature|eps|neck-radius) must be ", line), line


class _Meshing(Exception):
    """Raised by the stand-in for the mesher."""


def _check_epsilon(argv: tuple[str, ...]) -> None:
    def mesher(*args):
        raise _Meshing

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "generate", mesher)
        try:
            code, out, err = _run(argv)
        except _Meshing:
            return
    assert (code, out) == (2, ""), (code, err)
    (line,) = err.splitlines()
    assert line.startswith("error: --epsilon"), line


def _check_init_config(out_file: bool) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "default.cfg"
        code, out, err = _run(["init-config", "--out", str(path)] if out_file else ["init-config"])
        assert (code, err) == (0, "")
        text = path.read_text() if out_file else out
    assert parse_config(text) == ExperimentConfig()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    case=st.one_of(config_files(), constants_runs(), epsilon_runs(), st.tuples(st.just("init-config"), st.booleans()))
)
# Inputs once reported on a wrong line, or that ended in a traceback, a hang
# or exit 3.
@example(case=("config", "[geometry]\nneck_radius = 1.5\n"))
@example(case=("config", "[geometry]\ndimension = 4\n"))
@example(case=("config", "[geometry]\ndimension = 3\ncurvatures = 1.0 2.0\n"))
@example(case=("config", "[geometry]\nouter_radius = 3\n"))
@example(case=("config", "[geometry]\ndimension = -inf\n"))
@example(case=("config", "[geometry]\nprofile = cubic\n"))
@example(case=("config", '[output]\ndirectory = "out"\n'))
@example(case=("config", "[geometry]\nsplit = 0.5 0.3 0.2\n"))
@example(case=("config", "[sweep]\nstart = 2.0\n"))
@example(case=("config", "[sweep]\nfactor = 1e300\n"))
@example(case=("config", "[sweep]\ncount = 1e400\n"))
@example(case=("config", "[sweep]\ncount = 100000000\n"))
@example(case=("config", "[sweep]\nfactor = 1.0\ncount = 1000000000\n"))
@example(case=("config", "[mesh]\nh_far = 1e-200\n"))
@example(case=("config", "[mesh]\nh_far = 1e300\n"))
@example(case=("config", "[mesh]\nh_far = 13\n"))
@example(case=("config", "[mesh]\nlayers = inf\n"))
@example(case=("config", "[mesh]\nlayers = 100000\n"))
@example(case=("config", "[mesh]\nneck_step_factor = 1e-9\n"))
@example(case=("config", "[mesh]\nrefinement = 1e300\n"))
# Found by this harness.
@example(case=("config", "[geometry]\nneck_radius = 5e-324\n[mesh]\ngrading_exponent = 1\n"))
@example(case=("constants", ("constants", "--eps=2.2250738585072014e-308", "--curvature=1.0", "--curvature=32.0")))
@example(case=("constants", ("constants", "--coefficient=5e-324", "--eps=2.3e-308", "--neck-radius=3.0")))
@example(case=("constants", ("constants", "--dimension=3", "--coefficient=1.7976931348623157e308")))
@example(case=("constants", ("constants", "--dimension=3", "--order=2.000000001", "--coefficient=1e200")))
@example(case=("constants", ("constants", "--eps=1e-310")))
@example(case=("constants", ("constants", "--dimension=3", "--order=2", "--eps=5e-324")))
@example(case=("constants", ("constants", "--dimension=3", "--order=2", "--eps=2.3e-308")))
@example(case=("constants", ("constants", "--dimension=3", "--order=2.05")))
@example(case=("constants", ("constants", "--dimension=3", "--coefficient=1e-200")))
@example(case=("constants", ("constants", "--dimension=3", "--coefficient=1e200")))
@example(case=("constants", ("constants", "--curvature=1.0", "--curvature=32.0")))
@example(case=("constants", ("constants", "--coefficient=1e40")))
@example(case=("constants", ("constants", "--dimension=3", "--coefficient=1e40", "--json")))
@example(
    case=("constants", ("constants", "--eps=2.2250738585072014e-308", "--neck-radius=1e150", "--coefficient=1e-250"))
)
@example(case=("epsilon", ("mesh", "--epsilon=1e-13")))
@example(case=("epsilon", ("solve", "--epsilon=1e-12")))
def test_every_input_works_or_names_itself(case):
    kind, value = case
    checks = {
        "config": _check_config,
        "constants": _check_constants,
        "epsilon": _check_epsilon,
        "init-config": _check_init_config,
    }
    checks[kind](value)


@pytest.mark.parametrize("value", ["-1e-3", "-inf"])
@pytest.mark.parametrize(
    "argv",
    [("constants", flag) for flag in ("--order", "-m", "--m", "--coefficient", "--curvature", "--eps", "--neck-radius")]
    + [("constants", "--coef"), ("mesh", "--epsilon"), ("solve", "--epsilon")],
)
def test_negative_value_as_a_separate_token(argv, value, monkeypatch):
    # argparse reads a separate -1e-3 or -inf as an option; every float
    # flag, abbreviated too, takes it as its value, as in --flag=value.
    def mesher(*args):
        raise _Meshing

    monkeypatch.setattr(cli, "generate", mesher)
    command, flag = argv
    joined = _run([command, f"{flag}={value}"])
    assert _run([command, flag, value]) == joined
    code, out, err = joined
    assert (code, out) == (2, "")
    (line,) = err.splitlines()
    assert line.startswith("error: --"), line


@pytest.mark.parametrize(
    "text,line,key",
    [
        ("[geometry]\nneck_radius = 1.5\n", 2, "neck_radius"),
        ("[geometry]\ndimension = 4\n", 2, "dimension"),
        ("[geometry]\ndimension = 3\ncurvatures = 1.0 2.0\n", 3, "curvatures"),
        ("[geometry]\ndimension = 3\n", 2, "dimension"),
        ("[geometry]\nouter_radius = 3\n", 2, "outer_radius"),
        ("[geometry]\nouter_radius = 1000\n", 2, "outer_radius"),
        # A profile's caps read only its own shape keys.
        ("[geometry]\norder = 4\nouter_radius = 3\n", 3, "outer_radius"),
        ("[geometry]\nprofile = power\ncurvatures = 1\ncoefficient = 0.01\n", 4, "coefficient"),
        ("[geometry]\nprofile = cubic\n", 2, "profile"),
        ("[geometry]\nsplit = 0.5 0.3 0.2\n", 2, "split"),
        ("[boundary]\nkind = fourier\n", 2, "kind"),
        ("[sweep]\nstart = 2.0\n", 2, "start"),
        ("[sweep]\nstart = 0.5\nfactor = 0.1\n", 2, "start"),
        ("[sweep]\nfactor = 1e300\n", 2, "factor"),
        ("[sweep]\ncount = 100000000\n", 2, "count"),
        ("[sweep]\nfactor = 1.0\ncount = 1000000000\n", 3, "count"),
        ("[mesh]\nh_far = 1e-200\n", 2, "h_far"),
        ("[mesh]\nlayers = inf\n", 2, "layers"),
        ("[mesh]\nlayers = 100000\n", 2, "layers"),
        ("[mesh]\nneck_step_factor = 1e-9\n", 2, "neck_step_factor"),
        ("[mesh]\nrefinement = 1e300\n", 2, "refinement"),
        # The strip cannot be built at these gaps.
        ("[mesh]\nneck_step_factor = 1e-12\n", 2, "neck_step_factor"),
        ("[sweep]\nepsilons = 1e-2 1e-3 1e-4 1e-30\n", 2, "epsilons"),
        ("[sweep]\nepsilons = 1e-2 1e-3 1e-4 1e-14\n[mesh]\nh_far = 0.2\n", 2, "epsilons"),
        ("[sweep]\nepsilons = 1e-2 1e-3 1e-4 1e-10\n[mesh]\ngrading_exponent = 1\n", 4, "grading_exponent"),
        # Values are not quoted; quotes would become part of the name.
        ('[geometry]\nprofile = "power"\n', 2, "profile"),
        ('[output]\ndirectory = "out"\n', 2, "directory"),
        ("[output]\ndirectory = 'out'\n", 2, "directory"),
    ],
)
def test_error_on_the_line_of_its_key(text, line, key, tmp_path, capsys):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert [(ln, k) for ln, k, _ in err.value.problems] == [(line, key)]
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    assert main(["mesh", "--config", str(path)]) == 2
    assert capsys.readouterr().err.splitlines()[1].startswith(f"line {line}: [{key}] ")


def test_owner_types_make_the_checks_the_parser_reports():
    # A library caller gets each check the parser reports, from the type
    # that owns the value.
    from neckfield import InputError, experiments
    from neckfield.config import GeometryConfig
    from neckfield.geometry import GeometryError
    from neckfield.mesh import MeshParams

    with pytest.raises(GeometryError, match="profile must be quadratic or power, got 'cubic'") as err:
        GeometryConfig(profile="cubic").neck_profile()
    assert err.value.keys == ("profile",)
    with pytest.raises(GeometryError, match=r"split takes exactly two fractions, got \(0.5, 0.3, 0.2\)") as err:
        GeometryConfig(split=(0.5, 0.3, 0.2)).pair(1e-2)
    assert err.value.keys == ("split",)

    def no_mesh(*args):
        raise AssertionError("the gaps are checked before any mesh")

    pair = GeometryConfig().pair(1e-2)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "generate", no_mesh)
        with pytest.raises(InputError, match=r"gap 2 outside \(0, 1\)"):
            experiments.run_sweep(pair, config.BoundaryConfig().data(), [2.0, 1e-2, 1e-3, 1e-4], MeshParams())


def test_strip_budget_holds_at_a_gap_the_file_does_not_set(tmp_path, capsys):
    # The configured gaps fit the strip budget; a smaller --epsilon needs
    # more stations than it allows and is refused as a bad flag.
    path = tmp_path / "fine.cfg"
    path.write_text(f"[mesh]\nneck_step_factor = 1e-3\n[output]\ndirectory = {tmp_path / 'out'}\n")
    parse_config(path.read_text())
    assert main(["mesh", "--config", str(path), "--epsilon", "1e-12"]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(
        "error: --epsilon: neck strip at gap 1e-12 needs at least 200011 points, above the budget of 200000"
    )
