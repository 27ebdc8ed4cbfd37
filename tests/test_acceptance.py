"""Acceptance gate: every criterion at its stated tolerance.

Heavy solves (the two gap sweeps, the refinement ladder, the two
touching-limit estimates) are shared through a session context, so the
whole gate runs in well under its budgets.  Each test prints the
criterion's pass/fail line and its detail rows.
"""

from dataclasses import replace

import pytest

from neckfield import acceptance, experiments
from neckfield.mesh import MeshError


@pytest.fixture(scope="module")
def ctx():
    return acceptance.AcceptanceContext()


def _check(result):
    print()
    print(result.line())
    for detail in result.details:
        print(f"    {detail}")
    assert result.passed, "\n".join(result.details)


def test_c1_closed_form_constants(ctx):
    _check(acceptance.criterion_1_closed_form_constants(ctx))


def test_c2_oracle_asymptotics(ctx):
    _check(acceptance.criterion_2_oracle_asymptotics(ctx))


def test_c3_structural_identities(ctx):
    _check(acceptance.criterion_3_structural_identities(ctx))


def test_c4_blowup_rates(ctx):
    _check(acceptance.criterion_4_blowup_rates(ctx))


def test_c5_energy_constants(ctx):
    _check(acceptance.criterion_5_energy_constants(ctx))


def test_c6_degeneracy_and_symmetry(ctx):
    _check(acceptance.criterion_6_degeneracy_and_symmetry(ctx))


def test_c7_blowup_factor_convergence(ctx):
    _check(acceptance.criterion_7_blowup_factor_convergence(ctx))


def test_c8_boundedness_surrogates(ctx):
    _check(acceptance.criterion_8_boundedness_surrogates(ctx))


def test_c9_self_convergence(ctx):
    _check(acceptance.criterion_9_self_convergence(ctx))


def test_dropped_gap_fails_the_sweep_criteria(monkeypatch):
    real = experiments.generate

    def flaky(pair, params):
        if pair.eps < 1e-5:
            raise MeshError("forced failure")
        return real(pair, params)

    monkeypatch.setattr(experiments, "generate", flaky)
    fresh = acceptance.AcceptanceContext()
    for criterion in (
        acceptance.criterion_5_energy_constants,
        acceptance.criterion_8_boundedness_surrogates,
    ):
        result = criterion(fresh)
        assert not result.passed
        assert "BAD m=2 sweep dropped eps=9.8e-06: MeshError: forced failure" in result.details


@pytest.mark.parametrize("both_zero", [False, True], ids=["center-over-a-tenth", "both-zero"])
def test_c8_fails_when_center_gradient_is_not_small(ctx, both_zero):
    if both_zero:
        records = [replace(r, vb_center=0.0, vb_offside=0.0) for r in ctx.records_m2()]
    else:
        records = [replace(r, vb_center=r.vb_offside / 9.0) for r in ctx.records_m2()]
    bad = acceptance.AcceptanceContext()
    bad._cache["sweep_m2"] = (records, {})
    result = acceptance.criterion_8_boundedness_surrogates(bad)
    assert not result.passed
    center_lines = [d for d in result.details if "half-neck" in d]
    assert len(center_lines) == 2 and all(d.startswith("BAD") for d in center_lines)
