"""Acceptance gate: every criterion at its stated scale and tolerance.

Each test prints one line per criterion (run pytest with -s or check the
captured output); the same criterion implementations back the CLI
`acceptance` suite.  Scales and tolerances are pinned inside
gbdsde.acceptance and are not adjustable from here.
"""

import pytest

from gbdsde import acceptance as acc

SEED = 2024


def _run(name):
    results = acc.ALL_CRITERIA[name](seed=SEED)
    for r in results:
        print(r.line())
    failures = [r.line() for r in results if not r.passed]
    assert not failures, "\n".join(failures)
    return results


def test_criterion_1_reflected_scheme_vs_oracle():
    # 1-D driftless unit diffusion from the origin: sup-gap RMSE at the
    # finest step and empirical strong order across three decades
    _run("reflection_oracle")


def test_criterion_2_flow_inverse_and_identities():
    # inversion within 1e-9 (1 + |y|), all five derivative identities
    # within 1e-3 at fd step 1e-4 and time step 1e-4 on 1e3 samples
    _run("flow_identities")


def test_criterion_3_picard_contraction():
    # alpha = 0.25 instance: successive-difference ratio <= 0.725 from the
    # third sweep over 1e4 scenarios at dt = 1e-2
    _run("picard_contraction")


def test_criterion_4_closed_form_solutions():
    # (a) exponential-decay driver within 1e-3, (b) boundary payment equals
    # sqrt(2/pi) within 3 SE at 1e5 scenarios, (c) unit control within 3 SE
    _run("closed_forms")


def test_criterion_5_neumann_heat_benchmark():
    # deterministic oracle within 2e-3 of the closed form; Monte Carlo field
    # within 3 (SE + 2e-3) at 11 spatial nodes and 1e4 scenarios
    _run("heat_benchmark")


def test_criterion_6_transform_equivalence():
    # RMS over (time, scenario) of the transformed value against the
    # inverted direct value <= 5e-2 at dt = 1e-3, 1e4 scenarios
    _run("transform_equivalence")


def test_criterion_7_operator_identity():
    # pointwise operator identity within 1e-3 relative at 100 samples
    _run("operator_identity")


def test_criterion_8_residual_convergence_and_mutations():
    # RMS residuals drop by >= 2.5 per decade refinement (empirical order
    # >= 0.4); flipped quadratic-variation / cross-term signs must fail
    _run("residual_convergence")


def test_criterion_9_estimate_stability():
    # a-priori and two-data estimates: no upward trend of the mean a-priori
    # ratio from 1e3 to 1e4 scenarios, quadratic perturbation scaling within
    # a factor 2 (the reflected pair's dependence on its start point is
    # tested in test_reflection.py)
    _run("estimate_stability")


def test_criterion_10_suite_determinism(tmp_path, monkeypatch):
    import tempfile

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    results = acc.criterion_determinism(seed=SEED)
    for r in results:
        print(r.line())
    assert all(r.passed for r in results), results[0].details
    assert list(tmp_path.iterdir()) == []  # its suites' outputs are removed
