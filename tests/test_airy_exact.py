"""The exact Airy_beta anchors of the sao preset (tests/airy_exact.py)
against the beta = 2 closed form, the values recorded in ROADMAP item 2,
and the small-t limit."""

import pytest

from airy_exact import BETAS, beta2_closed_form, sao_trace


@pytest.mark.parametrize("t", [0.5, 0.1])
def test_beta2_is_the_closed_form(t):
    assert sao_trace(BETAS["C"], t) == pytest.approx(beta2_closed_form(t), rel=1e-9)


@pytest.mark.parametrize("t,values", [(0.5, {"R": 2.52870, "C": 2.25970, "H": 2.13674}),
                                      (0.1, {"R": 25.4832, "C": 25.2316, "H": 25.1068})])
def test_recorded_values(t, values):
    for kind, want in values.items():
        assert sao_trace(BETAS[kind], t) == pytest.approx(want, rel=1e-5), kind


def test_beta4_tends_to_the_weyl_term():
    # rho_4 - rho_2 integrates to -int Ai T / 4 = -1/8 at t = 0, so the
    # difference tends to -1/8 and the ratio to 1, like tau^(3/2)
    ts = (0.5, 0.1, 0.05)
    ratios = [abs(sao_trace(BETAS["H"], t) / beta2_closed_form(t) - 1.0) for t in ts]
    offsets = [abs(sao_trace(BETAS["H"], t) - beta2_closed_form(t) + 0.125) for t in ts]
    assert ratios[0] > ratios[1] > ratios[2] and ratios[2] < 2e-3
    assert offsets[0] > offsets[1] > offsets[2] and offsets[2] < 1e-4
