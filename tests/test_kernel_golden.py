"""Pinned outputs of the regular-noise kernel estimator.

Each case runs `fk_kernel_regular` on one setting and compares the repr of
the value's components and of the stderr with a recorded value, like
tests/test_golden.py does for the CLI runs.  The settings cover no noise,
r = 1, the line with a linear potential, Robin, Dirichlet and mixed walls,
a per-color tabulated potential and the C and H fields.  Each run fits in
one chunk.  Regenerate the table only for a change that is meant to alter
the estimator:

    PYTHONPATH=src python tests/test_kernel_golden.py

prints each case's recorded and new value and stderr, with the change in
combined standard errors per component and the largest relative change of
the components and stderr, on stderr, and the new table on stdout.
"""

import sys

import numpy as np

from mvsao.estimators import fk_kernel_regular
from mvsao.experiment import DIRICHLET, ExperimentSpec, PotentialSpec
from mvsao.noise_model import sample_noise
from mvsao.stochastic_paths import DomainConfig
from test_golden import relative_change

D = DIRICHLET


def _interval_noise(kind, r, hi, seed):
    return sample_noise(kind, r, 0.5, 0.5, (-0.5, hi, 2048), np.random.default_rng(seed))


def heat_kernel_line():
    spec = ExperimentSpec(domain=DomainConfig(case=1, r=1), kind="R", sigma2=0.0,
                          upsilon2=0.0, ts=(1.0,), seed=102, x_max=8.0)
    return fk_kernel_regular(spec, 1.0, (1, 0.0), (1, 0.0), None, eps=0.1, n_paths=4000)


def scalar_noise_line():
    noise = sample_noise("R", 1, 1.0, 0.0, (-6.0, 6.0, 4096), np.random.default_rng(11))
    spec = ExperimentSpec(domain=DomainConfig(case=1, r=1), kind="R", sigma2=1.0,
                          upsilon2=0.0, ts=(1.0,), seed=12, x_max=6.0, dt=2e-3)
    return fk_kernel_regular(spec, 1.0, (1, 0.1), (1, -0.2), noise, eps=0.2, n_paths=4000)


def complex_linear_line():
    noise = sample_noise("C", 2, 0.5, 0.5, (-5.0, 5.0, 2048), np.random.default_rng(13))
    spec = ExperimentSpec(domain=DomainConfig(case=1, r=2), kind="C", sigma2=0.5,
                          upsilon2=0.5, ts=(1.0,), seed=14, x_max=4.0, dt=2e-3,
                          potential=PotentialSpec(kind="linear", kappa=1.0))
    return fk_kernel_regular(spec, 0.6, (1, 0.2), (2, -0.1), noise, eps=0.2, n_paths=8000)


def complex_mixed_walls():
    spec = ExperimentSpec(domain=DomainConfig(case=3, theta=1.0, r=2), kind="C", sigma2=0.5,
                          upsilon2=0.5, ts=(0.3,), seed=5, alphas=(0.7, D), betas=(D, -1.0))
    return fk_kernel_regular(spec, 0.3, (1, 0.4), (2, 0.6), _interval_noise("C", 2, 1.5, 4),
                             eps=0.05, n_paths=3000)


def complex_dirichlet():
    spec = ExperimentSpec(domain=DomainConfig(case=3, theta=1.0, r=2), kind="C", sigma2=0.5,
                          upsilon2=0.5, ts=(1.0,), seed=5, alphas=(D, D), betas=(D, D))
    return fk_kernel_regular(spec, 1.0, (1, 0.5), (1, 0.5), _interval_noise("C", 2, 1.5, 4),
                             eps=0.1, n_paths=4000)


def quaternion_tabulated():
    pot = PotentialSpec(kind="tabulated", table_x=(0.0, 1.0, 2.0),
                        table_v=((0.0, 1.0, 0.5), (1.0, 0.0, 2.0), (0.3, 0.3, 0.3)))
    spec = ExperimentSpec(domain=DomainConfig(case=3, theta=2.0, r=3), kind="H", sigma2=0.25,
                          upsilon2=0.5, ts=(0.5,), seed=9, alphas=(0.5, D, 0.0),
                          betas=(0.0, -1.0, D), potential=pot)
    return fk_kernel_regular(spec, 0.5, (1, 0.7), (3, 1.2), _interval_noise("H", 3, 2.5, 7),
                             eps=0.1, n_paths=3000)


CASES = [heat_kernel_line, scalar_noise_line, complex_linear_line, complex_mixed_walls,
         complex_dirichlet, quaternion_tabulated]

EXPECTED = {
    "heat_kernel_line": (("0.3989422804014327", "0.0", "0.0", "0.0"), "0.0"),
    "scalar_noise_line": (("0.15492521565887066", "0.0", "0.0", "0.0"),
                          "0.0015808989731517743"),
    "complex_linear_line": (("-0.1393265459768308", "0.10294521461544752", "0.0", "0.0"),
                            "0.009322803868993146"),
    "complex_mixed_walls": (("0.045759934024818726", "0.010490617407601528", "0.0", "0.0"),
                            "0.024608435153065787"),
    "complex_dirichlet": (("0.021334404921926967", "-0.004868846416143396", "0.0", "0.0"),
                          "0.006066881322691225"),
    "quaternion_tabulated": (("0.046780515470468464", "0.062295080874646205",
                              "-0.06919230688754716", "0.043410517928431286"),
                             "0.02673636904819785"),
}


def pinned(case) -> tuple[tuple[str, ...], str]:
    est = case()
    return tuple(repr(float(c)) for c in est.value), repr(est.stderr)


def test_kernel_golden_outputs():
    assert set(EXPECTED) == {case.__name__ for case in CASES}
    for case in CASES:
        assert pinned(case) == EXPECTED[case.__name__], case.__name__


if __name__ == "__main__":
    table = {case.__name__: pinned(case) for case in CASES}
    for name, (comps, se) in table.items():
        old_comps, old_se = EXPECTED.get(name, (comps, se))
        comb = float(np.hypot(float(old_se), float(se)))
        shifts = [(float(b) - float(a)) / comb if comb else 0.0
                  for a, b in zip(old_comps, comps)]
        sys.stderr.write(f"{name:22s} recorded {[float(c) for c in old_comps]}"
                         f" +- {float(old_se):.4g}\n"
                         f"{'':22s} new      {[float(c) for c in comps]} +- {float(se):.4g}\n"
                         f"{'':22s} shift/se {[round(x, 2) for x in shifts]}"
                         f" max rel {relative_change(old_comps + (old_se,), comps + (se,)):.2g}\n")
    sys.stdout.write("EXPECTED = {\n")
    for name, pins in table.items():
        sys.stdout.write(f"    {name!r}: {pins!r},\n")
    sys.stdout.write("}\n")
