"""Pinned outputs of small CLI runs.

Each case runs `parse_config` + `run`, as the `mvsao` command does, and
compares the repr of every record's estimate, stderr, n_paths and
n_discarded with a recorded value.  A change meant to keep every random
draw and every floating-point operation, such as a speed-up or a refactor,
must leave them bit for bit.  Regenerate the table only for a change that
is meant to alter the estimator:

    PYTHONPATH=src python tests/test_golden.py
"""

import sys

from mvsao.cli import parse_config, run

_INTERVAL = {"case": 3, "theta": 1.0, "r": 2, "field": "R", "potential": {"kind": "zero"},
             "sigma2": 0.5, "upsilon2": 0.5, "seed": 11}
_DIRICHLET = {"alpha": "dirichlet", "beta": "dirichlet"}
_MIXED = {"alpha": [0.7, "dirichlet"], "beta": ["dirichlet", -1.0]}
_SMOOTH = {"eps": [0.1], "zeta": [0.1]}

CASES = {
    "white_dirichlet_n2": dict(_INTERVAL, **_DIRICHLET, experiment="moment", t=[0.5, 0.5],
                               noise="white", paths=1000, n_quad=3, dt=0.001),
    "smooth_dirichlet_n1": dict(_INTERVAL, **_DIRICHLET, experiment="moment", t=[0.5],
                                noise=_SMOOTH, paths=2000, n_quad=4),
    "neumann_covariance": dict(_INTERVAL, experiment="covariance", alpha=[0.0, 0.0],
                               beta=[0.0, 0.0], t=[0.5], noise="white", paths=1000,
                               n_quad=4, dt=0.001, covariance={"t1": 0.5, "t2": 0.1}),
    "white_mixed": dict(_INTERVAL, **_MIXED, experiment="moment", t=[0.5], noise="white",
                        paths=2000, n_quad=4, dt=0.001),
    "smooth_mixed": dict(_INTERVAL, **_MIXED, experiment="moment", t=[0.5], noise=_SMOOTH,
                         paths=2000, n_quad=4),
    "sao_half_line": {"experiment": "trace", "preset": "sao", "t": [0.5], "noise": "white",
                      "paths": 2000, "n_quad": 6, "seed": 11},
    # n_max 2 discards samples on both routes
    "white_discard": dict(_INTERVAL, **_DIRICHLET, experiment="moment", t=[0.5, 0.5],
                          noise="white", paths=1000, n_quad=3, dt=0.001, n_max=2),
    "smooth_discard": dict(_INTERVAL, **_DIRICHLET, experiment="moment", t=[0.5],
                           noise=_SMOOTH, paths=2000, n_quad=4, n_max=2),
}

EXPECTED = {
    'white_dirichlet_n2': [('0.012607971111116186', '0.011816306311885702', '990', '0')],
    'smooth_dirichlet_n1': [('0.2239863055295656', '0.020009765731875274', '2000', '0')],
    'neumann_covariance': [('-0.06996517305001149', '0.17116683914838027', '2992', '0')],
    'white_mixed': [('1.4352972712715246', '0.0435368511154681', '2000', '0')],
    'smooth_mixed': [('1.410616845153719', '0.05021169512538637', '2000', '0')],
    'sao_half_line': [('2.9717550119358833', '0.041871505128112246', '1998', '0')],
    'white_discard': [('0.015137629349229489', '0.01443739844992728', '807', '183')],
    'smooth_discard': [('0.2224876141826235', '0.019548805057262933', '1972', '28')],
}


def pinned(name: str) -> list[tuple[str, str, str, str]]:
    return [(repr(rec["estimate"]), repr(rec["stderr"]), repr(rec["n_paths"]),
             repr(rec["n_discarded"])) for rec in run(parse_config(CASES[name]))]


def test_golden_outputs():
    assert set(EXPECTED) == set(CASES)
    for name in CASES:
        assert pinned(name) == EXPECTED[name], name


if __name__ == "__main__":
    sys.stdout.write("EXPECTED = {\n")
    for name in CASES:
        sys.stdout.write(f"    {name!r}: {pinned(name)!r},\n")
    sys.stdout.write("}\n")
