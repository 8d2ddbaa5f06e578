"""Pinned outputs of small CLI runs.

Each case runs `parse_config` + `run`, as the `mvsao` command does, and
compares the repr of every record's estimate, stderr, n_paths and
n_discarded with a recorded value.  A change meant to keep every random
draw and every floating-point operation, such as a speed-up or a refactor,
must leave them bit for bit.  Regenerate the table only for a change that
is meant to alter the estimator:

    PYTHONPATH=src python tests/test_golden.py

prints each case's recorded and new estimate and stderr, with the change
in combined standard errors and the largest relative change of its four
values, on stderr, and the new table on stdout.
"""

import math
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
    'white_dirichlet_n2': [('0.051731134579774324', '0.023017727332558413', '990', '0')],
    'smooth_dirichlet_n1': [('0.2214194053254076', '0.020043201772092116', '2000', '0')],
    'neumann_covariance': [('0.20096815413512203', '0.16725159673780357', '2992', '0')],
    'white_mixed': [('1.4598303611523924', '0.039157451616845494', '2000', '0')],
    'smooth_mixed': [('1.4077188048567977', '0.04838499200965695', '2000', '0')],
    'sao_half_line': [('2.9716409251899036', '0.041879095804523765', '1998', '0')],
    'white_discard': [('0.06310920520345321', '0.029190339383027463', '802', '188')],
    'smooth_discard': [('0.22721710470060108', '0.021132705182898316', '1972', '28')],
}


def pinned(name: str) -> list[tuple[str, str, str, str]]:
    return [(repr(rec["estimate"]), repr(rec["stderr"]), repr(rec["n_paths"]),
             repr(rec["n_discarded"])) for rec in run(parse_config(CASES[name]))]


def test_golden_outputs():
    assert set(EXPECTED) == set(CASES)
    for name in CASES:
        assert pinned(name) == EXPECTED[name], name


def shift_in_se(old: tuple[str, str], new: tuple[str, str]) -> float:
    """(new - old) / sqrt(se_old^2 + se_new^2) of two (estimate, stderr) reprs."""
    (a, sa), (b, sb) = ((float(v), float(e)) for v, e in (old, new))
    return (b - a) / math.hypot(sa, sb) if sa or sb else 0.0


def relative_change(old, new) -> float:
    """The largest |new - old| / |old| over paired value reprs, inf where a
    zero moves."""
    out = 0.0
    for a, b in zip(map(float, old), map(float, new)):
        if a != b:
            out = max(out, abs(b - a) / abs(a) if a else math.inf)
    return out


if __name__ == "__main__":
    table = {name: pinned(name) for name in CASES}
    sys.stderr.write(f"{'case':22s} {'recorded':>28s} {'new':>28s} {'shift/se':>9s}"
                     f" {'max rel':>9s}\n")
    for name, rows in table.items():
        for old, new in zip(EXPECTED.get(name, rows), rows):
            sys.stderr.write(f"{name:22s} {float(old[0]):13.6g} +- {float(old[1]):10.4g}"
                             f" {float(new[0]):13.6g} +- {float(new[1]):10.4g}"
                             f" {shift_in_se(old[:2], new[:2]):+9.2f}"
                             f" {relative_change(old, new):9.2g}\n")
    sys.stdout.write("EXPECTED = {\n")
    for name, rows in table.items():
        sys.stdout.write(f"    {name!r}: {rows!r},\n")
    sys.stdout.write("}\n")
