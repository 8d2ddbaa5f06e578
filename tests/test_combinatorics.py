from itertools import product

import numpy as np
import pytest

from mvsao.combinatorics import (
    MatchingSizeError,
    constant_c,
    enumerate_matchings,
    random_matching,
    reversed_jump,
    validate_matching,
)
from mvsao.experiment import ExperimentSpec
from wick_oracle import pairing_moment_mc

# the enumeration cap of a run that does not set n_max
N_MAX = ExperimentSpec.n_max

# The paper's binary-sequence route to the quaternion weight, kept here as a
# reference for constant_c.  A binary sequence for n jumps has entries
# m[0..n]; jump k owns the step (m[k], m[k+1]).  Allowed (step_1, step_2)
# combinations for a matched pair of jumps; flips are the same-direction
# combinations that contribute a factor -1.
_SAME_ALLOWED = {((0, 0), (1, 1)), ((1, 1), (0, 0)), ((0, 1), (1, 0)), ((1, 0), (0, 1))}
_REVERSED_ALLOWED = {((0, 0), (0, 0)), ((1, 1), (1, 1)), ((0, 1), (1, 0)), ((1, 0), (0, 1))}
_FLIPS = {((0, 1), (1, 0)), ((1, 0), (0, 1))}


def respects(m, p, jumps) -> bool:
    """Whether the binary sequence m is compatible with the matched jumps.

    For every pair {l1, l2} (l1 < l2) the two owned steps must lie in the
    allowed set for the pair's jump relation; same-direction and reversed
    jumps have different allowed sets.  Pairs of unrelated jumps make the
    whole configuration non-respecting.
    """
    m = tuple(int(v) for v in m)
    if len(m) != len(jumps) + 1:
        raise ValueError("binary sequence must have one more entry than there are jumps")
    for l1, l2 in p:
        l1, l2 = min(l1, l2), max(l1, l2)
        steps = ((m[l1], m[l1 + 1]), (m[l2], m[l2 + 1]))
        if tuple(jumps[l1]) == tuple(jumps[l2]):
            allowed = _SAME_ALLOWED
        elif tuple(jumps[l1]) == reversed_jump(tuple(jumps[l2])):
            allowed = _REVERSED_ALLOWED
        else:
            return False
        if steps not in allowed:
            return False
    return True


def count_flips(m, p, jumps) -> int:
    """Number of matched same-direction pairs whose steps are a flip."""
    m = tuple(int(v) for v in m)
    flips = 0
    for l1, l2 in p:
        l1, l2 = min(l1, l2), max(l1, l2)
        if jumps[l1] != jumps[l2]:
            continue
        steps = ((m[l1], m[l1 + 1]), (m[l2], m[l2 + 1]))
        if steps in _FLIPS:
            flips += 1
    return flips


def quaternion_weight(jumps, p) -> float:
    """The signed, normalized count of respecting binary sequences, by
    enumerating all sequences with endpoints 0."""
    n = len(jumps)
    if n == 0:
        return 1.0
    total = 0
    for interior in product((0, 1), repeat=n - 1):
        m = (0,) + interior + (0,)
        if respects(m, p, jumps):
            total += (-1) ** count_flips(m, p, jumps)
    return float(total) * 2.0 ** (-n / 2)


def reference_c(kind, jumps, p) -> float:
    """The pairing weight as the paper defines it: R and C by the relation
    of each pair, H by the binary-sequence enumeration."""
    same = [jumps[a] == jumps[b] for a, b in p]
    reverse = [jumps[a] == reversed_jump(jumps[b]) for a, b in p]
    if not all(s or rv for s, rv in zip(same, reverse)):
        return 0.0
    if kind == "R":
        return 1.0
    if kind == "C":
        return 1.0 if all(reverse) else 0.0
    return quaternion_weight(jumps, p)

# Appendix-style fixtures.  Jump indices are 0-based; each tuple is
# (jumps, matching) with the properties asserted in the tests.
WALK_1_AND_4 = (
    [(1, 2), (2, 3), (3, 1), (1, 2), (2, 3), (3, 1)],
    ((0, 3), (1, 4), (2, 5)),  # every pair same-direction
)
WALK_2 = (
    [(1, 2), (2, 1), (1, 3), (3, 1), (1, 2), (2, 1)],
    ((0, 5), (1, 4), (2, 3)),  # every pair reversed
)
BINARY_NON_EXAMPLE = (
    [(1, 2), (2, 3), (3, 2), (2, 3), (3, 2), (2, 1)],
    ((0, 5), (1, 2), (3, 4)),
    (0, 0, 0, 0, 0, 1, 0),  # pair (3,4) is reversed with steps ((0,0),(0,1))
)
BINARY_1 = (
    [(1, 2), (2, 3), (3, 2), (2, 3), (3, 2), (1, 2)],
    ((0, 5), (1, 2), (3, 4)),
    (0, 1, 1, 1, 1, 1, 0),  # single flip at the same-direction pair (0,5)
)
BINARY_2 = (
    [(1, 2), (2, 3), (3, 1), (1, 3), (1, 2), (2, 3), (3, 1), (3, 1)],
    ((0, 4), (1, 5), (2, 6), (3, 7)),
    (0, 1, 0, 0, 1, 0, 1, 1, 0),  # flips at (0,4) and (1,5)
)


def random_jumps(n, r, rng):
    jumps = []
    for _ in range(n):
        i = int(rng.integers(1, r + 1))
        j = int(rng.integers(1, r))
        if j >= i:
            j += 1
        jumps.append((i, j))
    return jumps


class TestEnumeration:
    def test_base_cases(self):
        assert enumerate_matchings(0, N_MAX) == [()]
        assert enumerate_matchings(2, N_MAX) == [((0, 1),)]

    def test_n4_by_hand(self):
        got = set(frozenset(map(frozenset, p)) for p in enumerate_matchings(4, N_MAX))
        want = {
            frozenset({frozenset({0, 1}), frozenset({2, 3})}),
            frozenset({frozenset({0, 2}), frozenset({1, 3})}),
            frozenset({frozenset({0, 3}), frozenset({1, 2})}),
        }
        assert got == want

    def test_double_factorial_counts(self):
        assert len(enumerate_matchings(6, N_MAX)) == 15
        assert len(enumerate_matchings(8, N_MAX)) == 105

    def test_validity_and_uniqueness(self):
        ms = enumerate_matchings(8, N_MAX)
        for p in ms:
            validate_matching(p, 8)
        assert len(set(ms)) == len(ms)

    def test_size_limits(self):
        with pytest.raises(MatchingSizeError):
            enumerate_matchings(3, N_MAX)
        with pytest.raises(MatchingSizeError):
            enumerate_matchings(14, N_MAX)
        assert len(enumerate_matchings(14, n_max=14)) == 135135

    def test_random_matching_valid(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            validate_matching(random_matching(8, rng), 8)


class TestRespectsAndFlips:
    def test_binary_non_example(self):
        jumps, p, m = BINARY_NON_EXAMPLE
        assert jumps[4] == (jumps[3][1], jumps[3][0])
        assert ((m[3], m[4]), (m[4], m[5])) == ((0, 0), (0, 1))
        assert respects(m, p, jumps) is False

    def test_binary_1(self):
        jumps, p, m = BINARY_1
        assert respects(m, p, jumps) is True
        assert count_flips(m, p, jumps) == 1

    def test_binary_2(self):
        jumps, p, m = BINARY_2
        assert respects(m, p, jumps) is True
        assert count_flips(m, p, jumps) == 2

    def test_reversed_pair_smallest_case(self):
        jumps = [(1, 2), (2, 1)]
        assert respects((0, 0, 0), ((0, 1),), jumps) is True

    def test_same_pair_smallest_case(self):
        jumps = [(1, 2), (1, 2)]
        assert respects((0, 1, 0), ((0, 1),), jumps) is True
        assert count_flips((0, 1, 0), ((0, 1),), jumps) == 1

    def test_all_reversed_matching_has_no_flips(self):
        jumps, p = WALK_2
        for interior in [(0,) * 5, (1,) * 5, (0, 1, 0, 1, 0)]:
            seq = (0,) + interior + (0,)
            assert count_flips(seq, p, jumps) == 0


class TestConstantC:
    def test_binary_fixture_weights(self):
        # all reversed; one same-direction pair; three of them and one reversed
        for (jumps, p, _), want in ((BINARY_NON_EXAMPLE, 1.0), (BINARY_1, -0.5),
                                    (BINARY_2, 0.25)):
            assert constant_c("H", jumps, p) == want
            assert quaternion_weight(jumps, p) == want

    def test_equals_reference_exhaustively(self):
        # every jump sequence over r = 3 with n <= 4 and every matching
        moves = [(i, j) for i in (1, 2, 3) for j in (1, 2, 3) if i != j]
        cases = 0
        for n in (0, 2, 4):
            for jumps in product(moves, repeat=n):
                for p in enumerate_matchings(n, N_MAX):
                    for kind in ("R", "C", "H"):
                        assert constant_c(kind, jumps, p) == reference_c(kind, jumps, p), (
                            kind, jumps, p)
                        cases += 1
        assert cases == 11_775

    @pytest.mark.parametrize("n", [8, 10, 12])
    def test_equals_reference_on_related_pairings(self, n):
        # every pair same or reversed, so that the H weight is rarely 0
        rng = np.random.default_rng(n)
        for _ in range(20):
            p = random_matching(n, rng)
            jumps = [None] * n
            for l1, l2 in p:
                jumps[l1] = random_jumps(1, 3, rng)[0]
                jumps[l2] = jumps[l1] if rng.random() < 0.5 else reversed_jump(jumps[l1])
            for kind in ("R", "C", "H"):
                assert constant_c(kind, jumps, p) == reference_c(kind, jumps, p)

    def test_walk_1_and_4(self):
        jumps, p = WALK_1_AND_4
        assert constant_c("R", jumps, p) == 1.0
        assert constant_c("C", jumps, p) == 0.0
        assert constant_c("H", jumps, p) == pytest.approx(-0.5)

    def test_walk_2(self):
        jumps, p = WALK_2
        assert constant_c("R", jumps, p) == 1.0
        assert constant_c("C", jumps, p) == 1.0
        assert constant_c("H", jumps, p) == pytest.approx(1.0)

    def test_n2_values(self):
        assert constant_c("H", [(1, 2), (1, 2)], ((0, 1),)) == pytest.approx(-0.5)
        assert constant_c("H", [(1, 2), (2, 1)], ((0, 1),)) == pytest.approx(1.0)

    def test_unrelated_pair_kills_weight(self):
        jumps = [(1, 2), (2, 3)]
        for kind in ("R", "C", "H"):
            assert constant_c(kind, jumps, ((0, 1),)) == 0.0

    def test_empty(self):
        for kind in ("R", "C", "H"):
            assert constant_c(kind, [], ()) == 1.0
        assert quaternion_weight([], ()) == 1.0

    def test_bound_random(self):
        rng = np.random.default_rng(42)
        for _ in range(2000):
            n = 2 * int(rng.integers(1, 6))
            jumps = random_jumps(n, 3, rng)
            p = random_matching(n, rng)
            for kind in ("R", "C", "H"):
                assert abs(constant_c(kind, jumps, p)) <= 1.0 + 1e-12

    def test_tensorization(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            n1 = 2 * int(rng.integers(1, 4))
            n2 = 2 * int(rng.integers(1, 4))
            j1 = random_jumps(n1, 3, rng)
            j2 = random_jumps(n2, 3, rng)
            p1 = random_matching(n1, rng)
            p2 = random_matching(n2, rng)
            combined = tuple(p1) + tuple((a + n1, b + n1) for a, b in p2)
            for kind in ("R", "C", "H"):
                lhs = constant_c(kind, j1 + j2, combined)
                rhs = constant_c(kind, j1, p1) * constant_c(kind, j2, p2)
                assert lhs == pytest.approx(rhs, abs=1e-12)


class TestMonteCarloOracle:
    @pytest.mark.parametrize("kind", ["R", "C", "H"])
    def test_fixtures_match_oracle(self, kind):
        rng = np.random.default_rng(101)
        for jumps, p in (WALK_1_AND_4, WALK_2):
            want = constant_c(kind, jumps, p)
            got, se = pairing_moment_mc(kind, jumps, p, 200_000, rng)
            assert abs(got - want) <= 4 * se + 1e-12

    @pytest.mark.parametrize("kind", ["R", "C", "H"])
    def test_random_configs_match_oracle(self, kind):
        rng = np.random.default_rng(103)
        for _ in range(6):
            n = 2 * int(rng.integers(1, 4))
            jumps = random_jumps(n, 3, rng)
            p = random_matching(n, rng)
            want = constant_c(kind, jumps, p)
            got, se = pairing_moment_mc(kind, jumps, p, 100_000, rng)
            assert abs(got - want) <= 4 * se + 1e-12
