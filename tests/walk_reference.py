"""Per-sample reference draws of the colored jump process, the package's
per-sample implementation before the batched draws of
mvsao.jump_process: the uniform walk of one path, its step and endpoint
colors, and the self-intersection sampler of one frozen path with its
uniform random pre-sort matching.  Tests compare the batched draws with
these in law."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mvsao.combinatorics import Matching, random_matching


def segment_starts(segments) -> np.ndarray:
    return np.concatenate([[0.0], np.cumsum([t for t, _ in segments])[:-1]])


@dataclass
class JumpPath:
    """Jump times and jumps of the colored walk over concatenated segments."""

    segments: tuple[tuple[float, int], ...]  # (duration, initial color)
    times: np.ndarray
    jumps: list[tuple[int, int]]

    def __post_init__(self):
        if len(self.times) != len(self.jumps):
            raise ValueError("times and jumps must have equal length")

    @property
    def n_jumps(self) -> int:
        return len(self.jumps)

    @property
    def segment_starts(self) -> np.ndarray:
        return segment_starts(self.segments)

    def color_at_steps(self, dt: float, n_steps: int) -> np.ndarray:
        """Color at the step left endpoints m*dt, m = 0..n_steps-1."""
        out = np.empty(n_steps, dtype=np.int64)
        # (time, priority, color) sorted on time and priority: resets beat
        # jumps at equal times, and tied jumps keep their sequence order
        events = sorted([(start, 0, c) for start, (_, c) in zip(self.segment_starts, self.segments)]
                        + [(float(tau), 1, to) for tau, (_, to) in zip(self.times, self.jumps)],
                        key=lambda event: event[:2])
        for etime, _, color in events:
            out[int(np.ceil(etime / dt - 1e-9)):] = color
        return out

    def endpoint_colors(self) -> list[int]:
        """Left-limit color at each segment's right endpoint."""
        starts = self.segment_starts
        ends = starts + np.array([t for t, _ in self.segments])
        out = []
        for start, end, (_, init) in zip(starts, ends, self.segments):
            color = init
            for tau, (_, to) in zip(self.times, self.jumps):
                if start <= tau < end:
                    color = to
            out.append(color)
        return out


@dataclass
class SingularJumpPath(JumpPath):
    """A jump path whose times were drawn from the self-intersection
    measure of a frozen spatial path, together with the induced matching."""

    matching: Matching  # pairs in sorted-time indexing


def draw_free_walk(segments, seg_counts, r: int, rng: np.random.Generator) -> JumpPath:
    """The uniform walk given its per-segment jump counts: sorted uniform
    jump times within each segment, each jump to a uniform other color."""
    times = np.concatenate([np.sort(rng.uniform(0.0, t, int(nk))) + start
                            for (t, _), nk, start
                            in zip(segments, seg_counts, segment_starts(segments))])
    return JumpPath(segments=segments, times=times,
                    jumps=draw_jumps_along(times, segments, r, rng))


def uniform_other_color(current: int, r: int, rng: np.random.Generator) -> int:
    step = int(rng.integers(1, r))
    nxt = current + step
    return nxt if nxt <= r else nxt - r


def draw_jumps_along(sorted_times: np.ndarray, segments, r: int,
                     rng: np.random.Generator) -> list[tuple[int, int]]:
    starts = segment_starts(segments)
    jumps = []
    seg = 0
    color = segments[0][1]
    for tau in sorted_times:
        while seg + 1 < len(segments) and tau >= starts[seg + 1]:
            seg += 1
            color = segments[seg][1]
        nxt = uniform_other_color(color, r, rng)
        jumps.append((color, nxt))
        color = nxt
    return jumps


class SelfIntersectionSampler:
    """Draws jump times concentrated on the bin coincidences of one frozen
    path, given the spatial bin of each of its steps (step_bins, counted
    from 0) and the number of steps in each bin (bin_counts).

    A bin is chosen with probability proportional to the square of its
    count, then the two times of a pair are independent uniform picks
    among the steps in that bin.
    """

    def __init__(self, step_bins: np.ndarray, bin_counts: np.ndarray, dt: float):
        self.dt = dt
        probs = bin_counts**2
        self.bin_probs = probs / probs.sum()
        # the CDF that Generator.choice(p=bin_probs) builds on every call
        self.bin_cdf = self.bin_probs.cumsum()
        self.bin_cdf /= self.bin_cdf[-1]
        self.sorted_steps = np.argsort(step_bins, kind="stable")
        self.bin_bounds = np.concatenate([[0], np.cumsum(bin_counts)]).astype(np.int64)

    def sample_pair(self, rng: np.random.Generator) -> tuple[float, float, int]:
        """Two step times in one bin, and that bin.  The bin is the draw of
        rng.choice(len(bin_probs), p=bin_probs), from the same uniform."""
        b = int(self.bin_cdf.searchsorted(rng.random(), side="right"))
        lo, hi = self.bin_bounds[b], self.bin_bounds[b + 1]
        picks = self.sorted_steps[rng.integers(lo, hi, size=2)]
        return picks[0] * self.dt, picks[1] * self.dt, b

    def sample(self, n_hat: int, segments, r: int,
               rng: np.random.Generator) -> SingularJumpPath:
        """The singular jump path with n_hat jumps.

        The pre-sort matching is uniform, each of its pairs takes its times
        from sample_pair, and the post-sort matching is the image of the
        pre-sort one under the time-sorting permutation.
        """
        q_hat = random_matching(n_hat, rng)
        times = np.empty(n_hat)
        for l1, l2 in q_hat:
            times[l1], times[l2], _ = self.sample_pair(rng)
        perm = np.argsort(times, kind="stable")
        rank = np.empty(n_hat, dtype=np.int64)
        rank[perm] = np.arange(n_hat)
        p_hat = tuple(tuple(sorted((int(rank[l1]), int(rank[l2])))) for l1, l2 in q_hat)
        sorted_times = times[perm]
        jumps = draw_jumps_along(sorted_times, segments, r, rng)
        return SingularJumpPath(segments=segments, times=sorted_times,
                                jumps=jumps, matching=p_hat)
