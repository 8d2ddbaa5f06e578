"""The colored jump process riding on top of the spatial path: the uniform
continuous-time walk on r colors over concatenated segments, and the
singular process whose jump times are drawn from the spatial path's
self-intersection measure.  Both are drawn for a batch of rows at once and
share one color walk; these are the only implementations of the walk, its
step and endpoint colors and the self-intersection sampler, and the
smooth, white and kernel estimators all draw from them (the kernel as a
batch of one).

A path may consist of several independent segments (one per trace factor);
the color resets to the segment's initial color at each segment start and
jumps chain in between.  Times live on [0, sum of segment lengths).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stochastic_paths import block_rows


def row_ranges(ptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For entries stored row by row, row i's at ptr[i]:ptr[i + 1]: the flat
    indices of the given rows' entries, concatenated, and the position in
    rows of each."""
    lo, hi = ptr[rows], ptr[np.asarray(rows) + 1]
    counts = hi - lo
    local = np.repeat(np.arange(len(counts)), counts)
    return local, np.arange(counts.sum()) + np.repeat(lo - (np.cumsum(counts) - counts), counts)


@dataclass
class JumpBatch:
    """The jumps of m walks over the same segments, flat in (row, time)
    order: row i's jumps are ptr[i]:ptr[i + 1], at nondecreasing global
    times, jump j in segment seg[j] from color frm[j] to color to[j].
    partner[j] is the flat index of the jump matched with jump j (the
    singular process), or None (free walks)."""

    segments: tuple[tuple[float, int], ...]  # (duration, initial color)
    ptr: np.ndarray
    times: np.ndarray
    seg: np.ndarray
    frm: np.ndarray
    to: np.ndarray
    partner: np.ndarray | None

    def endpoint_colors(self) -> np.ndarray:
        """Left-limit color at each segment's right endpoint, shape (m, K)."""
        m, k = len(self.ptr) - 1, len(self.segments)
        out = np.tile([c for _, c in self.segments], m)
        run = np.repeat(np.arange(m), np.diff(self.ptr)) * k + self.seg
        last = np.flatnonzero(np.diff(run, append=-1))  # each (row, segment) run's last jump
        out[run[last]] = self.to[last]
        return out.reshape(m, k)

    def step_colors(self, rows: np.ndarray, dt: float, seg_bounds: np.ndarray) -> np.ndarray:
        """Color held over each step [m dt, (m + 1) dt) of the given rows,
        shape (len(rows), seg_bounds[-1]), uint8 (uint16 from 128 colors
        on).  Segment k holds steps seg_bounds[k]:seg_bounds[k + 1] and
        starts in its initial color; a jump takes effect from step
        ceil(tau / dt) on, tied jumps in sequence order, unless that step
        lies in the next segment."""
        local, idx = row_ranges(self.ptr, rows)
        step = np.ceil(self.times[idx] / dt - 1e-9).astype(np.int64)
        inside = step < seg_bounds[self.seg[idx] + 1]
        # each step holds the color changes of the jumps there, and a
        # segment's first step its initial color too: within a segment the
        # changes telescope, so their running sum is the color held, and
        # every sum lies in (-top, top]
        top = max(max(c for _, c in self.segments), int(self.to.max(initial=0)))
        signed, unsigned = (np.int8, np.uint8) if top < 128 else (np.int16, np.uint16)
        out = np.zeros((len(rows), int(seg_bounds[-1])), dtype=signed)
        np.add.at(out, (local[inside], step[inside]),
                  (self.to[idx] - self.frm[idx])[inside].astype(signed))
        for (_, color), lo, hi in zip(self.segments, seg_bounds[:-1], seg_bounds[1:]):
            part = out[:, lo:hi]
            part[:, 0] += color
            np.cumsum(part, axis=1, out=part)
        return out.view(unsigned)


class JumpPath:
    """Row row of a JumpBatch, the walk of one path: its jump times, segments
    and jumps as (from, to) pairs, and for the singular process its matching
    in sorted-time indexing.  The per-sample pairing weights read it, and
    the kernel estimator reads its walks, batches of one, through it,
    endpoint and step colors included."""

    def __init__(self, batch: JumpBatch, row: int):
        self.batch, self.row = batch, row
        lo, hi = batch.ptr[row], batch.ptr[row + 1]
        self.segments = batch.segments
        self.times = batch.times[lo:hi]
        self.seg = batch.seg[lo:hi]
        self.jumps = list(zip(batch.frm[lo:hi].tolist(), batch.to[lo:hi].tolist()))
        self.matching = None if batch.partner is None else tuple(
            (a, b) for a, b in enumerate((batch.partner[lo:hi] - lo).tolist()) if a < b)

    def endpoint_colors(self) -> list[int]:
        return self.batch.endpoint_colors()[self.row].tolist()

    def color_at_steps(self, dt: float, seg_bounds: np.ndarray) -> np.ndarray:
        return self.batch.step_colors(np.array([self.row]), dt, seg_bounds)[0]


def draw_jumps_along(segments, r: int, ptr: np.ndarray, times: np.ndarray, seg: np.ndarray,
                     partner: np.ndarray | None, rng: np.random.Generator) -> JumpBatch:
    """The color walk along each row's sorted jump times (row i's at
    ptr[i]:ptr[i + 1], jump j in segment seg[j]; partner as in JumpBatch):
    every jump goes to a uniform other color, (current + U{1..r-1}) mod r,
    and the color resets to the segment's initial one at each segment
    start."""
    n = len(times)
    # a single color never jumps
    inc = rng.integers(1, r, size=n) if r > 1 else np.zeros(n, dtype=np.int64)
    run = np.repeat(np.arange(len(ptr) - 1), np.diff(ptr)) * len(segments) + seg
    # the increments summed since the start of each (row, segment) run
    total = np.cumsum(inc)
    first = np.flatnonzero(np.diff(run, prepend=-1))
    within = total - np.repeat((total - inc)[first], np.diff(np.append(first, n)))
    start = np.array([c - 1 for _, c in segments])[seg]
    return JumpBatch(segments=segments, ptr=ptr, times=times, seg=seg,
                     frm=(start + within - inc) % r + 1, to=(start + within) % r + 1,
                     partner=partner)


def walk_jump_counts(r: int, ts, n: int, rng: np.random.Generator) -> np.ndarray:
    """Per-segment jump counts of n uniform walks, shape (n, len(ts)):
    independent Poisson((r-1) t_k) counts; a single color never jumps."""
    if r == 1:
        return np.zeros((n, len(ts)), dtype=np.int64)
    return rng.poisson((r - 1) * np.asarray(ts)[None, :], size=(n, len(ts)))


def free_walk_times(segments, seg_counts: np.ndarray, rng: np.random.Generator):
    """Jump times of the uniform walks of m rows given their per-segment
    jump counts, shape (m, K): sorted uniforms within each segment.
    Returns draw_jumps_along's (ptr, times, seg, partner)."""
    m, k = seg_counts.shape
    run = np.repeat(np.arange(m * k), seg_counts.ravel())
    seg = run % k
    u = rng.random(len(run))
    u = u[np.lexsort((u, run))]
    starts = np.concatenate([[0.0], np.cumsum([t for t, _ in segments])[:-1]])
    times = np.array([t for t, _ in segments])[seg] * u + starts[seg]
    return np.concatenate([[0], np.cumsum(seg_counts.sum(axis=1))]), times, seg, None


def singular_jump_counts(r: int, norm2: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Jump counts of the singular process for paths whose local times have
    squared L2 norms norm2: twice a Poisson with mean (r-1)^2 ||L||_2^2 / 2."""
    lam = (r - 1) ** 2 * norm2 / 2.0
    return 2 * (rng.poisson(lam) if r > 1 else np.zeros(len(norm2), dtype=np.int64))


def singular_walk_times(step_bins: np.ndarray, bin_counts: np.ndarray, counts: np.ndarray,
                        dt: float, seg_bounds: np.ndarray, rng: np.random.Generator):
    """Jump times and matchings of the singular jump paths of m frozen
    paths, row i with counts[i] (even) jumps, given the spatial bin of each
    step (step_bins, shape (m, steps); segment k holds steps
    seg_bounds[k]:seg_bounds[k + 1]) and the steps per bin (bin_counts,
    shape (m, n_bins)).  Returns draw_jumps_along's (ptr, times, seg,
    partner).

    Each row's counts[i] / 2 pairs are independent: a bin with probability
    proportional to its squared count (one integer draw against the row's
    cumulative squared counts), then two independent uniform picks among
    the row's steps in that bin (a stable sort of each row's step bins).
    Jumps at one step are put in uniformly random order, the law of a
    uniform matching of the unsorted times followed by a stable time sort.
    """
    m, n_steps = step_bins.shape
    pair_row = np.repeat(np.arange(m), counts // 2)
    hist = bin_counts.astype(np.int64)
    cum = np.cumsum(hist**2, axis=1)
    offset = np.cumsum(cum[:, -1]) - cum[:, -1]
    key = offset[pair_row] + rng.integers(0, cum[pair_row, -1])
    b = np.searchsorted((cum + offset[:, None]).ravel(), key, side="right")
    b -= pair_row * hist.shape[1]
    first = (np.cumsum(hist, axis=1) - hist)[pair_row, b]
    picks = first[:, None] + rng.integers(0, hist[pair_row, b][:, None], size=(len(b), 2))
    steps = np.empty_like(picks)
    rows = block_rows(n_steps)
    for lo in range(0, m, rows):
        a, z = np.searchsorted(pair_row, [lo, lo + rows])
        order = np.argsort(step_bins[lo:lo + rows], axis=1, kind="stable")
        steps[a:z] = order[pair_row[a:z, None] - lo, picks[a:z]]
    # endpoints 2p and 2p + 1 of pair p, sorted by (row, step, random tie key)
    row, step = np.repeat(pair_row, 2), steps.ravel()
    order = np.lexsort((rng.random(len(step)), step, row))
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    step = step[order]
    seg = np.searchsorted(seg_bounds, step, side="right") - 1
    return np.concatenate([[0], np.cumsum(counts)]), step * dt, seg, rank[order ^ 1]
