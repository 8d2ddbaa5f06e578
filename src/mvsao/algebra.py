"""Scalar arithmetic over R, C and the quaternions H.

All three ground fields are represented by a single four-real-slot value
with a kind tag, so code that is generic in the field (estimators, Wick
sums, noise assembly) does not need to branch on the scalar type.  The
2x2 complex embedding of a quaternion,

    a + b*i + c*j + d*k  ->  [[a+bi, c+di], [-(c-di), a-bi]],

is how the matrix oracle writes quaternion entries for its complex
eigensolve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

KINDS = ("R", "C", "H")

# components drawn per kind, and the normalization of a standard noise unit:
# x (R), (x + y*i)/sqrt(2) (C), (x + y*i + z*j + w*k)/2 (H)
N_COMPONENTS = {"R": 1, "C": 2, "H": 4}
UNIT_NORMALIZATION = {"R": 1.0, "C": 1.0 / np.sqrt(2.0), "H": 0.5}


@dataclass(frozen=True)
class FieldElement:
    """A scalar a + b*i + c*j + d*k tagged with its field kind."""

    kind: str
    a: float
    b: float = 0.0
    c: float = 0.0
    d: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown field kind {self.kind!r}")
        if self.kind == "R" and (self.b != 0.0 or self.c != 0.0 or self.d != 0.0):
            raise ValueError("kind R requires b = c = d = 0")
        if self.kind == "C" and (self.c != 0.0 or self.d != 0.0):
            raise ValueError("kind C requires c = d = 0")

    @property
    def components(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        return mul(self, other)

    def __add__(self, other: "FieldElement") -> "FieldElement":
        if self.kind != other.kind:
            raise ValueError("mismatched field kinds")
        return FieldElement(self.kind, self.a + other.a, self.b + other.b,
                            self.c + other.c, self.d + other.d)

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.kind, -self.a, -self.b, -self.c, -self.d)

    def scale(self, s: float) -> "FieldElement":
        return FieldElement(self.kind, s * self.a, s * self.b, s * self.c, s * self.d)


def one(kind: str) -> FieldElement:
    return FieldElement(kind, 1.0)


def from_components(kind: str, comps) -> FieldElement:
    comps = tuple(float(x) for x in comps) + (0.0,) * (4 - len(comps))
    return FieldElement(kind, *comps[:4])


def mul(x: FieldElement, y: FieldElement) -> FieldElement:
    """Product in the common field of x and y.

    For kinds R and C this is the ordinary scalar product; for H it is the
    (non-commutative) quaternion product with i*j = k and j*i = -k.
    """
    if x.kind != y.kind:
        raise ValueError(f"mismatched field kinds: {x.kind} vs {y.kind}")
    a1, b1, c1, d1 = x.components
    a2, b2, c2, d2 = y.components
    return FieldElement(
        x.kind,
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    )


def conj(x: FieldElement) -> FieldElement:
    """Conjugation: negates the i, j, k parts."""
    return FieldElement(x.kind, x.a, -x.b, -x.c, -x.d)

