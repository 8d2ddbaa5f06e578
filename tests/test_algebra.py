import numpy as np
import pytest

from mvsao.algebra import (
    N_COMPONENTS,
    UNIT_NORMALIZATION,
    FieldElement,
    conj,
    from_components,
    mul,
    one,
)


def field_abs(x: FieldElement) -> float:
    """The Euclidean norm of x's components."""
    return float(np.sqrt(x.a**2 + x.b**2 + x.c**2 + x.d**2))


def embed(x: FieldElement) -> np.ndarray:
    """2x2 complex matrix representation of a quaternion.

    The map is an injective ring homomorphism; the unit 1 goes to the
    identity and i to diag(1j, -1j).
    """
    if x.kind != "H":
        raise ValueError("embed is defined for kind H only")
    a, b, c, d = x.components
    return np.array(
        [[a + b * 1j, c + d * 1j],
         [-(c - d * 1j), a - b * 1j]],
        dtype=np.complex128,
    )


def H(a, b=0.0, c=0.0, d=0.0):
    return FieldElement("H", a, b, c, d)


def standard_gaussian(kind: str, rng: np.random.Generator) -> FieldElement:
    """A standard field-valued Gaussian unit.

    Components are i.i.d. N(0,1) with the usual normalization 1, 1/sqrt(2),
    1/2 for R, C, H, so that E[Re(g * conj(g))] = 1 in every kind.
    """
    n = N_COMPONENTS[kind]
    s = UNIT_NORMALIZATION[kind]
    comps = s * rng.standard_normal(n)
    return from_components(kind, comps)


def from_embedding(m: np.ndarray, atol: float = 1e-10) -> FieldElement:
    """Inverse of embed; validates the embedding's entry symmetry."""
    m = np.asarray(m, dtype=np.complex128)
    if m.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    if abs(m[1, 1] - np.conj(m[0, 0])) > atol or abs(m[1, 0] + np.conj(m[0, 1])) > atol:
        raise ValueError("matrix is not a quaternion embedding")
    return FieldElement("H", m[0, 0].real, m[0, 0].imag, m[0, 1].real, m[0, 1].imag)


UNITS = {"1": H(1), "i": H(0, 1), "j": H(0, 0, 1), "k": H(0, 0, 0, 1)}


def test_quaternion_unit_table():
    # full Cayley table of the imaginary units
    expected = {
        ("i", "i"): H(-1), ("j", "j"): H(-1), ("k", "k"): H(-1),
        ("i", "j"): H(0, 0, 0, 1), ("j", "i"): H(0, 0, 0, -1),
        ("j", "k"): H(0, 1), ("k", "j"): H(0, -1),
        ("k", "i"): H(0, 0, 1), ("i", "k"): H(0, 0, -1),
    }
    for (u, v), want in expected.items():
        assert mul(UNITS[u], UNITS[v]) == want


def test_identity_and_complex_product():
    rng = np.random.default_rng(7)
    for kind in ("R", "C", "H"):
        x = standard_gaussian(kind, rng)
        assert mul(one(kind), x) == x
        assert mul(x, one(kind)) == x
    z = mul(FieldElement("C", 1.0, 1.0), FieldElement("C", 1.0, -1.0))
    assert z == FieldElement("C", 2.0)


def test_kind_mismatch_rejected():
    with pytest.raises(ValueError):
        mul(FieldElement("R", 1.0), FieldElement("C", 1.0))


def test_kind_component_invariants():
    with pytest.raises(ValueError):
        FieldElement("R", 1.0, b=0.5)
    with pytest.raises(ValueError):
        FieldElement("C", 1.0, c=0.5)


def test_conj_and_real_part():
    x = H(1, 2, 3, 4)
    assert conj(x) == H(1, -2, -3, -4)
    assert conj(conj(x)) == x
    assert UNITS["k"].a == 0.0
    rng = np.random.default_rng(11)
    for _ in range(200):
        y = standard_gaussian("H", rng)
        want = sum(v * v for v in y.components)
        assert mul(y, conj(y)).a == pytest.approx(want, rel=1e-12)


def test_embed_units():
    np.testing.assert_allclose(embed(H(1)), np.eye(2))
    np.testing.assert_allclose(embed(UNITS["i"]), np.diag([1j, -1j]))


def test_embed_is_ring_homomorphism():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        x = standard_gaussian("H", rng)
        y = standard_gaussian("H", rng)
        np.testing.assert_allclose(embed(mul(x, y)), embed(x) @ embed(y), atol=1e-12)
        np.testing.assert_allclose(embed(x + y), embed(x) + embed(y), atol=1e-14)


def test_embedding_roundtrip_and_trace():
    rng = np.random.default_rng(5)
    for _ in range(100):
        x = standard_gaussian("H", rng)
        m = embed(x)
        assert from_embedding(m) == x
        assert np.trace(m).real / 2 == pytest.approx(x.a, abs=1e-14)
    with pytest.raises(ValueError):
        from_embedding(np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex))


def test_norm_multiplicativity():
    rng = np.random.default_rng(13)
    for _ in range(500):
        x = standard_gaussian("H", rng)
        y = standard_gaussian("H", rng)
        assert field_abs(mul(x, y)) == pytest.approx(field_abs(x) * field_abs(y), rel=1e-12)


def test_from_components_padding():
    assert from_components("C", (1.0, 2.0)) == FieldElement("C", 1.0, 2.0)
    assert from_components("R", (1.5,)) == FieldElement("R", 1.5)
