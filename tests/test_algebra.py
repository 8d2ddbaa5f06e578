"""The one quaternion arithmetic of the package, noise_model.quaternion_block,
checked against a written-out Hamilton product: a + b*i + c*j + d*k has the
block [[a+ib, c+id], [-c+id, a-ib]], so products of entries are products of
blocks, and the components are read back from the block's first row."""

from functools import reduce

import numpy as np

from mvsao.noise_model import N_COMPONENTS, UNIT_NORMALIZATION, quaternion_block


def hamilton(x, y):
    """The reference quaternion product of component vectors, i*j = k."""
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    return np.array([
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    ])


def conj(x):
    """Quaternion conjugation: negates the i, j, k parts."""
    return x * np.array([1.0, -1.0, -1.0, -1.0])


def block(x):
    return quaternion_block(*x)


def components(m):
    """(Re M00, Im M00, Re M01, Im M01), as the kernel estimator reads its
    noise product."""
    return np.array([m[0, 0].real, m[0, 0].imag, m[0, 1].real, m[0, 1].imag])


def standard_gaussian(kind: str, rng: np.random.Generator) -> np.ndarray:
    """A standard field-valued Gaussian unit, i.i.d. N(0, 1) components
    scaled by 1, 1/sqrt(2), 1/2 for R, C, H, padded to four components."""
    g = np.zeros(4)
    n = N_COMPONENTS[kind]
    g[:n] = UNIT_NORMALIZATION[kind] * rng.standard_normal(n)
    return g


UNITS = dict(zip("1ijk", np.eye(4)))


def test_quaternion_unit_table():
    # full Cayley table of the imaginary units, for the reference product
    # and for the blocks
    expected = {
        ("i", "i"): -UNITS["1"], ("j", "j"): -UNITS["1"], ("k", "k"): -UNITS["1"],
        ("i", "j"): UNITS["k"], ("j", "i"): -UNITS["k"],
        ("j", "k"): UNITS["i"], ("k", "j"): -UNITS["i"],
        ("k", "i"): UNITS["j"], ("i", "k"): -UNITS["j"],
    }
    for (u, v), want in expected.items():
        np.testing.assert_array_equal(hamilton(UNITS[u], UNITS[v]), want)
        np.testing.assert_array_equal(block(UNITS[u]) @ block(UNITS[v]), block(want))


def test_identity_and_complex_product():
    rng = np.random.default_rng(7)
    for kind in ("R", "C", "H"):
        x = standard_gaussian(kind, rng)
        np.testing.assert_array_equal(block(UNITS["1"]) @ block(x), block(x))
        np.testing.assert_array_equal(block(x) @ block(UNITS["1"]), block(x))
    z = block((1.0, 1.0, 0.0, 0.0)) @ block((1.0, -1.0, 0.0, 0.0))
    np.testing.assert_array_equal(z, block((2.0, 0.0, 0.0, 0.0)))


def test_kind_component_invariants():
    # an R or C value z embeds as diag(z, conj z), and C products stay
    # there: a run over R or C has no j or k part
    rng = np.random.default_rng(17)
    for kind in ("R", "C"):
        x, y = standard_gaussian(kind, rng), standard_gaussian(kind, rng)
        zx, zy = complex(x[0], x[1]), complex(y[0], y[1])
        np.testing.assert_array_equal(block(x), np.diag([zx, zx.conjugate()]))
        prod = block(x) @ block(y)
        np.testing.assert_array_equal(prod[[0, 1], [1, 0]], 0.0)
        np.testing.assert_allclose(prod[0, 0], zx * zy, rtol=1e-15)
        assert not components(prod)[N_COMPONENTS[kind]:].any()


def test_conj_and_real_part():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(conj(x), [1.0, -2.0, -3.0, -4.0])
    np.testing.assert_array_equal(conj(conj(x)), x)
    rng = np.random.default_rng(11)
    for _ in range(200):
        y = standard_gaussian("H", rng)
        # the conjugate maps to the conjugate transpose
        np.testing.assert_array_equal(block(conj(y)), block(y).conj().T)
        want = float(y @ y)
        assert abs(hamilton(y, conj(y))[0] - want) <= 1e-12 * want
        np.testing.assert_allclose(block(y) @ block(y).conj().T, want * np.eye(2),
                                   rtol=1e-12, atol=1e-15)


def test_embed_units():
    np.testing.assert_array_equal(block(UNITS["1"]), np.eye(2))
    np.testing.assert_array_equal(block(UNITS["i"]), np.diag([1j, -1j]))
    np.testing.assert_array_equal(block(UNITS["j"]), [[0, 1], [-1, 0]])
    np.testing.assert_array_equal(block(UNITS["k"]), [[0, 1j], [1j, 0]])


def test_embed_is_ring_homomorphism():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        x = standard_gaussian("H", rng)
        y = standard_gaussian("H", rng)
        np.testing.assert_allclose(block(hamilton(x, y)), block(x) @ block(y), atol=1e-12)
        np.testing.assert_allclose(block(x + y), block(x) + block(y), atol=1e-14)


def test_embedding_roundtrip_and_trace():
    rng = np.random.default_rng(5)
    for _ in range(100):
        x = standard_gaussian("H", rng)
        m = block(x)
        np.testing.assert_array_equal(components(m), x)
        assert np.trace(m).real / 2 == x[0]
    # an ordered product of blocks reads back as the ordered Hamilton product
    for n in (2, 3, 6):
        xs = [standard_gaussian("H", rng) for _ in range(n)]
        np.testing.assert_allclose(components(reduce(np.matmul, map(block, xs))),
                                   reduce(hamilton, xs), atol=1e-12)
    # array components give one block per column, as the oracle writes them
    cols = rng.standard_normal((4, 5))
    stacked = quaternion_block(*cols)
    assert stacked.shape == (2, 2, 5)
    for g in range(5):
        np.testing.assert_array_equal(stacked[:, :, g], block(cols[:, g]))


def test_norm_multiplicativity():
    rng = np.random.default_rng(13)
    for _ in range(500):
        x = standard_gaussian("H", rng)
        y = standard_gaussian("H", rng)
        norm_xy = np.linalg.norm(hamilton(x, y))
        assert abs(norm_xy - np.linalg.norm(x) * np.linalg.norm(y)) <= 1e-12 * norm_xy
        # the block's determinant is the squared norm
        assert abs(np.linalg.det(block(x)) - x @ x) <= 1e-12 * (x @ x)
