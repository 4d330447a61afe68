import numpy as np
import pytest

from frobcoord.semiring import BOOLEAN, BY_NAME, REAL
from frobcoord.tensor import Wire, random_tensor


@pytest.mark.parametrize("sr", [REAL, BOOLEAN], ids=["real", "bool"])
def test_algebra_laws_randomized(sr):
    rng = np.random.default_rng(11)
    for _ in range(200):
        shape = tuple(rng.integers(1, 4, size=rng.integers(1, 3)))
        draw = lambda: (rng.random(shape) if sr is REAL
                        else rng.random(shape) >= 0.5)
        a, b, c = draw(), draw(), draw()
        assert sr.allclose(sr.add(sr.add(a, b), c), sr.add(a, sr.add(b, c)))
        assert sr.allclose(sr.mul(sr.mul(a, b), c), sr.mul(a, sr.mul(b, c)))
        assert sr.allclose(sr.add(a, b), sr.add(b, a))
        assert sr.allclose(sr.mul(a, b), sr.mul(b, a))
        assert sr.allclose(sr.mul(a, sr.add(b, c)),
                           sr.add(sr.mul(a, b), sr.mul(a, c)))
        zero = np.full(shape, sr.zero, dtype=sr.dtype)
        assert sr.allclose(sr.mul(a, zero), zero)
        one = np.full(shape, sr.one, dtype=sr.dtype)
        assert sr.allclose(sr.mul(a, one), a)


def test_real_tolerance():
    assert REAL.eq(1.0, 1.0 + 5e-11)
    assert not REAL.eq(1.0, 1.0 + 5e-10)
    assert REAL.eq(0.0, 5e-13)
    assert not REAL.eq(0.0, 5e-12)
    assert not REAL.allclose(np.zeros(2), np.zeros(3))


def test_boolean_exact():
    assert BOOLEAN.eq(True, True)
    assert not BOOLEAN.eq(True, False)
    assert BOOLEAN.allclose(np.array([True, False]), np.array([True, False]))


@pytest.mark.parametrize("sr", [REAL, BOOLEAN], ids=["real", "bool"])
def test_matmul_against_loops(sr):
    rng = np.random.default_rng(3)
    for _ in range(30):
        n, k, m = rng.integers(1, 5, size=3)
        a = rng.random((n, k)) if sr is REAL else rng.random((n, k)) >= 0.5
        b = rng.random((k, m)) if sr is REAL else rng.random((k, m)) >= 0.5
        got = sr.matmul(a, b)
        want = np.full((n, m), sr.zero, dtype=sr.dtype)
        for i in range(n):
            for j in range(m):
                acc = sr.zero
                for t in range(k):
                    acc = sr.add(acc, sr.mul(a[i, t], b[t, j]))
                want[i, j] = acc
        assert sr.allclose(got, want)


def test_boolean_matmul_against_int64_counts():
    # The float32 product must say "some term is 1" exactly: an int64 count
    # of the unit terms is the reference, over empty, sparse, dense and
    # full operands, an empty shared axis and shared axes past 2**12.
    rng = np.random.default_rng(17)
    for k in (0, 1, 2, 5, 64, 4099):
        for density in (0.0, 0.001, 0.5, 1.0):
            n, m = rng.integers(0, 6, size=2)
            a = rng.random((n, k)) < density
            b = rng.random((k, m)) < density
            got = BOOLEAN.matmul(a, b)
            want = (a.astype(np.int64) @ b.astype(np.int64)) > 0
            assert got.dtype == np.bool_ and got.shape == (n, m)
            assert np.array_equal(got, want), (k, density)


def test_from_unit():
    assert REAL.from_unit(0.25) == 0.25
    assert BOOLEAN.from_unit(0.49) is False
    assert BOOLEAN.from_unit(0.5) is True


def test_registry():
    assert BY_NAME["real"] is REAL
    assert BY_NAME["bool"] is BOOLEAN


def test_to_python():
    assert REAL.to_python(np.float64(0.5)) == 0.5
    assert type(REAL.to_python(np.float64(0.5))) is float
    assert type(REAL.to_python(np.float64(3.0))) is float
    assert BOOLEAN.to_python(np.True_) == 1
    assert BOOLEAN.to_python(np.False_) == 0
    assert type(BOOLEAN.to_python(np.True_)) is int
    # Plain output formats every carrier the same way.
    assert format(BOOLEAN.to_python(np.True_), ".12g") == "1"
    assert format(REAL.to_python(np.float64(0.1)), ".17g") == \
        "0.10000000000000001"


@pytest.mark.parametrize("value, real, boolean", [
    (0, True, True),
    (1, True, True),
    (2, True, False),
    (-1, True, False),
    (0.5, True, False),
    (1.0, True, False),
    (1e308, True, False),
    (10 ** 400, False, False),
    (float("nan"), False, False),
    (float("inf"), False, False),
    (True, False, False),
    (False, False, False),
    (None, False, False),
    ("1", False, False),
    ([1], False, False),
])
def test_literal_ok(value, real, boolean):
    assert REAL.literal_ok(value) is real
    assert BOOLEAN.literal_ok(value) is boolean


def test_literal_rule():
    assert REAL.literal_rule == "a finite number"
    assert BOOLEAN.literal_rule == "0 or 1"


def test_distance():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[1.0, 2.5], [1.0, 4.0]])
    assert REAL.distance(a, b) == 2.0
    assert type(REAL.distance(a, b)) is float
    assert REAL.distance(a, a) == 0.0
    p, q = np.array([True, False, True]), np.array([False, False, False])
    assert BOOLEAN.distance(p, q) == 2
    assert type(BOOLEAN.distance(p, q)) is int
    assert BOOLEAN.distance(p, p) == 0
    # Empty arrays are at distance 0, of the carrier's distance type.
    empty = np.zeros((0, 3))
    assert REAL.distance(empty, empty) == 0.0
    assert type(REAL.distance(empty, empty)) is float
    empty = np.zeros((0, 3), dtype=bool)
    assert BOOLEAN.distance(empty, empty) == 0
    assert type(BOOLEAN.distance(empty, empty)) is int


@pytest.mark.parametrize("sr", [REAL, BOOLEAN], ids=["real", "bool"])
def test_from_unit_on_an_array_is_the_scalar_rule_per_entry(sr):
    units = np.random.default_rng(5).random((4, 7))
    units.flat[:4] = [0.0, 0.5, np.nextafter(0.5, 0.0), np.nextafter(1.0, 0.0)]
    got = sr.from_unit(units)
    assert got.shape == units.shape
    assert got.dtype == sr.dtype
    assert [sr.from_unit(float(u)) for u in units.flat] == got.ravel().tolist()


@pytest.mark.parametrize("sr", [REAL, BOOLEAN], ids=["real", "bool"])
def test_random_tensor_maps_the_generator_draws(sr):
    wires = [Wire("n", 0, 3), Wire("s", 0, 2), Wire("n", 1, 3)]
    got = random_tensor(wires, np.random.default_rng(9), sr)
    draws = np.random.default_rng(9).random((3, 2, 3))
    want = draws if sr is REAL else draws >= 0.5
    assert got.array.dtype == sr.dtype
    assert got.array.tobytes() == want.astype(sr.dtype).tobytes()
