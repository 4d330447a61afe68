import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frobcoord.coordination
import frobcoord.evaluator
from frobcoord import errors
from frobcoord.coordination import coordinator_tensor
from frobcoord.evaluator import SpaceAssignment
from frobcoord.pregroup import parse_type
from frobcoord.semiring import BOOLEAN, REAL
from frobcoord.tensor import (MAX_AXES, Tensor, Wire, contract, eta_cap,
                              frobenius_delta, frobenius_iota, frobenius_mu,
                              frobenius_mu_matrix, frobenius_zeta,
                              permute_wires, random_tensor, scalar,
                              tensor_product)

from oracles import contract_loops, outer_loops


def vec(data, base="n", z=0, sr=REAL):
    return Tensor([Wire(base, z, len(data))], data, sr)


def test_wire_validation():
    with pytest.raises(errors.DimMismatch):
        Wire("n", 0, 0)
    with pytest.raises(errors.DimMismatch):
        Wire("n", dim=0)
    wire = Wire("n", -2, 3)
    assert pickle.loads(pickle.dumps(wire)) == wire
    assert str(wire) == "n.l.l"


def test_tensor_accepts_flat_row_major():
    t = Tensor([Wire("n", 0, 2), Wire("s", 0, 3)], [1, 2, 3, 4, 5, 6])
    assert t.array.shape == (2, 3)
    assert t.array[1, 0] == 4.0
    with pytest.raises(errors.ShapeMismatch):
        Tensor([Wire("n", 0, 2)], [1, 2, 3])


def test_tensor_refuses_data_of_another_shape():
    # Reshaped, this 3 x 2 matrix would be read as a different 2 x 3 one.
    with pytest.raises(errors.ShapeMismatch):
        Tensor([Wire("n", 0, 2), Wire("n", 0, 3)], np.arange(6).reshape(3, 2))
    with pytest.raises(errors.ShapeMismatch):
        Tensor([Wire("n", 0, 2), Wire("n", 0, 3)], np.zeros((1, 6)))
    with pytest.raises(errors.ShapeMismatch):
        Tensor([Wire("n", 0, 1)], 5.0)
    t = Tensor([Wire("n", 0, 2), Wire("n", 0, 3)], np.arange(6).reshape(2, 3))
    assert t.array.tolist() == [[0, 1, 2], [3, 4, 5]]


@pytest.mark.parametrize("dim", [True, False, 2.0, np.int64(2), 0, -1, "2"])
def test_dimensions_are_python_ints_everywhere(dim):
    rule = f"must be a Python int >= 1, got {dim!r}"
    for make in (lambda: Wire("n", 0, dim),
                 lambda: frobenius_zeta("n", dim),
                 lambda: eta_cap("n", "left", dim)):
        with pytest.raises(errors.DimMismatch) as exc:
            make()
        assert str(exc.value) == f"wire dimension {rule}"


@pytest.mark.parametrize("sr", [REAL, BOOLEAN], ids=["real", "bool"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")],
                         ids=["nan", "inf", "-inf"])
def test_caller_data_must_be_finite(sr, bad):
    # numpy would read nan and the infinities as True on the booleans.
    with pytest.raises(errors.BadArgument, match="non-finite"):
        Tensor([Wire("n", 0, 2)], [0, bad], sr)
    with pytest.raises(errors.BadArgument, match="non-finite"):
        Tensor([Wire("n", 0, 2)], np.array([bad, 1.0]), sr)
    with pytest.raises(errors.BadArgument, match="non-finite"):
        scalar(bad, sr)

    class Draws:
        def random(self, shape):
            return np.full(shape, bad)

    if sr is REAL:  # the booleans threshold a draw before Tensor sees it
        with pytest.raises(errors.BadArgument, match="non-finite"):
            random_tensor([Wire("n", 0, 2)], Draws(), sr)


@pytest.mark.parametrize("data", [[2, -1], [0, 2], [0.5, 1.0],
                                  np.array([0, 3])],
                         ids=["two", "two-alone", "half", "int-array"])
def test_boolean_caller_data_must_be_0_or_1(data):
    # numpy would read every nonzero entry as true.
    with pytest.raises(errors.BadArgument, match="must be 0 or 1"):
        Tensor([Wire("n", 0, 2)], data, BOOLEAN)


@pytest.mark.parametrize("value", [0.5, 2, -1], ids=["half", "two", "-1"])
def test_boolean_scalar_must_be_0_or_1(value):
    with pytest.raises(errors.BadArgument, match="must be 0 or 1"):
        scalar(value, BOOLEAN)


@pytest.mark.parametrize("big", [10 ** 400, -10 ** 400],
                         ids=["positive", "negative"])
def test_an_int_past_the_float_range_is_a_bad_argument(big):
    # numpy's cast to float64 raises Python's OverflowError; the lexicon
    # refuses such a literal, and the booleans refuse it as not 0 or 1.
    for make in (lambda: Tensor([Wire("n", 0, 2)], [big, 1]),
                 lambda: Tensor([Wire("n", 0, 2)] * 2, [[1, 0], [0, big]]),
                 lambda: scalar(big)):
        with pytest.raises(errors.BadArgument, match="float64 range"):
            make()
    with pytest.raises(errors.BadArgument, match="must be 0 or 1"):
        Tensor([Wire("n", 0, 2)], [big, 1], BOOLEAN)


@pytest.mark.parametrize("data", [[True, False], [1.0, 0.0], [1, 0],
                                  np.array([True, False]), np.eye(2)[0]],
                         ids=["bools", "floats", "ints", "bool-array",
                              "eye-row"])
def test_boolean_caller_data_of_0_and_1_is_taken(data):
    t = Tensor([Wire("n", 0, 2)], data, BOOLEAN)
    assert t.array.tolist() == [True, False]
    assert scalar(data[0], BOOLEAN).item() is True


@pytest.mark.parametrize("sr", [REAL, BOOLEAN], ids=["real", "bool"])
def test_uncopied_arrays_are_taken_as_they_are(sr):
    # copy=False takes an array the library made: it is not scanned.
    arr = np.array([np.nan, 1.0]) if sr is REAL else np.array([True, False])
    t = Tensor([Wire("n", 0, 2)], arr, sr, copy=False)
    assert t.array.tobytes() == arr.astype(sr.dtype).tobytes()
    assert scalar(1, sr).item() == 1


def test_tensor_is_immutable():
    t = vec([1.0, 2.0])
    with pytest.raises(ValueError):
        t.array[0] = 5.0


def test_outer_product_fixture():
    got = tensor_product(vec([1, 2]), vec([3, 4]))
    assert got.array.tolist() == [[3.0, 4.0], [6.0, 8.0]]


def test_outer_product_unit():
    v = vec([1.5, -2.0, 3.0])
    assert tensor_product(scalar(1.0), v).array.tolist() == v.array.tolist()


def test_outer_product_against_loops():
    for sr in (REAL, BOOLEAN):
        rng = np.random.default_rng(0)
        a = random_tensor([Wire("n", 0, 2), Wire("s", 0, 3)], rng, sr)
        b = random_tensor([Wire("n", 0, 4)], rng, sr)
        got = tensor_product(a, b)
        assert got.dims == (2, 3, 4)
        assert got.array.dtype == sr.dtype
        assert sr.allclose(got.array, outer_loops(a.array, b.array))


def test_outer_product_rejects_mixed_semirings():
    with pytest.raises(errors.SemiringMismatch):
        tensor_product(vec([1.0]), vec([True], sr=BOOLEAN))


def test_contract_inner_product():
    u = vec([1, 2])
    assert contract(tensor_product(u, u), 0, 1).item() == 5.0


def test_contract_is_matrix_vector_product():
    rng = np.random.default_rng(1)
    john = random_tensor([Wire("n", 0, 3)], rng)
    sleep = random_tensor([Wire("n", 1, 3), Wire("s", 0, 2)], rng)
    got = contract(tensor_product(john, sleep), 0, 1, typed=True)
    assert np.allclose(got.array, john.array @ sleep.array)


def test_contract_against_loops():
    for sr in (REAL, BOOLEAN):
        rng = np.random.default_rng(2)
        t = random_tensor([Wire("n", 0, 3), Wire("s", 0, 2),
                           Wire("n", 1, 3)], rng, sr)
        got = contract(t, 0, 2)
        assert got.wires == (Wire("s", 0, 2),)
        assert got.array.dtype == sr.dtype
        assert sr.allclose(got.array, contract_loops(t.array, 0, 2))


def test_contract_errors():
    t = tensor_product(vec([1, 2]), vec([1, 2, 3], base="s"))
    with pytest.raises(errors.DimMismatch):
        contract(t, 0, 1)
    with pytest.raises(errors.ArityError):
        contract(t, 0, 0)
    same = tensor_product(vec([1, 2]), vec([3, 4]))
    with pytest.raises(errors.TypeMismatch):
        contract(same, 0, 1, typed=True)  # both wires are plain n
    assert contract(same, 0, 1).item() == 11.0  # raw mode only checks dims


def test_eta_cap_fixtures():
    assert eta_cap("n", "right", 1).array.tolist() == [[1.0]]
    assert np.array_equal(eta_cap("n", "left", 3).array, np.eye(3))
    cap = eta_cap("n", "right", 2, z=1)
    assert cap.wires == (Wire("n", 2, 2), Wire("n", 1, 2))
    with pytest.raises(ValueError):
        eta_cap("n", "up", 2)
    with pytest.raises(errors.FrobcoordError):
        eta_cap("n", "up", 2)


@pytest.mark.parametrize("sr", [REAL, BOOLEAN], ids=["real", "bool"])
def test_snake_equations(sr):
    rng = np.random.default_rng(4)
    for d in (1, 2, 3, 4, 5):
        for _ in range(20):
            v = random_tensor([Wire("n", 0, d)], rng, sr)
            bent_l = contract(
                tensor_product(v, eta_cap("n", "left", d, semiring=sr)), 0, 1)
            bent_r = contract(
                tensor_product(eta_cap("n", "right", d, semiring=sr), v),
                1, 2)
            assert sr.allclose(bent_l.array, v.array)
            assert sr.allclose(bent_r.array, v.array)


def test_delta_fixture():
    assert frobenius_delta(vec([1, 2])).array.tolist() == [[1.0, 0.0],
                                                           [0.0, 2.0]]


def test_delta_copies_basis_vectors():
    e1 = vec([0, 1, 0])
    copied = frobenius_delta(e1)
    assert np.allclose(copied.array, outer_loops(e1.array, e1.array))


def test_delta_boolean():
    got = frobenius_delta(vec([True, False, True], sr=BOOLEAN))
    assert got.array.tolist() == [[True, False, False],
                                  [False, False, False],
                                  [False, False, True]]


def test_delta_arity():
    with pytest.raises(errors.ArityError):
        frobenius_delta(frobenius_delta(vec([1, 2])))


def test_mu_on_basis_vectors():
    d = 3
    for i in range(d):
        for j in range(d):
            ei = np.eye(d)[i]
            ej = np.eye(d)[j]
            got = frobenius_mu(vec(ei), vec(ej))
            want = ei if i == j else np.zeros(d)
            assert np.allclose(got.array, want)


def test_mu_fixture_and_matrices():
    assert frobenius_mu(vec([1, 2]), vec([3, 4])).array.tolist() == [3.0, 8.0]
    rng = np.random.default_rng(5)
    wires = [Wire("n", 0, 2), Wire("s", 0, 3)]
    a, b = random_tensor(wires, rng), random_tensor(wires, rng)
    assert np.allclose(frobenius_mu(a, b).array, a.array * b.array)


def test_mu_shape_mismatch():
    with pytest.raises(errors.ShapeMismatch):
        frobenius_mu(vec([1, 2]), vec([1, 2], z=1))


def test_mu_past_float64_is_an_overflow():
    # Tier-1 turns a RuntimeWarning into an error, so none may escape.
    huge = vec([1e308, -1e308])
    with pytest.raises(errors.Overflow, match="the merge is not finite"):
        frobenius_mu(huge, huge)
    assert frobenius_mu(huge, vec([1, 1])).array.tolist() == [1e308, -1e308]


@pytest.mark.parametrize("call", [
    lambda huge: tensor_product(huge, vec([10.0])),
    lambda huge: contract(Tensor([Wire("n", 0, 2), Wire("n", 1, 2)],
                                 np.diag(huge.array)), 0, 1),
    lambda huge: frobenius_iota(huge),
], ids=["tensor_product", "contract", "iota"])
def test_a_primitive_past_float64_is_an_overflow(call):
    # evaluate refuses a result that is not finite, for every primitive
    # built on it; Tier-1 turns a RuntimeWarning into an error.
    with pytest.raises(errors.Overflow, match="not finite"):
        call(vec([1e308, 1e308]))
    got = call(vec([1e300, 1e300]))
    assert np.isfinite(getattr(got, "array", got)).all()


def test_mu_matrix_fixtures():
    eye = Tensor([Wire("n", 0, 3), Wire("n", 0, 3)], np.eye(3))
    assert frobenius_mu_matrix(eye).array.tolist() == [1.0, 1.0, 1.0]
    m = Tensor([Wire("n", 0, 2), Wire("n", 0, 2)], [[1, 2], [3, 4]])
    assert frobenius_mu_matrix(m).array.tolist() == [1.0, 4.0]
    with pytest.raises(errors.ShapeMismatch):
        frobenius_mu_matrix(vec([1, 2]))
    with pytest.raises(errors.ShapeMismatch):
        frobenius_mu_matrix(Tensor([Wire("n", 0, 2), Wire("n", 0, 3)],
                                   np.ones((2, 3))))


@pytest.mark.parametrize("sr", [REAL, BOOLEAN], ids=["real", "bool"])
def test_mu_matrix_result_owns_its_entries(sr):
    # A view of the diagonal would keep the whole d x d input alive.
    m = random_tensor([Wire("n", 0, 64), Wire("n", 0, 64)],
                      np.random.default_rng(8), sr)
    got = frobenius_mu_matrix(m)
    assert not np.shares_memory(got.array, m.array)
    assert got.array.nbytes == 64 * m.array.itemsize
    assert np.array_equal(got.array, np.diagonal(m.array))
    assert not got.array.flags.writeable


def test_mu_matrix_agrees_with_mu_on_outer_products():
    rng = np.random.default_rng(6)
    for _ in range(20):
        u = random_tensor([Wire("n", 0, 4)], rng)
        v = random_tensor([Wire("n", 0, 4)], rng)
        via_matrix = frobenius_mu_matrix(tensor_product(u, v))
        assert via_matrix.isclose(frobenius_mu(u, v))


def test_iota_and_zeta():
    assert frobenius_iota(vec([1, 2, 3])) == 6.0
    assert frobenius_zeta("n", 3).array.tolist() == [1.0, 1.0, 1.0]
    with pytest.raises(errors.ArityError):
        frobenius_iota(scalar(1.0))
    with pytest.raises(errors.ArityError):
        vec([1, 2, 3]).item()


@pytest.mark.parametrize("sr", [REAL, BOOLEAN], ids=["real", "bool"])
def test_merge_unit_law(sr):
    rng = np.random.default_rng(7)
    for d in (1, 2, 5):
        v = random_tensor([Wire("n", 0, d)], rng, sr)
        assert frobenius_mu(frobenius_zeta("n", d, semiring=sr), v).isclose(v)


def test_copy_then_delete_returns_vector():
    v = vec([0.3, 0.7, 1.1])
    copied = frobenius_delta(v)
    collapsed = [frobenius_iota(Tensor([copied.wires[1]], copied.array[i]))
                 for i in range(3)]
    assert np.allclose(collapsed, v.array)


def test_permute_fixtures():
    for sr in (REAL, BOOLEAN):
        rng = np.random.default_rng(8)
        u, v = random_tensor([Wire("n", 0, 2)], rng, sr), \
            random_tensor([Wire("s", 0, 3)], rng, sr)
        both = tensor_product(u, v)
        assert permute_wires(both, (0, 1)).isclose(both)
        swapped = permute_wires(both, (1, 0))
        assert swapped.isclose(tensor_product(v, u))
        assert permute_wires(swapped, (1, 0)).isclose(both)
        with pytest.raises(errors.BadPermutation):
            permute_wires(both, (0, 0))


@pytest.mark.parametrize("sr", [REAL, BOOLEAN], ids=["real", "bool"])
def test_specialness(sr):
    rng = np.random.default_rng(9)
    for d in (1, 2, 3, 4, 5):
        v = random_tensor([Wire("n", 0, d)], rng, sr)
        assert frobenius_mu_matrix(frobenius_delta(v)).isclose(v)


@pytest.mark.parametrize("sr", [REAL, BOOLEAN], ids=["real", "bool"])
def test_frobenius_condition_via_loops(sr):
    rng = np.random.default_rng(10)
    for d in (1, 2, 3, 4, 5):
        u = random_tensor([Wire("n", 0, d)], rng, sr)
        v = random_tensor([Wire("n", 0, d)], rng, sr)
        # All three composites act on u (x) v as the diagonal of the merge.
        want = np.zeros((d, d), dtype=sr.dtype)
        np.fill_diagonal(want, sr.mul(u.array, v.array))
        left = np.zeros((d, d), dtype=sr.dtype)
        for a in range(d):
            for b in range(d):
                left[a, b] = sr.mul(u.array[a],
                                    frobenius_delta(v).array[a, b])
        middle = frobenius_delta(frobenius_mu(u, v)).array
        right = np.zeros((d, d), dtype=sr.dtype)
        for a in range(d):
            for b in range(d):
                right[a, b] = sr.mul(frobenius_delta(u).array[a, b],
                                     v.array[b])
        assert sr.allclose(left, want)
        assert sr.allclose(middle, want)
        assert sr.allclose(right, want)


def test_contraction_linearity():
    rng = np.random.default_rng(12)
    wires = [Wire("n", 0, 3), Wire("s", 0, 2), Wire("n", 1, 3)]
    a, b = random_tensor(wires, rng), random_tensor(wires, rng)
    alpha, beta = 2.5, -1.25
    combo = Tensor(wires, alpha * a.array + beta * b.array)
    got = contract(combo, 0, 2)
    want = alpha * contract(a, 0, 2).array + beta * contract(b, 0, 2).array
    assert np.allclose(got.array, want)


def test_boolean_mu_is_set_intersection():
    a = vec([1, 0, 1, 1, 0], sr=BOOLEAN)
    b = vec([1, 1, 0, 1, 0], sr=BOOLEAN)
    merged = frobenius_mu(a, b)
    set_a = {i for i in range(5) if a.array[i]}
    set_b = {i for i in range(5) if b.array[i]}
    assert {i for i in range(5) if merged.array[i]} == set_a & set_b


@given(st.lists(st.integers(1, 3), min_size=1, max_size=4),
       st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_permutation_inverse_property(dims, seed):
    rng = np.random.default_rng(seed)
    t = random_tensor([Wire("n", 0, d) for d in dims], rng)
    perm = [int(p) for p in rng.permutation(len(dims))]
    inverse = [perm.index(k) for k in range(len(perm))]
    assert permute_wires(permute_wires(t, perm), inverse).isclose(t)


def test_every_operation_but_the_merge_is_one_evaluate_call(monkeypatch):
    # The tensor operations and the dense coordinator are networks that
    # evaluate contracts; the merge stays the straight-line oracle they are
    # checked against.
    calls = []
    original = frobcoord.evaluator.evaluate

    def counted(network):
        calls.append(network)
        return original(network)

    # coordination binds evaluate at import, so it is wrapped there too.
    for module in (frobcoord.evaluator, frobcoord.coordination):
        monkeypatch.setattr(module, "evaluate", counted)
    u, v = vec([1, 2]), vec([3, 4])
    matrix = Tensor([Wire("n", 0, 2), Wire("n", 1, 2)], [[1, 2], [3, 4]])
    spaces = SpaceAssignment({"n": 2, "s": 3})
    for op in (lambda: tensor_product(u, v), lambda: u @ v,
               lambda: contract(matrix, 0, 1), lambda: frobenius_delta(u),
               lambda: frobenius_mu_matrix(matrix),
               lambda: frobenius_iota(u),
               lambda: permute_wires(matrix, (1, 0)),
               lambda: coordinator_tensor(parse_type("n.r s"), spaces)):
        calls.clear()
        op()
        assert len(calls) == 1
    assert len(calls[0].nodes) == 2  # the coordinator's two copy spiders
    calls.clear()
    frobenius_mu(u, v)
    assert calls == []


# Each array numpy refuses before allocating: past its axis limit, or of
# more than 2**63 bytes on either carrier.
WIDE = [Wire("n", 0, 1)] * (MAX_AXES + 1)
TOO_MANY_AXES = (f"a tensor on {MAX_AXES + 1} wires is past numpy's limit "
                 f"of {MAX_AXES} axes")


@pytest.mark.parametrize("sr", [REAL, BOOLEAN], ids=["real", "bool"])
@pytest.mark.parametrize("make, message", [
    (lambda sr: Tensor(WIDE, [1], sr), TOO_MANY_AXES),
    (lambda sr: random_tensor(WIDE, np.random.default_rng(0), sr),
     TOO_MANY_AXES),
    (lambda sr: random_tensor([Wire("n", 0, 2), Wire("s", 0, 2 ** 63)],
                              np.random.default_rng(0), sr),
     f"a tensor of {2 ** 64} cells does not fit in memory"),
    (lambda sr: eta_cap("n", "left", 2 ** 32, semiring=sr),
     f"a tensor of {2 ** 64} cells does not fit in memory"),
    (lambda sr: frobenius_zeta("n", 10 ** 20, semiring=sr),
     f"a tensor of {10 ** 20} cells does not fit in memory"),
], ids=["Tensor", "random_tensor-axes", "random_tensor-cells", "eta_cap",
        "frobenius_zeta"])
def test_array_makers_refuse_what_numpy_cannot_make(make, message, sr):
    with pytest.raises(errors.OutOfMemory) as exc:
        make(sr)
    assert str(exc.value) == message


def test_array_makers_turn_memory_error_into_out_of_memory(monkeypatch):
    # Past memory numpy raises MemoryError; it is patched in here rather
    # than asked for.
    def exhausted(*args, **kwargs):
        raise MemoryError

    class Exhausted:
        random = staticmethod(exhausted)

    monkeypatch.setattr(np, "eye", exhausted)
    monkeypatch.setattr(np, "full", exhausted)
    for make, cells in ((lambda: eta_cap("n", "right", 3), 9),
                        (lambda: frobenius_zeta("n", 3), 3),
                        (lambda: random_tensor([Wire("n", 0, 2)] * 2,
                                               Exhausted()), 4)):
        with pytest.raises(errors.OutOfMemory) as exc:
            make()
        assert str(exc.value) == f"a tensor of {cells} cells does not fit " \
                                 f"in memory"
