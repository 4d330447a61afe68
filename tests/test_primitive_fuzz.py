"""A fuzz of the tensor and grammar layers, in process: every public
function of ``tensor``, and ``parse_type``, ``reduce``,
``enumerate_reductions``, ``Derivation`` and ``coordinator_type`` of
``pregroup``, fed well-typed but invalid arguments.

The arguments have the right Python types (wires, lists of numbers,
integers, strings, pregroup types) and wrong contents: dimensions past
numpy's and Python's limits, more wires than numpy allows an array axes,
data that fits no wires or is not finite, entries near the float64 limit,
wire indices and permutations out of range, an unknown cap side, caps of
0 or past ``sys.maxsize``, links that are out of range, reused, crossing
or mispaired, and coordinator positions out of range.  Only a
``FrobcoordError`` may escape, and no ``RuntimeWarning``.

No call allocates a large array.  A tensor that is made has at most four
wires of dimension 1 to 3, or up to ``MAX_AXES`` wires of dimension 1.
A large dimension is at least ``2**63``, so any array with such a wire
has more than ``2**63`` cells, and numpy refuses it before allocating
anything; a size that fits in the address space but not in memory is
never asked for.
"""

import sys
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from frobcoord import tensor
from frobcoord.errors import FrobcoordError
from frobcoord.pregroup import (Derivation, PregroupType, SimpleType,
                                coordinator_type, enumerate_reductions,
                                parse_type, reduce)
from frobcoord.semiring import BOOLEAN, REAL
from frobcoord.tensor import MAX_AXES, Tensor, Wire

CARRIERS = (REAL, BOOLEAN)
# Each past numpy's size limit for one wire of any carrier.
HUGE_DIMS = (2 ** 63, 2 ** 64 + 1, 10 ** 20, 2 ** 100, 10 ** 400)
ENTRIES = (0, 1, 0.5, -2.0, 1e308, -1e308, 2, True, False, float("nan"),
           float("inf"), 10 ** 400)
BASES = ("n", "s")


def contained(call):
    """``call()``, or None when it raises a FrobcoordError; a
    RuntimeWarning fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            return call()
        except FrobcoordError:
            return None


@st.composite
def wire_lists(draw, huge=True):
    """Wires of a small array, of many dimension-1 wires (up to past the
    axis limit), or of a small array with one huge dimension."""
    kind = draw(st.sampled_from(["small", "wide", "huge"] if huge
                                else ["small", "wide"]))
    if kind == "wide":
        count = draw(st.integers(MAX_AXES - 2, MAX_AXES + 2))
        dims = [1] * count
    else:
        dims = draw(st.lists(st.integers(1, 3), max_size=4))
        if kind == "huge":
            at = draw(st.integers(0, len(dims)))
            dims.insert(at, draw(st.sampled_from(HUGE_DIMS)))
    return [Wire(draw(st.sampled_from(BASES)), draw(st.integers(-2, 2)), d)
            for d in dims]


@st.composite
def tensors(draw, sr=None):
    """A tensor of at most four small wires or of dimension-1 wires, with
    entries that may be near the float64 limit, or None when ``Tensor``
    refuses the drawn data."""
    sr = sr or draw(st.sampled_from(CARRIERS))
    wires = draw(wire_lists(huge=False))
    cells = int(np.prod([w.dim for w in wires]))
    pool = (0, 1) if sr is BOOLEAN else (0.0, 0.5, -2.0, 1e308, -1e308)
    data = draw(st.lists(st.sampled_from(pool), min_size=cells,
                         max_size=cells))
    return contained(lambda: Tensor(wires, data, sr))


def maybe_index(draw, order):
    return draw(st.integers(-2, order + 2))


@given(st.data())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_tensor_functions_fail_only_with_frobcoord_errors(data):
    draw = data.draw
    sr = draw(st.sampled_from(CARRIERS))
    name = draw(st.sampled_from([
        "Tensor", "scalar", "tensor_product", "contract", "eta_cap",
        "frobenius_delta", "frobenius_mu", "frobenius_mu_matrix",
        "frobenius_iota", "frobenius_zeta", "permute_wires",
        "random_tensor"]))
    if name == "Tensor":
        wires = draw(wire_lists())
        size = draw(st.sampled_from([0, 1, 2, 4]))
        values = draw(st.lists(st.sampled_from(ENTRIES), min_size=size,
                               max_size=size))
        call = lambda: Tensor(wires, values, sr)
    elif name == "scalar":
        value = draw(st.sampled_from(ENTRIES))
        call = lambda: tensor.scalar(value, sr)
    elif name == "random_tensor":
        wires = draw(wire_lists())
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
        call = lambda: tensor.random_tensor(wires, rng, sr)
    elif name in ("eta_cap", "frobenius_zeta"):
        base = draw(st.sampled_from(BASES))
        dim = draw(st.one_of(st.integers(1, 3), st.sampled_from(HUGE_DIMS)))
        z = draw(st.integers(-2, 2))
        if name == "eta_cap":
            side = draw(st.sampled_from(["left", "right", "up"]))
            call = lambda: tensor.eta_cap(base, side, dim, z, sr)
        else:
            call = lambda: tensor.frobenius_zeta(base, dim, z, sr)
    else:
        # Operands are small tensors, maybe of either carrier.
        a = draw(tensors())
        b = draw(tensors(draw(st.sampled_from([a.semiring, sr])) if a
                         else None))
        if a is None or b is None:
            return
        if name == "tensor_product":
            call = lambda: tensor.tensor_product(a, b)
        elif name == "contract":
            i, j = maybe_index(draw, a.order), maybe_index(draw, a.order)
            typed = draw(st.booleans())
            call = lambda: tensor.contract(a, i, j, typed)
        elif name == "frobenius_mu":
            other = draw(st.sampled_from([a, b]))
            call = lambda: tensor.frobenius_mu(a, other)
        elif name == "permute_wires":
            perm = draw(st.one_of(st.permutations(range(a.order)), st.lists(
                st.integers(-1, a.order + 1), max_size=a.order + 1)))
            call = lambda: tensor.permute_wires(a, perm)
        else:
            call = lambda: getattr(tensor, name)(a)
    got = contained(call)
    if isinstance(got, Tensor):
        assert got.array.shape == tuple([w.dim for w in got.wires])
        assert got.array.dtype == got.semiring.dtype
        if got.semiring is REAL:
            assert np.isfinite(got.array).all()


@st.composite
def types(draw):
    """A pregroup type of at most three simple types, or a coordinator
    type."""
    simple = st.builds(SimpleType, st.sampled_from(BASES),
                       st.integers(-2, 2))
    x = PregroupType(draw(st.lists(simple, max_size=3)))
    return coordinator_type(x) if x and draw(st.booleans()) else x


@given(st.text(alphabet="ns.lrx é1_\t", max_size=12),
       st.sampled_from([None, {"n", "s"}, set()]))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_parse_type_fails_only_with_frobcoord_errors(text, bases):
    got = contained(lambda: parse_type(text, bases))
    if got is not None:
        assert not got or got == parse_type(str(got))


@given(st.lists(types(), max_size=5), types(),
       st.lists(st.one_of(st.integers(-2, 6), st.sampled_from(
           [True, 10 ** 20, -(10 ** 20)])), max_size=3),
       st.sampled_from([-1, 0, 1, 2, 1000, sys.maxsize, sys.maxsize + 1,
                        10 ** 30, True]))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_reductions_fail_only_with_frobcoord_errors(tokens, target,
                                                    coordinators, cap):
    canonical = contained(lambda: reduce(tokens, target,
                                         coordinators=coordinators))
    every = contained(lambda: enumerate_reductions(
        tokens, target, cap, coordinators=coordinators))
    for derivation in [canonical] if canonical else []:
        assert derivation.residual_type() == target
    if every:
        assert len(every) <= cap
        assert every[0] == canonical


@given(st.lists(types(), max_size=4), st.data())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_derivations_fail_only_with_frobcoord_errors(row, data):
    n = sum(map(len, row))
    index = st.integers(-2, n + 2)
    links = data.draw(st.lists(st.tuples(index, index), max_size=4))
    got = contained(lambda: Derivation(row, links))
    if got is None:
        return
    for flat in data.draw(st.lists(index, max_size=3)):
        where = contained(lambda: got.token_wire(flat))
        if where is not None:
            tok, wire = where
            assert row[tok][wire] == got.flattened[flat]
    assert len(got.residual_type()) == n - 2 * len(got.links)
    x = data.draw(types())
    coordinator = contained(lambda: coordinator_type(x))
    assert (coordinator is None) == (not x)
