"""Dense tensors over a semiring, with typed wires.

A :class:`Tensor` is an ordered list of :class:`Wire` objects plus a dense
row-major array of semiring elements, one axis per wire.  Wires carry the
atomic symbol of the grammar, an integer adjoint order ``z`` (0 = plain,
+k = k right adjoints, -k = k left adjoints) and a dimension.  Numeric
operations only ever need the dimensions; the symbol and adjoint order are
bookkeeping for the grammar-aware layers, which alone enforce them.

Tensors are immutable values: every operation returns a fresh tensor and
the underlying arrays are marked read-only, so sharing across threads is
safe.

Every operation that joins or sums wires -- the outer product, the cup
contraction, copy, the matrix merge, delete and wire permutation -- is a
small labelled network that :func:`~frobcoord.evaluator.evaluate`
contracts, the library's one contraction path: wires with one label are
one index, as in einsum's sublist form.  The merge :func:`frobenius_mu`
alone stays a straight-line entry-wise product, the oracle that the
network contraction is checked against.

>>> import numpy as np
>>> v = Tensor([Wire("n", 0, 2)], [1.0, 2.0])
>>> w = Tensor([Wire("n", 0, 2)], [3.0, 4.0])
>>> frobenius_mu(v, w).array.tolist()
[3.0, 8.0]
>>> contract(tensor_product(v, w), 0, 1).item()
11.0
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (ArityError, BadArgument, BadPermutation, OutOfMemory,
                     Overflow, ShapeMismatch, SemiringMismatch, TypeMismatch)
from .semiring import REAL, Semiring
from .spaces import Wire

# numpy's limit on the axes of one array: 32 before numpy 2.0, 64 since.
MAX_AXES = 64 if int(np.__version__.split(".")[0]) >= 2 else 32


def _made(wires, make) -> np.ndarray:
    """``make(shape)``, the array on ``wires``, or :class:`OutOfMemory`
    where numpy cannot make it: more wires than numpy allows an array axes
    (checked before ``make`` runs), or cells past numpy's size limit or
    past memory (a ``ValueError`` or ``MemoryError`` from ``make``)."""
    shape = tuple([w.dim for w in wires])
    if len(shape) > MAX_AXES:
        raise OutOfMemory(f"a tensor on {len(shape)} wires is past numpy's "
                          f"limit of {MAX_AXES} axes")
    try:
        return make(shape)
    except (MemoryError, ValueError):
        raise OutOfMemory(f"a tensor of {math.prod(shape)} cells does not "
                          f"fit in memory") from None


class Tensor:
    """A dense multi-dimensional array with one typed wire per axis.

    With ``copy=True`` (the default) the tensor holds a copy of the
    caller's ``data``, whose entries must be finite: ``nan``, an infinity
    or a Python int past the float64 range raises :class:`BadArgument`, on
    the boolean carrier too, where numpy would read any of them as true.
    Boolean data must also be 0 or 1 (``bool`` values, or numbers equal to
    0 or 1), else :class:`BadArgument`.  ``copy=False`` takes an array the
    library made, unchecked.  Flat data on more wires than numpy allows an
    array axes raises :class:`OutOfMemory`.
    """

    __slots__ = ("wires", "array", "semiring")

    def __init__(self, wires, data, semiring: Semiring = REAL, copy=True):
        wires = tuple(wires)
        shape = tuple([w.dim for w in wires])
        if copy:
            try:
                arr = np.array(data, dtype=semiring.dtype)
            except OverflowError:  # a Python int that no float64 holds
                raise BadArgument("tensor data has an entry past the "
                                  "float64 range") from None
            raw = arr if arr.dtype.kind == "f" else np.asarray(data)
            if raw.dtype.kind in "fc" and not np.isfinite(raw).all():
                raise BadArgument("tensor data has a non-finite entry")
            # raw is the caller's data when the carrier is boolean: the
            # cast to bool must leave every entry equal, so 0 or 1.
            if raw is not arr and not (raw == arr).all():
                raise BadArgument("boolean tensor data must be 0 or 1")
        else:
            arr = np.asarray(data, dtype=semiring.dtype)
        if arr.shape != shape:
            # Only flat row-major data is reshaped: data of another shape
            # would be read as a different tensor.
            if arr.ndim != 1 or arr.size != math.prod(shape):
                raise ShapeMismatch(
                    f"data of shape {arr.shape} fits neither wires {shape} "
                    f"nor their {math.prod(shape)} cells flat")
            arr = _made(wires, arr.reshape)
        arr.setflags(write=False)
        self.wires = wires
        self.array = arr
        self.semiring = semiring

    @property
    def order(self) -> int:
        return len(self.wires)

    @property
    def dims(self):
        return tuple(w.dim for w in self.wires)

    @property
    def flat(self):
        """Entries as a flat row-major array (a read-only view)."""
        return self.array.reshape(-1)

    def item(self):
        """The single entry of a scalar (0-wire) tensor."""
        if self.order != 0:
            raise ArityError(f"item() on a tensor of order {self.order}")
        return self.array.item()

    def isclose(self, other: "Tensor") -> bool:
        """Same wires and entry-wise equal at the semiring's tolerance."""
        return (self.semiring is other.semiring
                and self.wires == other.wires
                and self.semiring.allclose(self.array, other.array))

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return tensor_product(self, other)

    def __repr__(self):
        sig = " ".join(f"{w}:{w.dim}" for w in self.wires) or "scalar"
        return f"Tensor({sig}, {self.semiring.name})"


def scalar(value, semiring: Semiring = REAL) -> Tensor:
    """A 0-wire tensor holding one semiring element."""
    return Tensor((), value, semiring)


def _contracted(nodes, indices, open_wires) -> Tensor:
    """The tensor on ``open_wires`` of the network of ``nodes`` whose wires
    carry ``indices``, contracted by :func:`~frobcoord.evaluator.evaluate`."""
    from .evaluator import TensorNetwork, evaluate  # evaluator imports tensor
    return evaluate(TensorNetwork(nodes, indices, open_wires))


def tensor_product(a: Tensor, b: Tensor) -> Tensor:
    """Outer product; output wires are ``a.wires ++ b.wires``."""
    n, m = a.order, b.order
    return _contracted([a, b], [range(n), range(n, n + m)],
                       [(0, w) for w in range(n)] + [(1, w) for w in range(m)])


def contract(t: Tensor, i: int, j: int, typed: bool = False) -> Tensor:
    """Sum the shared index of wires ``i`` and ``j`` (cup pairing).

    Raw mode checks dimensions only (unequal ones raise
    :class:`DimMismatch`).  With ``typed=True`` the wires must
    carry the same base symbol and adjoint orders exactly one apart.
    Output wires are ``t.wires`` with positions ``i`` and ``j`` removed,
    order otherwise preserved.
    """
    n = t.order
    if not (0 <= i < n and 0 <= j < n) or i == j:
        raise ArityError(f"cannot contract wires {i}, {j} of order-{n} tensor")
    wi, wj = t.wires[i], t.wires[j]
    if typed and (wi.base != wj.base or abs(wi.z - wj.z) != 1):
        raise TypeMismatch(f"wires {wi} and {wj} are not adjoint-paired")
    labels = list(range(n))
    labels[j] = i
    return _contracted([t], [labels], [(0, k) for k in range(n)
                                       if k not in (i, j)])


def eta_cap(base: str, side: str, dim: int, z: int = 0,
            semiring: Semiring = REAL) -> Tensor:
    """The identity-matrix cap for one atomic symbol.

    ``side="right"`` types the wires ``(base^{z+1}, base^{z})``;
    ``side="left"`` types them ``(base^{z}, base^{z-1})``.  The data is
    the same either way.  A cap that numpy cannot make raises
    :class:`OutOfMemory`.
    """
    if side == "right":
        wires = (Wire(base, z + 1, dim), Wire(base, z, dim))
    elif side == "left":
        wires = (Wire(base, z, dim), Wire(base, z - 1, dim))
    else:
        raise BadArgument(f"side must be 'left' or 'right', got {side!r}")
    return Tensor(wires, _made(wires, lambda _: np.eye(
        dim, dtype=semiring.dtype)), semiring, copy=False)


def frobenius_delta(v: Tensor) -> Tensor:
    """Copy a vector onto the diagonal of a matrix.

    >>> frobenius_delta(Tensor([Wire("n", 0, 2)], [1.0, 2.0])).array.tolist()
    [[1.0, 0.0], [0.0, 2.0]]
    """
    if v.order != 1:
        raise ArityError(f"delta takes an order-1 tensor, got order {v.order}")
    return _contracted([v], [[0]], [(0, 0), (0, 0)])


def frobenius_mu(a: Tensor, b: Tensor) -> Tensor:
    """Merge two same-shaped tensors entry-wise (Hadamard product).

    A result that is not finite (a real product past float64, or an input
    entry that is not finite) raises :class:`Overflow`, with no
    ``RuntimeWarning``.
    """
    sr = a.semiring
    if b.semiring is not sr:
        raise SemiringMismatch(f"{sr.name} vs {b.semiring.name}")
    if a.wires != b.wires:
        raise ShapeMismatch(f"mu on {a!r} vs {b!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        merged = sr.mul(a.array, b.array)
    if not np.isfinite(merged).all():
        raise Overflow("the merge is not finite: an entry or a product is "
                       "past float64")
    return Tensor(a.wires, merged, sr, copy=False)


def frobenius_mu_matrix(m: Tensor) -> Tensor:
    """Merge the two wires of an order-2 tensor: its diagonal as a vector.

    Agrees with :func:`frobenius_mu` when the matrix is an outer product.
    The result owns its ``d`` entries, as every result of
    :func:`~frobcoord.evaluator.evaluate` smaller than its input does.
    """
    if m.order != 2:
        raise ShapeMismatch(f"expected an order-2 tensor, got {m.order}")
    if m.wires[0].dim != m.wires[1].dim:
        raise ShapeMismatch(f"expected a square matrix, got {m.dims}")
    return _contracted([m], [[0, 0]], [(0, 0)])


def frobenius_iota(v: Tensor):
    """Delete a vector: the sum of its entries, as a semiring element."""
    if v.order != 1:
        raise ArityError(f"iota takes an order-1 tensor, got order {v.order}")
    return _contracted([v], [[0]], []).item()


def frobenius_zeta(base: str, dim: int, z: int = 0,
                   semiring: Semiring = REAL) -> Tensor:
    """The all-ones vector, the unit of the merge operation; one that numpy
    cannot make raises :class:`OutOfMemory`."""
    wires = (Wire(base, z, dim),)
    return Tensor(wires, _made(wires, lambda shape: np.full(
        shape, semiring.one, dtype=semiring.dtype)), semiring, copy=False)


def permute_wires(t: Tensor, perm) -> Tensor:
    """Reorder wires so that output wire ``k`` is input wire ``perm[k]``."""
    perm = tuple(perm)
    if sorted(perm) != list(range(t.order)):
        raise BadPermutation(f"{perm} is not a permutation of 0..{t.order - 1}")
    return _contracted([t], [range(t.order)], [(0, p) for p in perm])


def random_tensor(wires, rng: np.random.Generator,
                  semiring: Semiring = REAL) -> Tensor:
    """Uniform draws from [0, 1), mapped by ``semiring.from_unit``; an
    array that numpy cannot make raises :class:`OutOfMemory`."""
    wires = tuple(wires)
    return Tensor(wires, semiring.from_unit(_made(wires, rng.random)),
                  semiring)
