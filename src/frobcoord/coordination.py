"""Coordinator tensors and the coordination constructions built on them.

A coordinator for conjuncts of type ``x`` lives on the wires of
``x.r  x  x.l``.  Factor-wise it is a product of three-legged copy
spiders, one per atomic factor of ``x``: the spider's legs sit at the
mirrored position of the ``x.r`` block, the factor's own position in the
middle block, and the mirrored position of the ``x.l`` block (adjoints of
a product reverse order, so the outer blocks are flipped).  Contracting a
conjunct into each outer block therefore copies it onto the middle block
entry-wise, which is why coordination admits the compact closed form: the
merge of the two conjunct meanings.
"""

from __future__ import annotations

from .errors import ShapeMismatch
from .evaluator import SpaceAssignment, _row_meaning, build_network, evaluate
from .pregroup import (Derivation, PregroupType, SimpleType, coordinator_type,
                       parse_type)
from .semiring import REAL, Semiring
from .tensor import Tensor, frobenius_mu


def coordinator_tensor(x: PregroupType, spaces: SpaceAssignment,
                       semiring: Semiring = REAL) -> Tensor:
    """The coordination tensor on the wires of ``coordinator_type(x)``:
    the product of its ``len(x)`` three-legged copy spiders.

    Equal to the cap-then-merge network -- two nested identity caps with
    the merge applied between them.  It is the explicit network that
    :func:`build_network` makes of a lone coordinator token, contracted
    by :func:`evaluate` with every wire open: the spiders share no index,
    so their product is an outer product, the lift of the atomic copy
    spider to the compound type ``x``.  A coordinator with more wires than
    numpy allows an array axes is refused by the planner, as
    :class:`OutOfMemory` naming the contraction step, before any copy
    spider is made.
    """
    return evaluate(build_network(Derivation((coordinator_type(x),), ()),
                                  [None], spaces, semiring))


def coordinate_closed_form(a: Tensor, b: Tensor) -> Tensor:
    """The compact form of coordination: the entry-wise merge of the
    conjunct meanings."""
    return frobenius_mu(a, b)


def _spaces_for(tensors) -> SpaceAssignment:
    dims = {}
    for t in tensors:
        for w in t.wires:
            if dims.setdefault(w.base, w.dim) != w.dim:
                raise ShapeMismatch(
                    f"inconsistent dimensions for base {w.base!r}")
    return SpaceAssignment(dims)


def _type_of(tensor: Tensor) -> PregroupType:
    return PregroupType(SimpleType(w.base, w.z) for w in tensor.wires)


def _coordinated(tensors, x: PregroupType, mode: str,
                 spaces: SpaceAssignment = None,
                 target: PregroupType = parse_type("s")) -> Tensor:
    """The meaning, of type ``target``, of a token row around coordinators
    for ``x``.

    Each coordinator's place in ``tensors`` holds None: explicit mode
    contracts its copy spiders, closed form identifies their legs, and
    neither builds :func:`coordinator_tensor`.
    """
    spaces = spaces or _spaces_for([t for t in tensors if t is not None])
    types = [coordinator_type(x) if t is None else _type_of(t)
             for t in tensors]
    return _row_meaning(types, tensors, target, spaces, tensors[0].semiring,
                        mode, lambda: ShapeMismatch(
                            f"token types {' | '.join(map(str, types))} "
                            f"do not reduce to {target}"))


def ditransitive_coordination(subject: Tensor, verb1: Tensor, verb2: Tensor,
                              shared_object: Tensor, obj1: Tensor = None,
                              obj2: Tensor = None,
                              mode: str = "closed-form") -> Tensor:
    """Coordinate two ditransitive clauses that share subject and final
    object, as in "the bank granted Mary but denied John a loan".

    Verbs are order-4 tensors typed ``n.r s n.l n.l`` (last wire takes the
    nearer object).  With ``obj1``/``obj2`` given, the conjuncts are the
    verb-object combinations; without them the bare verbs coordinate and
    ``shared_object`` must be a pair ``(near, far)``.  Both modes compute
    the sentence vector: ``explicit`` contracts the coordinator's copy
    spiders, ``closed-form`` merges the conjuncts entry-wise; they agree.
    """
    if (obj1 is None) != (obj2 is None):
        raise ShapeMismatch("provide both per-conjunct objects or neither")
    if obj1 is not None:
        x = _type_of(verb1)[:-1]
        tensors = [subject, verb1, obj1, None, verb2, obj2, shared_object]
    else:
        try:
            near, far = shared_object
        except (TypeError, ValueError):
            raise ShapeMismatch(
                "without obj1/obj2, shared_object must be a (near, far) "
                f"pair of tensors, got {shared_object!r}") from None
        x = _type_of(verb1)
        tensors = [subject, verb1, None, verb2, near, far]
    return _coordinated(tensors, x, mode)


def stripping_sentence(subject: Tensor, verb: Tensor, obj1: Tensor,
                       obj2: Tensor, spaces: SpaceAssignment = None,
                       mode: str = "closed-form") -> Tensor:
    """Meaning of the elliptical "subject verb obj1, and obj2 as well".

    Subject and verb wires pass through unchanged while the two object
    wires are merged through a noun coordinator, so the result equals the
    spelled-out "subject verb (obj1 and obj2)" in either ``mode``.
    """
    for noun in (subject, obj1, obj2):
        if noun.order != 1:
            raise ShapeMismatch(f"expected an order-1 noun, got {noun!r}")
    if verb.order != 3:
        raise ShapeMismatch(f"expected an order-3 verb, got {verb!r}")
    return _coordinated([subject, verb, obj1, None, obj2], _type_of(obj1),
                        mode, spaces)
