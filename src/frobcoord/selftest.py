"""Built-in randomized verification suites.

Each suite draws seeded random tensors, evaluates a law both through the
library and through straight-line arithmetic, and yields one ``(ok,
describe)`` pair per check; :func:`run_selftest` counts them and calls
``describe()`` for the first failure only.  A check that raises a
:class:`FrobcoordError` is one failed check, with the error as its
description, and ends its suite only.  The sentence suites draw each
trial's carrier and spaces from :func:`_trials` and check every sentence
in both of ``eval``'s modes with :func:`_per_mode`, through the pipeline
that ``eval`` runs, with each coordinator a None token
(:func:`coordination._coordinated`); only the dense reference route of
``coordinator-equivalence`` and the relabelled networks of
``contraction-order`` are wired by hand.  The suites back the
``selftest`` CLI command; ``inject_fault=True`` corrupts the merge
operation (one flipped entry) as a negative control, which must make the
run fail with a counterexample.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .coordination import (_coordinated, coordinate_closed_form,
                           coordinator_tensor, ditransitive_coordination,
                           stripping_sentence)
from .errors import DimMismatch, FrobcoordError
from .evaluator import (MODES, SpaceAssignment, TensorNetwork, build_network,
                        evaluate)
from .pregroup import PregroupType, coordinator_type, parse_type, reduce
from .semiring import BOOLEAN, BY_NAME, Semiring
from .tensor import (Tensor, Wire, _checked_dim, contract, eta_cap,
                     frobenius_delta, frobenius_mu, frobenius_mu_matrix,
                     frobenius_zeta, random_tensor, tensor_product)


@dataclass
class SuiteResult:
    name: str
    passed: int
    total: int
    counterexample: str | None = None
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.passed == self.total and self.counterexample is None


def _faulty_mu(a, b):
    out = frobenius_mu(a, b)
    arr = out.array.copy()
    first = arr.flat[0]
    arr.flat[0] = not first if out.semiring is BOOLEAN else first + 1.0
    return Tensor(out.wires, arr, out.semiring, copy=False)


def _show(t: Tensor) -> str:
    return np.array2string(np.asarray(t.array), threshold=30)


def _vec(rng, dim, sr, z=0):
    return random_tensor((Wire("n", z, dim),), rng, sr)


def _spider(dim, sr):
    return coordinator_tensor(parse_type("n"), SpaceAssignment({"n": dim}), sr)


# The two-sided Frobenius condition as networks on (u, v, spider, spider):
# the labels and open wires of its left, middle and right side.
_FROBENIUS_SIDES = (([[0], [1], [2, 0, 3], [1, 2, 4]], [(2, 2), (3, 2)]),
                    ([[0], [1], [0, 1, 2], [2, 3, 4]], [(3, 1), (3, 2)]),
                    ([[0], [1], [2, 3, 1], [0, 2, 4]], [(3, 2), (2, 1)]))


# Every suite takes (rng, dims, trials, mu): mu is the merge under test,
# which only the suites checking the merge itself use.

def suite_frobenius(rng, dims, trials, mu):
    for sr in BY_NAME.values():
        for d in dims:
            for t in range(trials):
                u, v, w = (_vec(rng, d, sr) for _ in range(3))
                ctx = lambda law: (lambda: f"law={law} semiring={sr.name} "
                                   f"d={d} u={_show(u)} v={_show(v)}")
                yield (mu(mu(u, v), w).isclose(mu(u, mu(v, w))),
                       ctx("associativity"))
                yield (mu(u, v).isclose(mu(v, u)), ctx("commutativity"))
                yield (frobenius_mu_matrix(frobenius_delta(v)).isclose(v),
                       ctx("specialness"))
                yield (mu(frobenius_zeta("n", d, semiring=sr), v).isclose(v),
                       ctx("merge-unit"))
                copied = frobenius_delta(v)
                yield (sr.allclose(sr.sum(copied.array, axis=1), v.array),
                       ctx("copy-then-delete"))
                spider = _spider(d, sr)
                direct = np.zeros((d, d), dtype=sr.dtype)
                np.fill_diagonal(direct, sr.mul(u.array, v.array))
                yield (all(sr.allclose(evaluate(TensorNetwork(
                    [u, v, spider, spider], *side)).array, direct)
                    for side in _FROBENIUS_SIDES), ctx("frobenius-condition"))


def suite_snake(rng, dims, trials, mu):
    for sr in BY_NAME.values():
        for d in dims:
            for t in range(trials):
                v = _vec(rng, d, sr)
                cap = lambda side: eta_cap("n", side, d, semiring=sr)
                bent_l = contract(tensor_product(v, cap("left")), 0, 1)
                bent_r = contract(tensor_product(cap("right"), v), 1, 2)
                ok = (sr.allclose(bent_l.array, v.array)
                      and sr.allclose(bent_r.array, v.array))
                yield (ok, lambda: f"semiring={sr.name} d={d} v={_show(v)}")


# The coordinator types of adjectives (n n.l) and sentence adverbs (s.r s)
# hold a contractible pair: only the coordinator position passed to reduce
# keeps the coordinator's legs from linking to each other.
_CONJUNCT_TYPES = ("n", "s", "n.r s", "n.r s n.l n.l", "n n.l", "s.r s",
                   "n.r s n.l")


class _Trial(NamedTuple):
    """One trial of a sentence suite: its carrier, freshly sampled spaces
    and the case of the suite it runs."""

    rng: np.random.Generator
    sr: Semiring
    spaces: SpaceAssignment
    case: PregroupType = None

    def rand(self, ptype: PregroupType) -> Tensor:
        return random_tensor(self.spaces.wires(ptype), self.rng, self.sr)

    def __str__(self):
        return f"semiring={self.sr.name} spaces={self.spaces!r}"


def _trials(rng, dims, trials, semirings=BY_NAME.values(), cases=(None,)):
    """``trials`` contexts per carrier and case, in that nesting, each with
    spaces for ``n`` and ``s`` drawn from ``dims``."""
    for sr in semirings:
        for case in cases:
            for _ in range(trials):
                yield _Trial(rng, sr, SpaceAssignment(
                    {"n": int(rng.choice(dims)), "s": int(rng.choice(dims))}),
                    case)


def _per_mode(meaning, want, describe):
    """One check per evaluation mode of ``eval``: ``meaning(mode)`` against
    the oracle array ``want``; ``describe()`` names the case."""
    for mode in MODES:
        got = meaning(mode)
        yield (got.semiring.allclose(got.array, want),
               lambda: f"mode={mode} {describe()}")


def suite_coordinator_equivalence(rng, dims, trials, mu):
    types = [parse_type(text) for text in _CONJUNCT_TYPES]
    derivations = {x: reduce([x, coordinator_type(x), x], x, coordinators=[1])
                   for x in types}
    for trial in _trials(rng, dims, trials, cases=types):
        x, sr, spaces = trial.case, trial.sr, trial.spaces
        x1, x2 = trial.rand(x), trial.rand(x)
        want = mu(x1, x2).array
        describe = lambda: f"type={x} {trial} x1={_show(x1)} x2={_show(x2)}"
        # The paper's reference: the dense coordinator, wired by hand.
        dense = evaluate(build_network(
            derivations[x], [x1, coordinator_tensor(x, spaces, sr), x2],
            spaces))
        yield (sr.allclose(dense.array, want),
               lambda: f"route=dense {describe()}")
        yield from _per_mode(
            lambda mode: _coordinated([x1, None, x2], x, mode, spaces, x),
            want, describe)


def suite_contraction_order(rng, dims, trials, mu):
    for trial in _trials(rng, dims, trials):
        x = parse_type(str(rng.choice(_CONJUNCT_TYPES[:3])))
        x1, x2 = trial.rand(x), trial.rand(x)
        derivation = reduce([x, coordinator_type(x), x], x, coordinators=[1])
        net = build_network(derivation, [x1, None, x2], trial.spaces)
        order = rng.permutation(len(set().union(*net.indices))).tolist()
        relabelled = TensorNetwork(
            net.nodes, [[order[l] for l in labs] for labs in net.indices],
            net.open_wires)
        yield (evaluate(net).isclose(evaluate(relabelled)),
               lambda: f"type={x} {trial} order={order}")


def suite_sentence_identities(rng, dims, trials, mu):
    noun, vp, tv, dt = map(parse_type, ("n", "n.r s", "n.r s n.l",
                                        "n.r s n.l n.l"))
    for trial in _trials(rng, dims, trials):
        sr, spaces, rt = trial.sr, trial.spaces, trial.rand

        # Shared-subject verb-phrase coordination.
        john, sleep, snore = rt(noun), rt(vp), rt(vp)
        want = sr.sum(sr.mul(john.array[:, None],
                             sr.mul(sleep.array, snore.array)), axis=0)
        yield from _per_mode(
            lambda mode: _coordinated([john, sleep, None, snore], vp, mode,
                                      spaces),
            want, lambda: f"vp-coordination {trial}")

        # Two full sentences joined by a sentence coordinator.
        men, watch, football = rt(noun), rt(tv), rt(noun)
        women, knit = rt(noun), rt(vp)
        first = sr.sum(sr.mul(
            sr.mul(men.array[:, None, None], watch.array),
            football.array[None, None, :]), axis=(0, 2))
        second = sr.sum(sr.mul(women.array[:, None], knit.array), axis=0)
        yield from _per_mode(
            lambda mode: _coordinated([men, watch, football, None, women,
                                       knit], parse_type("s"), mode, spaces),
            sr.mul(first, second), lambda: f"sentence-coordination {trial}")

        # Ditransitive clauses sharing subject and final object.
        bank, mary, johnn, loan = rt(noun), rt(noun), rt(noun), rt(noun)
        grant, deny = rt(dt), rt(dt)
        g3 = sr.sum(sr.mul(grant.array, mary.array[None, None, None, :]),
                    axis=3)
        d3 = sr.sum(sr.mul(deny.array, johnn.array[None, None, None, :]),
                    axis=3)
        merged = sr.mul(g3, d3)
        want = sr.sum(sr.mul(sr.mul(bank.array[:, None, None], merged),
                             loan.array[None, None, :]), axis=(0, 2))
        yield from _per_mode(
            lambda mode: ditransitive_coordination(bank, grant, deny, loan,
                                                   mary, johnn, mode=mode),
            want, lambda: f"ditransitive {trial}")


def suite_subject_copying(rng, dims, trials, mu):
    vp, noun = parse_type("n.r s"), parse_type("n")
    for trial in _trials(rng, dims, trials):
        sleep, snore = trial.rand(vp), trial.rand(vp)
        dn = trial.spaces.dim("n")
        for i in range(dn):
            subject = Tensor(trial.spaces.wires(noun), np.eye(dn)[i], trial.sr)
            yield from _per_mode(
                lambda mode: _coordinated([subject, sleep, None, snore], vp,
                                          mode, trial.spaces),
                trial.sr.mul(sleep.array[i], snore.array[i]),
                lambda: f"i={i} {trial}")


def suite_stripping(rng, dims, trials, mu):
    noun, tv = parse_type("n"), parse_type("n.r s n.l")
    for trial in _trials(rng, dims, trials):
        sr, rt = trial.sr, trial.rand
        john, likes, poe, lovecraft = rt(noun), rt(tv), rt(noun), rt(noun)
        merged = sr.mul(poe.array, lovecraft.array)
        want = sr.sum(sr.mul(sr.mul(john.array[:, None, None], likes.array),
                             merged[None, None, :]), axis=(0, 2))
        yield from _per_mode(
            lambda mode: stripping_sentence(john, likes, poe, lovecraft,
                                            trial.spaces, mode),
            want, lambda: f"{trial} john={_show(john)}")


def _intersection(a: Tensor, b: Tensor) -> np.ndarray:
    """The set-based oracle: the index tuples at which both boolean
    tensors hold, as an array."""
    holds = lambda t: {idx for idx in np.ndindex(*t.dims) if t.array[idx]}
    arr = np.zeros(a.dims, dtype=bool)
    for idx in holds(a) & holds(b):
        arr[idx] = True
    return arr


def suite_rel_intersection(rng, dims, trials, mu):
    noun, tv = parse_type("n"), parse_type("n.r s n.l")
    for trial in _trials(rng, dims, trials, (BOOLEAN,)):
        a, b = trial.rand(noun), trial.rand(noun)
        want = _intersection(a, b)
        describe = lambda: f"nouns {trial} a={_show(a)} b={_show(b)}"
        yield (np.array_equal(coordinate_closed_form(a, b).array, want),
               lambda: f"closed-form merge of {describe()}")
        yield from _per_mode(
            lambda mode: _coordinated([a, None, b], noun, mode, trial.spaces,
                                      noun),
            want, describe)

        r, q = trial.rand(tv), trial.rand(tv)
        yield from _per_mode(
            lambda mode: _coordinated([r, None, q], tv, mode, trial.spaces,
                                      tv),
            _intersection(r, q),
            lambda: f"relations {trial} r={_show(r)} q={_show(q)}")


# Each suite with its share of --trials: the costlier ones run half.
_SUITES = (
    ("frobenius-axioms", suite_frobenius, 1),
    ("snake-equations", suite_snake, 1),
    ("coordinator-equivalence", suite_coordinator_equivalence, 0.5),
    ("contraction-order", suite_contraction_order, 1),
    ("sentence-identities", suite_sentence_identities, 0.5),
    ("subject-copying", suite_subject_copying, 0.5),
    ("stripping-equality", suite_stripping, 1),
    ("rel-intersection", suite_rel_intersection, 1),
)


def run_selftest(dims=(1, 2, 3, 4), trials=100, seed=0,
                 inject_fault=False) -> list[SuiteResult]:
    """Run every suite; results report per-suite pass counts and times."""
    dims = tuple(_checked_dim(d, "selftest dimension") for d in dims)
    if not dims:
        raise DimMismatch("selftest needs at least one dimension")
    mu = _faulty_mu if inject_fault else frobenius_mu
    results = []
    for k, (name, suite, share) in enumerate(_SUITES):
        result = SuiteResult(name, 0, 0)
        start = time.perf_counter()
        checks = suite(np.random.default_rng([seed, k]), dims,
                       max(1, int(trials * share)), mu)
        try:
            for ok, describe in checks:
                result.total += 1
                if ok:
                    result.passed += 1
                elif result.counterexample is None:
                    result.counterexample = describe()
        except FrobcoordError as exc:
            result.total += 1
            result.counterexample = (result.counterexample
                                     or f"{type(exc).__name__}: {exc}")
        result.seconds = time.perf_counter() - start
        results.append(result)
    return results
