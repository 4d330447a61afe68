"""Built-in randomized verification suites.

Each suite draws seeded random tensors, evaluates a law both through the
library and through straight-line arithmetic, and yields one ``(ok,
describe)`` pair per check; :func:`run_selftest` counts them and calls
``describe()`` for the first failure only.  Every sentence goes through
the pipeline that ``eval`` runs, in both modes, with each coordinator a
None token (:func:`coordination._coordinated`); only the dense reference
route of ``coordinator-equivalence`` and the relabelled networks of
``contraction-order`` are wired by hand.  The suites back the
``selftest`` CLI command; ``inject_fault=True`` corrupts the merge
operation (one flipped entry) as a negative control, which must make the
run fail with a counterexample.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .coordination import (_coordinated, coordinate_closed_form,
                           coordinator_tensor, ditransitive_coordination,
                           stripping_sentence)
from .evaluator import SpaceAssignment, TensorNetwork, build_network, evaluate
from .pregroup import coordinator_type, parse_type, reduce
from .semiring import BOOLEAN, REAL
from .tensor import (Tensor, Wire, contract, eta_cap, frobenius_delta,
                     frobenius_mu, frobenius_mu_matrix, frobenius_zeta,
                     random_tensor, tensor_product)


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
    flat = arr.reshape(-1)
    flat[0] = not flat[0] if out.semiring is BOOLEAN else flat[0] + 1.0
    return Tensor(out.wires, arr, out.semiring, copy=False)


def _show(t: Tensor) -> str:
    return np.array2string(np.asarray(t.array), threshold=30)


def _vec(rng, dim, sr, z=0):
    return random_tensor((Wire("n", z, dim),), rng, sr)


def _spider(dim, sr):
    return coordinator_tensor(parse_type("n"), SpaceAssignment({"n": dim}), sr)


def suite_frobenius(rng, dims, trials, mu):
    for sr in (REAL, BOOLEAN):
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
                # The two-sided condition, evaluated as tensor networks.
                spider = _spider(d, sr)
                nodes = [u, v, spider, spider]
                left = evaluate(TensorNetwork(
                    nodes, [[0], [1], [2, 0, 3], [1, 2, 4]], [(2, 2), (3, 2)]))
                middle = evaluate(TensorNetwork(
                    nodes, [[0], [1], [0, 1, 2], [2, 3, 4]], [(3, 1), (3, 2)]))
                right = evaluate(TensorNetwork(
                    nodes, [[0], [1], [2, 3, 1], [0, 2, 4]], [(3, 2), (2, 1)]))
                direct = np.zeros((d, d), dtype=sr.dtype)
                np.fill_diagonal(direct, sr.mul(u.array, v.array))
                good = (sr.allclose(left.array, direct)
                        and sr.allclose(middle.array, direct)
                        and sr.allclose(right.array, direct))
                yield (good, ctx("frobenius-condition"))


def suite_snake(rng, dims, trials):
    for sr in (REAL, BOOLEAN):
        for d in dims:
            for t in range(trials):
                v = _vec(rng, d, sr)
                bent_l = contract(tensor_product(v, eta_cap("n", "left", d,
                                                            semiring=sr)),
                                  0, 1)
                bent_r = contract(tensor_product(eta_cap("n", "right", d,
                                                         semiring=sr), v),
                                  1, 2)
                ok = (sr.allclose(bent_l.array, v.array)
                      and sr.allclose(bent_r.array, v.array))
                yield (ok, lambda: f"semiring={sr.name} d={d} v={_show(v)}")


# The coordinator types of adjectives (n n.l) and sentence adverbs (s.r s)
# hold a contractible pair: only the coordinator position passed to reduce
# keeps the coordinator's legs from linking to each other.
_CONJUNCT_TYPES = ("n", "s", "n.r s", "n.r s n.l n.l", "n n.l", "s.r s",
                   "n.r s n.l")
# The evaluation modes of eval; every sentence check runs in each.
_MODES = ("explicit", "closed-form")


def _sample_spaces(rng, dims):
    return SpaceAssignment({"n": int(rng.choice(dims)),
                            "s": int(rng.choice(dims))})


def suite_coordinator_equivalence(rng, dims, trials, mu):
    for sr in (REAL, BOOLEAN):
        for type_text in _CONJUNCT_TYPES:
            x = parse_type(type_text)
            derivation = reduce([x, coordinator_type(x), x], x,
                                coordinators=[1])
            for t in range(trials):
                spaces = _sample_spaces(rng, dims)
                x1 = random_tensor(spaces.wires(x), rng, sr)
                x2 = random_tensor(spaces.wires(x), rng, sr)
                want = mu(x1, x2)
                # The paper's reference: the dense coordinator, wired by hand.
                routes = {"dense": evaluate(build_network(
                    derivation, [x1, coordinator_tensor(x, spaces, sr), x2],
                    spaces))}
                for mode in _MODES:
                    routes[mode] = _coordinated([x1, None, x2], x, mode,
                                                spaces, x)
                for route, got in routes.items():
                    yield (sr.allclose(got.array, want.array),
                           lambda: f"type={type_text!r} route={route} "
                                   f"semiring={sr.name} spaces={spaces!r} "
                                   f"x1={_show(x1)} x2={_show(x2)}")


def suite_contraction_order(rng, dims, trials):
    for sr in (REAL, BOOLEAN):
        for t in range(trials):
            spaces = _sample_spaces(rng, dims)
            x = parse_type(str(rng.choice(_CONJUNCT_TYPES[:3])))
            x1 = random_tensor(spaces.wires(x), rng, sr)
            x2 = random_tensor(spaces.wires(x), rng, sr)
            derivation = reduce([x, coordinator_type(x), x], x,
                                coordinators=[1])
            net = build_network(derivation, [x1, None, x2], spaces)
            base = evaluate(net)
            order = rng.permutation(len(set().union(*net.indices))).tolist()
            relabelled = TensorNetwork(
                net.nodes, [[order[l] for l in labs] for labs in net.indices],
                net.open_wires)
            yield (base.isclose(evaluate(relabelled)),
                   lambda: f"type={x} semiring={sr.name} order={order}")


def suite_sentence_identities(rng, dims, trials):
    vp, tv = parse_type("n.r s"), parse_type("n.r s n.l")
    noun = parse_type("n")
    for sr in (REAL, BOOLEAN):
        for t in range(trials):
            spaces = _sample_spaces(rng, dims)
            rt = lambda typ: random_tensor(spaces.wires(typ), rng, sr)

            # Shared-subject verb-phrase coordination.
            john, sleep, snore = rt(noun), rt(vp), rt(vp)
            want = sr.sum(sr.mul(john.array[:, None],
                                 sr.mul(sleep.array, snore.array)), axis=0)
            for mode in _MODES:
                got = _coordinated([john, sleep, None, snore], vp, mode,
                                   spaces)
                yield (sr.allclose(got.array, want),
                       lambda: f"vp-coordination mode={mode} "
                               f"semiring={sr.name} spaces={spaces!r}")

            # Two full sentences joined by a sentence coordinator.
            men, watch, football = rt(noun), rt(tv), rt(noun)
            women, knit = rt(noun), rt(vp)
            first = sr.sum(sr.mul(
                sr.mul(men.array[:, None, None], watch.array),
                football.array[None, None, :]), axis=(0, 2))
            second = sr.sum(sr.mul(women.array[:, None], knit.array), axis=0)
            for mode in _MODES:
                got = _coordinated([men, watch, football, None, women, knit],
                                   parse_type("s"), mode, spaces)
                yield (sr.allclose(got.array, sr.mul(first, second)),
                       lambda: f"sentence-coordination mode={mode} "
                               f"semiring={sr.name} spaces={spaces!r}")

            # Ditransitive clauses sharing subject and final object.
            bank, mary, johnn, loan = rt(noun), rt(noun), rt(noun), rt(noun)
            dt = parse_type("n.r s n.l n.l")
            grant, deny = rt(dt), rt(dt)
            g3 = sr.sum(sr.mul(grant.array, mary.array[None, None, None, :]),
                        axis=3)
            d3 = sr.sum(sr.mul(deny.array, johnn.array[None, None, None, :]),
                        axis=3)
            merged = sr.mul(g3, d3)
            want = sr.sum(sr.mul(sr.mul(bank.array[:, None, None], merged),
                                 loan.array[None, None, :]), axis=(0, 2))
            for mode in _MODES:
                got = ditransitive_coordination(bank, grant, deny, loan,
                                                mary, johnn, mode=mode)
                yield (sr.allclose(got.array, want),
                       lambda: f"ditransitive mode={mode} "
                               f"semiring={sr.name} spaces={spaces!r}")


def suite_subject_copying(rng, dims, trials):
    vp, noun = parse_type("n.r s"), parse_type("n")
    for sr in (REAL, BOOLEAN):
        for t in range(trials):
            spaces = _sample_spaces(rng, dims)
            sleep = random_tensor(spaces.wires(vp), rng, sr)
            snore = random_tensor(spaces.wires(vp), rng, sr)
            dn = spaces.dim("n")
            for i in range(dn):
                basis = np.zeros(dn, dtype=sr.dtype)
                basis[i] = sr.one
                subject = Tensor(spaces.wires(noun), basis, sr)
                want = sr.mul(sleep.array[i, :], snore.array[i, :])
                for mode in _MODES:
                    got = _coordinated([subject, sleep, None, snore], vp,
                                       mode, spaces)
                    yield (sr.allclose(got.array, want),
                           lambda: f"mode={mode} semiring={sr.name} i={i} "
                                   f"spaces={spaces!r}")


def suite_stripping(rng, dims, trials):
    noun, tv = parse_type("n"), parse_type("n.r s n.l")
    for sr in (REAL, BOOLEAN):
        for t in range(trials):
            spaces = _sample_spaces(rng, dims)
            rt = lambda typ: random_tensor(spaces.wires(typ), rng, sr)
            john, likes, poe, lovecraft = rt(noun), rt(tv), rt(noun), rt(noun)
            merged = sr.mul(poe.array, lovecraft.array)
            want = sr.sum(sr.mul(sr.mul(john.array[:, None, None],
                                        likes.array),
                                 merged[None, None, :]), axis=(0, 2))
            for mode in _MODES:
                got = stripping_sentence(john, likes, poe, lovecraft, spaces,
                                         mode)
                yield (sr.allclose(got.array, want),
                       lambda: f"mode={mode} semiring={sr.name} "
                               f"spaces={spaces!r} john={_show(john)}")


def suite_rel_intersection(rng, dims, trials):
    sr = BOOLEAN
    for t in range(trials):
        du = int(rng.integers(1, 7))
        dv = int(rng.integers(1, 7))
        spaces = SpaceAssignment({"n": du, "s": dv})
        noun = parse_type("n")
        a = random_tensor(spaces.wires(noun), rng, sr)
        b = random_tensor(spaces.wires(noun), rng, sr)
        set_a = {i for i in range(du) if a.array[i]}
        set_b = {i for i in range(du) if b.array[i]}
        merged = coordinate_closed_form(a, b)
        got_set = {i for i in range(du) if merged.array[i]}
        yield (got_set == set_a & set_b,
               lambda: f"nouns a={_show(a)} b={_show(b)}")
        for mode in _MODES:
            got = _coordinated([a, None, b], noun, mode, spaces, noun)
            yield (sr.allclose(got.array, merged.array),
                   lambda: f"noun-coordination mode={mode} a={_show(a)} "
                           f"b={_show(b)}")

        tv = parse_type("n.r s n.l")
        r = random_tensor(spaces.wires(tv), rng, sr)
        q = random_tensor(spaces.wires(tv), rng, sr)
        rel = lambda m: {idx for idx in np.ndindex(*m.dims) if m.array[idx]}
        for mode in _MODES:
            got = _coordinated([r, None, q], tv, mode, spaces, tv)
            yield (rel(got) == rel(r) & rel(q),
                   lambda: f"relations mode={mode} r={_show(r)} "
                           f"q={_show(q)}")


def run_selftest(dims=(1, 2, 3, 4), trials=100, seed=0,
                 inject_fault=False) -> list[SuiteResult]:
    """Run every suite; results report per-suite pass counts and times."""
    dims = tuple(int(d) for d in dims)
    mu = _faulty_mu if inject_fault else frobenius_mu
    half = max(1, trials // 2)
    suites = {
        "frobenius-axioms": lambda rng: suite_frobenius(rng, dims, trials, mu),
        "snake-equations": lambda rng: suite_snake(rng, dims, trials),
        "coordinator-equivalence":
            lambda rng: suite_coordinator_equivalence(rng, dims, half, mu),
        "contraction-order":
            lambda rng: suite_contraction_order(rng, dims, trials),
        "sentence-identities":
            lambda rng: suite_sentence_identities(rng, dims, half),
        "subject-copying": lambda rng: suite_subject_copying(rng, dims, half),
        "stripping-equality": lambda rng: suite_stripping(rng, dims, trials),
        "rel-intersection":
            lambda rng: suite_rel_intersection(rng, dims, trials),
    }
    results = []
    for k, (name, suite) in enumerate(suites.items()):
        result = SuiteResult(name, 0, 0)
        start = time.perf_counter()
        for ok, describe in suite(np.random.default_rng([seed, k])):
            result.total += 1
            if ok:
                result.passed += 1
            elif result.counterexample is None:
                result.counterexample = describe()
        result.seconds = time.perf_counter() - start
        results.append(result)
    return results
