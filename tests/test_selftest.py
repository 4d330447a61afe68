"""The selftest suites, run in this process."""

import json
import sys
import tracemalloc

import numpy as np
import pytest

from frobcoord import cli, errors, evaluator, selftest
from frobcoord.semiring import BOOLEAN
from frobcoord.tensor import Tensor, frobenius_mu


def _suite_calling():
    """The name of the suite generator on the current call stack."""
    frame = sys._getframe(2)
    while not frame.f_code.co_name.startswith("suite_"):
        frame = frame.f_back
    return frame.f_code.co_name


def test_every_suite_passes():
    results = selftest.run_selftest(dims=(1, 2), trials=3)
    assert [r.name for r in results] == [
        "frobenius-axioms", "snake-equations", "coordinator-equivalence",
        "contraction-order", "sentence-identities", "subject-copying",
        "stripping-equality", "rel-intersection"]
    for r in results:
        assert r.ok and r.total > 0, r


def test_injected_fault_fails_with_a_counterexample():
    results = selftest.run_selftest(dims=(1, 2), trials=3, inject_fault=True)
    failed = [r for r in results if not r.ok]
    assert failed
    assert all(r.counterexample for r in failed)


def test_only_the_reference_route_wires_a_sentence_by_hand(monkeypatch):
    # The paper route of coordinator-equivalence wires caps and atomic
    # merge spiders by hand, with no derivation; every sentence goes
    # through the pipeline eval runs, which builds no dense coordinator and
    # calls reduce and build_network from the evaluator, not through these
    # names.  Only contraction-order relabels a network build_network made.
    calls = []

    def record(name, real):
        def wrapper(*args, **kwargs):
            calls.append((name, _suite_calling(), args))
            return real(*args, **kwargs)
        return wrapper

    for name in ("coordinator_tensor", "reduce", "build_network", "evaluate"):
        monkeypatch.setattr(selftest, name,
                            record(name, getattr(selftest, name)))
    assert all(r.ok for r in selftest.run_selftest(dims=(1, 2), trials=3))

    def callers(name, compound=False):
        # compound: only coordinators of a conjunct type of 2+ factors.
        return {suite for what, suite, args in calls
                if what == name and not (compound and len(args[0]) < 2)}

    assert callers("coordinator_tensor", compound=True) == set()
    assert callers("coordinator_tensor") == {
        "suite_frobenius", "suite_coordinator_equivalence"}
    for name in ("reduce", "build_network"):
        assert callers(name) == {"suite_contraction_order"}
    assert callers("evaluate") == {"suite_frobenius",
                                   "suite_coordinator_equivalence",
                                   "suite_contraction_order"}


def _equivalence_checks(dims=(2,), trials=3):
    """Every check of coordinator-equivalence, described: (ok, text)."""
    checks = selftest.suite_coordinator_equivalence(
        np.random.default_rng(0), dims, trials, frobenius_mu)
    return [(ok, describe()) for ok, describe in checks]


def test_the_paper_route_checks_every_case_first():
    checks = _equivalence_checks()
    # Three checks per trial; three trials per carrier and conjunct type.
    assert len(checks) == 3 * 2 * len(selftest._CONJUNCT_TYPES) * 3
    assert all(ok for ok, _ in checks)
    assert [text.split()[0] for _, text in checks[:3]] == [
        "route=paper", "mode=explicit", "mode=closed-form"]


def test_a_swapped_leg_layout_fails_only_the_shared_routes(monkeypatch,
                                                           request):
    # Explicit and closed form read the spiders' legs from coordinator_legs;
    # the paper route wires its caps by hand and must not notice.  With n
    # and s both of dimension 2 the swap gives a wrong result, not a
    # refusal.
    real = evaluator.coordinator_legs

    def swapped(k):
        legs = [list(leg) for leg in real(k)]
        if k > 1:
            legs[0][0], legs[1][0] = legs[1][0], legs[0][0]
        return tuple(map(tuple, legs))

    # Programs are compiled once per structure: none compiled before the
    # swap may be replayed during it, nor one compiled with it afterwards.
    evaluator.compile_network.cache_clear()
    request.addfinalizer(evaluator.compile_network.cache_clear)
    monkeypatch.setattr(evaluator, "coordinator_legs", swapped)
    checks = _equivalence_checks()
    paper = [ok for ok, text in checks if text.startswith("route=paper")]
    assert len(paper) == len(checks) // 3 and all(paper)
    failed = [text for ok, text in checks if not ok]
    assert {text.split()[0] for text in failed} == {"mode=explicit",
                                                    "mode=closed-form"}
    # Only conjunct types of two factors or more have legs to swap.
    assert {text.split("type=")[1].split(" semiring=")[0]
            for text in failed} == set(selftest._CONJUNCT_TYPES[2:])
    result = {r.name: r for r in selftest.run_selftest(
        dims=(1, 2, 3), trials=4)}["coordinator-equivalence"]
    assert not result.ok


def test_a_cap_that_is_no_identity_fails_the_paper_route(monkeypatch):
    real = selftest.eta_cap

    def shifted(*args, **kwargs):
        cap = real(*args, **kwargs)
        return Tensor(cap.wires, np.roll(cap.array, 1, axis=1), cap.semiring)

    monkeypatch.setattr(selftest, "eta_cap", shifted)
    result = {r.name: r for r in selftest.run_selftest(
        dims=(1, 2), trials=3)}["coordinator-equivalence"]
    assert not result.ok
    assert result.counterexample.startswith("route=paper ")


def test_the_equivalence_suite_builds_no_dense_coordinator():
    # The dense coordinator of n.r s n.l n.l at d = 4 alone is 4**12 float64
    # cells, 128 MiB; the paper route's largest array is a 4**3 spider.
    tracemalloc.start()
    try:
        assert all(ok for ok, _ in _equivalence_checks(dims=(4,), trials=2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def _drop_coordinator_positions(monkeypatch):
    # Without them, reduce links a coordinator's legs to each other, which
    # build_network refuses with InvalidDerivation.
    real = evaluator.reduce
    monkeypatch.setattr(evaluator, "reduce", lambda types, target, **kw:
                        real(types, target))


def test_a_check_that_raises_fails_its_suite_only(monkeypatch):
    _drop_coordinator_positions(monkeypatch)
    results = selftest.run_selftest(dims=(1, 2), trials=3)
    assert len(results) == 8
    failed = {r.name: r for r in results if not r.ok}
    equivalence = failed["coordinator-equivalence"]
    assert equivalence.passed == equivalence.total - 1
    assert equivalence.counterexample.startswith("InvalidDerivation: link")
    assert {"frobenius-axioms", "snake-equations"}.isdisjoint(failed)


def test_selftest_json_survives_a_check_that_raises(monkeypatch, capsys):
    _drop_coordinator_positions(monkeypatch)
    assert cli.main(["selftest", "--trials", "3", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert not payload["ok"]
    assert len(payload["suites"]) == 8


def test_memory_error_in_a_check_still_ends_the_run(monkeypatch, capsys):
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(selftest, "_coordinated", out_of_memory)
    assert cli.main(["selftest", "--trials", "1"]) == 2
    assert capsys.readouterr().err == "error: out of memory\n"


def test_out_of_memory_in_a_check_ends_the_run():
    # The first check draws a vector of 2**62 float64 cells, past numpy's
    # size limit: no suite records it, the run ends.
    with pytest.raises(errors.OutOfMemory,
                       match=f"a tensor of {2 ** 62} cells does not fit"):
        selftest.run_selftest(dims=(2 ** 62,), trials=1)


@pytest.mark.parametrize("dims", [(2.7,), (True,), (np.int64(2),), (0,)])
def test_selftest_dimensions_follow_the_dimension_rule(dims):
    with pytest.raises(errors.DimMismatch) as exc:
        selftest.run_selftest(dims=dims, trials=1)
    assert str(exc.value) == (f"selftest dimension must be a Python int "
                              f">= 1, got {dims[0]!r}")


@pytest.mark.parametrize("seed", [-1, 1.5, True, np.int64(3), "0"])
def test_selftest_refuses_a_bad_seed_before_any_suite(seed, monkeypatch):
    def suite(*args):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(selftest, "_SUITES", (("any", suite, 1),))
    with pytest.raises(errors.FrobcoordError) as exc:
        selftest.run_selftest(dims=(1,), trials=1, seed=seed)
    assert str(exc.value) == f"seed must be a Python int >= 0, got {seed!r}"


@pytest.mark.parametrize("trials", [0, -5, 1.5, True, np.int64(3)])
def test_selftest_refuses_bad_trials_before_any_suite(trials, monkeypatch):
    def suite(*args):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(selftest, "_SUITES", (("any", suite, 1),))
    with pytest.raises(errors.FrobcoordError) as exc:
        selftest.run_selftest(dims=(1,), trials=trials, seed=0)
    assert str(exc.value) == (f"trials must be a Python int >= 1, got "
                              f"{trials!r}")


def test_selftest_needs_a_dimension():
    with pytest.raises(errors.DimMismatch, match="at least one dimension"):
        selftest.run_selftest(dims=(), trials=1)


_SENTENCE_SUITES = ("coordinator-equivalence", "sentence-identities",
                    "subject-copying", "stripping-equality",
                    "rel-intersection")


def test_every_sentence_suite_names_the_failing_mode(monkeypatch):
    def flipped(real):
        def wrapper(*args, **kwargs):
            got = real(*args, **kwargs)
            arr = got.array.copy()
            arr.flat[0] = (not arr.flat[0] if got.semiring is BOOLEAN
                           else arr.flat[0] + 1.0)
            return Tensor(got.wires, arr, got.semiring)
        return wrapper

    for name in ("_coordinated", "ditransitive_coordination",
                 "stripping_sentence"):
        monkeypatch.setattr(selftest, name,
                            flipped(getattr(selftest, name)))
    results = {r.name: r for r in selftest.run_selftest(dims=(1, 2),
                                                        trials=3)}
    assert {name for name, r in results.items()
            if not r.ok} == set(_SENTENCE_SUITES)
    for name in _SENTENCE_SUITES:
        assert "mode=explicit " in results[name].counterexample
    # Every failing check of those suites describes itself, not only the
    # first one that run_selftest reports.
    described = []
    for name, suite, _ in selftest._SUITES:
        if name in _SENTENCE_SUITES:
            described += [describe() for ok, describe in suite(
                np.random.default_rng(0), (1, 2), 2, frobenius_mu) if not ok]
    assert all(text.startswith("mode=") for text in described)
    for case in ("vp-coordination", "sentence-coordination", "ditransitive",
                 "i=0", "john=", "nouns", "relations", "type=n.r s"):
        assert any(case in text for text in described), case
