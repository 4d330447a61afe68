"""The selftest suites, run in this process."""

import sys

from frobcoord import selftest


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
    # Every other sentence goes through the pipeline eval runs, which
    # builds no dense coordinator and calls reduce and build_network from
    # the evaluator, not through these names.
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

    assert callers("coordinator_tensor", compound=True) == {
        "suite_coordinator_equivalence"}
    assert callers("coordinator_tensor") == {
        "suite_frobenius", "suite_coordinator_equivalence"}
    for name in ("reduce", "build_network"):
        assert callers(name) == {"suite_coordinator_equivalence",
                                 "suite_contraction_order"}
    assert callers("evaluate") == {"suite_frobenius",
                                   "suite_coordinator_equivalence",
                                   "suite_contraction_order"}
