"""Pregroup grammaticality, semiring tensor networks and coordination.

The package checks whether typed word sequences reduce to a target type,
evaluates grammatical sentences as tensor-network contractions over a
real or boolean carrier, and builds coordinator tensors whose contraction
provably equals the entry-wise merge of the coordinated conjuncts.

Importing the package imports none of its modules: each name of
``__all__``, and each submodule, is imported on first use (PEP 562 module
``__getattr__``) and then bound here.  So ``import frobcoord`` loads no
numpy, and neither do the grammar layer (``pregroup``, ``spaces``),
lexicon parsing and the ``check`` and ``derive`` commands; the array layer
(``tensor``, ``evaluator``, ``coordination``, ``selftest``) loads numpy.
"""

import importlib

__version__ = "0.1.0"

# The names of __all__ by the module that defines them.
_NAMES = {
    "semiring": ("Semiring", "REAL", "BOOLEAN"),
    "spaces": ("Wire", "SpaceAssignment"),
    "tensor": ("Tensor", "scalar", "tensor_product", "contract", "eta_cap",
               "frobenius_delta", "frobenius_mu", "frobenius_mu_matrix",
               "frobenius_iota", "frobenius_zeta", "permute_wires",
               "random_tensor"),
    "pregroup": ("SimpleType", "PregroupType", "Derivation", "parse_type",
                 "reduce", "enumerate_reductions", "coordinator_type"),
    "evaluator": ("TensorNetwork", "build_network", "evaluate",
                  "evaluate_sentence"),
    "coordination": ("coordinator_tensor", "coordinate_closed_form",
                     "ditransitive_coordination", "stripping_sentence"),
    "lexicon": ("Lexicon", "LexiconEntry", "SplitMix64", "load_lexicon",
                "parse_lexicon", "save_lexicon", "dumps_lexicon",
                "generate_random_lexicon"),
    "selftest": ("SuiteResult", "run_selftest"),
}
_MODULE_OF = {name: module for module, names in _NAMES.items()
              for name in names}
_SUBMODULES = {*_NAMES, "cli", "errors"}

__all__ = ["errors", *_MODULE_OF, "__version__"]


def __getattr__(name):
    module = _MODULE_OF.get(name, name)
    if module not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f".{module}", __name__)
    if module != name:
        value = getattr(value, name)
    globals()[name] = value
    return value
