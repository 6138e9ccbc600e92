"""Decision procedures for twin groups and their doodle closures.

The package namespace is lazy (PEP 562): ``import twinkit`` loads no
submodule, and the first use of a name imports the module that owns it.
"""

import importlib

_EXPORTS = {
    "conjugacy": (
        "CyclicReduction", "conjugate", "conjugating_witness", "cyclic_reduce",
        "is_cyclically_reduced",
    ),
    "doodle": (
        "ClosureSummary", "Permutation", "SvgGeometry", "closure_components", "is_pure",
        "permutation_of", "render_svg", "split_check",
    ),
    "endomorphisms": (
        "InjectivityReport", "NonSurjectivityReport", "injectivity_ball_test", "make_psi_n",
        "non_surjectivity_witness",
    ),
    "markov": (
        "DestabilizationResult", "destabilize_m3", "destabilize_m4", "destabilize_oracle",
        "m1_shift", "m1_shift_inverse", "stabilize_m3", "stabilize_m4", "tensor",
    ),
    "oracle": (
        "Ball", "bfs_equal", "conjugator_search", "enumerate_ball", "twisted_witness_search",
    ),
    "twisted": (
        "Endomap", "HeisenbergReport", "TwistedConjugacyVerdict", "heisenberg_counterexample",
        "make_inner", "make_kappa", "make_psi", "make_tau", "order_of", "rinfty_witness_family",
        "twisted_conjugate",
    ),
    "words": (
        "Move", "MoveCertificate", "NormalForm", "Word", "certificate", "equal", "flip_equivalent",
        "inverse", "is_reduced", "multiply", "parity_vector", "reduce", "support",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli")

__all__ = sorted(_OWNER)


def __getattr__(name):
    if name in _SUBMODULES:
        # importing a submodule binds it in this namespace
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return list(__all__)
