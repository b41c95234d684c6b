"""Symbolic splittings and removal chains for amplified graph algebras.

The package builds finite directed graphs with amplified edge families,
manipulates their algebras through exact normal-form arithmetic on
Cuntz-Krieger words, constructs the explicit section maps that split off a
sink as a copy of the compacts, and verifies every construction at both the
relation level and the K_0 level.  Flag graphs of tagged A-series diagrams
and their skeleton filtrations supply the worked geometric examples.

``import ampgraph`` loads no submodule.  Each name in :data:`__all__` is
looked up in its defining module on every access (PEP 562), so the first
access loads only the layers that module needs, and the package never holds
a copy of a binding that could go stale when the module's is replaced.
"""

import importlib

#: The largest accepted A-series rank; fully tagged, rank 8 already gives
#: 362,880 vertices.  Defined here, not in :mod:`ampgraph.coxeter`, so the
#: command-line parser can name it without loading that module.
MAX_RANK = 8

#: Submodule -> the public names it defines, in :data:`__all__` order.
_EXPORTS = {
    "graphs": ("OMEGA", "AmpGraph", "GraphClass", "Mult", "valid_stars"),
    "algebra": (
        "CKElement",
        "CKWord",
        "Check",
        "EdgeRef",
        "GeneratorMap",
        "Path",
        "VerificationReport",
        "compose",
        "projection_word",
        "verify_ck_family",
        "word_mul",
    ),
    "splitting": (
        "KKChain",
        "SplitData",
        "VerificationFailure",
        "build_splitting",
        "explicit_steps",
        "first_sink_first_star",
        "kk_chain",
        "multi_sink_splitting",
        "prefer_source_star",
        "verify_split_exact",
    ),
    "ktheory": (
        "K0ChainCheck",
        "K0SplitCheck",
        "check_chain_k0",
        "check_split_exact_k0",
        "induced_k0",
    ),
    "coxeter": (
        "DynkinSpec",
        "canonical_reduced_word",
        "flag_graph",
        "minimal_coset_reps",
        "word_label",
    ),
    "cw": (
        "CWRecord",
        "CWSummary",
        "Filtration",
        "cw_kk_summary",
        "skeleton_filtration",
        "summarize_filtration",
    ),
    "graphio": ("dump_graph", "dumps_graph", "graph_from_dict", "graph_to_dict", "load_graph"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule, as if ``import ampgraph.<name>`` had run
        return importlib.import_module(f"{__name__}.{name}")
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
