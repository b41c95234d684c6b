"""Symbolic splittings and removal chains for amplified graph algebras.

The package builds finite directed graphs with amplified edge families,
manipulates their algebras through exact normal-form arithmetic on
Cuntz-Krieger words, constructs the explicit section maps that split off a
sink as a copy of the compacts, and verifies every construction at both the
relation level and the K_0 level.  Flag graphs of tagged A-series diagrams
and their skeleton filtrations supply the worked geometric examples.
"""

from .graphs import OMEGA, AmpGraph, GraphClass, Mult
from .algebra import (
    CKElement,
    CKWord,
    Check,
    EdgeRef,
    GeneratorMap,
    Path,
    VerificationReport,
    compose,
    projection_word,
    verify_ck_family,
    word_mul,
)
from .splitting import (
    KKChain,
    SplitData,
    VerificationFailure,
    build_splitting,
    explicit_steps,
    first_sink_first_star,
    kk_chain,
    multi_sink_splitting,
    prefer_source_star,
    valid_stars,
    verify_split_exact,
)
from .ktheory import (
    K0ChainCheck,
    K0SplitCheck,
    check_chain_k0,
    check_split_exact_k0,
    induced_k0,
)
from .coxeter import (
    DynkinSpec,
    canonical_reduced_word,
    flag_graph,
    minimal_coset_reps,
    word_label,
)
from .cw import (
    CWRecord,
    CWSummary,
    Filtration,
    cw_kk_summary,
    skeleton_filtration,
    summarize_filtration,
)
from .graphio import dump_graph, dumps_graph, graph_from_dict, graph_to_dict, load_graph

__all__ = [
    "OMEGA",
    "AmpGraph",
    "GraphClass",
    "Mult",
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
    "KKChain",
    "SplitData",
    "VerificationFailure",
    "build_splitting",
    "explicit_steps",
    "first_sink_first_star",
    "kk_chain",
    "multi_sink_splitting",
    "prefer_source_star",
    "valid_stars",
    "verify_split_exact",
    "K0ChainCheck",
    "K0SplitCheck",
    "check_chain_k0",
    "check_split_exact_k0",
    "induced_k0",
    "DynkinSpec",
    "canonical_reduced_word",
    "flag_graph",
    "minimal_coset_reps",
    "word_label",
    "CWRecord",
    "CWSummary",
    "Filtration",
    "cw_kk_summary",
    "skeleton_filtration",
    "summarize_filtration",
    "dump_graph",
    "dumps_graph",
    "graph_from_dict",
    "graph_to_dict",
    "load_graph",
]

__version__ = "0.1.0"
