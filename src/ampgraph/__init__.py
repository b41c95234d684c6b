"""Symbolic splittings and removal chains for amplified graph algebras.

The package builds finite directed graphs with amplified edge families,
constructs the explicit section maps that split off a sink as a copy of the
compacts, and verifies every construction at both the relation level and
the K_0 level.  A map is given by its generator images: vertex images as
tables of vertex-projection coefficients and family images as templates of
target families, on which the Cuntz-Krieger relations are decided exactly;
the normal-form word arithmetic of :mod:`ampgraph.words` remains for
pushing elements through a map, and no command loads it.  Flag graphs
of tagged A-series diagrams and their skeleton filtrations supply the
worked geometric examples.

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


class _built:
    """An attribute built on first read by ``build``, named after it, then kept in the instance dict."""

    def __init__(self, build) -> None:
        self.build = build

    def __get__(self, obj, owner: type):
        if obj is None:
            return self
        value = obj.__dict__[self.build.__name__] = self.build(obj)
        return value


class _Frozen:
    """An immutable record compared, hashed and shown by the attributes :attr:`_fields` names.

    A subclass keeps its state in its instance dict, stored through
    ``__init__`` or by a :class:`_built` attribute; assigning or deleting
    one later raises AttributeError, and a copy restores the dict as it is.
    Two records are equal when they are of one class and their ``_fields``
    are equal.  Defined here, not in a layer, so every layer's records share
    it without loading another layer, or :mod:`dataclasses`.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, **attrs) -> None:
        self.__dict__.update(attrs)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{k}={getattr(self, k)!r}' for k in self._fields)})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


#: Submodule -> the public names it defines, in :data:`__all__` order.
_EXPORTS = {
    "graphs": ("OMEGA", "AmpGraph", "GraphClass", "Mult", "valid_stars"),
    "algebra": ("Check", "GeneratorMap", "VerificationReport", "compose", "verify_ck_family"),
    "words": ("CKElement", "CKWord", "EdgeRef", "Path", "projection_word", "word_mul"),
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
    "graphio": ("dumps_graph", "graph_from_dict", "graph_to_dict", "load_graph"),
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
