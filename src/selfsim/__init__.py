"""Symbolic calculus for self-similar group actions on finite graphs.

Groups acting on graphs with an edge cocycle, the induced action on finite
and infinite paths, the inverse semigroup of triples, covers, freeness and
E*-unitarity sweeps, and the germ groupoid with its corona-valued lag.

Importing the package loads no submodule. Each public name is imported from
its module on first access (PEP 562) and kept in the package namespace.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Public names by the module that defines them.
_EXPORTS = {
    "action": "SelfSimilarTriple",
    "automaton": "AutomatonData AutomatonGroup from_automaton",
    "builders": "KatsuraData from_katsura integer_triple_from_generator",
    "cayley": "FiniteGroup finite_triple",
    "corona": "BoundedSeq CoronaSeq LagValue PeriodicSeq corona_eq corona_mul lag_eq lag_mul shift_left shift_right",
    "graph": "Graph Path PrefixRel concat edge_path make_graph prefix_compare validate_graph vertex_path",
    "groupoid": "Germ GermContext",
    "groups": "GroupBackend IntegerGroup default_window",
    "infinite": "InfPath PeriodicPath StreamPath act_inf_path inf_path_eq periodic_path phi_corona"
                " stream_path",
    "semigroup": "ZERO Triple Zero check_e_star_unitary element_eq is_cover is_idempotent make_triple mul"
                 " star unit_idempotent",
    "sweeps": "all_paths_upto check_residually_free hausdorff_report verify_axioms",
    "tri": "Tri",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
# Submodules that are also package attributes.
_SUBMODULES = ("action", "builders", "corona", "errors", "graph", "groupoid", "groups", "periodic",
               "semigroup", "tri")

__all__ = sorted([*_MODULE_OF, *_SUBMODULES])


def __getattr__(name: str):
    if name in _MODULE_OF:
        value = getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    elif name in _SUBMODULES:
        value = _import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
