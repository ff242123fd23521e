"""Symbolic calculus for self-similar group actions on finite graphs.

Groups acting on graphs with an edge cocycle, the induced action on finite
and infinite paths, the inverse semigroup of triples, covers, freeness and
E*-unitarity sweeps, and the germ groupoid with its corona-valued lag.
"""

from .action import (
    SelfSimilarTriple,
    act_inf_path,
    act_infinite,
    all_paths_upto,
    capital_phi,
    check_residually_free,
    inverse_cocycle_check,
    phi_corona,
    verify_axioms,
)
from .builders import (
    AutomatonData,
    KatsuraData,
    adding_machine,
    from_automaton,
    from_katsura,
    integer_triple_from_generator,
    finite_triple,
    katsura_2_0,
    katsura_3_2,
    odometer,
    z2_swap,
)
from .corona import (
    BoundedSeq,
    CoronaSeq,
    LagValue,
    PeriodicSeq,
    corona_eq,
    corona_identity,
    corona_inv,
    corona_mul,
    lag_eq,
    lag_identity,
    lag_inv,
    lag_mul,
    shift_left,
    shift_right,
)
from .graph import (
    Graph,
    InfPath,
    Path,
    PeriodicPath,
    PrefixRel,
    StreamPath,
    concat,
    complement,
    edge_path,
    extensions,
    inf_path_eq,
    make_graph,
    periodic_path,
    prefix_compare,
    stream_path,
    validate_graph,
    vertex_path,
)
from .groupoid import Germ, GermContext, hausdorff_report
from .groups import (
    AutomatonGroup,
    FiniteGroup,
    GroupBackend,
    IntegerGroup,
    default_window,
)
from .semigroup import (
    ZERO,
    IdempotentOrder,
    Triple,
    Zero,
    check_e_star_unitary,
    element_eq,
    idempotent_order,
    is_cover,
    is_idempotent,
    make_triple,
    mul,
    star,
    unit_idempotent,
)
from .tri import Tri

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
