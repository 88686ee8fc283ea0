"""Congruence lattices of path semigroups of finite acyclic quivers.

Every congruence of the path semigroup corresponds to an ideal of the
path algebra generated by monomial and commutative relations, and the
two lattices are isomorphic.  This package enumerates both sides
exactly, builds the lattices, and decides the structural properties
(semimodularity, modularity, distributivity) that the number of parallel
paths governs.
"""

from .ideals import (
    Relation,
    SpecialIdeal,
    all_relations,
    commutative_relation,
    congruence_to_ideal,
    enumerate_special_ideals,
    generate_ideal,
    ideal_join,
    ideal_to_congruence,
    monomial_relation,
    zero_ideal,
)
from .lattice import (
    FiniteLattice,
    LatticeError,
    build_lattice,
    lattice_properties,
    lattice_to_dot,
    lattice_to_json_dict,
    property_witnesses,
)
from .linalg import (
    PathVector,
    Subspace,
    row_reduce,
    subspace_sum,
)
from .quiver import (
    Arrow,
    CyclicQuiverError,
    Path,
    Quiver,
    QuiverError,
    QuiverParseError,
    connected_components,
    enumerate_paths,
    is_acyclic,
    max_parallel_paths,
    parse_quiver,
    path_counts,
    quiver_to_text,
    underlying_graph_is_tree,
)
from .random_quivers import random_acyclic_quiver, random_suite
from .semigroup import (
    CapExceeded,
    Congruence,
    PathSemigroup,
    build_semigroup,
    congruence_from_blocks,
    congruence_from_json,
    enumerate_congruences,
    identity_congruence,
    is_rees,
    join_congruences,
    meet_congruences,
    principal_congruence,
    universal_congruence,
)
from .verify import (
    TheoremReport,
    check_theorems,
    congruence_lattice,
    predict_properties,
)

__version__ = "0.1.0"

# The one kernel implementation (``pathcong._kernels``); benchmark records
# carry it so that runs of different kernels are never compared.
KERNEL_BACKEND = "pure"
