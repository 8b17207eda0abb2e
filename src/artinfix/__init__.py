"""
artinfix: fixed subgroups of graph-and-inversion automorphisms of large-type
Artin groups, with machine-checked certificates.

The package computes, for an automorphism built from inner automorphisms,
label-preserving graph automorphisms, and the global inversion, the
isomorphism type of its fixed subgroup together with explicit generators and
per-generator fixedness certificates.  Equality of words is exact on
two-generator fragments, through Garside normal forms; the Britton and
amalgam normal forms serve their tree geometry.  Elsewhere equality is
budgeted, and whenever a budget runs out the answer is an explicit UNKNOWN,
never a guess.
"""

from .classifier import (
    centralizer_case,
    classify,
    classify_elliptic,
    classify_hyperbolic,
    ellipticity,
    normalize_aut,
    rank_bound,
    reduce_isogredience,
    twisted_z,
    verify_report,
)
from .deligne import (
    build_ball,
    compatibility_probe,
    displacement_field,
    fixed_vertices,
    simplex_shape,
    standard_tree_ball,
)
from .dihedral import (
    brute_fixed,
    convert,
    delta_word,
    dihedral_centralizer,
    dihedral_fix,
    edge_graph,
    garside_nf,
    is_finite_order,
    outer_class,
    tree_fixed_set,
)
from .oracle import is_fixed, member_of_parabolic, word_equal
from .presentation import (
    DefiningGraph,
    GraphError,
    gamma_a_odd,
    graph_automorphisms,
    parse_graph,
    pi1_basis,
    sigma_data,
    validate_graph,
)
from .report import FixClass, FixReport
from .words import (
    ArtinAutomorphism,
    abelianization_vector,
    format_word,
    free_reduce,
    height,
    parse_automorphism,
    parse_word,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
