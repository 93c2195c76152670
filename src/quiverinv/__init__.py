"""Exact invariant classes of semistable quiver moduli.

The pieces, bottom up: quivers and dimension vectors with their Euler
pairing; weak stability conditions; wall-crossing coefficients and Lie
normalization of word sums; Chern class calculus on representation
stacks; homology classes with the two-point field operations and the
bracket on rigidified classes; and the invariant-class algorithms with
their consistency checks.  Everything is exact rational arithmetic.
"""

from .charclass import (
    ChernRing,
    chern_atom,
    chern_kclass,
    correction_top_class,
    ext_pairing_kexpr,
    monomial_basis,
    monomial_string,
    parse_monomial_string,
)
from .invariants import (
    CacheStore,
    InvariantTable,
    build_invariant_table,
    check_morphism_identity,
    check_wallcross,
    induced_pl_map,
    invariant,
    invariant_increasing,
    natural_degree,
    pair_invariant_report,
    pl_class_json,
    selftest,
    wallcross_transform,
)
from .quiver import (
    CycleError,
    DimVector,
    Edge,
    Quiver,
    QuiverMorphism,
    StructureError,
    all_decompositions,
    binarize_quiver,
    decompositions,
    edge_deletion_morphism,
    euler_form,
    frame_quiver,
    sign_epsilon,
    subvectors,
    sym_euler_form,
    unit_vector,
)
from .stability import (
    SlopeStability,
    WeakStability,
    fraction_str,
    framed_slope,
    is_increasing,
    parse_fraction,
    pullback_stability,
    reference_increasing_slope,
    slope_stability,
    trivial_stability,
)
from .vertexalg import (
    HClass,
    PlClass,
    canonical_coordinates,
    cap,
    direct_sum_pushforward,
    divided_translation,
    is_translation_image,
    kunneth,
    lie_bracket,
    merge_pushforward,
    pl_equal,
    pl_is_zero,
    state_field,
    unit_class,
    unit_pl,
    vacuum,
    weight_zero_basis,
    zero_class,
    zero_pl,
)
from .wallcoeff import (
    LieElementError,
    LieWord,
    dynkin_word,
    lie_normalize,
    s_coeff,
    u_coeff,
)

__version__ = "0.1.0"
