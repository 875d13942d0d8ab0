"""Exact cohomology and central extensions of finite linear cycle sets.

A linear cycle set is an abelian group with a second binary operation
whose left translations are bijective and interact with the addition
through a cyclic identity; they are the same data as braces.  This
package computes reduced and full (co)homology of such structures with
finite abelian coefficients, exactly, by sparse elimination over Z/p^e,
and builds, checks, compares and classifies the central extensions that
degree-2 cocycles encode.  The `lcscohom` command line exposes the same
operations on JSON files.
"""

from .abelian import (
    FiniteAbelianGroup,
    merge_invariants,
    parse_group_spec,
    render_invariants,
)
from .bicomplex import (
    bicomplex_identity_check,
    column_matches_trivial_reduced,
    dh_matrix,
    dv_matrix,
    full_cohomology,
    row_matches_reduced,
)
from .corpus import builtin_structure, enumerate_braces, enumerate_lcs, trivial_lcs
from .errors import (
    BudgetError,
    CocycleError,
    DegreeError,
    LatticeError,
    LcsError,
    LinearityError,
    MalformedTableError,
    MorphismError,
    ParameterError,
    SectionError,
    ShapeError,
    StructureValidationError,
    UnknownStructureError,
    UnsupportedCoefficientsError,
)
from .extensions import (
    ExtensionTriple,
    FullTwoCocycle,
    ReducedTwoCocycle,
    additive_section,
    build_brace_extension,
    build_extension_full,
    build_extension_reduced,
    classify_extensions,
    cocycles_cohomologous,
    extension_from_dict,
    extension_to_dict,
    extensions_equivalent,
    extract_cocycle,
    is_full_2cocycle,
    is_reduced_2cocycle,
    normalized_section,
    translate_to_brace_pair,
    translate_to_lcs_pair,
    two_cocycle_from_dict,
    two_cocycle_to_dict,
    validate_extension_triple,
)
from .reduced import (
    antisymmetrization_is_chain_map,
    cs_cohomology,
    cs_cocycle_group,
    reduced_cohomology,
    reduced_homology,
)
from .structures import (
    Brace,
    LinearCycleSet,
    brace_to_lcs,
    lcs_to_brace,
    load_structure,
    save_structure,
    structure_from_dict,
    structure_to_dict,
    validate_brace,
    validate_lcs,
)
from .verify import verify_paper

__version__ = "0.1.0"
