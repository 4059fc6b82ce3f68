"""Exact quadratic form theory and differential symbol calculus in characteristic 2.

The package works over field towers F_{2^k}((t_1))...((t_m)) with exact
rational representatives: quadratic and Pfister forms, isotropy and Witt
decomposition, Arf/Clifford invariants, symbol sums over the dt_i/t_i
basis, symbol-length machinery, and linkage/u-invariant checks, plus a
CLI and seeded verification suites.

All values are immutable after construction and every operation is a
pure function, so values are safe to share between concurrent workers;
searches enumerate deterministically for a fixed budget and seed.
"""

from .cohomology import (
    DifferentialForm,
    Symbol,
    SymbolSum,
    basis_rewrite,
    class_trivial,
    symbol_length,
    symbol_residue,
    symbol_to_pfister,
    to_differential,
)
from .fields import (
    FieldElement,
    FieldTower,
    WpNormalForm,
    tower,
    wp,
    wp_reduce,
)
from .forms import (
    BilinearPfister,
    QuadraticForm,
    QuadraticPfister,
    normalize_presentation,
    orth_sum,
    scale,
    tensor,
)
from .invariants import (
    arf,
    clifford,
    clifford_trivial,
    e_map,
    in_iqn,
    iqn_vanishes,
)
from .linkage import (
    LinkageWitness,
    augmented_sum_index_check,
    d_invariant_estimate,
    inseparably_linked,
    lift_linkage,
    max_separable_linkage,
    pfister_pair_decompose,
    u_invariant_estimate,
)
from .parsing import (
    parse_element,
    parse_field,
    parse_form,
    parse_symbol_sum,
)
from .symlen import (
    DecompositionProof,
    class_decompose,
    splitting_slots,
    symbol_length_bound,
    two_rank_bound,
    wedge_decompose,
)
from .witt import (
    IsotropyVerdict,
    WittDecomposition,
    brute_search,
    is_hyperbolic,
    isotropy,
    verify_certificate,
    witt_decompose,
    witt_equivalent,
    witt_index,
)

__all__ = [
    "BilinearPfister",
    "DecompositionProof",
    "DifferentialForm",
    "FieldElement",
    "FieldTower",
    "IsotropyVerdict",
    "LinkageWitness",
    "QuadraticForm",
    "QuadraticPfister",
    "Symbol",
    "SymbolSum",
    "WittDecomposition",
    "WpNormalForm",
    "arf",
    "augmented_sum_index_check",
    "basis_rewrite",
    "brute_search",
    "class_decompose",
    "class_trivial",
    "clifford",
    "clifford_trivial",
    "d_invariant_estimate",
    "e_map",
    "in_iqn",
    "inseparably_linked",
    "iqn_vanishes",
    "is_hyperbolic",
    "isotropy",
    "lift_linkage",
    "max_separable_linkage",
    "normalize_presentation",
    "orth_sum",
    "parse_element",
    "parse_field",
    "parse_form",
    "parse_symbol_sum",
    "pfister_pair_decompose",
    "scale",
    "splitting_slots",
    "symbol_length",
    "symbol_length_bound",
    "symbol_residue",
    "symbol_to_pfister",
    "tensor",
    "to_differential",
    "tower",
    "two_rank_bound",
    "u_invariant_estimate",
    "verify_certificate",
    "wedge_decompose",
    "witt_decompose",
    "witt_equivalent",
    "witt_index",
    "wp",
    "wp_reduce",
]

__version__ = "0.1.0"
