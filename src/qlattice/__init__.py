"""Exact combinatorics of the subspace lattice of F_q^n.

The library computes, in exact arithmetic, the Motzkin path attached to
every subspace via its left and right pivot sets, the symmetric Boolean
decomposition of the lattice built from primary echelon forms by inserting
inessential columns, the symmetric chain decomposition obtained from it by
bracket matching, and the q-binomial expansion identities these structures
explain.  Everything is pure and deterministic; no floating point anywhere.
"""

from .algebra import DEFAULT_MAX_Q, GF, QPoly, gf, qpoly_from_text
from .decomp import (BooleanBlock, ChainDecomposition, boolean_block,
                     bracket_chain, bracket_chains, bracket_cover, del_col,
                     del_set, gamma, gamma_inv, ins_col, ins_set, mu, mu_inv,
                     phi, phi_inv, sbd, scd, scd_cover)
from .errors import NotPrimePowerError, TooLargeError, UnsupportedFieldError
from .identities import (CensusRow, fiber_census, galois, goldman_rota_check,
                         qbinomial, verify_ds, verify_fs)
from .involution import (Involution, biane, biane_fiber, enumerate_involutions,
                         involution_count, parse_involution)
from .matspace import (DEFAULT_MAX_SIZE, Mat, Rref, enumerate_subspaces,
                       format_matrix, full_space, is_valid_rref, left_pivots,
                       parse_matrix, right_pivots, rref_left, span,
                       subspace_count, subspace_leq, zero_subspace)
from .motzkin import (MotzkinPath, down_height_product, enumerate_paths,
                      motzkin_number, weight_sums_by_downs)
from .psi import (ColumnClass, PivotData, classify_column, classify_columns,
                  is_primary, path_from_classification, pivot_data, psi,
                  section, section_rank, section_ranks, set_and_subset)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_MAX_Q", "DEFAULT_MAX_SIZE", "GF", "QPoly", "gf",
    "qpoly_from_text", "NotPrimePowerError", "TooLargeError",
    "UnsupportedFieldError", "Mat", "Rref", "rref_left", "span",
    "zero_subspace", "full_space", "left_pivots", "right_pivots",
    "subspace_leq", "subspace_count", "enumerate_subspaces", "is_valid_rref",
    "parse_matrix", "format_matrix", "MotzkinPath", "enumerate_paths",
    "motzkin_number", "down_height_product", "weight_sums_by_downs",
    "Involution", "parse_involution", "enumerate_involutions",
    "involution_count", "biane", "biane_fiber", "ColumnClass", "section",
    "section_rank", "section_ranks", "classify_column", "classify_columns",
    "psi", "path_from_classification", "PivotData", "pivot_data", "is_primary",
    "set_and_subset", "mu", "mu_inv", "phi", "phi_inv", "gamma", "gamma_inv",
    "del_col", "ins_col", "del_set", "ins_set", "BooleanBlock",
    "boolean_block", "sbd", "bracket_cover", "bracket_chain", "bracket_chains",
    "scd_cover", "ChainDecomposition", "scd", "qbinomial", "galois",
    "goldman_rota_check", "verify_fs", "verify_ds", "CensusRow",
    "fiber_census",
]
