"""Irreducible-spectrum cross-validation for duals of twisted group algebras.

The pipeline: build a finite group G with a subgroup H carrying a minimal
twist, verify the twist axioms exactly, decompose the dual of the twisted
group algebra into double-coset blocks, and compute every block's
irreducible spectrum by three independent routes — direct splitting, the
stabilizer-invariant subalgebra, and the projective-representation
prediction from the stabilizer 2-cocycle — then check the multisets agree
along with the supporting trace, multiplicity, and divisibility laws.
"""

from .correspondence import (Config, CosetSpectrum, Report, SymplecticConstruction,
                             TableConstruction, build_instance, f_g_map, full_report,
                             invariant_algebra_Ug, predicted_spectrum, render_json,
                             render_table)
from .dual_algebras import (GroupAction, SCAlgebra, a2_to_a1op_iso, build_A1_A2_star,
                            build_block_algebra)
from .errors import AuditError, CotwistError
from .exactlin import CycArray, cyc_rank
from .groups import (Bicharacter, DoubleCoset, FiniteGroup, Subgroup, build_elementary_abelian,
                     build_elementary_abelian_symplectic, build_semidirect,
                     character_exponents, double_cosets, stabilizer_Kg)
from .projective import TensorClass, tensor_class
from .semisimple import WedderburnSpectrum, wedderburn_dims
from .twist import (TriangularStructure, TwistAudit, TwistData, assemble_twist,
                    load_twist_matrix, make_twist, q_element_and_antipode_check,
                    save_twist_file, square_dimension_check, symplectic_twist,
                    triangular_structure, verify_twist_axioms)

__version__ = "0.1.0"

__all__ = [
    "AuditError", "Bicharacter", "Config", "CosetSpectrum", "CotwistError",
    "CycArray", "DoubleCoset", "FiniteGroup", "GroupAction", "Report", "SCAlgebra", "Subgroup",
    "SymplecticConstruction", "TableConstruction", "TensorClass", "TriangularStructure",
    "TwistAudit", "TwistData", "WedderburnSpectrum", "a2_to_a1op_iso",
    "assemble_twist", "build_A1_A2_star", "build_block_algebra",
    "build_elementary_abelian", "build_elementary_abelian_symplectic", "build_instance",
    "build_semidirect",
    "character_exponents", "cyc_rank", "double_cosets", "f_g_map",
    "full_report", "invariant_algebra_Ug", "load_twist_matrix", "make_twist",
    "predicted_spectrum", "q_element_and_antipode_check", "render_json",
    "render_table", "save_twist_file", "square_dimension_check", "stabilizer_Kg",
    "symplectic_twist", "tensor_class", "triangular_structure", "verify_twist_axioms",
    "wedderburn_dims",
]
