"""Twisted conjugacy (Reidemeister) class enumeration and certification
for finite symplectic matrix groups over Z_m."""

from .automorphisms import (Automorphism, Character, character_twist, compose,
                            identity_automorphism, inner, ordinary_classes, sign_flip)
from .certify import (Certificate, burnside_oracle, coset_moves, growth_scan,
                      prop32_certificate, quotient_epi_check,
                      refined_split_check, semidirect_oracle,
                      shift_bijection_check, thm33_block_certificate)
from .errors import (CapacityError, IntegrityError, PreconditionError,
                     SingularMatrixError, StructuralError, UnsupportedTwistError)
from .generators import sp_order, standard_generators, transvection
from .group import FiniteGroup, Partition, generate_group, twisted_classes
from .modring import ModMatrix, canonical_key, det, is_symplectic, mat_inverse

__version__ = "0.1.0"
KERNEL_BACKEND = "numpy"  # the one kernel path; recorded with benchmark runs

__all__ = [
    "Automorphism", "CapacityError", "Certificate", "Character", "FiniteGroup",
    "IntegrityError", "KERNEL_BACKEND", "ModMatrix", "Partition",
    "PreconditionError", "SingularMatrixError", "StructuralError",
    "UnsupportedTwistError", "burnside_oracle", "canonical_key", "character_twist",
    "compose", "coset_moves", "det", "generate_group", "growth_scan",
    "identity_automorphism", "inner", "is_symplectic", "mat_inverse",
    "ordinary_classes", "prop32_certificate", "quotient_epi_check",
    "refined_split_check", "semidirect_oracle",
    "shift_bijection_check", "sign_flip", "sp_order", "standard_generators",
    "thm33_block_certificate", "transvection", "twisted_classes",
]
