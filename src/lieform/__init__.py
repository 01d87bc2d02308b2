"""Exact computations with split semisimple Lie algebras over small
coefficient rings: root systems, integral structure constants, Killing
and trace forms, Casimir elements, derivations, low-degree cohomology
with automorphism lifting, and weight-module decompositions at a prime.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .rings import (Integers, Rationals, PrimeField, IntegersModPk,
                    LocalizedAtP, DualNumbers, ZZ, QQ, Scalar,
                    LieformError, RingError, RingMismatch, UnsupportedRing, NotAUnit,
                    NoCanonicalMorphism, NonIntegralDenominator,
                    convert_raw, is_prime, pvaluation,
                    format_rational, parse_rational)
from .matrices import (Matrix, DimensionMismatch, Singular, NotASubspace,
                       rank, solve_linear, kernel, inverse, det, saturate)
from .roots import (DynkinType, InvalidRank, RootSystem, PTypeReport,
                    cartan_matrix, build_root_system, center_order,
                    classify_p_type)
from .chevalley import (ChevalleyPresentation, MatrixRealization, NotClassical,
                        chevalley_presentation, matrix_realization,
                        verify_jacobi, chevalley_involution,
                        torus_automorphism, triple_flip)
from .liealg import (LieAlgebra, BilinearForm, CasimirTensor, NotPerfect,
                     killing_form, trace_form, is_perfect, form_kernel,
                     center_basis, derivation_algebra, casimir,
                     casimir_operator, apply_endo_to_casimir, base_change,
                     is_lie_automorphism)
from .classify import (PerfectnessVerdict, KernelWitness, NoConstantRatio,
                       predict_perfect, oracle_perfect, verdict_with_oracle,
                       integral_killing_gram, ratio_check, EXPECTED_RATIO,
                       b_series_kernel_witness)
from .cohomology import (CochainComplex, DimensionTooLarge, NotACocycle,
                         NotAutomorphism, SquareZeroExtension, ce_complex,
                         cohomology_dim, solve_coboundary,
                         square_zero_extension, lift_automorphism)
from .sl2 import (WeightedModule, DecompositionResult, OutOfRange,
                  HypothesisNotMet, ActionMissing, NotNilpotentEnough,
                  SchemaError, weighted_module, chain_from_highest,
                  counterexample_module, direct_sum, conjugate,
                  lattice_closed_under_action, extend_torus, exp_nilpotent,
                  weight_scaling, module_to_json, module_from_json)

__all__ = [name for name in dir() if not name.startswith("_")]
