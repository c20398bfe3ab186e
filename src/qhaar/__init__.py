"""qhaar: exact Haar state values and Gram matrices on quantized unitary groups."""

from .scalars import (LaurentPoly, QRational, ZERO, ONE, qq, q_number,
                      q_factorial, q_binomial, q_multinomial, poch,
                      evaluate_numeric)
from .algebra import (AlgebraElement, TensorElement, LETTERS, comultiply,
                      counit, quantum_minor, quantum_determinant,
                      quantum_determinant_power, antipode, star, minor_star,
                      apply_morphism, counting_matrix, stochastic_order,
                      is_order_m, pseudo_word, lift_det, equal_mod_det,
                      inversions)
from .actions import act, minor_action
from .haar import (haar_ref, haar_ref_recursive, haar_pseudo, haar_order1,
                   haar_state, haar_ratio_general_n)
from .linsys import (enumerate_Bnm, detq_power_expand, build_system,
                     solve_system, source_matrix_solve, HaarLinearSystem,
                     FeasibilityError)
from .corep import (Tableau, BasisVector, GramMatrix, EmptyWeightSpaceError,
                    enumerate_ssyt, tableau_to_vector, vector_to_element,
                    weight_space, contents, gram_entry_closed,
                    gram_entry_direct, gram_matrix, gram_schmidt,
                    quantum_dimension, matrix_coeff_norm)
from .verify import (IdentityReport, check_S_sum, check_prop_5_3,
                     check_paper_computations)

__all__ = [
    "LaurentPoly", "QRational", "ZERO", "ONE", "qq",
    "q_number", "q_factorial", "q_binomial", "q_multinomial",
    "poch", "evaluate_numeric",
    "AlgebraElement", "TensorElement", "LETTERS", "comultiply", "counit",
    "quantum_minor", "quantum_determinant", "quantum_determinant_power",
    "antipode", "star", "minor_star", "apply_morphism", "counting_matrix",
    "stochastic_order", "is_order_m", "pseudo_word", "lift_det",
    "equal_mod_det", "inversions",
    "act", "minor_action",
    "haar_ref", "haar_ref_recursive", "haar_pseudo", "haar_order1",
    "haar_state", "haar_ratio_general_n",
    "enumerate_Bnm", "detq_power_expand", "build_system", "solve_system",
    "source_matrix_solve", "HaarLinearSystem", "FeasibilityError",
    "Tableau", "BasisVector", "GramMatrix", "EmptyWeightSpaceError",
    "enumerate_ssyt", "tableau_to_vector", "vector_to_element",
    "weight_space", "contents",
    "gram_entry_closed", "gram_entry_direct", "gram_matrix",
    "gram_schmidt", "quantum_dimension", "matrix_coeff_norm",
    "IdentityReport", "check_S_sum", "check_prop_5_3",
    "check_paper_computations",
]
