"""Exact q,t-Macdonald polynomial toolkit.

Nonsymmetric Macdonald polynomials, interpolation Macdonald polynomials,
generalized q,t-binomial coefficients and Pieri-type branching coefficients,
all in exact rational-function arithmetic with brute-force cross-checks.
"""

from .scalar import (
    GENERIC,
    AlgebraError,
    ScalarContext,
    SpecializationError,
    specialized,
    subst_t_power,
)
from .algebra import ZPolynomial, divided_difference, elementary_symmetric
from .comb import (
    Composition,
    c_I_apply,
    chi_r,
    compositions,
    compositions_up_to,
    hook_products,
    is_successor,
    leg_colength_vector,
    n_stat,
    one_step,
    sorting_permutation,
    spectral_vector,
    successor_test,
    successors_layered,
)
from .emac import (
    generate_E,
    norm_N,
    psi_coefficient,
    symmetrize_P,
)
from .istar import (
    binomial_direct,
    binomial_recursive,
    extra_vanishing_test,
    generate_Estar,
    principal_value,
    spectral_evaluate,
    vanishing_solve_oracle,
)
from .pieri import (
    ExpansionTable,
    duality_transfer,
    interpolation_expansion,
    pieri_homogeneous,
    pieri_r1_closed,
    pieri_r1_product_form,
    product_expand_oracle,
)
from .ctnorm import (
    ct_inner_product,
    specialized_weight,
)

__version__ = "0.1.0"
