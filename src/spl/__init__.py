"""spl: a desk-scale laboratory for large prime factors of shifted primes."""

from .core_primes import (
    SieveCache,
    SpfTable,
    Factorization,
    build_sieve,
    build_spf,
    primes_in,
    primes_in_class,
    prime_count,
    prime_count_ap,
    factorize,
    greatest_prime_factor,
    mobius,
    omega,
    recip_prime_sum_ap,
)
from .shifted_counts import (
    Theta,
    TupleCount,
    threshold_test,
    large_factor_count,
    large_factor_count_fixed,
    smooth_shift_count,
    tuple_count_oracle,
    tuple_count_fast,
    count_tuples,
)
from .linear_forms import (
    ShiftSystem,
    StepCountFunction,
    make_system,
    system_from_shifts,
    local_rho,
    count_simultaneous,
    as_step_function,
    sieve_bound_value,
    local_factor_pos,
    inverse_power_prime_sum,
    abel_identity_rhs,
)
from .weighted_sums import (
    HolderDiagnostics,
    weighted_tuple_sum,
    single_weighted_sum,
    mobius_expansion_check,
    coordinate_moment,
    difference_moment,
    holder_verify,
)
from .dickman import (
    RhoTable,
    build_rho_table,
    rho,
    limiting_density,
    rho_over_t_integral,
    solve_theta1,
    solve_theta2,
)

__version__ = "0.1.0"
