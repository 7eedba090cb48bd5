"""channel-order: noisiness orders between finite-alphabet channels.

Decides and certifies degradation and less-noisy relations, computes the
domination regions and thresholds of q-ary symmetric channels, and transfers
logarithmic Sobolev / Dirichlet-form bounds from symmetric channels to
arbitrary doubly stochastic ones.
"""

from .channels import (
    Channel,
    Pmf,
    additive_channel,
    erasure_channel,
    point_mass,
    push_forward,
    symmetric_channel,
    symmetric_compose_param,
    symmetric_eigenvalue,
    symmetric_inverse_param,
    symmetric_matrix,
    symmetric_noise_pmf,
    uniform_pmf,
)
from .dirichlet import (
    DecayReport,
    dirichlet_domination_check,
    dirichlet_form,
    discrete_lsi_constant_symmetric,
    estimate_lsi_constant,
    kl_decay_check,
    lsi_constant_symmetric,
    lsi_functional,
    normalize_under_uniform,
    standard_dirichlet,
)
from .divergences import (
    DivergenceValue,
    chi2,
    eta_kl_bounds,
    eta_tv,
    kl,
    kl_chi2_integral_check,
    kl_chi2_local_check,
    maximal_correlation,
    shannon_entropy,
    tv_distance,
)
from .groups import (
    FiniteAbelianGroup,
    GroupTableError,
    circulant,
    cyclic_group,
    direct_product,
    group_convolve,
    group_from_json,
    permutation_matrix,
    validate_group,
)
from .preorders import (
    DivergencePairWitness,
    DominationVerdict,
    LoewnerWitness,
    SingularChannelError,
    Status,
    chi2_violation_pair,
    group_majorizes,
    is_degraded,
    is_degraded_additive,
    less_noisy_exact,
    less_noisy_sampled,
    loewner_gap,
    majorizes,
    phase_one,
    psd_check,
)
from .symdom import (
    DeltaStarResult,
    additive_degradation_delta,
    circle_radius,
    classify_noise_pmf,
    classify_noise_pmfs,
    delta_star,
    domination_factor_estimate,
    extremal_degraded_tau,
    ln_gamma_bound,
    lower_hull_member,
    min_entry_tight_channel,
    necessary_screen,
    region_label_counts,
    region_sample,
    min_entry_delta_lower,
)

__version__ = "0.1.0"
