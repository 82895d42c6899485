"""Exact leakage analysis of k-ary randomized response and shuffling.

Models per-record randomized response and uniform shuffling as
information-theoretic channels, composes them, and computes prior and
posterior g-vulnerability and leakage, both by formula and by brute
force.
"""

from .channels import (
    CanonicalChannel,
    CapExceededError,
    CascadeTypeError,
    Channel,
    DEFAULT_CAP,
    build_krr,
    build_krr_reduced,
    build_last_record_reporter,
    build_parity_masked_reporter,
    build_shuffle_full,
    build_shuffle_reduced,
    canonicalize,
    cascade,
    enumerate_datasets,
    enumerate_histograms,
    equivalent,
    histogram_of,
    identity_channel,
    verify_dp_adjacent,
    verify_ldp,
)
from .closed_forms import (
    ApproxValue,
    MECHANISMS,
    posterior_for,
    posterior_sweep,
    scaled_max_load,
    scaled_max_load_via_multinomials,
    v_approx_ns,
    v_approx_shuffle,
    v_post_krr,
    v_post_ns_binary_fast,
    v_post_ns_binary_sum,
    v_post_ns_general,
    v_post_shuffle_binary_fast,
    v_post_shuffle_binary_sum,
    v_post_shuffle_general,
)
from .combinatorics import (
    binomial,
    epsilon_to_p,
    krr_histogram_transition,
    log_multinomial,
    multinomial,
    p_to_epsilon,
    partition_terms,
    partitions,
)
from .oracle import ORACLE_CAP, oracle_histogram_transition, oracle_posterior
from .scalars import FLOAT_TOL, Scalar
from .vulnerability import (
    AboScenario,
    GainFunction,
    Prior,
    abo_posterior,
    canonical_posterior_vulnerability,
    leakage,
    posterior_vulnerability,
    prior_vulnerability,
    single_target_gain,
)

__version__ = "0.1.0"
