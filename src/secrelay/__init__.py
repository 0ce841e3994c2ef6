"""Secrecy performance toolkit for large-antenna AF/DF relay links.

Closed-form secrecy outage capacity and interception probability under
imperfect CSI, a Monte Carlo channel simulator that validates them, and
scheme-selection / relay-power optimization on top.
"""
from .analytic import (
    AsymptoticLimit,
    Regime,
    Scheme,
    SchemeReport,
    asymptotic_limit,
    eavesdropper_cdf_af,
    interception_probability_af,
    interception_probability_df,
    legit_capacity_af,
    legit_capacity_df,
    scheme_report,
    secrecy_outage_capacity_af,
    secrecy_outage_capacity_df,
)
from .decision import (
    ComparisonVerdict,
    Criterion,
    NoOptimumError,
    RelayPowerOptimum,
    compare_schemes,
    find_switching_point,
    optimal_relay_power,
)
from .montecarlo import (
    InsufficientSampleError,
    McEstimate,
    SecrecyEstimates,
    empirical_quantile,
    estimate,
    estimate_schemes,
)
from .params import ParameterError, SystemParams, from_decibel, validate
from .sweep import (
    ConfigError,
    SweepSpec,
    emit_report,
    parse_config,
    preset_specs,
    run_sweep,
)

__version__ = "0.1.0"
