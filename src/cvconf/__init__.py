"""Post-selected key rates for three-party CV conferencing over an untrusted relay.

The package is organised bottom-up:

- :mod:`cvconf.gaussian` — phase-space states and operations (the oracle layer);
- :mod:`cvconf.protocol` — the protocol's densities and the relay pipeline;
- :mod:`cvconf.inference` — sign posteriors and mutual information;
- :mod:`cvconf.holevo` — the eavesdropper's states and Holevo bound;
- :mod:`cvconf.rates` — Monte-Carlo and quadrature rate integrals;
- :mod:`cvconf.cli` — the command-line front end.
"""

__version__ = "0.1.0"

from .gaussian import (
    GaussianState,
    apply_beamsplitter,
    homodyne_condition,
    make_coherent_product,
    overlap_trace,
    pure_loss_tap,
)
from .holevo import (
    EveDensityMatrix,
    assemble_total_state,
    eve_overlaps,
    gram_oracle_entropy,
    single_point_holevo,
    von_neumann_entropy,
)
from .inference import (
    PosteriorTable,
    sign_posterior_table,
    single_point_mi,
)
from .protocol import (
    ProtocolParams,
    RelayResult,
    eve_conditional_means,
    mean_coefficients,
    outcome_density,
    simulate_relay,
    transmissivity_from_distance,
)
from .rates import (
    RateEstimate,
    SweepPoint,
    estimate_rates_mc,
    quadrature_cross_check,
    single_point_rate,
    sweep_distance,
)

__all__ = [
    "__version__",
    "GaussianState",
    "apply_beamsplitter",
    "homodyne_condition",
    "make_coherent_product",
    "overlap_trace",
    "pure_loss_tap",
    "ProtocolParams",
    "RelayResult",
    "transmissivity_from_distance",
    "mean_coefficients",
    "outcome_density",
    "eve_conditional_means",
    "simulate_relay",
    "PosteriorTable",
    "sign_posterior_table",
    "single_point_mi",
    "EveDensityMatrix",
    "eve_overlaps",
    "assemble_total_state",
    "von_neumann_entropy",
    "gram_oracle_entropy",
    "single_point_holevo",
    "RateEstimate",
    "SweepPoint",
    "single_point_rate",
    "estimate_rates_mc",
    "quadrature_cross_check",
    "sweep_distance",
]
