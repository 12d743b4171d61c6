"""passivenet: composition toolkit for passive linear dynamical systems."""

__version__ = "0.1.0"

from .core import (  # noqa: F401
    DiscreteSystem,
    StateSpaceSystem,
    cascade_product,
    io_equivalent,
    minimality,
    parallel_sum,
    scalar_multiple,
    similarity,
    system_from_json,
    system_to_json,
    transfer_function,
)
from .passivity import (  # noqa: F401
    PassivityCertificate,
    discrete_impedance_certificate,
    discrete_scattering_certificate,
    impedance_certificate,
    impedance_violation_bands,
    properly_impedance_passive,
    scattering_conservative_check,
    scattering_passive_via_cayley,
)
from .transforms import (  # noqa: F401
    ResistanceMatrix,
    bottom_inversion,
    chain_transform,
    external_cayley,
    full_inversion,
    hybrid_transform,
    input_flip,
    internal_cayley,
    internal_reciprocal,
    inverse_chain,
    inverse_external_cayley,
    inverse_hybrid,
    inverse_internal_cayley,
    output_flip,
    sign_reversal,
    top_inversion,
)
from .feedback import (  # noqa: F401
    WellPosednessReport,
    regularize,
    star_of_impedance_pair,
    star_product,
    star_via_chain,
    well_posedness,
)
