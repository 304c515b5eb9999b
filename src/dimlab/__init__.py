"""Cover calculus, order reduction, and staged cube embeddings on finite metric samples.

The package exports what the scripts and the benchmark call, plus the error
hierarchy; every other name is imported from its module.
"""

__version__ = "0.1.0"

from .covers import Cover, closed_shrinking, meet, order_of, star_refinement
from .dimension import reduce_order, separator_oracle
from .embedding import nobeling_embed, pair_schedule, result_from_json_bytes, result_to_json_bytes
from .errors import CertificateError, DimlabError, GeneralPositionError, InputError
from .harness import verify_nobeling_membership, verify_result
from .metric import Ball, SampledSpace, ball_cozero, complement_cozero
from .nerve import export_complex, nerve_of

__all__ = [
    "__version__",
    "Ball",
    "CertificateError",
    "Cover",
    "DimlabError",
    "GeneralPositionError",
    "InputError",
    "SampledSpace",
    "ball_cozero",
    "closed_shrinking",
    "complement_cozero",
    "export_complex",
    "meet",
    "nerve_of",
    "nobeling_embed",
    "order_of",
    "pair_schedule",
    "reduce_order",
    "result_from_json_bytes",
    "result_to_json_bytes",
    "separator_oracle",
    "star_refinement",
    "verify_nobeling_membership",
    "verify_result",
]
