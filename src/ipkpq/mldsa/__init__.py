"""FIPS 204 ML-DSA with a seed-component key-generation entry point."""

from .core import (
    decode_rho,
    expand_keygen_seed,
    keygen,
    keygen_from_components,
    level_for_pk,
    level_for_sk,
    sign,
    verify,
)
from .params import L44, L65, L87, LEVEL_BY_CATEGORY, LEVELS, MlDsaLevel

__all__ = [
    "L44",
    "L65",
    "L87",
    "LEVELS",
    "LEVEL_BY_CATEGORY",
    "MlDsaLevel",
    "decode_rho",
    "expand_keygen_seed",
    "keygen",
    "keygen_from_components",
    "level_for_pk",
    "level_for_sk",
    "sign",
    "verify",
]
