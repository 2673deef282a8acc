"""Feature extraction: canonical catalog, surrogates, registry, vectors."""

from .registry import (
    BASE_FEATURES,
    SELECTED_CANONICAL,
    FeatureDef,
    FeatureRegistry,
    canonical_registry,
    reproduction_registry,
    selected_profile,
)
from .vectors import (
    FeatureMatrix,
    FeatureVector,
    StandardizationParams,
    constant_codes,
    extract_matrix,
    extract_vector,
    read_matrix,
    standardize_apply,
    standardize_fit,
    write_matrix,
)

__all__ = [
    "BASE_FEATURES",
    "SELECTED_CANONICAL",
    "FeatureDef",
    "FeatureMatrix",
    "FeatureRegistry",
    "FeatureVector",
    "StandardizationParams",
    "canonical_registry",
    "constant_codes",
    "extract_matrix",
    "extract_vector",
    "read_matrix",
    "reproduction_registry",
    "selected_profile",
    "standardize_apply",
    "standardize_fit",
    "write_matrix",
]
