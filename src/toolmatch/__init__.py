"""toolmatch: attribute-space tool selection at desk scale.

Small regression heads map precomputed visual/linguistic embeddings into a
shared 13-dimensional tool-attribute space; tools are then selected for task
scenarios by similarity ranking in that space. Includes the file formats,
deterministic synthetic data generator, evaluation metrics, and ablation
tooling needed to run the whole pipeline end to end.
"""

from toolmatch.domain import (
    ATTRIBUTE_NAMES,
    NUM_ATTRIBUTES,
    EmbeddingSet,
    MatchingTrial,
    ToolCatalog,
    ToolRecord,
)

__all__ = [
    "ATTRIBUTE_NAMES",
    "NUM_ATTRIBUTES",
    "EmbeddingSet",
    "MatchingTrial",
    "ToolCatalog",
    "ToolRecord",
]

__version__ = "0.1.0"
