"""Deterministic hermetic embeddings + semantic node merge.

The reference's semantic pipeline embeds node texts with the OpenAI API
(reference: src/openparse/processing/semantic_transforms.py:20-68) and merges
adjacent similar nodes in a fixed-point loop (semantic_transforms.py:71-124).
This engine has no network, so the default embedder is a deterministic
hashed-n-gram model: same text → same vector, across processes and
parallelism levels. The merge loop semantics (sort, adjacent-pair cosine,
token-sum cap, repeat until no change) are preserved exactly.
"""

from __future__ import annotations

import hashlib
from typing import List, Sequence

import numpy as np

from open_parse_ray.functions.transforms import ProcessingStep
from open_parse_ray.model import Node

DEFAULT_DIM = 64


class _TokenHashes(dict):
    """token → md5-derived 64-bit feature hash, filled on first lookup
    (vocabulary-bounded; the fixed-point merge loop re-embeds every node
    text each round, so uncached hashing dominated the semantic stage).
    A hit is one C-level ``dict`` subscript; cleared when full."""

    CAP = 1_000_000

    def __missing__(self, token: str) -> int:
        if len(self) >= self.CAP:
            self.clear()
        h = int.from_bytes(
            hashlib.md5(token.encode("utf-8", "ignore")).digest()[:8], "little"
        )
        self[token] = h
        return h


_TOKEN_HASH_CACHE = _TokenHashes()


class HashedNGramEmbeddings:
    """Deterministic local embedding model.

    Words and word-bigrams are hashed into ``dim`` buckets with a signed
    hashing trick, then L2-normalized — the standard feature-hashing text
    embedding. Stateless apart from the dim, so it is safe to construct in
    every actor's ``__init__``.
    """

    def __init__(self, dim: int = DEFAULT_DIM, batch_size: int = 256):
        self.dim = dim
        self.batch_size = batch_size  # parity with reference batching knob
        # text → vector cache: the fixed-point merge loop re-embeds every
        # surviving node text each round; only merged texts are new
        self._vec_cache: dict = {}
        self._vec_cache_cap = 50_000

    def _embed_uncached(self, text: str) -> np.ndarray:
        """Signed feature-hash counts of the words and word bigrams,
        L2-normalized. ``np.bincount`` adds the ±1.0 weights bucket by
        bucket in feature order, the same float64 additions a per-feature
        ``vec[h % dim] += sign`` loop makes; every partial sum is an
        integer far below 2**53, so each add is exact and the counts are
        bitwise equal to that loop's whatever the order. Pinned by
        tests/test_robustness.py::test_embed_bincount_equals_per_feature_loop."""
        words = text.lower().split()
        feats = words + [f"{a}_{b}" for a, b in zip(words, words[1:])]
        if not feats:
            return np.zeros(self.dim, dtype=np.float64)
        hashes = _TOKEN_HASH_CACHE
        h = np.array([hashes[f] for f in feats], dtype=np.uint64)
        vec = np.bincount(
            (h % np.uint64(self.dim)).astype(np.intp),
            weights=np.where(h >> np.uint64(63), -1.0, 1.0),
            minlength=self.dim,
        )
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec /= norm
        return vec

    def embed_normed(self, text: str):
        """(vector, its ``np.linalg.norm``) of ``text``, both cached; the
        zero vector (norm 0.0) for a text without words."""
        hit = self._vec_cache.get(text)
        if hit is None:
            if len(self._vec_cache) >= self._vec_cache_cap:
                self._vec_cache.clear()
            vec = self._embed_uncached(text)
            hit = (vec, np.linalg.norm(vec))
            self._vec_cache[text] = hit
        return hit

    def embed(self, text: str) -> np.ndarray:
        return self.embed_normed(text)[0]

    def embed_many(self, texts: Sequence[str]) -> List[List[float]]:
        """Zero vector for empty texts (reference: semantic_transforms.py:40-59)."""
        return [self.embed(t).tolist() for t in texts]


class CombineNodesSemantically(ProcessingStep):
    """Fixed-point adjacent merge by cosine similarity
    (reference: semantic_transforms.py:71-112).

    The similarity is the reference's ``np.dot(a, b) / (norm(a) *
    norm(b))`` over the client's cached float64 vectors and norms
    (``embed_normed``), the same values the reference's list round trip
    gives. A zero vector gives nan (0/0), and nan >= threshold is False,
    so an empty node never merges; the warning is silenced once per call.
    A merged node keeps its left neighbour's vector until the next round,
    as in the reference."""

    def __init__(self, embedding_client, min_similarity: float, max_tokens: int):
        self.embedding_client = embedding_client
        self.min_similarity = min_similarity
        self.max_tokens = max_tokens

    def process(self, nodes: List[Node]) -> List[Node]:
        embed = self.embedding_client.embed_normed
        nodes = list(nodes)
        modified = True
        with np.errstate(invalid="ignore", divide="ignore"):
            while modified:
                modified = False
                nodes = sorted(nodes)
                embeddings = [embed(n.text) for n in nodes]
                i = 0
                while i < len(nodes) - 1:
                    (a, na), (b, nb) = embeddings[i], embeddings[i + 1]
                    if (
                        np.dot(a, b) / (na * nb) >= self.min_similarity
                        and nodes[i].tokens + nodes[i + 1].tokens <= self.max_tokens
                    ):
                        nodes[i] = nodes[i] + nodes[i + 1]
                        del nodes[i + 1]
                        del embeddings[i + 1]
                        modified = True
                        continue
                    i += 1
        return nodes


def make_semantic_pipeline(
    min_tokens: int = 256,
    max_tokens: int = 1024,
    dim: int = DEFAULT_DIM,
):
    """The reference's SemanticIngestionPipeline chain with exact parameters
    (reference: ingest.py:95-136), using the hermetic embedder."""
    from open_parse_ray.functions.transforms import (
        CombineBullets,
        CombineHeadingsWithClosestText,
        CombineNodesSpatially,
        CombineSlicedImages,
        IngestionPipeline,
        RemoveFullPageStubs,
        RemoveMetadataElements,
        RemoveNodesBelowNTokens,
        RemoveRepeatedElements,
        RemoveTextInsideTables,
    )

    client = HashedNGramEmbeddings(dim=dim)
    return IngestionPipeline(
        [
            RemoveTextInsideTables(),
            CombineSlicedImages(),
            RemoveFullPageStubs(max_area_pct=0.35),
            CombineNodesSpatially(
                x_error_margin=10, y_error_margin=2, criteria="both_small"
            ),
            CombineHeadingsWithClosestText(),
            CombineBullets(),
            RemoveMetadataElements(),
            RemoveRepeatedElements(threshold=2),
            RemoveNodesBelowNTokens(min_tokens=10),
            CombineBullets(),
            CombineNodesSemantically(
                embedding_client=client, min_similarity=0.6, max_tokens=max_tokens // 2
            ),
            CombineNodesSemantically(
                embedding_client=client, min_similarity=0.55, max_tokens=max_tokens
            ),
            RemoveNodesBelowNTokens(min_tokens=min_tokens),
        ]
    )
