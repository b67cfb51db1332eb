"""Flagship pipeline: pages → elements → transform chain → nodes/docs tables.

The reference's ``DocumentParser.parse`` (reference: src/openparse/
doc_parser.py:83-126) is a single-process per-file loop; here the same
per-document kernel runs inside ``map_batches`` over zero-copy Arrow
batches of a streaming ``ray.data.Dataset``. Per-row try/except converts
poison documents into ``status``/``error`` columns instead of failing the
block (at 10^12 rows a single bad doc must not kill a task — the reference
aborts, we must not). Node ids are deterministic hashes of (url, index):
the reference's uuid4 ids (schemas.py:428-432) would break byte-identical
replay and resume.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional

import pyarrow as pa

from open_parse_ray.functions.embed import make_semantic_pipeline
from open_parse_ray.functions.html import html_to_elements
from open_parse_ray.functions.transforms import (
    BasicIngestionPipeline,
    IngestionPipeline,
    NoOpIngestionPipeline,
)
from open_parse_ray.model import Node

DOC_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("status", pa.string()),
        ("error", pa.string()),
        ("n_nodes", pa.int32()),
        ("n_pages", pa.int32()),
        ("total_tokens", pa.int64()),
        ("node_texts", pa.list_(pa.string())),
        ("extracted_text", pa.string()),
    ]
)

NODE_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("node_idx", pa.int32()),
        ("node_id", pa.string()),
        ("status", pa.string()),
        ("error", pa.string()),
        ("variants", pa.list_(pa.string())),
        ("text", pa.string()),
        ("tokens", pa.int64()),
        ("start_page", pa.int32()),
        ("end_page", pa.int32()),
        ("n_elements", pa.int32()),
        (
            "bbox",
            pa.list_(
                pa.struct(
                    [
                        ("page", pa.int32()),
                        ("page_height", pa.float64()),
                        ("page_width", pa.float64()),
                        ("x0", pa.float64()),
                        ("y0", pa.float64()),
                        ("x1", pa.float64()),
                        ("y1", pa.float64()),
                    ]
                )
            ),
        ),
    ]
)


LINKED_NODE_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("doc_id", pa.string()),
        ("node_idx", pa.int32()),
        ("node_id", pa.string()),
        ("status", pa.string()),
        ("error", pa.string()),
        ("text", pa.string()),
        ("tokens", pa.int64()),
        ("prev_id", pa.string()),
        ("next_id", pa.string()),
        ("parent_id", pa.string()),
    ]
)


def make_pipeline(name: str) -> IngestionPipeline:
    if name == "basic":
        return BasicIngestionPipeline()
    if name == "noop":
        return NoOpIngestionPipeline()
    if name == "semantic":
        return make_semantic_pipeline()
    raise ValueError(f"unknown pipeline {name!r}")


def node_id(url: str, idx: int) -> str:
    """First 64 bits of sha1("url:idx"). Collision bound: any two of n
    ids coincide with probability ≈ n²/2⁶⁵ (≈2.7% at 10⁹ nodes), so
    past ~10⁸ nodes key corpus-wide joins on (url, node_idx) instead."""
    return hashlib.sha1(f"{url}:{idx}".encode()).hexdigest()[:16]


def parse_page(html, pipeline: Optional[IngestionPipeline] = None) -> List[Node]:
    """Single-document pure-python kernel: HTML → processed node list.

    This is the oracle the Ray pipeline must match byte-for-byte per url
    (pytest gate in tests/test_pipeline_identity.py).
    """
    if pipeline is None:
        pipeline = BasicIngestionPipeline()
    elements = html_to_elements(html)
    nodes = [Node(elements=(e,)) for e in elements]
    return pipeline.run(nodes)


def doc_row(url: str, nodes: List[Node]) -> Dict:
    node_texts = [n.text for n in nodes]
    return {
        "url": url,
        "status": "ok",
        "error": "",
        "n_nodes": len(nodes),
        "n_pages": (max((n.end_page for n in nodes), default=-1) + 1),
        "total_tokens": sum(n.tokens for n in nodes),
        "node_texts": node_texts,
        "extracted_text": "\n\n".join(node_texts),
    }


def node_rows(url: str, nodes: List[Node]) -> List[Dict]:
    return [
        {
            "url": url,
            "node_idx": idx,
            "node_id": node_id(url, idx),
            "status": "ok",
            "error": "",
            "variants": sorted(n.variant),
            "text": n.text,
            "tokens": n.tokens,
            "start_page": n.start_page,
            "end_page": n.end_page,
            "n_elements": len(n.elements),
            "bbox": [
                {
                    "page": b.page,
                    "page_height": b.page_height,
                    "page_width": b.page_width,
                    "x0": b.x0,
                    "y0": b.y0,
                    "x1": b.x1,
                    "y1": b.y1,
                }
                for b in n.bbox
            ],
        }
        for idx, n in enumerate(nodes)
    ]


def _doc_id(url: str) -> str:
    # 64 bits, the same collision bound as node_id
    return hashlib.sha1(url.encode()).hexdigest()[:16]


def linked_node_rows(url: str, nodes: List[Node]) -> List[Dict]:
    """Nodes in reading order, each linked to its PREVIOUS/NEXT sibling
    and PARENT document — ``ParsedDocument.to_llama_index_nodes``
    (reference: src/openparse/schemas.py:707-762). The window is one
    document, so the linkage never crosses a block boundary."""
    doc_id = _doc_id(url)
    ids = [node_id(url, i) for i in range(len(nodes))]
    return [
        {
            "url": url,
            "doc_id": doc_id,
            "node_idx": i,
            "node_id": ids[i],
            "status": "ok",
            "error": "",
            "text": n.text,
            "tokens": n.tokens,
            "prev_id": ids[i - 1] if i > 0 else "",
            "next_id": ids[i + 1] if i + 1 < len(ids) else "",
            "parent_id": doc_id,
        }
        for i, n in enumerate(nodes)
    ]


def error_row(schema: pa.Schema, url: str, exc: Exception, **fields) -> Dict:
    """A poison document's one counted row in any output: empty values,
    ``status="error"``, the exception capped at 500 chars, then ``fields``."""
    row = {
        f.name: [] if pa.types.is_list(f.type) else "" if pa.types.is_string(f.type) else 0
        for f in schema
    }
    row.update(url=url, status="error", error=f"{type(exc).__name__}: {exc}"[:500])
    row.update(fields)
    return row


class _Extract:
    """map_batches kernel, the one extraction loop: per document
    ``parse_page``, then the output's row emitter ``emit``; a document
    that raises becomes ONE counted :func:`error_row` instead of failing
    the block or silently vanishing. Subclasses pick only the schema,
    the emitter and the error row's extra fields. The pipeline is built
    once per instance (per actor in an actor pool)."""

    schema: pa.Schema

    def __init__(self, pipeline: str = "basic"):
        self.pipeline = make_pipeline(pipeline)

    def error_fields(self, url: str) -> Dict:
        return {}

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = []
        for url, html in zip(batch["url"].to_pylist(), batch["html"].to_pylist()):
            try:
                rows.extend(self.emit(url, parse_page(html, self.pipeline)))
            except Exception as exc:  # poison-doc isolation, counted
                rows.append(error_row(self.schema, url, exc, **self.error_fields(url)))
        return pa.Table.from_pylist(rows, schema=self.schema)


class ExtractDocs(_Extract):
    """One doc-summary row per page (:func:`doc_row`)."""

    schema = DOC_SCHEMA

    @staticmethod
    def emit(url: str, nodes: List[Node]) -> List[Dict]:
        return [doc_row(url, nodes)]


class ExtractNodes(_Extract):
    """One row per node (:func:`node_rows`); error rows have node_idx=-1."""

    schema = NODE_SCHEMA
    emit = staticmethod(node_rows)

    def error_fields(self, url: str) -> Dict:
        return {"node_idx": -1}


class ExtractLinkedNodes(_Extract):
    """One linked node per row (:func:`linked_node_rows`)."""

    schema = LINKED_NODE_SCHEMA
    emit = staticmethod(linked_node_rows)

    def error_fields(self, url: str) -> Dict:
        doc_id = _doc_id(url)
        return {"node_idx": -1, "doc_id": doc_id, "parent_id": doc_id}


def extract(
    ds,
    pipeline: str = "basic",
    output: str = "docs",
    batch_size: int = 32,
    lang: Optional[str] = None,
):
    """Build the streaming extraction pipeline over a pages Dataset.

    Skew handling is block-granular: Ray Data caps block size
    (``DataContext.target_max_block_size``), so oversized documents
    land in blocks with few rows and get their own tasks, while
    ``batch_size`` bounds how many documents share one kernel
    invocation — a 100x document delays at most one small batch, never
    a partition. The plan reads the input once and keeps read→extract
    fused. ``lang`` applies a vectorized Arrow filter before parsing
    (prune early).
    """
    import pyarrow.compute as pc

    kernel_cls = {
        "docs": ExtractDocs,
        "nodes": ExtractNodes,
        "linked_nodes": ExtractLinkedNodes,
    }[output]

    if lang is not None:
        ds = ds.map_batches(
            lambda t, _l=lang: t.filter(pc.equal(t["lang"], _l)),
            batch_format="pyarrow",
        )
    return ds.map_batches(
        kernel_cls(pipeline), batch_size=batch_size, batch_format="pyarrow"
    )


def prepare_training_corpus(
    sf_dir_or_ds,
    lang: str = "en",
    min_tokens: int = 50,
    dedup_parts: Optional[int] = None,
):
    """The end-to-end training-data preparation pipeline this engine
    exists for — every stage streaming, in one lazy Dataset:

      pages → (lang filter at the read) → extraction (basic chain) →
      quality gate (status ok, ≥ min_tokens) → corpus-level EXACT dedup
      on the extracted text (16-byte fp shuffle, min-url survivor) →
      (url, total_tokens, n_nodes, fp).

    Composes the per-document reference semantics with the corpus-level
    scale operators; deterministic output at any parallelism (gated by
    tests/test_pipeline_identity.py::test_prepare_training_corpus_*).

    ``fp`` is md5[:16] hex = 64 bits. Collision bound: two of n distinct
    texts share an fp with probability ≈ n²/2⁶⁵ (≈2.7% at 10⁹ docs), and
    a collision silently drops the larger-url text as a duplicate.

    ``dedup_parts`` is the dedup exchange's salt width; ``None`` takes
    :func:`~open_parse_ray.stages.dedup.default_num_parts`.
    """
    import hashlib as _hashlib

    import pandas as pd

    from open_parse_ray.sources.pages import read_pages
    from open_parse_ray.stages.dedup import salted_groupby

    if hasattr(sf_dir_or_ds, "map_batches"):
        # caller-supplied Dataset: apply lang as a vectorized post-read
        # filter (we can't reach into its scan)
        docs = extract(sf_dir_or_ds, pipeline="basic", output="docs", lang=lang)
    else:
        # dir input: push the lang predicate into the parquet scan
        ds = read_pages(sf_dir_or_ds, columns=["url", "html"], lang=lang)
        docs = extract(ds, pipeline="basic", output="docs")

    def quality_gate(b: pd.DataFrame) -> pd.DataFrame:
        b = b[(b["status"] == "ok") & (b["total_tokens"] >= min_tokens)]
        fp = [
            _hashlib.md5(t.encode("utf-8")).hexdigest()[:16]
            for t in b["extracted_text"]
        ]
        return pd.DataFrame(
            {
                "url": b["url"],
                "total_tokens": b["total_tokens"].astype("int64"),
                "n_nodes": b["n_nodes"].astype("int64"),
                "fp": fp,
            }
        )

    gated = docs.map_batches(quality_gate, batch_format="pandas", batch_size=1024)

    def keep_first(part: pd.DataFrame) -> pd.DataFrame:
        # survivor = lexicographically smallest url per distinct text fp
        return part.sort_values("url").drop_duplicates("fp", keep="first")

    return salted_groupby(gated, "fp", keep_first, num_parts=dedup_parts)
