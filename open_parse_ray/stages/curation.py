"""End-to-end corpus CURATION chain — the full pre-training data
preparation pass, composing this engine's operators in one flow:

    read → PII scrub → Gopher quality gate → canonical-URL dedup
         → tier extraction (exact global rank + ntile)
         → deterministic train/val/test split

Each constituent is independently SQL-oracle-checked (pii_scan,
gopher_quality_flags, url_canonical_dedup, doc_tiers,
split_assignments); the chain itself is pinned by a pytest composition
gate (chain output == composing the standalone operators locally) and
the round-3 block-structure invariance gate.

Scale shape: one streaming map computes scrub + gate + canonical key
per batch (text never leaves the task — only 8-byte ids, the canonical
string, and small ints move); a single salted exchange collapses URL
duplicates to their min-doc representative; ranking reuses
stages/ranking.global_rank (compact-pair range partition + offset
scan); the split is a stateless hash. The quality filter runs BEFORE
the exchange, so dropped docs never ship.
"""

from __future__ import annotations

import numpy as np
import pandas as pd


def curation_keyed_batch(b: pd.DataFrame) -> pd.DataFrame:
    """Phase-1 kernel (shard-local, per-batch): Gopher gate → PII scrub →
    token count → canonical URL key. Emits the COMPACT keyed projection
    (doc_id, canonical_url, n_tokens, n_pii) — ~50 B/row, no text — the
    checkpointable intermediate of SCALE.md §14. Shared verbatim by the
    one-shot query and the resumable job (state/curation_job.py), so the
    composition gate pins both."""
    from open_parse_ray.stages.analysis import (
        gopher_quality_batch,
        n_tokens_sql_semantics,
    )
    from open_parse_ray.stages.pii import scrub_text
    from open_parse_ray.stages.web import canonicalize_url, synth_messy_url

    gate = gopher_quality_batch(b)
    keep = gate["passes_gopher"].to_numpy(dtype=bool)
    ids = b["doc_id"].to_numpy(dtype=np.int64)[keep]
    texts = [t for t, k in zip(b["text"], keep) if k]
    sources = [s for s, k in zip(b["source"], keep) if k]
    n_tokens, n_pii, canon = [], [], []
    for d, t, s in zip(ids, texts, sources):
        red, n_em, n_ip = scrub_text(t)
        n_tokens.append(n_tokens_sql_semantics(red))
        n_pii.append(n_em + n_ip)
        canon.append(canonicalize_url(synth_messy_url(int(d), s)))
    return pd.DataFrame(
        {
            "doc_id": ids,
            "canonical_url": canon,
            "n_tokens": np.asarray(n_tokens, dtype=np.int64),
            "n_pii": np.asarray(n_pii, dtype=np.int64),
        }
    )


def prepare_curated_corpus(sf_dir: str, k_tiers: int = 4, train_pct: int = 80, val_pct: int = 10):
    """(doc_id, canonical_url, n_tokens, n_pii, rank, tier, split) for
    every surviving document: Gopher-passing, PII-scrubbed, URL-deduped
    (min doc_id per canonical URL), ranked into ``k_tiers`` length
    tiers, split train/val/test."""
    from open_parse_ray.stages.analysis import read_documents

    ds = read_documents(sf_dir, columns=["doc_id", "text", "source"])
    keyed = ds.map_batches(curation_keyed_batch, batch_format="pandas", batch_size=8192)
    return curate_from_keyed(keyed, k_tiers=k_tiers, train_pct=train_pct, val_pct=val_pct)


def curate_from_keyed(keyed, k_tiers: int = 4, train_pct: int = 80, val_pct: int = 10):
    """Phase 2 (global): canonical-URL dedup exchange → exact global rank
    + ntile tiers → deterministic hash split, over the keyed projection
    Dataset. 3-4 orders of magnitude smaller input than phase 1 — cheap
    enough to rerun whole from the phase-1 checkpoint on failure
    (SCALE.md §14)."""
    from open_parse_ray.stages.dedup import salted_groupby
    from open_parse_ray.stages.ranking import global_rank

    def keep_rep(part: pd.DataFrame) -> pd.DataFrame:
        return (
            part.sort_values(["canonical_url", "doc_id"])
            .groupby("canonical_url", as_index=False)
            .first()
        )

    deduped = salted_groupby(keyed, "canonical_url", keep_rep).materialize()

    ranked = global_rank(
        deduped.map_batches(
            lambda b: b[["doc_id", "n_tokens"]], batch_format="pandas", batch_size=65536
        ),
        k=k_tiers,
    )

    # re-attach canonical/pii columns via a salted co-partitioned join on
    # doc_id (both sides compact; text is long gone)
    import ray.data as rd

    def tag(side: int):
        def f(b: pd.DataFrame) -> pd.DataFrame:
            b = b.copy()
            b["_side"] = np.int64(side)
            return b

        return f

    left = deduped.map_batches(tag(0), batch_format="pandas", batch_size=65536)
    right = ranked.map_batches(
        lambda b: b[["doc_id", "rank", "tier"]].assign(_side=np.int64(1)),
        batch_format="pandas",
        batch_size=65536,
    )

    def join(part: pd.DataFrame) -> pd.DataFrame:
        # the tagged union pads each side's missing columns with nulls;
        # select per-side columns and restore exact dtypes
        l = part[part["_side"] == 0][["doc_id", "canonical_url", "n_tokens", "n_pii"]]
        r = part[part["_side"] == 1][["doc_id", "rank", "tier"]]
        m = l.merge(r, on="doc_id", how="inner")
        ids = m["doc_id"].to_numpy(dtype=np.int64).astype(np.uint64)
        bucket = (
            ((ids * np.uint64(2654435761)) % np.uint64(2**32)) % np.uint64(100)
        ).astype(np.int64)
        m["split"] = np.where(
            bucket < train_pct,
            "train",
            np.where(bucket < train_pct + val_pct, "val", "test"),
        )
        return m[
            ["doc_id", "canonical_url", "n_tokens", "n_pii", "rank", "tier", "split"]
        ].astype({"doc_id": "int64", "n_tokens": "int64", "n_pii": "int64", "rank": "int64", "tier": "int64"})

    return salted_groupby(left.union(right), "doc_id", join)
