"""Training-sequence packing: the distributed PREFIX-SCAN primitive.

Pretraining data loaders concatenate documents in a fixed order and cut
the token stream into fixed-length sequences; each document therefore
needs its GLOBAL token offset — a running sum over 10^12 rows, which no
``groupby`` expresses. This module implements the classic two-phase
distributed scan:

1. bucket partial sums: ``bucket = doc_id // bucket_size`` →
   per-batch partial (bucket, sum) rows → tiny combine (cardinality =
   n_docs / bucket_size, NOT n_docs);
2. the driver cumsums the bucket totals (bounded: at 10^12 docs and
   bucket_size 4096 that is ~2.4e8 int pairs — shard the bucket table
   and recurse the same scan if that ever outgrows one machine) and
   broadcasts the per-bucket base offsets via ``ray.put``;
3. a salted shuffle co-locates each bucket's rows; inside a partition
   one vectorized sort + exclusive cumsum adds the base offset.

Everything is integer-exact, so the DuckDB window-function oracle
(``SUM(...) OVER (ORDER BY doc_id)``) hash-matches bit for bit.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from open_parse_ray.sources.tables import table_path


def scan_pack(tok, seq_len: int, bucket_size: int, order_cols=("key",)):
    """Generic distributed prefix scan over a Dataset with columns
    (key:int64 bucket-ordering key, n_tokens:int64, ...): adds
    global_offset / start_seq / end_seq / start_pos. Stream order =
    ascending ``order_cols`` (the first must be ``key``; extra columns
    break ties deterministically). See module docstring for the
    three-phase shape."""
    import ray

    from open_parse_ray.stages.dedup import salted_groupby
    from open_parse_ray.stages.relational import _arrow_group_aggs, two_phase_agg

    def add_bucket(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["bucket"] = b["key"].to_numpy(dtype=np.int64) // bucket_size
        return b

    tok = tok.map_batches(add_bucket, batch_format="pandas", batch_size=8192)

    def partial(t: "pa.Table") -> "pa.Table":
        return _arrow_group_aggs(
            {"bucket": t.column("bucket")},
            {"s": ("sum", t.column("n_tokens").to_numpy())},
            t.num_rows,
        )

    bucket_sums = two_phase_agg(
        tok.map_batches(partial, batch_format="pyarrow", batch_size=8192),
        ["bucket"],
        {"s": "sum"},
    ).to_pandas()

    bucket_sums = bucket_sums.sort_values("bucket").reset_index(drop=True)
    bases = (
        np.concatenate(([0], np.cumsum(bucket_sums["s"].to_numpy(dtype=np.int64))[:-1]))
        if len(bucket_sums)
        else np.array([], dtype=np.int64)
    )
    base_of = dict(zip(bucket_sums["bucket"].astype(np.int64), bases.astype(np.int64)))
    base_ref = ray.put(base_of)
    order_cols = list(order_cols)

    def assign(part: pd.DataFrame) -> pd.DataFrame:
        bases_local = ray.get(base_ref)
        g = part.sort_values(order_cols).reset_index(drop=True)
        n = g["n_tokens"].to_numpy(dtype=np.int64)
        buckets = g["bucket"].to_numpy(dtype=np.int64)
        cs = np.concatenate(([0], np.cumsum(n)[:-1]))
        starts = np.flatnonzero(
            np.concatenate(([True], buckets[1:] != buckets[:-1]))
        )
        seg_base = np.repeat(cs[starts], np.diff(np.append(starts, len(n))))
        within = cs - seg_base
        base = np.array([bases_local[b] for b in buckets], dtype=np.int64)
        off = base + within
        end = off + np.maximum(n - 1, 0)
        out = g.drop(columns=["bucket"])
        out["global_offset"] = off
        out["start_seq"] = off // seq_len
        out["end_seq"] = end // seq_len
        out["start_pos"] = off % seq_len
        return out

    return salted_groupby(tok, "bucket", assign)


def pack_offsets(sf_dir: str, seq_len: int = 512, bucket_size: int = 4096):
    """Per-document global token offsets + packed-sequence assignment
    over the documents table, stream-ordered by doc_id (the
    concat-then-chunk pretraining loader layout). Returns (doc_id,
    n_tokens, global_offset, start_seq, end_seq, start_pos); DuckDB
    window-cumsum oracle hash-matches bit for bit."""
    import ray.data as rd

    from open_parse_ray.stages.analysis import n_tokens_sql_semantics

    ds = rd.read_parquet(table_path(sf_dir, "documents"), columns=["doc_id", "text"])

    def tokens(b: pd.DataFrame) -> pd.DataFrame:
        ids = b["doc_id"].to_numpy(dtype=np.int64)
        return pd.DataFrame(
            {
                "key": ids,
                "doc_id": ids,
                "n_tokens": np.asarray(
                    [n_tokens_sql_semantics(t) for t in b["text"]], dtype=np.int64
                ),
            }
        )

    tok = ds.map_batches(tokens, batch_format="pandas", batch_size=8192)
    out = scan_pack(tok, seq_len, bucket_size)
    return out.select_columns(
        ["doc_id", "n_tokens", "global_offset", "start_seq", "end_seq", "start_pos"]
    )


def prepare_training_sequences(
    sf_dir: str, lang: str = "en", min_tokens: int = 50, seq_len: int = 512
):
    """The COMPLETE training-data chain, one streaming plan end to end:

      pages → extraction (reference node semantics) → quality gate
      (ok + ≥ min_tokens) → exact corpus dedup (min-url survivor per
      text fingerprint) → distributed prefix scan → packed-sequence
      layout.

    Documents are stream-ordered by (md5(url) int64, url) — content-
    addressed, deterministic at any parallelism, and uniformly spread
    across scan buckets regardless of url skew. Returns (url,
    total_tokens, global_offset, start_seq, end_seq, start_pos).
    Components are individually oracle/pytest-gated; the composition is
    gated by an exclusive-cumsum identity test."""
    import hashlib

    from open_parse_ray.pipelines.extraction import prepare_training_corpus

    corpus = prepare_training_corpus(sf_dir, lang=lang, min_tokens=min_tokens)

    def keyed(b: pd.DataFrame) -> pd.DataFrame:
        keys = np.array(
            [
                int.from_bytes(
                    hashlib.md5(u.encode()).digest()[:8], "big", signed=True
                )
                >> 20  # keep ~2^43 distinct buckets/key space, positive skew-free
                for u in b["url"]
            ],
            dtype=np.int64,
        )
        return pd.DataFrame(
            {
                "key": keys,
                "url": b["url"],
                "n_tokens": b["total_tokens"].to_numpy(dtype=np.int64),
            }
        )

    tok = corpus.map_batches(keyed, batch_format="pandas", batch_size=4096)
    out = scan_pack(tok, seq_len, bucket_size=1 << 30, order_cols=("key", "url"))

    def project(b: pd.DataFrame) -> pd.DataFrame:
        b = b.rename(columns={"n_tokens": "total_tokens"})
        return b[
            ["url", "total_tokens", "global_offset", "start_seq", "end_seq", "start_pos"]
        ]

    return out.map_batches(project, batch_format="pandas", batch_size=8192)
