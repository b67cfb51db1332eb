"""Similarity search over the ``embeddings`` table.

- Brute-force cosine top-k: the query matrix is broadcast with ``ray.put``
  once; every batch does one numpy matmul against it and emits only its
  per-batch top-k partials; the final reduce sees batches×k tiny rows.
  This is the 100 TB shape: no full-table materialization, no shuffle.
- LSH-bucketed ANN: random-hyperplane signatures bucket the vectors
  (groupby on a small int key); queries probe only their bucket(s).
- Embedding near-dup: same-label blocking + per-group pairwise cosine.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np
import pandas as pd

from open_parse_ray.sources.tables import table_path


def default_query_vectors(n: int = 1, dim: int = 64) -> np.ndarray:
    """Deterministic query vectors: sin-wave family, unit-normalized.
    Reproducible in SQL as literal lists (floats repr round-trip)."""
    q = np.array(
        [[math.sin(0.1 * (i + 1) * (j + 1)) for j in range(dim)] for i in range(n)],
        dtype=np.float64,
    )
    return q


def knn_brute_force(
    sf_dir: str,
    queries: Optional[np.ndarray] = None,
    k: int = 10,
):
    """Top-k by cosine for each query vector. Returns
    (query_id, rank, vec_id) — ids/ranks only, so the DuckDB oracle
    compares exactly (float sims differ in the last ulp between engines).
    """
    import ray
    import ray.data as rd

    if queries is None:
        queries = default_query_vectors(1)
    qref = ray.put(np.ascontiguousarray(queries, dtype=np.float64))

    ds = rd.read_parquet(
        table_path(sf_dir, "embeddings"), columns=["vec_id", "embedding"]
    )

    class PartialTopK:
        def __init__(self, qref, k):
            self.q = ray.get(qref)  # (Q, D)
            self.qn = self.q / np.linalg.norm(self.q, axis=1, keepdims=True)
            self.k = k

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            emb = np.array([np.asarray(e, dtype=np.float64) for e in batch["embedding"]])
            vec_ids = np.asarray(batch["vec_id"], dtype=np.int64)
            norms = np.linalg.norm(emb, axis=1)
            norms[norms == 0] = 1.0
            sims = (emb / norms[:, None]) @ self.qn.T  # (B, Q)
            out_q, out_v, out_s = [], [], []
            for qi in range(sims.shape[1]):
                col = sims[:, qi]
                # tie-break by vec_id at the truncation boundary so the
                # surviving candidate set is partition/batch-order
                # independent (exact-duplicate embeddings tie exactly)
                top = np.lexsort((vec_ids, -col))[: self.k]
                out_q.extend([qi] * len(top))
                out_v.extend(vec_ids[top].tolist())
                out_s.extend(col[top].tolist())
            return pd.DataFrame(
                {"query_id": out_q, "vec_id": out_v, "sim": out_s}
            )

    partials = ds.map_batches(
        PartialTopK,
        fn_constructor_args=(qref, k),
        batch_format="pandas",
        batch_size=8192,
        concurrency=(1, 8),
    )

    return _copart_rank(partials, k)


class HyperplaneLSH:
    """Random-hyperplane signatures for cosine LSH (deterministic seed)."""

    def __init__(self, dim: int = 64, n_bits: int = 12, seed: int = 42):
        rng = np.random.RandomState(seed)
        self.planes = rng.standard_normal((dim, n_bits))
        self.n_bits = n_bits

    def bucket(self, vecs: np.ndarray) -> np.ndarray:
        bits = (vecs @ self.planes) > 0  # (N, n_bits)
        weights = (1 << np.arange(self.n_bits)).astype(np.int64)
        return bits @ weights


def ann_lsh_topk(
    sf_dir: str,
    queries: Optional[np.ndarray] = None,
    k: int = 10,
    n_bits: int = 8,
):
    """Approximate top-k: vectors bucketed by hyperplane LSH; each query
    probes its own bucket plus all buckets at hamming distance 1 (the
    standard multi-probe trick). Returns (query_id, rank, vec_id) —
    approximate, verified against brute force by recall in tests."""
    import ray
    import ray.data as rd

    if queries is None:
        queries = default_query_vectors(1)
    lsh = HyperplaneLSH(dim=queries.shape[1], n_bits=n_bits)
    qbuckets = lsh.bucket(queries)  # (Q,)
    probe_sets: List[set] = []
    for qb in qbuckets:
        probes = {int(qb)}
        for bit in range(n_bits):
            probes.add(int(qb) ^ (1 << bit))
        probe_sets.append(probes)
    all_probes = set().union(*probe_sets)
    qref = ray.put((np.ascontiguousarray(queries, dtype=np.float64), probe_sets))

    ds = rd.read_parquet(
        table_path(sf_dir, "embeddings"), columns=["vec_id", "embedding"]
    )

    class ProbeBuckets:
        def __init__(self, qref, lsh_seed, n_bits, dim, k, all_probes):
            self.q, self.probe_sets = ray.get(qref)
            self.qn = self.q / np.linalg.norm(self.q, axis=1, keepdims=True)
            self.lsh = HyperplaneLSH(dim=dim, n_bits=n_bits, seed=lsh_seed)
            self.k = k
            self.all_probes = all_probes

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            emb = np.array([np.asarray(e, dtype=np.float64) for e in batch["embedding"]])
            vec_ids = np.asarray(batch["vec_id"], dtype=np.int64)
            buckets = self.lsh.bucket(emb)
            mask = np.isin(buckets, list(self.all_probes))
            if not mask.any():
                return pd.DataFrame({"query_id": [], "vec_id": [], "sim": []})
            emb, vec_ids, buckets = emb[mask], vec_ids[mask], buckets[mask]
            norms = np.linalg.norm(emb, axis=1)
            norms[norms == 0] = 1.0
            sims = (emb / norms[:, None]) @ self.qn.T
            out_q, out_v, out_s = [], [], []
            for qi, probes in enumerate(self.probe_sets):
                sel = np.isin(buckets, list(probes))
                if not sel.any():
                    continue
                col = sims[sel, qi]
                ids = vec_ids[sel]
                top = np.lexsort((ids, -col))[: self.k]  # vec_id tie-break
                out_q.extend([qi] * len(top))
                out_v.extend(ids[top].tolist())
                out_s.extend(col[top].tolist())
            return pd.DataFrame({"query_id": out_q, "vec_id": out_v, "sim": out_s})

    partials = ds.map_batches(
        ProbeBuckets,
        fn_constructor_args=(qref, 42, n_bits, queries.shape[1], k, all_probes),
        batch_format="pandas",
        batch_size=8192,
        concurrency=(1, 8),
    )

    return _copart_rank(partials, k)


def build_ivf_centroids(
    sample: np.ndarray, n_centroids: int = 16, iters: int = 10, seed: int = 42
) -> np.ndarray:
    """Deterministic spherical k-means-lite on a driver-side sample.

    The sample is small (coarse quantizers need thousands of rows, not the
    corpus); at 100 TB this is a bounded read of one shard. Fixed seed +
    fixed iteration count → identical centroids on every run."""
    rng = np.random.RandomState(seed)
    sample = np.asarray(sample, dtype=np.float64)
    norms = np.linalg.norm(sample, axis=1)
    sample = sample[norms > 0] / norms[norms > 0][:, None]
    idx = rng.choice(len(sample), size=min(n_centroids, len(sample)), replace=False)
    cents = sample[np.sort(idx)].copy()
    for _ in range(iters):
        assign = np.argmax(sample @ cents.T, axis=1)
        for c in range(len(cents)):
            members = sample[assign == c]
            if len(members):
                v = members.sum(axis=0)
                n = np.linalg.norm(v)
                if n > 0:
                    cents[c] = v / n
    return cents


def ann_ivf_topk(
    sf_dir: str,
    queries: Optional[np.ndarray] = None,
    k: int = 10,
    n_centroids: int = 16,
    nprobe: int = 4,
):
    """IVF-bucketed approximate top-k (the coarse-quantizer scale path,
    complementing the LSH variant): vectors are assigned to their nearest
    centroid cell; each query scans only its ``nprobe`` nearest cells.
    Centroids are built once on the driver from a bounded sample and
    broadcast via ray.put; assignment + partial top-k run vectorized
    inside map_batches; the final reduce sees batches×k rows. Returns
    (query_id, rank, vec_id); recall vs brute force is gated in tests."""
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    if queries is None:
        queries = default_query_vectors(1)

    # bounded sample read for the coarse quantizer (first row group)
    pf = pq.ParquetFile(table_path(sf_dir, "embeddings"))
    sample_tbl = pf.read_row_group(0, columns=["embedding"])
    sample = np.array(
        [np.asarray(e, dtype=np.float64) for e in sample_tbl["embedding"].to_pylist()]
    )
    cents = build_ivf_centroids(sample, n_centroids=n_centroids)

    qn = np.ascontiguousarray(queries, dtype=np.float64)
    qn = qn / np.linalg.norm(qn, axis=1, keepdims=True)
    # nprobe nearest cells per query
    probe_cells = np.argsort(-(qn @ cents.T), axis=1)[:, :nprobe]  # (Q, nprobe)
    qref = ray.put((qn, cents, probe_cells))

    ds = rd.read_parquet(
        table_path(sf_dir, "embeddings"), columns=["vec_id", "embedding"]
    )

    class ProbeCells:
        def __init__(self, qref, k):
            self.qn, self.cents, self.probe_cells = ray.get(qref)
            self.all_cells = np.unique(self.probe_cells)
            self.k = k

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            emb = np.array(
                [np.asarray(e, dtype=np.float64) for e in batch["embedding"]]
            )
            vec_ids = np.asarray(batch["vec_id"], dtype=np.int64)
            norms = np.linalg.norm(emb, axis=1)
            norms[norms == 0] = 1.0
            nm = emb / norms[:, None]
            cells = np.argmax(nm @ self.cents.T, axis=1)
            mask = np.isin(cells, self.all_cells)
            if not mask.any():
                return pd.DataFrame({"query_id": [], "vec_id": [], "sim": []})
            nm, vec_ids, cells = nm[mask], vec_ids[mask], cells[mask]
            sims = nm @ self.qn.T  # (B', Q)
            out_q, out_v, out_s = [], [], []
            for qi in range(self.qn.shape[0]):
                sel = np.isin(cells, self.probe_cells[qi])
                if not sel.any():
                    continue
                col = sims[sel, qi]
                ids = vec_ids[sel]
                top = np.lexsort((ids, -col))[: self.k]  # vec_id tie-break
                out_q.extend([qi] * len(top))
                out_v.extend(ids[top].tolist())
                out_s.extend(col[top].tolist())
            return pd.DataFrame({"query_id": out_q, "vec_id": out_v, "sim": out_s})

    partials = ds.map_batches(
        ProbeCells,
        fn_constructor_args=(qref, k),
        batch_format="pandas",
        batch_size=8192,
        concurrency=(1, 8),
    )

    return _copart_rank(partials, k)


# ---------------------------------------------------------------------------
# Co-partitioned query-side ANN (the scale path for query SETS too large
# to broadcast — r3-verdict worklist #7). The broadcast variants above
# ship the whole query matrix to every task via ray.put, which is right
# for O(10^3) queries; past that the query set becomes a Dataset and
# both sides are EXCHANGED on the bucket/cell id instead: vectors ship
# to exactly one bucket, queries explode to their probe buckets, each
# partition runs the bucket-local matmul, and a second (tiny, k rows per
# query per bucket) exchange on query_id produces global ranks.
#
# Partitioning assumption: one bucket's vectors fit a partition.
# Hyperplane-LSH buckets are balanced in expectation (|corpus| / 2^n_bits
# per bucket — tune n_bits with corpus size); IVF cells follow the
# k-means cell-size distribution, so a production deployment would split
# oversized cells (same salting trick as salted_groupby). Output is
# IDENTICAL to the broadcast twin — equality-gated in tests, so the
# broadcast paths' recall gates transfer.
# ---------------------------------------------------------------------------


def _default_queries_ds(n: int = 1):
    import ray.data as rd

    q = default_query_vectors(n)
    return rd.from_pandas(
        pd.DataFrame(
            {
                "query_id": np.arange(len(q), dtype=np.int64),
                "embedding": list(q),
            }
        )
    )


def _vec_bytes(emb_rows) -> list:
    return [np.ascontiguousarray(e, dtype=np.float64).tobytes() for e in emb_rows]


def _bucket_topk_partials(part: pd.DataFrame, k: int) -> pd.DataFrame:
    """Partition kernel shared by both co-partitioned variants: for each
    bucket present, normalized candidate × normalized query matmul →
    per-(query, bucket) top-k rows. Normalization expressions mirror the
    broadcast twins exactly (zero-norm → 1), so sims are bit-equal.
    Rows are sorted by (bucket, side, id) first: a matmul's rounding
    depends on where a row sits in the matrix, so this makes ``sim``
    independent of the row order the exchange delivers."""
    out_q, out_v, out_s = [], [], []
    part = part.sort_values(["bucket", "side", "id"], kind="stable")
    for _, g in part.groupby("bucket", sort=False):
        qs = g[g["side"] == 0]
        vs = g[g["side"] == 1]
        if not len(qs) or not len(vs):
            continue
        qm = np.frombuffer(b"".join(qs["vec"]), dtype=np.float64).reshape(len(qs), -1)
        qn = qm / np.linalg.norm(qm, axis=1, keepdims=True)
        vm = np.frombuffer(b"".join(vs["vec"]), dtype=np.float64).reshape(len(vs), -1)
        norms = np.linalg.norm(vm, axis=1)
        norms[norms == 0] = 1.0
        sims = (vm / norms[:, None]) @ qn.T  # (V, Q)
        vec_ids = vs["id"].to_numpy(dtype=np.int64)
        qids = qs["id"].to_numpy(dtype=np.int64)
        for qi in range(sims.shape[1]):
            col = sims[:, qi]
            top = np.lexsort((vec_ids, -col))[:k]  # vec_id tie-break
            out_q.extend([int(qids[qi])] * len(top))
            out_v.extend(vec_ids[top].tolist())
            out_s.extend(col[top].tolist())
    return pd.DataFrame(
        {
            "query_id": np.asarray(out_q, dtype=np.int64),
            "vec_id": np.asarray(out_v, dtype=np.int64),
            "sim": np.asarray(out_s, dtype=np.float64),
        }
    )


def _copart_rank(partials, k: int):
    """Final (tiny) exchange of every ANN path, broadcast and
    co-partitioned: per-query top-k of the (query_id, vec_id, sim)
    partials by (sim desc, vec_id asc) → (query_id, rank, vec_id)."""
    from open_parse_ray.stages.dedup import salted_groupby

    def final_topk(part: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for qid, g in part.groupby("query_id", sort=False):
            g = g.sort_values(["sim", "vec_id"], ascending=[False, True]).head(k)
            outs.append(
                pd.DataFrame(
                    {
                        "query_id": np.full(len(g), qid, dtype=np.int64),
                        "rank": np.arange(1, len(g) + 1, dtype=np.int64),
                        "vec_id": g["vec_id"].to_numpy(dtype=np.int64),
                    }
                )
            )
        if not outs:
            return pd.DataFrame(
                {
                    "query_id": pd.Series([], dtype="int64"),
                    "rank": pd.Series([], dtype="int64"),
                    "vec_id": pd.Series([], dtype="int64"),
                }
            )
        return pd.concat(outs, ignore_index=True)

    return salted_groupby(partials, "query_id", final_topk)


def ann_lsh_topk_copart(
    sf_dir: str,
    queries_ds=None,
    k: int = 10,
    n_bits: int = 8,
):
    """LSH ANN with a co-partitioned (Dataset) query side — no query
    broadcast anywhere. Queries explode to their multi-probe buckets
    (own bucket + hamming-1, same probe set as ann_lsh_topk); vectors
    ship once to their own bucket; one salted exchange co-locates them.
    Equality-gated against ann_lsh_topk in tests."""
    import ray.data as rd

    from open_parse_ray.stages.dedup import salted_groupby

    if queries_ds is None:
        queries_ds = _default_queries_ds(1)

    def q_rows(b: pd.DataFrame) -> pd.DataFrame:
        emb = np.array([np.asarray(e, dtype=np.float64) for e in b["embedding"]])
        if not len(emb):
            return pd.DataFrame(
                {
                    "bucket": pd.Series([], dtype="int64"),
                    "id": pd.Series([], dtype="int64"),
                    "vec": pd.Series([], dtype=object),
                    "side": pd.Series([], dtype="int64"),
                }
            )
        lsh = HyperplaneLSH(dim=emb.shape[1], n_bits=n_bits)
        own = lsh.bucket(emb)
        qids = b["query_id"].to_numpy(dtype=np.int64)
        vecs = _vec_bytes(b["embedding"])
        buckets, ids, bs = [], [], []
        for i, qb in enumerate(own):
            probes = {int(qb)} | {int(qb) ^ (1 << bit) for bit in range(n_bits)}
            for p in sorted(probes):
                buckets.append(p)
                ids.append(int(qids[i]))
                bs.append(vecs[i])
        return pd.DataFrame(
            {
                "bucket": np.asarray(buckets, dtype=np.int64),
                "id": np.asarray(ids, dtype=np.int64),
                "vec": pd.Series(bs, dtype=object),
                "side": np.zeros(len(ids), dtype=np.int64),
            }
        )

    def v_rows(b: pd.DataFrame) -> pd.DataFrame:
        emb = np.array([np.asarray(e, dtype=np.float64) for e in b["embedding"]])
        if not len(emb):
            return pd.DataFrame(
                {
                    "bucket": pd.Series([], dtype="int64"),
                    "id": pd.Series([], dtype="int64"),
                    "vec": pd.Series([], dtype=object),
                    "side": pd.Series([], dtype="int64"),
                }
            )
        lsh = HyperplaneLSH(dim=emb.shape[1], n_bits=n_bits)
        return pd.DataFrame(
            {
                "bucket": lsh.bucket(emb).astype(np.int64),
                "id": b["vec_id"].to_numpy(dtype=np.int64),
                "vec": pd.Series(_vec_bytes(b["embedding"]), dtype=object),
                "side": np.ones(len(emb), dtype=np.int64),
            }
        )

    base = rd.read_parquet(
        table_path(sf_dir, "embeddings"), columns=["vec_id", "embedding"]
    ).map_batches(v_rows, batch_format="pandas", batch_size=8192)
    qside = queries_ds.map_batches(q_rows, batch_format="pandas", batch_size=8192)

    partials = salted_groupby(
        base.union(qside),
        "bucket",
        lambda part: _bucket_topk_partials(part, k),
    )
    return _copart_rank(partials, k)


def ann_ivf_topk_copart(
    sf_dir: str,
    queries_ds=None,
    k: int = 10,
    n_centroids: int = 16,
    nprobe: int = 4,
):
    """IVF ANN with a co-partitioned query side: the coarse quantizer
    (tiny: n_centroids × dim) is still broadcast — it is a model, not
    the query set — but queries flow as a Dataset, exploding to their
    nprobe nearest cells; vectors ship once to their own cell. Same
    two-exchange shape as the LSH variant; equality-gated against
    ann_ivf_topk."""
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    from open_parse_ray.stages.dedup import salted_groupby

    if queries_ds is None:
        queries_ds = _default_queries_ds(1)

    pf = pq.ParquetFile(table_path(sf_dir, "embeddings"))
    sample_tbl = pf.read_row_group(0, columns=["embedding"])
    sample = np.array(
        [np.asarray(e, dtype=np.float64) for e in sample_tbl["embedding"].to_pylist()]
    )
    cents = build_ivf_centroids(sample, n_centroids=n_centroids)
    cref = ray.put(np.ascontiguousarray(cents))

    def q_rows(b: pd.DataFrame) -> pd.DataFrame:
        cents_ = ray.get(cref)
        emb = np.array([np.asarray(e, dtype=np.float64) for e in b["embedding"]])
        if not len(emb):
            return pd.DataFrame(
                {
                    "bucket": pd.Series([], dtype="int64"),
                    "id": pd.Series([], dtype="int64"),
                    "vec": pd.Series([], dtype=object),
                    "side": pd.Series([], dtype="int64"),
                }
            )
        qn = emb / np.linalg.norm(emb, axis=1, keepdims=True)
        probe_cells = np.argsort(-(qn @ cents_.T), axis=1)[:, :nprobe]
        qids = b["query_id"].to_numpy(dtype=np.int64)
        vecs = _vec_bytes(b["embedding"])
        return pd.DataFrame(
            {
                "bucket": probe_cells.reshape(-1).astype(np.int64),
                "id": np.repeat(qids, nprobe),
                "vec": pd.Series(
                    [vecs[i] for i in np.repeat(np.arange(len(emb)), nprobe)],
                    dtype=object,
                ),
                "side": np.zeros(len(emb) * nprobe, dtype=np.int64),
            }
        )

    def v_rows(b: pd.DataFrame) -> pd.DataFrame:
        cents_ = ray.get(cref)
        emb = np.array([np.asarray(e, dtype=np.float64) for e in b["embedding"]])
        if not len(emb):
            return pd.DataFrame(
                {
                    "bucket": pd.Series([], dtype="int64"),
                    "id": pd.Series([], dtype="int64"),
                    "vec": pd.Series([], dtype=object),
                    "side": pd.Series([], dtype="int64"),
                }
            )
        norms = np.linalg.norm(emb, axis=1)
        norms[norms == 0] = 1.0
        cells = np.argmax((emb / norms[:, None]) @ cents_.T, axis=1)
        return pd.DataFrame(
            {
                "bucket": cells.astype(np.int64),
                "id": b["vec_id"].to_numpy(dtype=np.int64),
                "vec": pd.Series(_vec_bytes(b["embedding"]), dtype=object),
                "side": np.ones(len(emb), dtype=np.int64),
            }
        )

    base = rd.read_parquet(
        table_path(sf_dir, "embeddings"), columns=["vec_id", "embedding"]
    ).map_batches(v_rows, batch_format="pandas", batch_size=8192)
    qside = queries_ds.map_batches(q_rows, batch_format="pandas", batch_size=8192)

    partials = salted_groupby(
        base.union(qside),
        "bucket",
        lambda part: _bucket_topk_partials(part, k),
    )
    return _copart_rank(partials, k)


_TRI_MIX = np.uint64(0x9E3779B97F4A7C15)


def _neardup_chunk_of(vec_ids: np.ndarray, n_chunks: int) -> np.ndarray:
    """Content-addressed chunk assignment (mixed hash of vec_id, no RNG)."""
    h = vec_ids.astype(np.uint64) * _TRI_MIX
    h = (h ^ (h >> np.uint64(31))) * np.uint64(0xBF58476D1CE4E5B9)
    return (h % np.uint64(n_chunks)).astype(np.int64)


def _neardup_replicate(b: pd.DataFrame, n_chunks: int) -> pd.DataFrame:
    """Triangle-join replication: a row in chunk c is copied to every
    bucket (ca, cb) with ca <= cb and c ∈ {ca, cb} — n_chunks copies per
    row, so each unordered same-label pair lands in EXACTLY one bucket."""
    c = _neardup_chunk_of(np.asarray(b["vec_id"], dtype=np.int64), n_chunks)
    cas, cbs = [], []
    for j in range(n_chunks):
        cas.append(np.minimum(c, j))
        cbs.append(np.maximum(c, j))
    # embeddings stay an object array of per-row vectors (asarray would
    # collapse equal-length vectors into a 2D array)
    emb_obj = b["embedding"].to_numpy()
    rep = pd.DataFrame(
        {
            "label": np.tile(np.asarray(b["label"]), n_chunks),
            "ca": np.concatenate(cas),
            "cb": np.concatenate(cbs),
            "chunk": np.tile(c, n_chunks),
            "vec_id": np.tile(np.asarray(b["vec_id"], dtype=np.int64), n_chunks),
            "embedding": np.tile(emb_obj, n_chunks),
        }
    )
    return rep


def _neardup_bucket_pairs(g: pd.DataFrame, threshold: float) -> pd.DataFrame:
    """Exact cosine pairs within one (label, ca, cb) bucket: triu among
    one chunk when ca == cb, full bipartite across the two chunks
    otherwise. id_a < id_b in the output either way."""
    empty = pd.DataFrame(
        {"id_a": pd.Series(dtype="int64"), "id_b": pd.Series(dtype="int64")}
    )
    ids = np.asarray(g["vec_id"], dtype=np.int64)
    emb = np.array([np.asarray(e, dtype=np.float64) for e in g["embedding"]])
    if len(ids) < 2:
        return empty
    norms = np.linalg.norm(emb, axis=1)
    norms[norms == 0] = 1.0
    nm = emb / norms[:, None]
    ca, cb = int(g["ca"].iloc[0]), int(g["cb"].iloc[0])
    if ca == cb:
        order = np.argsort(ids)
        ids, nm = ids[order], nm[order]
        sims = nm @ nm.T
        ia, ib = np.where(np.triu(sims >= threshold, k=1))
        return pd.DataFrame(
            {
                "id_a": pd.Series(ids[ia], dtype="int64"),
                "id_b": pd.Series(ids[ib], dtype="int64"),
            }
        )
    left = np.asarray(g["chunk"], dtype=np.int64) == ca
    lids, rids = ids[left], ids[~left]
    if not len(lids) or not len(rids):
        return empty
    sims = nm[left] @ nm[~left].T
    ia, ib = np.where(sims >= threshold)
    a, b = lids[ia], rids[ib]
    return pd.DataFrame(
        {
            "id_a": pd.Series(np.minimum(a, b), dtype="int64"),
            "id_b": pd.Series(np.maximum(a, b), dtype="int64"),
        }
    )


def train_pq_codebooks(
    sample: np.ndarray, n_sub: int = 8, n_cent: int = 16, iters: int = 10
) -> np.ndarray:
    """Deterministic product-quantization codebooks: plain L2 k-means
    (fixed seed/iters, like build_ivf_centroids) independently per
    subspace over a bounded driver-side sample. Returns
    (n_sub, n_cent, dim // n_sub)."""
    sample = np.asarray(sample, dtype=np.float64)
    norms = np.linalg.norm(sample, axis=1)
    sample = sample[norms > 0] / norms[norms > 0][:, None]  # cosine → unit L2
    d = sample.shape[1]
    sub = d // n_sub
    books = np.empty((n_sub, n_cent, sub), dtype=np.float64)
    rng = np.random.RandomState(42)
    for m in range(n_sub):
        x = sample[:, m * sub : (m + 1) * sub]
        idx = rng.choice(len(x), size=min(n_cent, len(x)), replace=False)
        cents = x[np.sort(idx)].copy()
        for _ in range(iters):
            d2 = ((x[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
            assign = np.argmin(d2, axis=1)
            for c in range(len(cents)):
                members = x[assign == c]
                if len(members):
                    cents[c] = members.mean(axis=0)
        books[m, : len(cents)] = cents
        if len(cents) < n_cent:  # degenerate tiny sample: repeat last
            books[m, len(cents) :] = cents[-1]
    return books


def pq_encode(vecs: np.ndarray, books: np.ndarray) -> np.ndarray:
    """Unit-normalized vectors → (N, n_sub) uint8 codes (argmin L2 per
    subspace), fully vectorized."""
    n_sub, n_cent, sub = books.shape
    codes = np.empty((len(vecs), n_sub), dtype=np.uint8)
    for m in range(n_sub):
        x = vecs[:, m * sub : (m + 1) * sub]
        d2 = ((x[:, None, :] - books[m][None, :, :]) ** 2).sum(axis=2)
        codes[:, m] = np.argmin(d2, axis=1).astype(np.uint8)
    return codes


def ann_pq_topk(
    sf_dir: str,
    queries: Optional[np.ndarray] = None,
    k: int = 10,
    n_sub: int = 8,
    n_cent: int = 16,
    shortlist: int = 128,
):
    """Product-quantization ANN — the memory-bound scale path (32x
    compression at dim 64: 8 uint8 codes vs 256 float bytes; at 10^12
    vectors the codes fit where raw vectors cannot). Per batch:
    asymmetric-distance (ADC) scan via one LUT lookup per subspace →
    shortlist by ADC → EXACT cosine rerank of the shortlist (vectors are
    still in-batch; a codes-only deployment would fetch shortlisted
    vectors instead) → per-batch top-k partials → tiny final reduce.
    Codebooks train once on a bounded driver sample and broadcast.
    Returns (query_id, rank, vec_id); recall vs brute force gated in
    tests."""
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    if queries is None:
        queries = default_query_vectors(1)
    pf = pq.ParquetFile(table_path(sf_dir, "embeddings"))
    sample_tbl = pf.read_row_group(0, columns=["embedding"])
    sample = np.array(
        [np.asarray(e, dtype=np.float64) for e in sample_tbl["embedding"].to_pylist()]
    )
    books = train_pq_codebooks(sample, n_sub=n_sub, n_cent=n_cent)
    qn = np.ascontiguousarray(queries, dtype=np.float64)
    qn = qn / np.linalg.norm(qn, axis=1, keepdims=True)
    # per-query ADC lookup tables: ||q_m - c||^2 per subspace centroid
    sub = books.shape[2]
    luts = np.empty((len(qn), n_sub, n_cent), dtype=np.float64)
    for m in range(n_sub):
        qm = qn[:, m * sub : (m + 1) * sub]
        luts[:, m, :] = ((qm[:, None, :] - books[m][None, :, :]) ** 2).sum(axis=2)
    ref = ray.put((qn, books, luts))

    ds = rd.read_parquet(
        table_path(sf_dir, "embeddings"), columns=["vec_id", "embedding"]
    )

    class PQScan:
        def __init__(self, ref, k, shortlist):
            self.qn, self.books, self.luts = ray.get(ref)
            self.k = k
            self.shortlist = shortlist

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            emb = np.array(
                [np.asarray(e, dtype=np.float64) for e in batch["embedding"]]
            )
            vec_ids = np.asarray(batch["vec_id"], dtype=np.int64)
            norms = np.linalg.norm(emb, axis=1)
            norms[norms == 0] = 1.0
            nm = emb / norms[:, None]
            codes = pq_encode(nm, self.books)  # (B, n_sub)
            out_q, out_v, out_s = [], [], []
            for qi in range(len(self.qn)):
                # ADC distance: sum of LUT entries selected by the codes
                adc = self.luts[qi][np.arange(codes.shape[1])[None, :], codes].sum(
                    axis=1
                )
                short = np.argsort(adc, kind="stable")[: self.shortlist]
                sims = nm[short] @ self.qn[qi]  # exact rerank
                top = np.argsort(-sims, kind="stable")[: self.k]
                out_q.extend([qi] * len(top))
                out_v.extend(vec_ids[short][top].tolist())
                out_s.extend(sims[top].tolist())
            return pd.DataFrame({"query_id": out_q, "vec_id": out_v, "sim": out_s})

    partials = ds.map_batches(
        PQScan,
        fn_constructor_args=(ref, k, shortlist),
        batch_format="pandas",
        batch_size=8192,
        concurrency=(1, 8),
    )

    return _copart_rank(partials, k)


def embedding_neardup_pairs(sf_dir: str, threshold: float = 0.3, n_chunks: int = 4):
    """Same-label blocking + pairwise cosine >= threshold, with BOUNDED
    per-task memory: each label is split into ``n_chunks``
    content-addressed chunks and rows are replicated triangle-join style
    so any one task holds at most 2/n_chunks of a label — a hot label at
    corpus scale can no longer blow a single worker's heap (set n_chunks
    ~ sqrt(max_label_rows / rows_per_task) on a real cluster). Exact:
    every same-label pair is computed in exactly one bucket, so the SQL
    oracle is unchanged. Returns (id_a, id_b) int pairs (no floats →
    exact oracle compare)."""
    import ray.data as rd

    from open_parse_ray.stages.dedup import salted_groupby

    ds = rd.read_parquet(
        table_path(sf_dir, "embeddings"), columns=["vec_id", "embedding", "label"]
    )
    rep = ds.map_batches(
        lambda b: _neardup_replicate(b, n_chunks),
        batch_format="pandas",
        batch_size=8192,
    )

    def part_pairs(part: pd.DataFrame) -> pd.DataFrame:
        outs = [
            _neardup_bucket_pairs(g, threshold)
            for _, g in part.groupby(["label", "ca", "cb"], sort=False)
        ]
        if not outs:
            return _neardup_bucket_pairs(part.iloc[:0], threshold)
        return pd.concat(outs, ignore_index=True)

    return salted_groupby(rep, ["label", "ca", "cb"], part_pairs)


def semdedup_pairs(
    sf_dir: str, threshold: float = 0.3, k: int = 8, iters: int = 5, n_chunks: int = 4
):
    """SemDeDup (Abbas et al. 2023, arXiv:2303.09540): semantic
    deduplication by clustering embeddings with k-means, then finding
    near-duplicate pairs ONLY within each cluster — the standard way to
    make embedding dedup sub-quadratic at corpus scale (pairs across
    clusters are by construction not near-duplicates for a reasonable
    k). Composition of two existing primitives:

    - the distributed bit-reproducible k-means (stages/clustering.py)
      trains centroids; each batch re-derives its cluster labels from
      the broadcast centroid matrix (an O(k·d) task-local compute — the
      per-vector assignment table is never materialized or shipped),
    - the triangle-join chunked blocking of embedding_neardup_pairs
      bounds any task to 2/n_chunks of a hot cluster.

    Returns (id_a, id_b) int pairs, id_a < id_b. Gated by pytest
    equality with a local brute-force within-cluster reference.
    """
    import ray
    import ray.data as rd

    from open_parse_ray.stages.clustering import _assign, _quantize, kmeans_fit
    from open_parse_ray.stages.dedup import salted_groupby

    centroids = kmeans_fit(sf_dir, k=k, iters=iters)
    cent_ref = ray.put(centroids)

    ds = rd.read_parquet(table_path(sf_dir, "embeddings"), columns=["vec_id", "embedding"])

    def relabel(b: pd.DataFrame) -> pd.DataFrame:
        cents = ray.get(cent_ref)
        q = _quantize(np.array([np.asarray(e, dtype=np.float64) for e in b["embedding"]]))
        b = b.copy()
        b["label"] = _assign(q, cents)
        return b

    rep = ds.map_batches(relabel, batch_format="pandas", batch_size=4096).map_batches(
        lambda b: _neardup_replicate(b, n_chunks), batch_format="pandas", batch_size=8192
    )

    def part_pairs(part: pd.DataFrame) -> pd.DataFrame:
        outs = [
            _neardup_bucket_pairs(g, threshold)
            for _, g in part.groupby(["label", "ca", "cb"], sort=False)
        ]
        if not outs:
            return _neardup_bucket_pairs(part.iloc[:0], threshold)
        return pd.concat(outs, ignore_index=True)

    return salted_groupby(rep, ["label", "ca", "cb"], part_pairs)


def semdedup_keep(
    sf_dir: str,
    threshold: float = 0.3,
    k: int = 8,
    iters: int = 5,
    max_driver_pairs: int = 5_000_000,
):
    """SemDeDup keep-list: connected components over the within-cluster
    near-dup pairs; each component keeps its min vec_id. Returns
    (vec_id, kept:int64, rep_id) for EVERY vector (kept=1 survivors).

    Scale shape (same threshold switch as dedup.neardup_clusters): the
    pair stream is normally tiny (only verified near-dups), so up to
    ``max_driver_pairs`` a driver union-find builds the rep map — which
    contains ONLY ids appearing in a pair — and broadcasts it with one
    ray.put; the flagging pass streams over the table. Past the
    threshold the components come from labelprop_clusters (distributed
    large-star/small-star) and the rep attaches via a salted
    co-partitioned join on vec_id instead of a broadcast (gated
    equivalent to the driver path by the forced-distributed test)."""
    import ray
    import ray.data as rd

    from open_parse_ray.stages.dedup import (
        labelprop_clusters,
        salted_groupby,
        union_find_clusters,
    )

    pairs_ds = (
        semdedup_pairs(sf_dir, threshold=threshold, k=k, iters=iters)
        .map_batches(
            lambda b: b.rename(columns={"id_a": "doc_a", "id_b": "doc_b"}),
            batch_format="pandas",
            batch_size=65536,
        )
        .materialize()
    )
    ids_ds = rd.read_parquet(table_path(sf_dir, "embeddings"), columns=["vec_id"])

    if pairs_ds.count() <= max_driver_pairs:
        rows = pairs_ds.take_all()
        rep_of = union_find_clusters([(int(r["doc_a"]), int(r["doc_b"])) for r in rows])
        rep_ref = ray.put(rep_of)

        def flag(b: pd.DataFrame) -> pd.DataFrame:
            rm = ray.get(rep_ref)
            ids = b["vec_id"].to_numpy(dtype=np.int64)
            rep = np.asarray([rm.get(int(v), int(v)) for v in ids], dtype=np.int64)
            return pd.DataFrame(
                {"vec_id": ids, "kept": (rep == ids).astype(np.int64), "rep_id": rep}
            )

        return ids_ds.map_batches(flag, batch_format="pandas", batch_size=65536)

    # distributed path: labelprop components + salted join on vec_id
    clusters = labelprop_clusters(pairs_ds)  # (doc_id, cluster_id, cluster_size)

    def tag_ids(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "vec_id": b["vec_id"].astype("int64"),
                "cluster_id": np.int64(-1),
                "side": np.int64(0),
            }
        )

    def tag_clusters(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "vec_id": b["doc_id"].astype("int64"),
                "cluster_id": b["cluster_id"].astype("int64"),
                "side": np.int64(1),
            }
        )

    union = ids_ds.map_batches(tag_ids, batch_format="pandas", batch_size=65536).union(
        clusters.map_batches(tag_clusters, batch_format="pandas", batch_size=65536)
    )

    def join(part: pd.DataFrame) -> pd.DataFrame:
        left = part[part["side"] == 0][["vec_id"]]
        right = part[part["side"] == 1][["vec_id", "cluster_id"]]
        m = left.merge(right, on="vec_id", how="left")
        ids = m["vec_id"].to_numpy(dtype=np.int64)
        rep = m["cluster_id"].fillna(-1).to_numpy(dtype=np.int64)
        rep = np.where(rep < 0, ids, rep)
        return pd.DataFrame(
            {"vec_id": ids, "kept": (rep == ids).astype(np.int64), "rep_id": rep}
        )

    return salted_groupby(union, "vec_id", join)


def label_centroid_sums(sf_dir: str, scale: int = 10**6):
    """Exact per-label centroid PARTIALS over the list<float> embedding
    column — (label, dim, sum_fp) fixed-point int64 sums plus a
    (label, -1, count) row per label, the mergeable form every
    embedding-space rollup (class means, SemDeDup centroids, drift
    monitors) folds from. Emitting SUMS not means keeps the value hash
    float-free (the promo_revenue_share rule); the fixed-point map is
    round-half-away on float64(v)·scale, identical to the SQL mirror.
    Shape: each block stacks its vectors into one (n, d) matrix and
    np.add.at's into a (labels, d) grid — bounded (|labels| × d)
    partials, zero exchanges. Returns (label, dim, sum_fp)."""
    import ray.data as rd

    from open_parse_ray.stages.relational import two_phase_agg

    ds = rd.read_parquet(
        table_path(sf_dir, "embeddings"), columns=["label", "embedding"]
    )

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return pd.DataFrame(
                {
                    "label": pd.Series([], dtype="int64"),
                    "dim": pd.Series([], dtype="int64"),
                    "sum_fp": pd.Series([], dtype="int64"),
                }
            )
        emb = np.stack(b["embedding"].to_numpy()).astype(np.float64) * scale
        fp = np.where(emb >= 0, np.floor(emb + 0.5), np.ceil(emb - 0.5)).astype(
            np.int64
        )
        labels = b["label"].to_numpy(dtype=np.int64)
        uq, inv = np.unique(labels, return_inverse=True)
        d = fp.shape[1]
        acc = np.zeros((len(uq), d), dtype=np.int64)
        np.add.at(acc, inv, fp)
        cnt = np.bincount(inv, minlength=len(uq)).astype(np.int64)
        lab = np.repeat(uq, d)
        dim = np.tile(np.arange(d, dtype=np.int64), len(uq))
        return pd.DataFrame(
            {
                "label": np.concatenate([lab, uq]),
                "dim": np.concatenate([dim, np.full(len(uq), -1, dtype=np.int64)]),
                "sum_fp": np.concatenate([acc.ravel(), cnt]),
            }
        )

    partials = ds.map_batches(partial, batch_format="pandas", batch_size=8192)
    return two_phase_agg(partials, ["label", "dim"], {"sum_fp": "sum"})


# --- MMR diverse selection ---------------------------------------------------

_MMR_SCALE = 1 << 20


def _mmr_norm_quant(mat: np.ndarray) -> np.ndarray:
    """Row-normalize (zero-norm rows -> unchanged) then quantize at 2^20
    with round-half-even — the shared exactness base: all MMR dots are
    then EXACT int64 products of these integers (|x| <= 2^20, 64 dims ->
    |dot| <= 2^46, weighted score <= 2^49; no float enters a comparison
    so the greedy argmax is bit-stable at any block structure)."""
    n = np.sqrt((mat * mat).sum(axis=1))
    n[n == 0] = 1.0
    return np.rint(mat / n[:, None] * _MMR_SCALE).astype(np.int64)


def _mmr_quantized(sf_dir: str, batch_size: int):
    """(vec_id, qvec-bytes) Dataset: the normalize+quantize pass runs
    ONCE and materializes; the query-vector pass and every greedy round
    read these int64 vectors instead of re-quantizing the floats."""
    import pandas as pd

    def quant(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return pd.DataFrame(
                {"vec_id": pd.Series([], dtype="int64"),
                 "q": pd.Series([], dtype="object")}
            )
        m = np.array([np.asarray(e, dtype=np.float64) for e in b["embedding"]])
        x = _mmr_norm_quant(m)
        return pd.DataFrame(
            {"vec_id": b["vec_id"].to_numpy(dtype=np.int64),
             "q": [r.tobytes() for r in x]}
        )

    return (
        _read_embs(sf_dir)
        .map_batches(quant, batch_format="pandas", batch_size=batch_size)
        .materialize()
    )


def _mmr_query_vec(qds, batch_size: int) -> np.ndarray:
    """Corpus CENTROID as the query (the 'central topic' anchor): exact
    int64 sums of the quantized-normalized rows, then one normalize+
    quantize of the float mean — deterministic at any block structure
    because the sums are integers."""
    import pandas as pd

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return pd.DataFrame({"n": pd.Series([], dtype="int64"),
                                 "s": pd.Series([], dtype="object")})
        q = np.stack([np.frombuffer(r, dtype=np.int64) for r in b["q"]])
        return pd.DataFrame(
            {"n": [np.int64(len(b))], "s": [q.sum(axis=0, dtype=np.int64).tobytes()]}
        )

    parts = qds.map_batches(partial, batch_format="pandas", batch_size=batch_size).to_pandas()
    s = np.zeros(64, dtype=object)
    for raw in parts["s"]:
        s = s + np.frombuffer(raw, dtype=np.int64).astype(object)
    mean = s.astype(np.float64) / (float(_MMR_SCALE) * int(parts["n"].sum()))
    return _mmr_norm_quant(mean[None, :])[0]


def mmr_select_docs(
    sf_dir: str, k: int = 10, w_rel: int = 7, w_div: int = 3,
    batch_size: int = 4096,
):
    """Maximal-marginal-relevance selection — the diversity-aware top-k
    every retrieval/curation pipeline wants instead of plain nearest
    neighbors: greedily pick argmax of
    ``w_rel * <q, x> − w_div * max_{s∈selected} <s, x>``
    (λ = w_rel/(w_rel+w_div) as an INTEGER weighting, inner products of
    the normalized-quantized vectors, so every score is an exact int64
    and ties break on vec_id). Returns (rank, vec_id, rel_dot, div_dot,
    score) for k rounds.

    Scale shape — the greedy_cover_docs loop: each round broadcasts
    (query, selected matrix) via ray.put, every block reduces itself to
    its LOCAL best (score DESC, vec_id ASC) so one round ships one row
    per block; the driver folds block winners with the same tie rule.
    k rounds = k streaming passes over a materialized table that never
    leaves the object store. Gates: bitwise equality vs a sequential
    local reference, batch-size invariance, and a measured diversity
    win over plain relevance top-k (pytest-pinned; greedy iterative
    selection is not SQL-expressible)."""
    import pandas as pd
    import ray

    ds = _mmr_quantized(sf_dir, batch_size)
    qv = _mmr_query_vec(ds, batch_size)

    selected: list = []  # (vec_id, int-vector)
    out = []
    for rnd in range(k):
        sel_ids = frozenset(v for v, _ in selected)
        smat = (
            np.stack([vec for _, vec in selected])
            if selected
            else np.zeros((0, 64), dtype=np.int64)
        )
        ref = ray.put((qv, sel_ids, smat))

        def best(b: pd.DataFrame, *, _r=ref) -> pd.DataFrame:
            q, sids, sm = ray.get(_r)
            if len(b) == 0:
                return pd.DataFrame(
                    {"vec_id": pd.Series([], dtype="int64"),
                     "rel": pd.Series([], dtype="int64"),
                     "dmax": pd.Series([], dtype="int64"),
                     "score": pd.Series([], dtype="int64"),
                     "vec": pd.Series([], dtype="object")}
                )
            ids = b["vec_id"].to_numpy(dtype=np.int64)
            x = np.stack([np.frombuffer(r, dtype=np.int64) for r in b["q"]])
            rel = x @ q  # exact int64
            div = x @ sm.T if len(sm) else None
            dmax = div.max(axis=1) if div is not None and div.shape[1] else np.zeros(len(x), dtype=np.int64)
            score = w_rel * rel - w_div * dmax
            mask = ~np.isin(ids, np.fromiter(sids, dtype=np.int64, count=len(sids))) if sids else np.ones(len(ids), dtype=bool)
            if not mask.any():
                return pd.DataFrame(
                    {"vec_id": pd.Series([], dtype="int64"),
                     "rel": pd.Series([], dtype="int64"),
                     "dmax": pd.Series([], dtype="int64"),
                     "score": pd.Series([], dtype="int64"),
                     "vec": pd.Series([], dtype="object")}
                )
            idx = np.flatnonzero(mask)
            # local winner: score DESC, vec_id ASC
            j = idx[np.lexsort((ids[idx], -score[idx]))[0]]
            return pd.DataFrame(
                {"vec_id": [int(ids[j])], "rel": [int(rel[j])],
                 "dmax": [int(dmax[j])], "score": [int(score[j])],
                 "vec": [x[j].tobytes()]}
            )

        cands = ds.map_batches(
            best, batch_format="pandas", batch_size=batch_size
        ).to_pandas()
        if len(cands) == 0:
            break
        cands = cands.sort_values(
            ["score", "vec_id"], ascending=[False, True], kind="stable"
        ).iloc[0]
        vec = np.frombuffer(cands["vec"], dtype=np.int64)
        selected.append((int(cands["vec_id"]), vec))
        out.append(
            {
                "rank": rnd + 1,
                "vec_id": int(cands["vec_id"]),
                "rel_dot": int(cands["rel"]),
                "div_dot": int(cands["dmax"]),
                "score": int(cands["score"]),
            }
        )
    return pd.DataFrame(out).astype(
        {"rank": "int64", "vec_id": "int64", "rel_dot": "int64",
         "div_dot": "int64", "score": "int64"}
    )


def mmr_select_local(
    embs: "pd.DataFrame", k: int = 10, w_rel: int = 7, w_div: int = 3
):
    """Sequential reference implementing the identical integer spec —
    the bit-equality oracle for mmr_select_docs."""
    import pandas as pd

    ids = embs["vec_id"].to_numpy(dtype=np.int64)
    m = np.array([np.asarray(e, dtype=np.float64) for e in embs["embedding"]])
    x = _mmr_norm_quant(m)
    s = x.sum(axis=0).astype(object)  # exact; mirrors the object fold
    mean = s.astype(np.float64) / (float(_MMR_SCALE) * len(x))
    q = _mmr_norm_quant(mean[None, :])[0]
    selected: list = []
    out = []
    for rnd in range(k):
        rel = x @ q
        if selected:
            dmax = (x @ np.stack(selected).T).max(axis=1)
        else:
            dmax = np.zeros(len(x), dtype=np.int64)
        score = w_rel * rel - w_div * dmax
        taken = {v for v, *_ in out}
        order = np.lexsort((ids, -score))
        j = next(i for i in order if int(ids[i]) not in taken)
        selected.append(x[j])
        out.append((int(ids[j]), int(rel[j]), int(dmax[j]), int(score[j])))
    return pd.DataFrame(
        [
            {"rank": i + 1, "vec_id": v, "rel_dot": r, "div_dot": d,
             "score": sc}
            for i, (v, r, d, sc) in enumerate(out)
        ]
    ).astype(
        {"rank": "int64", "vec_id": "int64", "rel_dot": "int64",
         "div_dot": "int64", "score": "int64"}
    )


def _read_embs(sf_dir: str):
    from open_parse_ray.stages.clustering import _read_embeddings

    return _read_embeddings(sf_dir)
