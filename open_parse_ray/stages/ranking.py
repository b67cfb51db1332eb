"""Distributed global ranking → quantile-tier assignment ("tier
extraction"): the curriculum / quality-bucketing step of a training-data
pipeline — assign every document an exact global rank under a total
order and an ntile-style equal-count tier, without ever sorting the
whole corpus on one machine.

Plan shape (the classic range-partition + offset-scan zipWithIndex,
expressed in Ray Data):

1. one streaming pass projects each row to a compact (id, value) pair
   and materializes it (16 B/row — at 10^12 docs production would
   checkpoint this projection to Parquet via state/lineage instead of
   the object store; the plan is otherwise identical),
2. a per-batch partial HISTOGRAM of the value column (bounded
   cardinality: distinct whitespace token counts ≤ max document length)
   flows to the driver, which derives range-partition boundaries over
   the composite key (value, id); a value whose count straddles a
   partition target is sub-split by id cuts, so a corpus where one
   value dominates (10^9 docs of length 512) still yields bounded
   partitions — boundary placement affects only balance, never
   correctness,
3. the ONE all-to-all: groupby(partition) over the compact pairs; each
   partition sorts locally by (value, id) and emits 0-based local ranks,
4. per-partition counts (per-batch bincount partials, ~num_parts rows)
   give the driver an exclusive prefix sum of partition sizes; a final
   streaming map adds the broadcast offset → exact global rank → ntile
   tier.

Every exchanged row is ≤ 24 bytes; the driver only ever sees the value
histogram and num_parts partition counts. No reference counterpart —
this is a scale-layer addition (the reference processes one document at
a time); semantics pinned by the DuckDB row_number()/ntile() oracle.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pandas as pd

from open_parse_ray.sources.tables import table_path

_ID_BITS = 40  # composite key = (value << 40) | id ; requires id < 2^40
_ID_MASK = (1 << _ID_BITS) - 1


def ntile_of_rank(rank: np.ndarray, n_rows: int, k: int) -> np.ndarray:
    """SQL ntile(k) over 1-based ranks: the first n_rows % k tiles get
    floor(n/k)+1 rows, the rest floor(n/k)."""
    q, rem = divmod(n_rows, k)
    big = q + 1
    threshold = rem * big
    r = np.asarray(rank, dtype=np.int64)
    q_safe = max(q, 1)
    return np.where(
        r <= threshold,
        (r - 1) // big + 1,
        rem + 1 + (r - 1 - threshold) // q_safe,
    ).astype(np.int64)


def _composite(value: np.ndarray, ids: np.ndarray) -> np.ndarray:
    v = np.asarray(value, dtype=np.uint64)
    i = np.asarray(ids, dtype=np.uint64)
    if i.size and int(i.max()) > _ID_MASK:
        raise ValueError("id exceeds 2^40; widen _ID_BITS")
    if v.size and int(v.max()) >> (64 - _ID_BITS):
        # v << 40 would wrap uint64 and silently corrupt every rank /
        # partition boundary derived from the composite — raise instead
        raise ValueError("value exceeds 2^24; composite would overflow")
    return (v << np.uint64(_ID_BITS)) | i


def _boundaries(hist: pd.DataFrame, max_id: int, num_parts: int) -> np.ndarray:
    """num_parts-1 composite cut keys from the (value, count) histogram.
    A value straddling a partition target is sub-split by id cuts placed
    uniformly over [0, max_id] — balance heuristic only; ranks stay
    exact because partitioning only co-locates, the sort happens inside
    each partition and offsets come from measured partition counts."""
    hist = hist.sort_values("v").reset_index(drop=True)
    values = hist["v"].to_numpy(dtype=np.int64)
    counts = hist["cnt"].to_numpy(dtype=np.int64)
    total = int(counts.sum())
    cuts: list[int] = []
    cum = 0
    targets = [(i * total) // num_parts for i in range(1, num_parts)]
    ti = 0
    for v, c in zip(values, counts):
        while ti < len(targets) and targets[ti] < cum + c:
            inside = targets[ti] - cum  # rows of this value below the cut
            if inside <= 0:
                # cut at the lower edge of this value: key just below it
                cuts.append(int(_composite(np.array([v]), np.array([0]))[0]) - 1)
            else:
                frac_id = min(max_id, (max_id * inside) // max(c, 1))
                cuts.append(int(_composite(np.array([v]), np.array([frac_id]))[0]))
            ti += 1
        cum += c
    while ti < len(targets):  # degenerate: fewer rows than partitions
        cuts.append(np.iinfo(np.int64).max - 1)
        ti += 1
    return np.asarray(sorted(set(cuts)), dtype=np.uint64)


def global_rank(keyed, k: int = 4, num_parts: Optional[int] = None):
    """Exact 1-based global rank + ntile(k) tier over a Dataset of
    (doc_id:int64, n_tokens:int64) pairs, total-ordered by
    (n_tokens, doc_id). Returns (doc_id, n_tokens, rank, tier)."""
    import ray

    from open_parse_ray.stages.dedup import default_num_parts, salted_groupby

    keyed = keyed.materialize()
    if num_parts is None:
        num_parts = default_num_parts(keyed)

    def hist_partial(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return pd.DataFrame(
                {
                    "v": pd.Series([], dtype="int64"),
                    "cnt": pd.Series([], dtype="int64"),
                    "max_id": pd.Series([], dtype="int64"),
                }
            )
        vc = b["n_tokens"].value_counts()
        return pd.DataFrame(
            {
                "v": vc.index.to_numpy(dtype=np.int64),
                "cnt": vc.to_numpy(dtype=np.int64),
                "max_id": np.int64(b["doc_id"].max()),
            }
        )

    from open_parse_ray.stages.relational import two_phase_agg

    hp = two_phase_agg(
        keyed.map_batches(hist_partial, batch_format="pandas", batch_size=65536),
        ["v"],
        {"cnt": "sum", "max_id": "max"},
    ).to_pandas()
    if len(hp) == 0:
        import ray.data as rd

        return rd.from_pandas(
            pd.DataFrame(
                {
                    "doc_id": pd.Series([], dtype="int64"),
                    "n_tokens": pd.Series([], dtype="int64"),
                    "rank": pd.Series([], dtype="int64"),
                    "tier": pd.Series([], dtype="int64"),
                }
            )
        )
    max_id = int(hp["max_id"].max())
    hist = hp[["v", "cnt"]]
    n_rows = int(hist["cnt"].sum())
    bounds_ref = ray.put(_boundaries(hist, max_id, num_parts))

    def assign_pid(b: pd.DataFrame) -> pd.DataFrame:
        bounds = ray.get(bounds_ref)
        key = _composite(
            b["n_tokens"].to_numpy(dtype=np.int64), b["doc_id"].to_numpy(dtype=np.int64)
        )
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"].astype("int64"),
                "n_tokens": b["n_tokens"].astype("int64"),
                "pid": np.searchsorted(bounds, key, side="right").astype(np.int64),
            }
        )

    def local_rank(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["n_tokens", "doc_id"]).reset_index(drop=True)
        g["lrank"] = np.arange(len(g), dtype=np.int64)
        return g

    ranked = salted_groupby(
        keyed.map_batches(assign_pid, batch_format="pandas", batch_size=65536),
        "pid",
        local_rank,
        num_parts=num_parts,
    ).materialize()

    def count_partial(b: pd.DataFrame) -> pd.DataFrame:
        vc = b["pid"].value_counts()
        return pd.DataFrame(
            {"pid": vc.index.to_numpy(dtype=np.int64), "n": vc.to_numpy(dtype=np.int64)}
        )

    counts = (
        two_phase_agg(
            ranked.map_batches(count_partial, batch_format="pandas", batch_size=65536),
            ["pid"],
            {"n": "sum"},
        )
        .to_pandas()
        .sort_values("pid")
    )
    offsets = np.zeros(int(counts["pid"].max()) + 2, dtype=np.int64)
    offsets[counts["pid"].to_numpy(dtype=np.int64) + 1] = counts["n"].to_numpy(dtype=np.int64)
    offsets = np.cumsum(offsets)
    offsets_ref = ray.put(offsets)

    def finalize(b: pd.DataFrame) -> pd.DataFrame:
        off = ray.get(offsets_ref)
        rank = off[b["pid"].to_numpy(dtype=np.int64)] + b["lrank"].to_numpy(dtype=np.int64) + 1
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"].astype("int64"),
                "n_tokens": b["n_tokens"].astype("int64"),
                "rank": rank,
                "tier": ntile_of_rank(rank, n_rows, k),
            }
        )

    return ranked.map_batches(finalize, batch_format="pandas", batch_size=65536)


def doc_tiers(sf_dir: str, k: int = 4, num_parts: Optional[int] = None):
    """Length-quantile tier extraction over the documents corpus: exact
    global rank by (whitespace token count, doc_id) and ntile(k) tier.
    The short-doc tiers are what a quality-curriculum drops first.
    Oracle: DuckDB row_number()/ntile() over the same total order."""
    from open_parse_ray.stages.analysis import read_documents, token_count_batch

    keyed = read_documents(sf_dir, columns=["doc_id", "text"]).map_batches(
        token_count_batch, batch_format="pandas", batch_size=8192
    )
    return global_rank(keyed, k=k, num_parts=num_parts)


def grouped_rank_events(sf_dir: str):
    """Per-GROUP ranking at scale: rank of each event's value within its
    event_type, ordered by (v_cents, event_id) — row_number() OVER
    (PARTITION BY event_type ORDER BY ...) — WITHOUT a per-group
    map_groups (event_type has ~5 distinct values: at 10^12 rows each
    group is a cluster-sized hot key that no single task may hold).

    Trick: pack (gid << 20) | v_cents into the value column and reuse
    the SAME range-partition + offset-scan machinery as global_rank —
    the total order (gid, cents, id) is rank-compatible with the
    per-group order, so rank_in_type = global_rank − group_start[gid],
    where group starts come free from the bounded (gid, cents)
    histogram. Hot groups are sub-split across partitions by the id
    cuts exactly like hot values in doc_tiers.

    Returns (event_id, event_type, v_cents, rank_in_type).
    """
    import ray
    import ray.data as rd

    from open_parse_ray.stages.relational import _cents

    ds = rd.read_parquet(
        table_path(sf_dir, "events"), columns=["event_id", "event_type", "value"]
    )

    # tiny driver step: stable gid per distinct type (sorted)
    def type_partial(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"event_type": b["event_type"].unique()})

    from open_parse_ray.stages.relational import two_phase_agg

    def _one(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["n"] = np.int64(1)
        return b

    types = sorted(
        two_phase_agg(
            ds.map_batches(type_partial, batch_format="pandas", batch_size=65536)
            .map_batches(_one, batch_format="pandas", batch_size=65536),
            ["event_type"],
            {"n": "sum"},
        )
        .to_pandas()["event_type"]
        .unique()
    )
    gid_of = {t: i for i, t in enumerate(types)}
    gid_ref = ray.put(gid_of)

    def pack(b: pd.DataFrame) -> pd.DataFrame:
        g = ray.get(gid_ref)
        cents = _cents(b["value"])
        if cents.size and (cents.min() < 0 or cents.max() >= (1 << 20)):
            raise ValueError("v_cents outside [0, 2^20) — widen the packing")
        gids = b["event_type"].map(g).to_numpy(dtype=np.int64)
        return pd.DataFrame(
            {
                "doc_id": b["event_id"].astype("int64"),
                "n_tokens": (gids << 20) | cents,
            }
        )

    keyed = ds.map_batches(pack, batch_format="pandas", batch_size=65536)
    ranked = global_rank(keyed, k=1)

    # group starts from per-batch gid counts (≤ |types| rows per batch)
    def gid_counts(b: pd.DataFrame) -> pd.DataFrame:
        vc = (b["n_tokens"].to_numpy(dtype=np.int64) >> 20)
        u, c = np.unique(vc, return_counts=True)
        return pd.DataFrame({"gid": u, "n": c.astype(np.int64)})

    gc = (
        two_phase_agg(
            keyed.map_batches(gid_counts, batch_format="pandas", batch_size=65536),
            ["gid"],
            {"n": "sum"},
        )
        .to_pandas()
        .sort_values("gid")
    )
    starts = np.zeros(len(types) + 1, dtype=np.int64)
    starts[gc["gid"].to_numpy(dtype=np.int64) + 1] = gc["n"].to_numpy(dtype=np.int64)
    starts = np.cumsum(starts)
    starts_ref = ray.put((starts, types))

    def unpack(b: pd.DataFrame) -> pd.DataFrame:
        st, ts = ray.get(starts_ref)
        packed = b["n_tokens"].to_numpy(dtype=np.int64)
        gids = packed >> 20
        return pd.DataFrame(
            {
                "event_id": b["doc_id"].astype("int64"),
                "event_type": [ts[g] for g in gids],
                "v_cents": packed & ((1 << 20) - 1),
                "rank_in_type": b["rank"].to_numpy(dtype=np.int64) - st[gids],
            }
        )

    return ranked.map_batches(unpack, batch_format="pandas", batch_size=65536)


def epoch_shuffle(sf_dir: str, epoch: int = 1, num_parts: int = 64):
    """Deterministic training-epoch shuffle with EXACT global
    positions: every document gets position = its rank under
    ORDER BY (md5(doc_id || ':' || epoch), doc_id). Epochs permute
    independently (the key depends on the epoch), reruns are
    byte-identical (repo determinism invariant), and a resumable
    training job can recompute any shard's positions without a seed
    file — none of which ds.random_shuffle gives.

    Scale shape: md5 keys are uniform, so range partitioning needs NO
    histogram — pid = (first 16 key bits × num_parts) >> 16 is
    order-aligned with the key and balanced by construction. One keyed
    exchange, local sort per partition, measured-count offset scan
    (the global_rank pattern with trivial boundaries). Exchanged rows
    are (doc_id, 32-byte key). Returns (doc_id, pos), pos 1-based.
    Full SQL oracle: DuckDB row_number() over the same md5 string."""
    import hashlib

    import ray

    from open_parse_ray.stages.analysis import read_documents
    from open_parse_ray.stages.dedup import salted_groupby
    from open_parse_ray.stages.relational import two_phase_agg

    ds = read_documents(sf_dir, columns=["doc_id"])

    def keyed(b: pd.DataFrame) -> pd.DataFrame:
        keys = [
            hashlib.md5(f"{int(d)}:{epoch}".encode("ascii")).hexdigest()
            for d in b["doc_id"]
        ]
        pid = np.array(
            [(int(k[:4], 16) * num_parts) >> 16 for k in keys], dtype=np.int64
        )
        return pd.DataFrame(
            {"doc_id": b["doc_id"].astype("int64"), "key": keys, "pid": pid}
        )

    def local_rank(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["key", "doc_id"]).reset_index(drop=True)
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].astype("int64"),
                "pid": g["pid"].astype("int64"),
                "lrank": np.arange(len(g), dtype=np.int64),
            }
        )

    ranked = salted_groupby(
        ds.map_batches(keyed, batch_format="pandas", batch_size=65536),
        "pid",
        local_rank,
        num_parts=num_parts,
    ).materialize()

    def count_partial(b: pd.DataFrame) -> pd.DataFrame:
        vc = b["pid"].value_counts()
        return pd.DataFrame(
            {"pid": vc.index.to_numpy(dtype=np.int64), "n": vc.to_numpy(dtype=np.int64)}
        )

    counts = (
        two_phase_agg(
            ranked.map_batches(count_partial, batch_format="pandas", batch_size=65536),
            ["pid"],
            {"n": "sum"},
        )
        .to_pandas()
        .sort_values("pid")
    )
    offsets = np.zeros(num_parts + 1, dtype=np.int64)
    offsets[counts["pid"].to_numpy(dtype=np.int64) + 1] = counts["n"].to_numpy(
        dtype=np.int64
    )
    offsets = np.cumsum(offsets)
    offsets_ref = ray.put(offsets)

    def finalize(b: pd.DataFrame) -> pd.DataFrame:
        off = ray.get(offsets_ref)
        pos = off[b["pid"].to_numpy(dtype=np.int64)] + b["lrank"].to_numpy(
            dtype=np.int64
        ) + 1
        return pd.DataFrame({"doc_id": b["doc_id"].astype("int64"), "pos": pos})

    return ranked.map_batches(finalize, batch_format="pandas", batch_size=65536)


def rank_fusion_docs(sf_dir: str, num_parts: Optional[int] = None):
    """Borda-count RANK FUSION — combine two exact global rankings of
    the corpus (by n_chars and by whitespace token count, each
    tie-broken by doc_id) into a fused ordering: borda = rank_a +
    rank_b, re-ranked by (borda, doc_id). The multi-signal selection
    primitive (fuse length with quality, retrieval scores, etc.) built
    ENTIRELY from the histogram range-partition ranker — integer ranks
    make the fusion hash-exact where reciprocal-rank fusion's floats
    could not be. Plan: two global_rank passes (each: driver-sized
    histogram → range partition → offset scan), one doc-salted pivot
    exchange to form borda, a third global_rank over borda, and one
    final doc-salted attach. Every exchange ships fixed-width rows;
    ranks never concentrate (range partition splits ties by id).
    Returns (doc_id, rank_chars, rank_tokens, borda, fused_rank)."""
    import ray.data as rd

    from open_parse_ray.stages.analysis import read_documents, token_count_batch
    from open_parse_ray.stages.dedup import salted_groupby

    chars_keyed = read_documents(sf_dir, columns=["doc_id", "n_chars"]).map_batches(
        lambda b: pd.DataFrame(
            {"doc_id": b["doc_id"].astype("int64"),
             "n_tokens": b["n_chars"].astype("int64")}
        ),
        batch_format="pandas",
        batch_size=65536,
    )
    tok_keyed = read_documents(sf_dir, columns=["doc_id", "text"]).map_batches(
        token_count_batch, batch_format="pandas", batch_size=8192
    )

    def tag(side):
        def f(b: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {
                    "doc_id": b["doc_id"].astype("int64"),
                    "r": b["rank"].astype("int64"),
                    "side": np.full(len(b), side, dtype=np.int64),
                }
            )

        return f

    ra = global_rank(chars_keyed, num_parts=num_parts).map_batches(
        tag(0), batch_format="pandas", batch_size=65536
    )
    rb = global_rank(tok_keyed, num_parts=num_parts).map_batches(
        tag(1), batch_format="pandas", batch_size=65536
    )

    def pivot(g: pd.DataFrame) -> pd.DataFrame:
        a = g[g["side"] == 0].set_index("doc_id")["r"]
        b = g[g["side"] == 1].set_index("doc_id")["r"]
        ids = a.index.to_numpy(dtype=np.int64)
        rc = a.to_numpy(dtype=np.int64)
        rt = b.loc[a.index].to_numpy(dtype=np.int64)
        return pd.DataFrame(
            {"doc_id": ids, "rank_chars": rc, "rank_tokens": rt,
             "borda": rc + rt}
        )

    joined = salted_groupby(
        ra.union(rb), "doc_id", pivot, num_parts=num_parts
    ).materialize()

    fused = global_rank(
        joined.map_batches(
            lambda b: pd.DataFrame(
                {"doc_id": b["doc_id"].astype("int64"),
                 "n_tokens": b["borda"].astype("int64")}
            ),
            batch_format="pandas",
            batch_size=65536,
        ),
        num_parts=num_parts,
    ).map_batches(tag(1), batch_format="pandas", batch_size=65536)

    def attach(g: pd.DataFrame) -> pd.DataFrame:
        base = g[g["side"] == 0].set_index("doc_id")
        fr = g[g["side"] == 1].set_index("doc_id")["a"]
        return pd.DataFrame(
            {
                "doc_id": base.index.to_numpy(dtype=np.int64),
                "rank_chars": base["a"].to_numpy(dtype=np.int64),
                "rank_tokens": base["b"].to_numpy(dtype=np.int64),
                "borda": base["c"].to_numpy(dtype=np.int64),
                "fused_rank": fr.loc[base.index].to_numpy(dtype=np.int64),
            }
        )

    def tag_joined(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"].astype("int64"),
                "a": b["rank_chars"].astype("int64"),
                "b": b["rank_tokens"].astype("int64"),
                "c": b["borda"].astype("int64"),
                "side": np.zeros(len(b), dtype=np.int64),
            }
        )

    def tag_fused(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"].astype("int64"),
                "a": b["r"].astype("int64"),
                "b": np.zeros(len(b), dtype=np.int64),
                "c": np.zeros(len(b), dtype=np.int64),
                "side": np.ones(len(b), dtype=np.int64),
            }
        )

    return salted_groupby(
        joined.map_batches(tag_joined, batch_format="pandas", batch_size=65536)
        .union(fused.map_batches(tag_fused, batch_format="pandas", batch_size=65536)),
        "doc_id",
        attach,
        num_parts=num_parts,
    )
