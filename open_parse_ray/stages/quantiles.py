"""Exact distributed order statistics over FLOAT columns — k-th
smallest / arbitrary percentiles — with NO sort and NO shuffle.

The existing exact machinery (`relational.events_quantiles`,
`ranking.global_rank`) relies on a bounded-cardinality integer value
histogram; float scores (perplexities, quality ratios, importance
weights) have unbounded cardinality, so a histogram of distinct values
cannot reach the driver. This module closes that gap with the classic
MSD-radix selection:

1. IEEE-754 doubles map to uint64 keys by an ORDER-PRESERVING bijection
   (flip all bits of negatives, flip the sign bit of non-negatives) —
   total order on floats == unsigned order on keys, including ±inf,
   ±0.0 and denormals (property-gated).
2. The rank of every requested quantile is found by refining 16 bits
   per pass: each pass streams the compact (gid, key) projection once
   and emits per-batch NONZERO bincounts of the next 16-bit digit for
   rows matching each tracked (group, resolved-prefix) state — bounded
   partials (≤ 65536 × #states rows, folded tree-style before the
   single-block combine), never row data. The driver walks each
   histogram to locate the digit containing the target rank and
   descends. After 4 passes the full 64-bit key — the exact value at
   that rank — is known.

Cost at 10^12 rows: 4 streaming scans of a 16 B/row projection
(materialized once; production would checkpoint it via state/lineage),
zero all-to-all exchanges, driver state ≤ #groups × #percentiles ×
65536 counters per level. Compare: a distributed sort is one full
all-to-all of every row; this moves only counts. Integer counts make
every pass order-independent → bit-reproducible at any block structure.

No reference counterpart (the reference processes one document at a
time); semantics pinned by a DuckDB row_number() oracle over the same
IEEE-exact double column (`ratio_quantiles_by_lang`).
"""

from __future__ import annotations

import struct
from typing import Dict, List, Sequence, Tuple

import numpy as np
import pandas as pd

_MASK16 = np.uint64(0xFFFF)


def ordered_u64(x: np.ndarray) -> np.ndarray:
    """Order-preserving float64 → uint64 (NaN rejected)."""
    x = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
    if np.isnan(x).any():
        raise ValueError("NaN has no place in a total order; filter first")
    b = x.view(np.uint64)
    neg = (b >> np.uint64(63)).astype(bool)
    return np.where(neg, ~b, b | (np.uint64(1) << np.uint64(63)))


def u64_to_float(k: int) -> float:
    """Inverse of ordered_u64 for a single key."""
    k = int(k)
    if k & (1 << 63):
        bits = k & ((1 << 63) - 1)
    else:
        bits = (~k) & ((1 << 64) - 1)
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def rank_of_percent(p: int, n: int) -> int:
    """1-based rank of percentile p over n rows — pure integer
    arithmetic (1 + (p*(n-1))//100) so the Python and SQL sides cannot
    disagree by a float ulp."""
    return 1 + (p * (n - 1)) // 100


def _hist_pass(keyed, states: List[Tuple[int, int, int, int]], shift: int) -> pd.DataFrame:
    """One streaming pass: per-state 16-bit digit histograms.
    states: (sid, gid, prefix, mask) — count rows with row.gid == gid
    and (key & mask) == prefix, binned by (key >> shift) & 0xffff.
    Returns the combined (sid, bucket, cnt) frame."""
    import ray

    from open_parse_ray.stages.relational import two_phase_agg

    states_ref = ray.put(states)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        sts = ray.get(states_ref)
        key = b["key"].to_numpy(dtype=np.uint64)
        gid = b["gid"].to_numpy(dtype=np.int64)
        wt = (
            b["wt"].to_numpy(dtype=np.int64)
            if "wt" in b.columns
            else np.ones(len(b), dtype=np.int64)
        )
        sids, buckets, cnts = [], [], []
        for sid, g, prefix, mask in sts:
            m = gid == g
            if mask:
                m &= (key & np.uint64(mask)) == np.uint64(prefix)
            if not m.any():
                continue
            bk = ((key[m] >> np.uint64(shift)) & _MASK16).astype(np.int64)
            u = np.unique(bk)
            acc = np.zeros(65536, dtype=np.int64)
            np.add.at(acc, bk, wt[m])
            c = acc[u]
            sids.append(np.full(len(u), sid, dtype=np.int64))
            buckets.append(u)
            cnts.append(c)
        if not sids:
            return pd.DataFrame(
                {
                    "sid": pd.Series([], dtype="int64"),
                    "bucket": pd.Series([], dtype="int64"),
                    "cnt": pd.Series([], dtype="int64"),
                }
            )
        return pd.DataFrame(
            {
                "sid": np.concatenate(sids),
                "bucket": np.concatenate(buckets),
                "cnt": np.concatenate(cnts),
            }
        )

    partials = keyed.map_batches(partial, batch_format="pandas", batch_size=65536)
    return two_phase_agg(partials, ["sid", "bucket"], {"cnt": "sum"}).to_pandas()


def _walk(hist: pd.DataFrame, residual: int) -> Tuple[int, int]:
    """(digit containing the 1-based residual rank, rows below it)."""
    hist = hist.sort_values("bucket")
    cum = 0
    for b, c in zip(hist["bucket"].to_numpy(), hist["cnt"].to_numpy()):
        if cum + c >= residual:
            return int(b), cum
        cum += int(c)
    raise ValueError("rank exceeds group row count (histogram underflow)")


def quantile_values(keyed, percents: Sequence[int]) -> pd.DataFrame:
    """Exact per-group percentile VALUES over a Dataset of
    (gid:int64, key:uint64 — ordered_u64 of the score). An optional
    ``wt`` int64 column makes every percentile WEIGHTED (e.g. token
    mass instead of doc count — CCNet's actual bucketing); n/rank then
    mean total weight and weight-rank. Returns a pandas frame
    (gid, p, n, rank, value) — ≤ #gids × #percents rows.
    Rank semantics: 1 + (p*(n-1))//100 (nearest-rank, integer-exact):
    the value at which cumulative count/weight in value order first
    reaches the rank."""
    keyed = keyed.materialize()

    # pass 0: per-gid top-16-bit histograms (one state per gid, sid=gid;
    # gids discovered from the histogram itself — no separate pass)
    from open_parse_ray.stages.relational import _arrow_group_aggs, two_phase_agg

    def seed_partial(t: "pa.Table") -> "pa.Table":
        key = t.column("key").to_numpy().astype(np.uint64)
        wt = (
            t.column("wt").to_numpy().astype(np.int64)
            if "wt" in t.column_names
            else np.ones(t.num_rows, dtype=np.int64)
        )
        return _arrow_group_aggs(
            {
                "sid": t.column("gid").to_numpy().astype(np.int64),
                "bucket": ((key >> np.uint64(48)) & _MASK16).astype(np.int64),
            },
            {"cnt": ("sum", wt)},
            t.num_rows,
        )

    h0 = two_phase_agg(
        keyed.map_batches(seed_partial, batch_format="pyarrow", batch_size=65536),
        ["sid", "bucket"],
        {"cnt": "sum"},
    ).to_pandas()
    if len(h0) == 0:
        return pd.DataFrame(
            {
                "gid": pd.Series([], dtype="int64"),
                "p": pd.Series([], dtype="int64"),
                "n": pd.Series([], dtype="int64"),
                "rank": pd.Series([], dtype="int64"),
                "value": pd.Series([], dtype="float64"),
            }
        )

    targets: List[Dict] = []
    for gid, gh in h0.groupby("sid"):
        n = int(gh["cnt"].sum())
        for p in percents:
            rank = rank_of_percent(int(p), n)
            digit, below = _walk(gh, rank)
            targets.append(
                {
                    "gid": int(gid),
                    "p": int(p),
                    "n": n,
                    "rank": rank,
                    "prefix": digit << 48,
                    "residual": rank - below,
                }
            )

    for level in range(1, 4):
        shift = 48 - 16 * level
        mask = ((1 << (16 * level)) - 1) << (64 - 16 * level)
        states = [
            (i, t["gid"], t["prefix"], mask) for i, t in enumerate(targets)
        ]
        hist = _hist_pass(keyed, states, shift)
        for i, t in enumerate(targets):
            digit, below = _walk(hist[hist["sid"] == i], t["residual"])
            t["prefix"] |= digit << shift
            t["residual"] -= below

    return pd.DataFrame(
        {
            "gid": np.array([t["gid"] for t in targets], dtype=np.int64),
            "p": np.array([t["p"] for t in targets], dtype=np.int64),
            "n": np.array([t["n"] for t in targets], dtype=np.int64),
            "rank": np.array([t["rank"] for t in targets], dtype=np.int64),
            "value": np.array([u64_to_float(t["prefix"]) for t in targets]),
        }
    ).sort_values(["gid", "p"]).reset_index(drop=True)


def ratio_quantiles_by_lang(sf_dir: str, percents: Sequence[int] = (25, 50, 75, 95)):
    """Corpus query: exact per-language percentiles of the chars-per-
    token ratio (a float quality signal with unbounded cardinality —
    the case the integer-histogram rankers cannot handle). The ratio is
    CAST(n_chars AS DOUBLE) / whitespace-token-count: one integer
    division in IEEE double on both sides → the DuckDB oracle matches
    to the bit. Blank docs (token count 0) are excluded on both sides.
    Returns (lang, p, value) sorted by (lang, p)."""
    import ray.data as rd

    from open_parse_ray.stages.analysis import (
        n_tokens_sql_semantics,
        read_documents,
    )
    from open_parse_ray.stages.relational import two_phase_agg

    ds = read_documents(sf_dir, columns=["lang", "text", "n_chars"])

    # deterministic gid per lang (sorted distinct; bounded cardinality)
    def lang_partial(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"lang": b["lang"].unique(), "one": np.int64(1)})

    langs = sorted(
        two_phase_agg(
            ds.map_batches(lang_partial, batch_format="pandas", batch_size=65536),
            ["lang"],
            {"one": "sum"},
        )
        .to_pandas()["lang"]
        .tolist()
    )
    gid_of = {l: i for i, l in enumerate(langs)}

    def project(b: pd.DataFrame) -> pd.DataFrame:
        n_tok = np.array(
            [n_tokens_sql_semantics(t) for t in b["text"]], dtype=np.int64
        )
        keep = n_tok > 0
        ratio = b["n_chars"].to_numpy(dtype=np.float64)[keep] / n_tok[keep]
        return pd.DataFrame(
            {
                "gid": b["lang"][keep].map(gid_of).to_numpy(dtype=np.int64),
                "key": ordered_u64(ratio),
            }
        )

    keyed = ds.map_batches(project, batch_format="pandas", batch_size=8192)
    qv = quantile_values(keyed, percents)
    out = pd.DataFrame(
        {
            "lang": [langs[g] for g in qv["gid"]],
            "p": qv["p"].astype("int64"),
            "value": qv["value"].astype("float64"),
        }
    ).sort_values(["lang", "p"]).reset_index(drop=True)
    return rd.from_pandas(out)


def token_weighted_ratio_quantiles(sf_dir: str, percents: Sequence[int] = (25, 50, 75, 95)):
    """TOKEN-WEIGHTED percentiles of the chars-per-token ratio per
    language: the value below which p% of the corpus's TOKEN MASS lies
    (CCNet buckets by token mass, not document count — a few huge docs
    shift these cutoffs where doc-count percentiles barely move).
    Same 4-pass MSD-radix machinery with integer token weights in the
    histograms. Oracle: DuckDB window cumsum of n_tokens in value
    order — the boundary value where the running mass first reaches
    1 + (p*(W-1))//100. Returns (lang, p, value)."""
    import ray.data as rd

    from open_parse_ray.stages.analysis import (
        n_tokens_sql_semantics,
        read_documents,
    )
    from open_parse_ray.stages.relational import two_phase_agg

    ds = read_documents(sf_dir, columns=["lang", "text", "n_chars"])

    def lang_partial(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"lang": b["lang"].unique(), "one": np.int64(1)})

    langs = sorted(
        two_phase_agg(
            ds.map_batches(lang_partial, batch_format="pandas", batch_size=65536),
            ["lang"],
            {"one": "sum"},
        )
        .to_pandas()["lang"]
        .tolist()
    )
    gid_of = {l: i for i, l in enumerate(langs)}

    def project(b: pd.DataFrame) -> pd.DataFrame:
        n_tok = np.array(
            [n_tokens_sql_semantics(t) for t in b["text"]], dtype=np.int64
        )
        keep = n_tok > 0
        ratio = b["n_chars"].to_numpy(dtype=np.float64)[keep] / n_tok[keep]
        return pd.DataFrame(
            {
                "gid": b["lang"][keep].map(gid_of).to_numpy(dtype=np.int64),
                "key": ordered_u64(ratio),
                "wt": n_tok[keep],
            }
        )

    keyed = ds.map_batches(project, batch_format="pandas", batch_size=8192)
    qv = quantile_values(keyed, percents)
    out = pd.DataFrame(
        {
            "lang": [langs[g] for g in qv["gid"]],
            "p": qv["p"].astype("int64"),
            "value": qv["value"].astype("float64"),
        }
    ).sort_values(["lang", "p"]).reset_index(drop=True)
    return rd.from_pandas(out)


def order_value_quantiles_by_segment(
    sf_dir: str, percents: Sequence[int] = (25, 50, 75)
):
    """Exact order-value percentiles (integer cents) per customer market
    segment — the quantile engine composed with a distributed dimension
    attach: segment lives on CUSTOMER, so a custkey-salted tagged union
    maps each order to its segment gid (the shipping_priority semijoin
    shape — only (custkey, cents) rows cross), then the multi-pass
    radix-histogram ranker finds each (segment, p) value without any
    sort. Keys are ordered_u64 over exact float cents (integers < 2^53
    round-trip bit-exactly), rank rule 1 + (p*(n-1))//100 on both sides.
    Returns (c_mktsegment, p, value_cents)."""
    import pyarrow as pa
    import ray.data as rd

    from open_parse_ray.sources.tables import table_path
    from open_parse_ray.stages.dedup import salted_groupby
    from open_parse_ray.stages.relational import _cents, two_phase_agg

    cust = rd.read_parquet(
        table_path(sf_dir, "customer"), columns=["c_custkey", "c_mktsegment"]
    )

    def seg_partial(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"seg": b["c_mktsegment"].unique(), "one": np.int64(1)})

    segs = sorted(
        two_phase_agg(
            cust.map_batches(seg_partial, batch_format="pandas", batch_size=65536),
            ["seg"],
            {"one": "sum"},
        )
        .to_pandas()["seg"]
        .tolist()
    )
    gid_of = {s: i for i, s in enumerate(segs)}

    def proj_cust(t: pa.Table) -> pa.Table:
        gid = np.array(
            [gid_of[s] for s in t["c_mktsegment"].to_pylist()], dtype=np.int64
        )
        return pa.table(
            {
                "ck": t["c_custkey"].cast(pa.int64()),
                "val": pa.array(gid, pa.int64()),
                "side": pa.array(np.zeros(t.num_rows, dtype=np.int64)),
            }
        )

    def proj_orders(t: pa.Table) -> pa.Table:
        cents = _cents(t["o_totalprice"].to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "ck": t["o_custkey"].cast(pa.int64()),
                "val": pa.array(cents, pa.int64()),
                "side": pa.array(np.ones(t.num_rows, dtype=np.int64)),
            }
        )

    tagged = cust.map_batches(
        proj_cust, batch_format="pyarrow", batch_size=65536
    ).union(
        rd.read_parquet(
            table_path(sf_dir, "orders"), columns=["o_custkey", "o_totalprice"]
        ).map_batches(proj_orders, batch_format="pyarrow", batch_size=65536)
    )

    def attach(g: pd.DataFrame) -> pd.DataFrame:
        c = g[g["side"] == 0]
        o = g[g["side"] == 1]
        gid = o["ck"].map(
            dict(zip(c["ck"].to_numpy(), c["val"].to_numpy()))
        )
        m = gid.notna()
        return pd.DataFrame(
            {
                "gid": gid[m].to_numpy(dtype=np.int64),
                "key": ordered_u64(
                    o.loc[m, "val"].to_numpy(dtype=np.int64).astype(np.float64)
                ),
            }
        )

    keyed = salted_groupby(tagged, "ck", attach)
    qv = quantile_values(keyed, percents)
    out = pd.DataFrame(
        {
            "c_mktsegment": [segs[g] for g in qv["gid"]],
            "p": qv["p"].astype("int64"),
            "value_cents": np.array(
                [int(round(v)) for v in qv["value"]], dtype=np.int64
            ),
        }
    ).sort_values(["c_mktsegment", "p"]).reset_index(drop=True)
    import ray.data as _rd

    return _rd.from_pandas(out)
