"""Relational / windowed operators over the TPC-H-ish tables.

Corpus-metrics-style aggregations demonstrating the scale patterns:
partial aggregation before any groupby, broadcast joins for small
dimension tables (ray.put once, lookup per batch — no shuffle), and
groupby+map_groups windowing for the events stream. Money amounts are
emitted as integer cents (CAST(ROUND(x*100)) both here and in the SQL
oracle) so float summation order can never flip the value hash.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pandas as pd

from open_parse_ray.sources.tables import table_path


def _cents(x: pd.Series) -> pd.Series:
    # round-half-AWAY-from-zero to match SQL round() (numpy rounds half to
    # even, which flips exact .5 cents like 95046.5 systematically)
    v = np.asarray(x, dtype=np.float64) * 100
    return np.where(v >= 0, np.floor(v + 0.5), np.ceil(v - 0.5)).astype(np.int64)


def _dict_codes(arr):
    """Any key array → (int64 codes, sorted distinct values), each code
    being the RANK of its value, so ordering by code orders by value —
    pandas ``groupby(sort=True)`` order: numbers numerically, strings by
    code point, bytes bytewise. Values are dictionary-encoded by Arrow's
    C kernel (no pandas factorize, no Python loop); a dictionary-typed
    key is decoded first, so duplicate dictionary entries cannot split
    a group."""
    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(arr, np.ndarray):
        arr = pa.array(arr)
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if pa.types.is_dictionary(arr.type):
        arr = arr.dictionary_decode()
    if arr.null_count:
        # a null index would round-trip through float NaN → garbage
        # int64 code and silently land in an arbitrary group (pandas
        # groupby DROPPED null keys); refuse loudly instead
        raise ValueError("_arrow_group_aggs: null key values are unsupported")
    arr = pc.dictionary_encode(arr)
    order = pc.sort_indices(arr.dictionary).to_numpy()
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order), dtype=np.int64)
    codes = arr.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    return rank[codes], arr.dictionary.take(pa.array(order))


def _arrow_group_aggs(keys, vals, n: int):
    """Group-by aggregation, pure pyarrow + numpy: the per-block partial
    of every two-phase aggregate and, through ``two_phase_agg``, its
    combine.

    ``keys``: name → key array (pa.Array / ChunkedArray / DictionaryArray
    / np.ndarray). ``vals``: name → ("count", None) or
    ("sum" | "min" | "max", integer numpy array). Grouping is a
    composite-code np.unique over value ranks (composite values stay
    < n_rows² — no overflow at any block size), so the output rows are
    sorted by ``keys`` exactly as pandas ``groupby(keys, sort=True)``
    sorts them; sums are int64 np.add.at (integer partials stay exact,
    per the repo's no-float-partials invariant); min/max preserve the
    input dtype (uint64 included). A null key or a non-integer value
    column raises: pandas dropped the first silently and the int64
    accumulator would truncate the second.
    Returns one pa.Table row per distinct key combination.
    """
    import pyarrow as pa

    names = list(keys)
    if n == 0:
        cols = {}
        for kn in names:
            arr = keys[kn]
            if isinstance(arr, np.ndarray):
                arr = pa.array(arr)
            if isinstance(arr, pa.ChunkedArray):
                arr = arr.combine_chunks()
            if pa.types.is_dictionary(arr.type):
                arr = arr.dictionary_decode()
            cols[kn] = arr.slice(0, 0)
        for vn, (kind, arr) in vals.items():
            dt = pa.int64() if kind in ("count", "sum") else pa.from_numpy_dtype(arr.dtype)
            cols[vn] = pa.array([], dt)
        return pa.table(cols)

    for vn, (kind, arr) in vals.items():
        if arr is not None and arr.dtype.kind not in "iu":
            raise ValueError(
                f"_arrow_group_aggs: {kind} of {vn!r} needs an integer column, got {arr.dtype}"
            )
    codes, dicts = [], []
    for kn in names:
        c, d = _dict_codes(keys[kn])
        codes.append(c)
        dicts.append(d)
    comp = codes[0].copy()
    for i in range(1, len(codes)):
        comp = comp * len(dicts[i]) + codes[i]
    uq, inv = np.unique(comp, return_inverse=True)
    g = len(uq)

    out_cols = {}
    rem = uq.copy()
    rev = []
    for i in range(len(codes) - 1, 0, -1):
        card = len(dicts[i])
        rev.append(rem % card)
        rem = rem // card
    rev.append(rem)
    for kn, d, kc in zip(names, dicts, rev[::-1]):
        out_cols[kn] = d.take(pa.array(kc, pa.int64()))

    counts = None
    for vn, (kind, arr) in vals.items():
        if kind == "count":
            if counts is None:
                counts = np.bincount(inv, minlength=g).astype(np.int64)
            out_cols[vn] = pa.array(counts, pa.int64())
        elif kind == "sum":
            acc = np.zeros(g, dtype=np.int64)
            np.add.at(acc, inv, arr.astype(np.int64))
            out_cols[vn] = pa.array(acc, pa.int64())
        elif kind == "min":
            acc = np.full(g, np.iinfo(arr.dtype).max, dtype=arr.dtype)
            np.minimum.at(acc, inv, arr)
            out_cols[vn] = pa.array(acc, pa.from_numpy_dtype(arr.dtype))
        elif kind == "max":
            acc = np.full(g, np.iinfo(arr.dtype).min, dtype=arr.dtype)
            np.maximum.at(acc, inv, arr)
            out_cols[vn] = pa.array(acc, pa.from_numpy_dtype(arr.dtype))
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown agg kind {kind!r}")
    return pa.table(out_cols)


def _regroup(t, keys, aggs):
    """``_arrow_group_aggs`` over a table of partials: ``aggs`` maps each
    partial column to "sum" | "min" | "max"; other columns are dropped."""
    vals = {}
    for c, how in aggs.items():
        col = t.column(c)
        if col.null_count:
            raise ValueError(f"two_phase_agg: null values in partial column {c!r}")
        vals[c] = (how, col.to_numpy())
    return _arrow_group_aggs({k: t.column(k) for k in keys}, vals, t.num_rows)


def two_phase_agg(partials, keys, aggs, finalize=None):
    """Re-aggregate per-block partials: the engine's one combine for
    BOUNDED group cardinality. The partials (one row per group per block,
    any block format) are coalesced into one block and re-grouped by
    ``keys`` with ``_arrow_group_aggs`` — ``aggs`` maps each partial
    column to "sum" | "min" | "max" over integers — giving one Arrow
    block sorted by ``keys`` like pandas ``groupby(keys, sort=True)``.
    ``finalize`` (pandas frame → frame), if given, runs on that frame
    inside the same one-block call, so a query's driver-side finish costs
    no second coalesce.

    There is no intermediate fold, at any site: the partials go straight
    to the combine. Measured on 1 CPU, an extra per-65536-row re-group
    before the coalesce made the ten graph/quantile queries that had one
    slower at sf0.01 (sum of median walls 11.9 s with it, 11.0 s without)
    and left doc_stats_by_lang flat (0.228 vs 0.221 s). Ray Data's
    groupby().aggregate()/map_groups() pay ~3ms of Python per group
    (10-20s for 3.4k groups), which dwarfs this plan; a real shuffle
    (``dedup.salted_groupby``) only earns its cost when group
    cardinality is unbounded."""

    def combine(t):
        out = _regroup(t, keys, aggs)
        return out if finalize is None else finalize(out.to_pandas())

    return partials.repartition(1).map_batches(
        combine, batch_format="pyarrow", batch_size=None
    )


def topk_rank(parts, score: str, key: str, k: int):
    """Global top-k fold: coalesce per-partition top-k candidates into
    one block, order by ``score`` descending then ``key`` ascending, keep
    ``k`` rows and number them from 1. Returns (rank, key, score)."""

    def rank(b: pd.DataFrame) -> pd.DataFrame:
        b = b.sort_values([score, key], ascending=[False, True]).head(k)
        return pd.DataFrame(
            {
                "rank": np.arange(1, len(b) + 1, dtype=np.int64),
                key: b[key].to_numpy(),
                score: b[score].to_numpy(),
            }
        )

    return parts.repartition(1).map_batches(rank, batch_format="pandas", batch_size=None)


def revenue_by_returnflag(sf_dir: str):
    """lineitem: per (l_returnflag, l_linestatus): count, sum qty,
    revenue cents. Partial-aggregates inside map_batches first."""
    import ray.data as rd

    ds = rd.read_parquet(
        table_path(sf_dir, "lineitem"),
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def partial(t: "pa.Table") -> "pa.Table":
        price = t.column("l_extendedprice").to_numpy(zero_copy_only=False)
        disc = t.column("l_discount").to_numpy(zero_copy_only=False)
        qty = t.column("l_quantity").to_numpy(zero_copy_only=False).astype(np.int64)
        return _arrow_group_aggs(
            {
                "l_returnflag": t.column("l_returnflag"),
                "l_linestatus": t.column("l_linestatus"),
            },
            {
                "n_items": ("count", None),
                "sum_qty": ("sum", qty),
                "revenue_cents": ("sum", _cents(price * (1 - disc))),
            },
            t.num_rows,
        )

    partials = ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)
    return two_phase_agg(
        partials,
        ["l_returnflag", "l_linestatus"],
        {"n_items": "sum", "sum_qty": "sum", "revenue_cents": "sum"},
    )


def customers_by_region(sf_dir: str):
    """Broadcast join: region ⋈ nation are tiny — shipped to every batch
    via ray.put; customer streams through with a dict lookup. Returns
    (r_name, n_customers, total_acctbal_cents)."""
    import ray
    import ray.data as rd

    nation = pd.read_parquet(table_path(sf_dir, "nation"))
    region = pd.read_parquet(table_path(sf_dir, "region"))
    nk_to_region = dict(
        zip(
            nation["n_nationkey"],
            nation["n_regionkey"].map(
                dict(zip(region["r_regionkey"], region["r_name"]))
            ),
        )
    )
    ref = ray.put(nk_to_region)

    ds = rd.read_parquet(
        table_path(sf_dir, "customer"), columns=["c_nationkey", "c_acctbal"]
    )

    class JoinAndPartial:
        def __init__(self, ref):
            self.lookup = ray.get(ref)

        def __call__(self, t: "pa.Table") -> "pa.Table":
            import pyarrow as pa

            nk = t.column("c_nationkey").to_numpy(zero_copy_only=False)
            # dict lookup only over the block's DISTINCT nation keys; the
            # per-row key stays a dictionary array (codes), so the partial
            # group-by never materializes per-row strings
            uq, inv = np.unique(nk, return_inverse=True)
            r_names = pa.array([self.lookup[int(k)] for k in uq], pa.string())
            key = pa.DictionaryArray.from_arrays(pa.array(inv, pa.int32()), r_names)
            return _arrow_group_aggs(
                {"r_name": key},
                {
                    "n_customers": ("count", None),
                    "total_acctbal_cents": (
                        "sum",
                        _cents(t.column("c_acctbal").to_numpy(zero_copy_only=False)),
                    ),
                },
                t.num_rows,
            )

    partials = ds.map_batches(
        JoinAndPartial,
        fn_constructor_args=(ref,),
        batch_format="pyarrow",
        batch_size=65536,
        concurrency=(1, 4),
    )
    return two_phase_agg(
        partials,
        ["r_name"],
        {"n_customers": "sum", "total_acctbal_cents": "sum"},
    )


def events_hourly(sf_dir: str):
    """Tumbling 1h window per event_type: (event_type, hour_epoch,
    n_events, total_value_cents)."""
    import ray.data as rd

    ds = rd.read_parquet(
        table_path(sf_dir, "events"), columns=["ts", "event_type", "value"]
    )

    def partial(t: "pa.Table") -> "pa.Table":
        e = (
            t.column("ts")
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[s]")
            .astype(np.int64)
        )
        return _arrow_group_aggs(
            {
                "event_type": t.column("event_type"),
                "hour_epoch": (e // 3600) * 3600,
            },
            {
                "n_events": ("count", None),
                "total_value_cents": (
                    "sum",
                    _cents(t.column("value").to_numpy(zero_copy_only=False)),
                ),
            },
            t.num_rows,
        )

    partials = ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)
    return two_phase_agg(
        partials,
        ["event_type", "hour_epoch"],
        {"n_events": "sum", "total_value_cents": "sum"},
    )


def orders_customer_join(sf_dir: str):
    """Co-partitioned hash join (the shuffle-join path, for when neither
    side is broadcastable): both sides are tagged into one common schema,
    salted on the join key so matching keys co-locate, and each partition
    runs one vectorized pandas merge. Contrast with customers_by_region,
    which broadcasts the small side instead of shuffling. Returns
    (o_orderkey, o_custkey, c_nationkey, price_cents)."""
    import pyarrow as pa
    import ray.data as rd

    from open_parse_ray.stages.dedup import salted_groupby

    def proj_orders(t: pa.Table) -> pa.Table:
        # Arrow-native pure projection: no pandas block materialization
        # before the exchange (_cents runs on the zero-copy numpy view;
        # its float accumulation is unchanged, keeping the oracle hash)
        n = t.num_rows
        return pa.table(
            {
                "key": t["o_custkey"].cast(pa.int64()),
                "side": pa.array(np.zeros(n, dtype=np.int64)),
                "o_orderkey": t["o_orderkey"].cast(pa.int64()),
                "price_cents": pa.array(_cents(t["o_totalprice"].to_numpy())),
                "c_nationkey": pa.array(np.full(n, -1, dtype=np.int64)),
            }
        )

    def proj_cust(t: pa.Table) -> pa.Table:
        n = t.num_rows
        fill = np.full(n, -1, dtype=np.int64)
        return pa.table(
            {
                "key": t["c_custkey"].cast(pa.int64()),
                "side": pa.array(np.ones(n, dtype=np.int64)),
                "o_orderkey": pa.array(fill),
                "price_cents": pa.array(fill),
                "c_nationkey": t["c_nationkey"].cast(pa.int64()),
            }
        )

    orders = rd.read_parquet(
        table_path(sf_dir, "orders"),
        columns=["o_orderkey", "o_custkey", "o_totalprice"],
    ).map_batches(proj_orders, batch_format="pyarrow", batch_size=65536)
    cust = rd.read_parquet(
        table_path(sf_dir, "customer"), columns=["c_custkey", "c_nationkey"]
    ).map_batches(proj_cust, batch_format="pyarrow", batch_size=65536)

    def join(part: pd.DataFrame) -> pd.DataFrame:
        left = part[part["side"] == 0][["key", "o_orderkey", "price_cents"]]
        right = part[part["side"] == 1][["key", "c_nationkey"]]
        out = left.merge(right, on="key", how="inner")
        return pd.DataFrame(
            {
                "o_orderkey": out["o_orderkey"].astype("int64"),
                "o_custkey": out["key"].astype("int64"),
                "c_nationkey": out["c_nationkey"].astype("int64"),
                "price_cents": out["price_cents"].astype("int64"),
            }
        )

    both = orders.union(cust)
    return salted_groupby(both, "key", join)


def events_sliding(sf_dir: str, window_s: int = 3600, slide_s: int = 900):
    """Sliding-window aggregate (1h window every 15min by default): each
    event belongs to ``window_s / slide_s`` windows; the per-batch kernel
    EXPLODES events into (event_type, window_start) partials vectorized
    with numpy — the shuffle sees only the collapsed partials (bounded
    group cardinality → same two-phase combine as the tumbling window).
    Returns (event_type, window_start, n_events, total_value_cents)."""
    import ray.data as rd

    ds = rd.read_parquet(
        table_path(sf_dir, "events"), columns=["ts", "event_type", "value"]
    )
    k = window_s // slide_s

    def partial(t: "pa.Table") -> "pa.Table":
        import pyarrow as pa

        e = (
            t.column("ts")
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[s]")
            .astype(np.int64)
        )
        first_ws = ((e - window_s) // slide_s + 1) * slide_s  # smallest ws > e-window
        offs = (np.arange(k) * slide_s)[None, :]
        ws = (first_ws[:, None] + offs).reshape(-1)  # (N*k,)
        mask = ws <= np.repeat(e, k)  # window must have started
        src = np.nonzero(mask)[0] // k  # original row of each surviving pair
        cents = _cents(t.column("value").to_numpy(zero_copy_only=False))
        # the key rides as a dictionary take — codes, not repeated strings
        etype = t.column("event_type").combine_chunks().dictionary_encode()
        return _arrow_group_aggs(
            {
                "event_type": etype.take(pa.array(src, pa.int64())),
                "window_start": ws[mask],
            },
            {
                "n_events": ("count", None),
                "total_value_cents": ("sum", cents[src]),
            },
            int(mask.sum()),
        )

    partials = ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)
    return two_phase_agg(
        partials,
        ["event_type", "window_start"],
        {"n_events": "sum", "total_value_cents": "sum"},
    )


def events_with_prev(sf_dir: str):
    """Per-user as-of self-join (LAG): each event annotated with the
    previous event's value for the same user, ordered by (ts, event_id).
    Salted user shuffle + one vectorized sort/shift per partition — the
    standard Ray Data shape for any as-of/nearest-previous join where the
    right side is the same key's history. Returns
    (event_id, user_id, prev_value_cents; -1 for the first event)."""
    import ray.data as rd

    from open_parse_ray.stages.dedup import salted_groupby

    ds = rd.read_parquet(
        table_path(sf_dir, "events"), columns=["event_id", "user_id", "ts", "value"]
    )

    def lag(part: pd.DataFrame) -> pd.DataFrame:
        g = part.sort_values(["user_id", "ts", "event_id"])
        prev = pd.Series(_cents(g["value"])).shift(1)
        same_user = g["user_id"].eq(g["user_id"].shift())
        out = pd.DataFrame(
            {
                "event_id": g["event_id"].astype("int64").values,
                "user_id": g["user_id"].astype("int64").values,
                "prev_value_cents": np.where(same_user, prev, -1).astype("int64"),
            }
        )
        return out

    return salted_groupby(ds, "user_id", lag)


def sessions_per_user(sf_dir: str, gap_minutes: int = 30):
    """Session windows: a new session starts when the gap to the previous
    event (per user, ordered by ts then event_id) exceeds ``gap_minutes``.
    groupby(user_id).map_groups does the per-key ordered scan — the
    documented partitioning assumption is that one user's events fit in
    one group (true by construction of a keyed shuffle)."""
    import ray.data as rd

    ds = rd.read_parquet(
        table_path(sf_dir, "events"), columns=["user_id", "ts", "event_id"]
    )

    from open_parse_ray.stages.dedup import salted_groupby

    def sessions(part: pd.DataFrame) -> pd.DataFrame:
        # vectorized over the whole partition: sort by (user, ts, event),
        # a session starts where the user changes or the gap exceeds the
        # threshold — no per-user Python loop
        g = part.sort_values(["user_id", "ts", "event_id"])
        gaps = g["ts"].diff().dt.total_seconds()
        new_user = g["user_id"].ne(g["user_id"].shift())
        start = new_user | gaps.isna() | (gaps > gap_minutes * 60)
        g = g.assign(_start=start.astype("int64"))
        out = g.groupby("user_id", as_index=False).agg(
            n_events=("event_id", "size"), n_sessions=("_start", "sum")
        )
        return out.astype(
            {"user_id": "int64", "n_events": "int64", "n_sessions": "int64"}
        )

    return salted_groupby(ds, "user_id", sessions)


def local_supplier_revenue(sf_dir: str):
    """TPC-H Q5-style multi-way join: revenue per nation from lineitems
    whose customer and supplier share the nation. Physical plan (the
    multi-join playbook at 100 TB):

    - supplier and nation are dimension tables → broadcast once via
      ``ray.put`` (lookup per batch, no shuffle);
    - orders ⋈ customer on custkey  → co-partitioned hash join #1;
    - lineitem(+s_nationkey) ⋈ that on orderkey → co-partitioned hash
      join #2, reusing the salted-shuffle pattern, with the
      equal-nation filter and a per-partition partial aggregate applied
      INSIDE the join partition so only (nationkey, sums) rows survive
      the second shuffle's output.

    Returns (n_name, revenue_cents, n_items).
    """
    import pyarrow as pa
    import ray
    import ray.data as rd

    from open_parse_ray.stages.dedup import salted_groupby

    sup = pd.read_parquet(
        table_path(sf_dir, "supplier"), columns=["s_suppkey", "s_nationkey"]
    )
    nat = pd.read_parquet(table_path(sf_dir, "nation"), columns=["n_nationkey", "n_name"])
    # dense suppkey→nationkey array (suppkeys are small dense ints): the
    # per-batch lookup is one numpy fancy-index instead of a Python-dict
    # Series.map over every lineitem row
    sup_arr = np.full(int(sup["s_suppkey"].max()) + 1, -1, dtype=np.int64)
    sup_arr[sup["s_suppkey"].to_numpy(dtype=np.int64)] = sup["s_nationkey"].to_numpy(
        dtype=np.int64
    )
    sup_ref = ray.put(sup_arr)
    name_map = dict(zip(nat["n_nationkey"].astype("int64"), nat["n_name"]))

    # --- shuffle 1: orders ⋈ customer on custkey → (o_orderkey, c_nationkey)
    # (pure Arrow projections: nothing converts to pandas pre-exchange)
    def proj_orders(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table(
            {
                "key": t["o_custkey"].cast(pa.int64()),
                "side": pa.array(np.zeros(n, dtype=np.int64)),
                "o_orderkey": t["o_orderkey"].cast(pa.int64()),
                "c_nationkey": pa.array(np.full(n, -1, dtype=np.int64)),
            }
        )

    def proj_cust(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table(
            {
                "key": t["c_custkey"].cast(pa.int64()),
                "side": pa.array(np.ones(n, dtype=np.int64)),
                "o_orderkey": pa.array(np.full(n, -1, dtype=np.int64)),
                "c_nationkey": t["c_nationkey"].cast(pa.int64()),
            }
        )

    orders = rd.read_parquet(
        table_path(sf_dir, "orders"), columns=["o_orderkey", "o_custkey"]
    ).map_batches(proj_orders, batch_format="pyarrow", batch_size=65536)
    cust = rd.read_parquet(
        table_path(sf_dir, "customer"), columns=["c_custkey", "c_nationkey"]
    ).map_batches(proj_cust, batch_format="pyarrow", batch_size=65536)

    def join_orders_cust(part: pd.DataFrame) -> pd.DataFrame:
        left = part[part["side"] == 0][["key", "o_orderkey"]]
        right = part[part["side"] == 1][["key", "c_nationkey"]]
        out = left.merge(right, on="key", how="inner")
        return pd.DataFrame(
            {
                "o_orderkey": out["o_orderkey"].astype("int64"),
                "c_nationkey": out["c_nationkey"].astype("int64"),
            }
        )

    o_c = salted_groupby(orders.union(cust), "key", join_orders_cust)

    # --- lineitem: broadcast supplier-nation lookup + revenue cents
    class TagLineitem:
        def __init__(self, ref):
            self.s_nation = ray.get(ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            # pre-aggregate by (orderkey, supplier-nation) BEFORE the
            # shuffle: ~4 lineitems/order collapse to ≤|nations| rows per
            # order, so join #2 moves a fraction of the lineitem rows.
            # Fully Arrow/numpy: dense-array nation lookup + the shared
            # composite-code partial helper (no pandas block, no dict map).
            sk = t["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
            if len(sk) and (sk.max() >= len(self.s_nation) or sk.min() < 0):
                raise ValueError("lineitem l_suppkey outside supplier key range")
            snat = self.s_nation[sk]
            if (snat < 0).any():  # dense-array gap = FK violation; the old
                # dict .map raised here too — never drop revenue silently
                raise ValueError("lineitem l_suppkey missing from supplier")
            price = t["l_extendedprice"].to_numpy(zero_copy_only=False)
            disc = t["l_discount"].to_numpy(zero_copy_only=False)
            g = _arrow_group_aggs(
                {
                    "key": t["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64),
                    "s_nationkey": snat,
                },
                {
                    "rev_cents": ("sum", _cents(price * (1 - disc))),
                    "n": ("count", None),
                },
                t.num_rows,
            )
            n = g.num_rows
            return pa.table(
                {
                    "key": g["key"],
                    "side": pa.array(np.zeros(n, dtype=np.int64)),
                    "s_nationkey": g["s_nationkey"],
                    "rev_cents": g["rev_cents"],
                    "n": g["n"],
                    "c_nationkey": pa.array(np.full(n, -1, dtype=np.int64)),
                }
            )

    li = rd.read_parquet(
        table_path(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    ).map_batches(
        TagLineitem,
        fn_constructor_args=(sup_ref,),
        batch_format="pyarrow",
        batch_size=65536,
        concurrency=(1, 8),
    )
    def proj_o_c(t: pa.Table) -> pa.Table:
        n = t.num_rows
        fill = np.full(n, -1, dtype=np.int64)
        return pa.table(
            {
                "key": t["o_orderkey"].cast(pa.int64()),
                "side": pa.array(np.ones(n, dtype=np.int64)),
                "s_nationkey": pa.array(fill),
                "rev_cents": pa.array(fill),
                "n": pa.array(fill),
                "c_nationkey": t["c_nationkey"].cast(pa.int64()),
            }
        )

    o_c_tagged = o_c.map_batches(proj_o_c, batch_format="pyarrow", batch_size=65536)

    def join_filter_partial(part: pd.DataFrame) -> pd.DataFrame:
        left = part[part["side"] == 0][["key", "s_nationkey", "rev_cents", "n"]]
        right = part[part["side"] == 1][["key", "c_nationkey"]]
        out = left.merge(right, on="key", how="inner")
        out = out[out["s_nationkey"] == out["c_nationkey"]]
        g = out.groupby("c_nationkey", as_index=False).agg(
            revenue_cents=("rev_cents", "sum"), n_items=("n", "sum")
        )
        return pd.DataFrame(
            {
                "n_name": g["c_nationkey"].map(name_map),
                "revenue_cents": g["revenue_cents"].astype("int64"),
                "n_items": g["n_items"].astype("int64"),
            }
        )

    partials = salted_groupby(li.union(o_c_tagged), "key", join_filter_partial)
    return two_phase_agg(
        partials,
        ["n_name"],
        {"revenue_cents": "sum", "n_items": "sum"},
    )


def distinct_users_by_type(sf_dir: str):
    """Distributed COUNT(DISTINCT): distinct users per event_type. Plan:
    per-batch local dedup of (event_type, user_id) pairs first (collapses
    each block before any exchange), then a salted shuffle on
    hash(event_type, user_id) so every copy of one pair co-locates, a
    per-partition exact dedup + per-type partial count, and a tiny final
    combine. The full table is never shuffled — only already-deduped
    pairs are."""
    import ray.data as rd

    from open_parse_ray.stages.dedup import salted_groupby

    ds = rd.read_parquet(table_path(sf_dir, "events"), columns=["event_type", "user_id"])

    pairs = ds.map_batches(
        lambda b: b.drop_duplicates(["event_type", "user_id"]),
        batch_format="pandas",
        batch_size=65536,
    )

    def dedup_count(part: pd.DataFrame) -> pd.DataFrame:
        d = part.drop_duplicates(["event_type", "user_id"])
        g = d.groupby("event_type", as_index=False).agg(n_users=("user_id", "size"))
        return g.astype({"n_users": "int64"})

    partials = salted_groupby(pairs, ["event_type", "user_id"], dedup_count)
    return two_phase_agg(partials, ["event_type"], {"n_users": "sum"})


def events_quantiles(sf_dir: str, ps=(25, 50, 75, 90, 99)):
    """EXACT distributed quantiles of value (in cents) per event_type via
    a bounded value-histogram: per-batch (event_type, v_cents) → count
    partials, combine to one small histogram block (distinct cents values
    are bounded by the value domain, not the row count), then cumulative
    counts pick the discrete quantile — smallest v with
    cum_count >= ceil(total * p / 100), integer arithmetic identical to
    the SQL oracle. This is the scale path for quantiles over
    bounded-domain measures; unbounded domains would swap the exact
    histogram for a mergeable sketch at the same plan shape.

    Returns (event_type, p_pct, v_cents)."""
    import ray.data as rd

    ds = rd.read_parquet(table_path(sf_dir, "events"), columns=["event_type", "value"])

    def partial(t: "pa.Table") -> "pa.Table":
        return _arrow_group_aggs(
            {
                "event_type": t.column("event_type"),
                "v_cents": _cents(t.column("value").to_numpy(zero_copy_only=False)),
            },
            {"n": ("count", None)},
            t.num_rows,
        )

    partials = ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)
    return two_phase_agg(
        partials,
        ["event_type", "v_cents"],
        {"n": "sum"},
        finalize=lambda h: _quantiles_from_hist(h, ps),
    )


def _quantiles_from_hist(h: pd.DataFrame, ps) -> pd.DataFrame:
    """Discrete quantiles from a (event_type, v_cents, n) histogram:
    smallest v with cum_count >= ceil(total*p/100), integer arithmetic.
    Module-level so property tests can drive it against brute force."""
    if len(h) == 0:
        return pd.DataFrame(
            {"event_type": [], "p_pct": [], "v_cents": []}
        ).astype({"event_type": "object", "p_pct": "int64", "v_cents": "int64"})
    out_t, out_p, out_v = [], [], []
    for et, g in h.groupby("event_type"):
        g = g.sort_values("v_cents")
        cum = g["n"].cumsum().values
        tot = int(cum[-1])
        for p in ps:
            thresh = (tot * p + 99) // 100  # integer ceil(tot*p/100)
            idx = int(np.searchsorted(cum, thresh, side="left"))
            out_t.append(et)
            out_p.append(p)
            out_v.append(int(g["v_cents"].values[idx]))
    return pd.DataFrame(
        {
            "event_type": out_t,
            "p_pct": np.asarray(out_p, dtype=np.int64),
            "v_cents": np.asarray(out_v, dtype=np.int64),
        }
    )


def events_followup(sf_dir: str, window_s: int = 1800):
    """Interval (band) join: for every 'view' event, count 'click'
    events by the SAME user with ts in (view_ts, view_ts + window_s].
    Plan: salted shuffle on user_id (co-locates each user's history),
    then a fully-vectorized per-partition band probe — clicks are sorted
    by (user, ts) and made globally monotonic by adding a per-user
    segment offset to the microsecond timestamp, so every view's window
    is two np.searchsorted calls; no per-row or per-user Python loop.
    Partitioning assumption (documented per the custom-operator rule):
    one user's events fit in one partition, and a partition holds
    < 2^17 distinct users with < 2^46 µs of time span (≈ 2 years).

    Returns (event_id, n_followups) over view events."""
    import ray.data as rd

    from open_parse_ray.stages.dedup import salted_groupby

    ds = rd.read_parquet(
        table_path(sf_dir, "events"), columns=["event_id", "user_id", "ts", "event_type"]
    ).map_batches(
        lambda b: b[b["event_type"].isin(["view", "click"])],
        batch_format="pandas",
        batch_size=65536,
    )
    window_us = window_s * 1_000_000

    def probe(part: pd.DataFrame) -> pd.DataFrame:
        return _followup_probe(part, window_us)

    return salted_groupby(ds, "user_id", probe)


_FOLLOWUP_SEG = np.int64(1) << np.int64(46)


def _followup_probe(part: pd.DataFrame, window_us: int) -> pd.DataFrame:
    """Vectorized per-partition band probe (see events_followup);
    module-level so property tests can drive it against brute force."""
    ts_us = part["ts"].values.astype("datetime64[us]").astype(np.int64)
    ts_us = ts_us - ts_us.min() if len(ts_us) else ts_us
    users = part["user_id"].values.astype(np.int64)
    is_click = (part["event_type"] == "click").values
    is_view = (part["event_type"] == "view").values

    cu, ct = users[is_click], ts_us[is_click]
    order = np.lexsort((ct, cu))
    cu, ct = cu[order], ct[order]
    uniq_users = np.unique(cu)
    seg = np.searchsorted(uniq_users, cu)
    adj = seg.astype(np.int64) * _FOLLOWUP_SEG + ct

    vu, vt = users[is_view], ts_us[is_view]
    vid = part["event_id"].values[is_view].astype(np.int64)
    if len(uniq_users) == 0:
        counts = np.zeros(len(vu), dtype=np.int64)
    else:
        vseg = np.searchsorted(uniq_users, vu)
        safe = np.minimum(vseg, len(uniq_users) - 1)
        has_clicks = (vseg < len(uniq_users)) & (uniq_users[safe] == vu)
        base = vseg.astype(np.int64) * _FOLLOWUP_SEG + vt
        lo = np.searchsorted(adj, base, side="right")  # ts > view_ts
        hi = np.searchsorted(adj, base + window_us, side="right")  # ts <= +window
        counts = np.where(has_clicks, hi - lo, 0).astype(np.int64)
    return pd.DataFrame({"event_id": vid, "n_followups": counts})


def events_asof_prev_click(sf_dir: str):
    """AS-OF join across event types: every 'error' event annotated with
    the most recent 'click' by the SAME user at-or-before its timestamp
    (DuckDB ``ASOF LEFT JOIN`` oracle). Plan: salted shuffle on user_id,
    then one vectorized per-partition pass — clicks sorted by (user, ts)
    with per-user segment offsets making the key monotonic, each error's
    match is one ``np.searchsorted`` (the same adjusted-key trick as the
    band join in events_followup). Emits the matched click's epoch-µs
    (tie-safe: equal timestamps give equal values) or -1 when the user
    has no earlier click. Returns (event_id, prev_click_ts_us)."""
    import ray.data as rd

    from open_parse_ray.stages.dedup import salted_groupby

    ds = rd.read_parquet(
        table_path(sf_dir, "events"), columns=["event_id", "user_id", "ts", "event_type"]
    ).map_batches(
        lambda b: b[b["event_type"].isin(["error", "click"])],
        batch_format="pandas",
        batch_size=65536,
    )

    def probe(part: pd.DataFrame) -> pd.DataFrame:
        return _asof_probe(part)

    return salted_groupby(ds, "user_id", probe)


def _asof_probe(part: pd.DataFrame) -> pd.DataFrame:
    """Vectorized per-partition as-of probe (see events_asof_prev_click);
    module-level so property tests can drive it against brute force."""
    ts_us = part["ts"].values.astype("datetime64[us]").astype(np.int64)
    users = part["user_id"].values.astype(np.int64)
    is_click = (part["event_type"] == "click").values
    is_err = (part["event_type"] == "error").values

    cu, ct = users[is_click], ts_us[is_click]
    order = np.lexsort((ct, cu))
    cu, ct = cu[order], ct[order]
    uniq_users = np.unique(cu)
    seg = np.searchsorted(uniq_users, cu)
    adj = seg.astype(np.int64) * _FOLLOWUP_SEG + (ct - ts_us.min() if len(ts_us) else ct)

    eu, et = users[is_err], ts_us[is_err]
    eid = part["event_id"].values[is_err].astype(np.int64)
    out = np.full(len(eu), -1, dtype=np.int64)
    if len(uniq_users):
        eseg = np.searchsorted(uniq_users, eu)
        safe = np.minimum(eseg, len(uniq_users) - 1)
        has_clicks = (eseg < len(uniq_users)) & (uniq_users[safe] == eu)
        base = eseg.astype(np.int64) * _FOLLOWUP_SEG + (et - ts_us.min())
        # rightmost click with adjusted key <= the error's key
        pos = np.searchsorted(adj, base, side="right") - 1
        valid = has_clicks & (pos >= 0)
        # the found slot must belong to the same user's segment
        pos_safe = np.maximum(pos, 0)
        valid &= seg[pos_safe] == eseg
        out[valid] = ct[pos_safe[valid]]
    return pd.DataFrame({"event_id": eid, "prev_click_ts_us": out})


def events_hourly_top_users(sf_dir: str, k: int = 3):
    """Windowed grouped top-k: per tumbling hour, the k users with the
    highest summed value cents (ties: user_id ascending) — the
    "trending entities per window" continuous-analytics shape.
    Returns (hour_epoch, rank, user_id, total_value_cents).

    Plan: per-batch (hour, user) partial cent sums (Arrow helper)
    collapse each block; exchange 1 salts on the PAIR and finishes the
    sums (pair-salting splits an hour across partitions, so the top-k
    cannot be taken here); exchange 2 salts on the hour and ranks
    vectorized. Both exchanges carry 24-byte rows bounded by the number
    of ACTIVE (hour, user) pairs, never the event count."""
    import ray.data as rd

    from open_parse_ray.stages.dedup import salted_groupby

    ds = rd.read_parquet(
        table_path(sf_dir, "events"), columns=["ts", "user_id", "value"]
    )

    def partial(t: "pa.Table") -> "pa.Table":
        e = (
            t.column("ts")
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[s]")
            .astype(np.int64)
        )
        return _arrow_group_aggs(
            {
                "hour_epoch": (e // 3600) * 3600,
                "user_id": t.column("user_id").to_numpy(zero_copy_only=False).astype(
                    np.int64
                ),
            },
            {
                "v": (
                    "sum",
                    _cents(t.column("value").to_numpy(zero_copy_only=False)),
                ),
            },
            t.num_rows,
        )

    partials = ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)

    def finish_sums(part: pd.DataFrame) -> pd.DataFrame:
        return part.groupby(["hour_epoch", "user_id"], as_index=False).agg(
            v=("v", "sum")
        )

    sums = salted_groupby(partials, ["hour_epoch", "user_id"], finish_sums)

    def rank_topk(part: pd.DataFrame) -> pd.DataFrame:
        part = part.sort_values(
            ["hour_epoch", "v", "user_id"], ascending=[True, False, True]
        )
        part["rank"] = part.groupby("hour_epoch").cumcount().to_numpy(np.int64) + 1
        part = part[part["rank"] <= k]
        return pd.DataFrame(
            {
                "hour_epoch": part["hour_epoch"].astype("int64"),
                "rank": part["rank"].astype("int64"),
                "user_id": part["user_id"].astype("int64"),
                "total_value_cents": part["v"].astype("int64"),
            }
        )

    return salted_groupby(sums, "hour_epoch", rank_topk)


def events_outlier_flags(sf_dir: str):
    """Per-type 3σ outlier flags with EXACT integer arithmetic — the
    streaming anomaly-detection pass, oracle-checkable because the
    float z-score rule is cross-multiplied into integers:

        |v − μ| > 3σ   ⟺   (n·v − S)² > 9·(n·Q − S²)

    with per-type n = count, S = Σ cents, Q = Σ cents² (population
    variance). Returns (event_id, event_type, v_cents, is_outlier).

    Scale shape: pass 1 folds bounded per-type (n, S, Q) int64 partials;
    the ≤|types| moment table broadcasts; pass 2 flags each row with two
    multiplies. Overflow bounds are asserted on the ACTUAL quantities
    (driver-side with Python ints for the per-type RHS, per-batch for
    |n·v − S| < 2^31) — past them, promote the comparison to
    Python/HUGEINT at the same plan shape."""
    import ray
    import ray.data as rd

    ds = rd.read_parquet(
        table_path(sf_dir, "events"), columns=["event_id", "event_type", "value"]
    )

    def moment_partial(t: "pa.Table") -> "pa.Table":
        c = _cents(t.column("value").to_numpy(zero_copy_only=False))
        return _arrow_group_aggs(
            {"event_type": t.column("event_type")},
            {
                "n": ("count", None),
                "s": ("sum", c),
                "q": ("sum", c * c),
            },
            t.num_rows,
        )

    m = two_phase_agg(
        ds.map_batches(moment_partial, batch_format="pyarrow", batch_size=65536),
        ["event_type"],
        {"n": "sum", "s": "sum", "q": "sum"},
    ).to_pandas()
    moments = {
        et: (int(n), int(s), int(q))
        for et, n, s, q in zip(m["event_type"], m["n"], m["s"], m["q"])
    }
    for et, (n, s, q) in moments.items():  # exact Python-int overflow guard
        assert n * q < 2**63 and s * s < 2**63 and 9 * (n * q - s * s) < 2**63, et
    mref = ray.put(moments)

    def flag(t: "pa.Table") -> "pa.Table":
        import pyarrow as pa

        mm = ray.get(mref)
        et = t.column("event_type").combine_chunks()
        enc = et.dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        labels = enc.dictionary.to_pylist()
        n_arr = np.fromiter((mm[s][0] for s in labels), np.int64, count=len(labels))
        s_arr = np.fromiter((mm[s][1] for s in labels), np.int64, count=len(labels))
        q_arr = np.fromiter((mm[s][2] for s in labels), np.int64, count=len(labels))
        c = _cents(t.column("value").to_numpy(zero_copy_only=False))
        n, s, q = n_arr[codes], s_arr[codes], q_arr[codes]
        lhs = n * c - s
        assert len(lhs) == 0 or np.abs(lhs).max() < 2**31, "|n·v − S| overflow"
        outlier = (lhs * lhs > 9 * (n * q - s * s)).astype(np.int64)
        return pa.table(
            {
                "event_id": t.column("event_id"),
                "event_type": et,
                "v_cents": pa.array(c, pa.int64()),
                "is_outlier": pa.array(outlier, pa.int64()),
            }
        )

    return ds.map_batches(flag, batch_format="pyarrow", batch_size=65536)


def user_retention_cohorts(sf_dir: str, week_s: int = 604800):
    """Cohort retention matrix: users grouped by the epoch-week of their
    FIRST event; for each (cohort_week, week_offset) the count of
    distinct users active that week — the standard product-analytics
    retention triangle, here as a corpus-scale exact aggregate.
    Returns (cohort_week, week_offset, n_users).

    Plan: ONE salted exchange on user_id (a user's whole history
    co-locates, so the first-week derivation and per-user distinct
    weeks are partition-local and globally exact); per-partition
    vectorized dedup + groupby emits bounded (cohort, offset) partials
    that are additive across partitions because no user spans two; a
    tiny combine sums. Integer week arithmetic on both sides → exact
    SQL oracle."""
    import ray.data as rd

    from open_parse_ray.stages.dedup import salted_groupby

    ds = rd.read_parquet(table_path(sf_dir, "events"), columns=["user_id", "ts"])

    def cohorts(part: pd.DataFrame) -> pd.DataFrame:
        wk = part["ts"].values.astype("datetime64[s]").astype(np.int64) // week_s
        d = pd.DataFrame(
            {"u": part["user_id"].to_numpy(dtype=np.int64), "wk": wk}
        ).drop_duplicates()
        first = d.groupby("u")["wk"].transform("min")
        g = (
            pd.DataFrame(
                {"cohort_week": first, "week_offset": d["wk"] - first}
            )
            .groupby(["cohort_week", "week_offset"], as_index=False)
            .size()
            .rename(columns={"size": "n_users"})
        )
        return g.astype(
            {"cohort_week": "int64", "week_offset": "int64", "n_users": "int64"}
        )

    partials = salted_groupby(ds, "user_id", cohorts)
    return two_phase_agg(partials, ["cohort_week", "week_offset"], {"n_users": "sum"})


def events_winsorized_stats(sf_dir: str, p_lo: int = 1, p_hi: int = 99):
    """Winsorized per-type aggregates: values clipped to the exact
    [p_lo, p_hi] percentile cents per event_type, then counted/summed —
    the outlier-robust feature-engineering pass (clip, don't drop).
    Returns (event_type, n_events, winsorized_sum_cents,
    n_clipped_low, n_clipped_high).

    Plan: the same bounded value-histogram as events_quantiles yields
    EXACT per-type cutoffs (smallest v with cum >= ceil(total*p/100),
    pure integers); the ≤|types|×2 cutoff table broadcasts; a second
    streaming pass clips + partial-aggregates per batch (Arrow helper)
    with a tiny combine. Two passes, zero full-table shuffles, exact
    SQL oracle with the same discrete rank rule."""
    import ray
    import ray.data as rd

    ds = rd.read_parquet(table_path(sf_dir, "events"), columns=["event_type", "value"])

    def hist_partial(t: "pa.Table") -> "pa.Table":
        return _arrow_group_aggs(
            {
                "event_type": t.column("event_type"),
                "v_cents": _cents(t.column("value").to_numpy(zero_copy_only=False)),
            },
            {"n": ("count", None)},
            t.num_rows,
        )

    hist = two_phase_agg(
        ds.map_batches(hist_partial, batch_format="pyarrow", batch_size=65536),
        ["event_type", "v_cents"],
        {"n": "sum"},
    ).to_pandas()
    cuts = _quantiles_from_hist(hist, (p_lo, p_hi))
    lo = dict(
        zip(cuts.loc[cuts["p_pct"] == p_lo, "event_type"],
            cuts.loc[cuts["p_pct"] == p_lo, "v_cents"])
    )
    hi = dict(
        zip(cuts.loc[cuts["p_pct"] == p_hi, "event_type"],
            cuts.loc[cuts["p_pct"] == p_hi, "v_cents"])
    )
    cuts_ref = ray.put((lo, hi))

    def clip_partial(t: "pa.Table") -> "pa.Table":
        import pyarrow as pa

        lo_, hi_ = ray.get(cuts_ref)
        et = t.column("event_type").combine_chunks()
        enc = et.dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        labels = enc.dictionary.to_pylist()
        lo_arr = np.fromiter((lo_[s] for s in labels), dtype=np.int64, count=len(labels))
        hi_arr = np.fromiter((hi_[s] for s in labels), dtype=np.int64, count=len(labels))
        c = _cents(t.column("value").to_numpy(zero_copy_only=False))
        lo_row, hi_row = lo_arr[codes], hi_arr[codes]
        clipped = np.minimum(np.maximum(c, lo_row), hi_row)
        return _arrow_group_aggs(
            {"event_type": et},
            {
                "n_events": ("count", None),
                "winsorized_sum_cents": ("sum", clipped),
                "n_clipped_low": ("sum", (c < lo_row).astype(np.int64)),
                "n_clipped_high": ("sum", (c > hi_row).astype(np.int64)),
            },
            t.num_rows,
        )

    partials = ds.map_batches(clip_partial, batch_format="pyarrow", batch_size=65536)
    return two_phase_agg(
        partials,
        ["event_type"],
        {
            "n_events": "sum",
            "winsorized_sum_cents": "sum",
            "n_clipped_low": "sum",
            "n_clipped_high": "sum",
        },
    )


def events_sliding_distinct(sf_dir: str, window_s: int = 3600, slide_s: int = 900):
    """Sliding-window COUNT(DISTINCT user) per event_type — the
    streaming-audience metric that composes the window explode of
    events_sliding with the pair-dedup of distinct_users_by_type.
    Distinctness spans windows, so per-batch partials alone can't
    finish the job: the plan explodes each event into its (type,
    window, user) triples, DEDUPES the triples per batch (bounded by
    distinct triples, not rows), then one salted exchange on
    hash(type, window, user) co-locates every copy of a triple for an
    exact per-partition dedup + per-(type, window) partial count, and a
    tiny combine sums. Full rows never shuffle — only deduped triples.
    Returns (event_type, window_start, n_users)."""
    import ray.data as rd

    from open_parse_ray.stages.dedup import salted_groupby

    ds = rd.read_parquet(
        table_path(sf_dir, "events"), columns=["ts", "event_type", "user_id"]
    )
    k = window_s // slide_s

    def triples(b: pd.DataFrame) -> pd.DataFrame:
        e = b["ts"].values.astype("datetime64[s]").astype(np.int64)
        first_ws = ((e - window_s) // slide_s + 1) * slide_s
        offs = (np.arange(k) * slide_s)[None, :]
        ws = (first_ws[:, None] + offs).reshape(-1)
        mask = ws <= np.repeat(e, k)
        src = np.nonzero(mask)[0] // k
        out = pd.DataFrame(
            {
                "event_type": b["event_type"].to_numpy()[src],
                "window_start": ws[mask],
                "user_id": b["user_id"].to_numpy(dtype=np.int64)[src],
            }
        )
        return out.drop_duplicates(ignore_index=True)

    trip = ds.map_batches(triples, batch_format="pandas", batch_size=65536)

    def dedup_count(part: pd.DataFrame) -> pd.DataFrame:
        d = part.drop_duplicates(["event_type", "window_start", "user_id"])
        g = d.groupby(["event_type", "window_start"], as_index=False).size()
        return g.rename(columns={"size": "n_users"}).astype(
            {"window_start": "int64", "n_users": "int64"}
        )

    partials = salted_groupby(
        trip, ["event_type", "window_start", "user_id"], dedup_count
    )
    return two_phase_agg(partials, ["event_type", "window_start"], {"n_users": "sum"})


def events_funnel(
    sf_dir: str,
    steps=("view", "click", "purchase"),
    window_s: int = 3600,
):
    """Three-step funnel with chained FIRST-match semantics: a step-1
    event completes the funnel iff the user's first step-2 event in
    (t1, t1+W] exists AND a step-3 event exists in (t2, t2+W] of that
    first match. Per user: (user_id, n_step1, n_completed). "First" is
    min-ts (timestamp ties share the same t2, so the chain is
    tie-deterministic without an id tiebreak — the SQL oracle uses the
    same min(ts)).

    Plan: ONE salted user exchange (only rows of the three step types
    ship), then a fully-vectorized per-partition probe: each side is
    sorted by (user, ts) with the per-user segment-offset trick of
    events_followup, so every step-1 event's first-match and every
    chained exists-check is one np.searchsorted — no per-row or
    per-user Python loop. Same partitioning assumption as
    events_followup (one user per partition segment, < 2^46 µs span)."""
    import ray.data as rd

    from open_parse_ray.stages.dedup import salted_groupby

    ds = rd.read_parquet(
        table_path(sf_dir, "events"), columns=["event_id", "user_id", "ts", "event_type"]
    ).map_batches(
        lambda b: b[b["event_type"].isin(list(steps))],
        batch_format="pandas",
        batch_size=65536,
    )
    window_us = window_s * 1_000_000

    def probe(part: pd.DataFrame) -> pd.DataFrame:
        return _funnel_probe(part, steps, window_us)

    return salted_groupby(ds, "user_id", probe)


def _funnel_probe(part: pd.DataFrame, steps, window_us: int) -> pd.DataFrame:
    """Vectorized per-partition funnel probe (see events_funnel);
    module-level so property tests can drive it against brute force."""
    ts_us = part["ts"].values.astype("datetime64[us]").astype(np.int64)
    base_ts = ts_us.min() if len(ts_us) else np.int64(0)
    ts_us = ts_us - base_ts
    users = part["user_id"].values.astype(np.int64)
    etype = part["event_type"].values
    uniq_users = np.unique(users)
    nu = len(uniq_users)

    def side(step):
        m = etype == step
        u, t = users[m], ts_us[m]
        order = np.lexsort((t, u))
        u, t = u[order], t[order]
        seg = np.searchsorted(uniq_users, u)
        return u, t, seg, seg.astype(np.int64) * _FOLLOWUP_SEG + t

    u1, t1, seg1, _ = side(steps[0])
    _u2, t2s, seg2s, adj2 = side(steps[1])
    _u3, _t3s, _seg3s, adj3 = side(steps[2])

    n1 = np.bincount(np.searchsorted(uniq_users, u1), minlength=nu).astype(np.int64)
    completed = np.zeros(nu, dtype=np.int64)
    if len(u1) and len(adj2):
        base1 = seg1.astype(np.int64) * _FOLLOWUP_SEG + t1
        lo = np.searchsorted(adj2, base1, side="right")  # first step-2 after t1
        safe = np.minimum(lo, len(adj2) - 1)
        has2 = (
            (lo < len(adj2))
            & (seg2s[safe] == seg1)
            & (t2s[safe] - t1 <= window_us)
        )
        if has2.any() and len(adj3):
            t2 = t2s[safe]
            base2 = seg1.astype(np.int64) * _FOLLOWUP_SEG + t2
            lo3 = np.searchsorted(adj3, base2, side="right")
            hi3 = np.searchsorted(adj3, base2 + window_us, side="right")
            done = has2 & (hi3 > lo3)
            np.add.at(completed, seg1[done], 1)
    return pd.DataFrame(
        {
            "user_id": uniq_users[n1 > 0],
            "n_step1": n1[n1 > 0],
            "n_completed": completed[n1 > 0],
        }
    ).astype({"user_id": "int64", "n_step1": "int64", "n_completed": "int64"})


def customers_no_urgent_orders(sf_dir: str):
    """Distributed ANTI-join: customers with no '1-URGENT' order. Same
    co-partitioned tagged-union shuffle as the hash join, but each
    partition keeps left keys absent from the right side (vectorized
    ``isin``). The probe side is predicate-filtered AT THE READ (row
    filter pushed to the Parquet scan) and per-batch deduped so only
    distinct matching custkeys travel. The reference's only anti-join is
    intra-document spatial (RemoveTextInsideTables,
    basic_transforms.py:122-171); this is the cross-table scale analog.
    Returns (c_custkey, acctbal_cents)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.dataset as pads
    import ray.data as rd

    from open_parse_ray.stages.dedup import salted_groupby

    def proj_cust(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table(
            {
                "key": t["c_custkey"].cast(pa.int64()),
                "side": pa.array(np.zeros(n, dtype=np.int64)),
                "acctbal_cents": pa.array(_cents(t["c_acctbal"].to_numpy())),
            }
        )

    def proj_orders(t: pa.Table) -> pa.Table:
        # pre-dedup the probe side per batch: only distinct custkeys travel
        keys = pc.unique(t["o_custkey"].combine_chunks()).cast(pa.int64())
        n = len(keys)
        return pa.table(
            {
                "key": keys,
                "side": pa.array(np.ones(n, dtype=np.int64)),
                "acctbal_cents": pa.array(np.full(n, -1, dtype=np.int64)),
            }
        )

    cust = rd.read_parquet(
        table_path(sf_dir, "customer"), columns=["c_custkey", "c_acctbal"]
    ).map_batches(proj_cust, batch_format="pyarrow", batch_size=65536)
    orders = rd.read_parquet(
        table_path(sf_dir, "orders"),
        columns=["o_custkey"],
        filter=pads.field("o_orderpriority") == "1-URGENT",
    ).map_batches(proj_orders, batch_format="pyarrow", batch_size=65536)

    def anti(part: pd.DataFrame) -> pd.DataFrame:
        left = part[part["side"] == 0]
        have = part.loc[part["side"] == 1, "key"]
        out = left[~left["key"].isin(have)]
        return pd.DataFrame(
            {
                "c_custkey": out["key"].astype("int64"),
                "acctbal_cents": out["acctbal_cents"].astype("int64"),
            }
        )

    return salted_groupby(cust.union(orders), "key", anti)


def top_orders_per_customer(sf_dir: str, k: int = 3):
    """Grouped top-k (window-rank): the k highest-price orders per
    customer. Salted shuffle on custkey, then ONE vectorized pass per
    partition: sort by (custkey, -price, orderkey), cumcount within
    customer, keep rank <= k — the distributed ROW_NUMBER() OVER
    (PARTITION BY ... ORDER BY ...) pattern with no per-group Python.
    Returns (o_custkey, rank, o_orderkey, price_cents)."""
    import ray.data as rd

    from open_parse_ray.stages.dedup import salted_groupby

    ds = rd.read_parquet(
        table_path(sf_dir, "orders"), columns=["o_orderkey", "o_custkey", "o_totalprice"]
    ).map_batches(
        lambda b: pd.DataFrame(
            {
                "o_custkey": b["o_custkey"].astype("int64"),
                "o_orderkey": b["o_orderkey"].astype("int64"),
                "price_cents": _cents(b["o_totalprice"]),
            }
        ),
        batch_format="pandas",
        batch_size=65536,
    )

    def rank_topk(part: pd.DataFrame) -> pd.DataFrame:
        g = part.sort_values(
            ["o_custkey", "price_cents", "o_orderkey"],
            ascending=[True, False, True],
        )
        g = g.assign(rank=g.groupby("o_custkey").cumcount() + 1)
        g = g[g["rank"] <= k]
        return g[["o_custkey", "rank", "o_orderkey", "price_cents"]].astype(
            {"rank": "int64"}
        )

    return salted_groupby(ds, "o_custkey", rank_topk)


def events_props_stats(sf_dir: str):
    """Semi-structured payload extraction at scale: parse the JSON
    ``props`` column per batch (the scalar-function kernel; a compiled
    regex fast-path handles the flat numeric case, falling back to a real
    JSON parse for anything else) and aggregate per event_type — the
    shape of every metadata-sidecar pipeline over 10^12 event rows.
    Returns (event_type, n_with_k, sum_k, min_k, max_k)."""
    import json
    import re as _re

    import ray.data as rd

    ds = rd.read_parquet(table_path(sf_dir, "events"), columns=["event_type", "props"])
    flat_k = _re.compile(r'^\{"k":\s*(-?\d+)\}$')

    def extract_k(s: str):
        m = flat_k.match(s)
        if m:
            return int(m.group(1))
        try:
            v = json.loads(s).get("k")
        except (ValueError, AttributeError):
            return None
        if isinstance(v, bool):
            return None
        if isinstance(v, int):
            return v
        # non-integral floats would diverge from the oracle's
        # CAST(... AS BIGINT) (round-half-even vs int() truncation):
        # accept only exactly-integral values
        if isinstance(v, float) and v.is_integer():
            return int(v)
        return None

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        ks = pd.Series([extract_k(s) for s in b["props"]], index=b.index, dtype="float64")
        b = b.assign(k=ks)
        b = b[b["k"].notna()]
        b = b.assign(k=b["k"].astype("int64"), n=np.int64(1))
        return b.groupby("event_type", as_index=False).agg(
            n_with_k=("n", "sum"), sum_k=("k", "sum"), min_k=("k", "min"), max_k=("k", "max")
        )

    partials = ds.map_batches(partial, batch_format="pandas", batch_size=65536)
    return two_phase_agg(
        partials,
        ["event_type"],
        {"n_with_k": "sum", "sum_k": "sum", "min_k": "min", "max_k": "max"},
    )


def parts_by_brand(sf_dir: str):
    """Per-brand part stats (covers the part table): count, total retail
    cents, min/max size. Standard two-phase partial aggregation."""
    import ray.data as rd

    ds = rd.read_parquet(
        table_path(sf_dir, "part"), columns=["p_brand", "p_retailprice", "p_size"]
    )

    def partial(t: "pa.Table") -> "pa.Table":
        size = t.column("p_size").to_numpy(zero_copy_only=False)
        return _arrow_group_aggs(
            {"p_brand": t.column("p_brand")},
            {
                "n_parts": ("count", None),
                "total_retail_cents": (
                    "sum",
                    _cents(t.column("p_retailprice").to_numpy(zero_copy_only=False)),
                ),
                "min_size": ("min", size),
                "max_size": ("max", size),
            },
            t.num_rows,
        )

    partials = ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)
    return two_phase_agg(
        partials,
        ["p_brand"],
        {
            "n_parts": "sum",
            "total_retail_cents": "sum",
            "min_size": "min",
            "max_size": "max",
        },
        finalize=lambda b: b.astype({"min_size": "int64", "max_size": "int64"}),
    )


# --- HyperLogLog approximate count-distinct -------------------------------

_HLL_P = 12  # 4096 registers, ~1.6% standard error
_HLL_M = 1 << _HLL_P


def _bitlen_u64(x: np.ndarray) -> np.ndarray:
    """Exact vectorized bit length of uint64 values (0 → 0): six-step
    binary shift ladder. Never float log2 — float64 rounds integers
    within half an ulp of 2^k UP to 2^k (e.g. 2^63-1 → 2^63), which
    overstates the bit length of hashes just below a power of two and
    would desync the register table from its integer SQL oracle."""
    x = x.astype(np.uint64, copy=True)
    n = np.zeros(len(x), dtype=np.int64)
    for s in (32, 16, 8, 4, 2, 1):
        m = (x >> np.uint64(s)) != 0
        n[m] += s
        x[m] >>= np.uint64(s)
    return n + (x != 0).astype(np.int64)


def _avalanche64(ids: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer (no golden-gamma add) of int64 ids → uint64.
    Every stage is a bijection on Z_2^64, so distinct ids stay distinct.
    Mirrored bit-for-bit by the HUGEINT arithmetic in
    HLL_USER_REGISTERS_SQL."""
    h = np.asarray(ids).astype(np.uint64)
    h = (h ^ (h >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    h = (h ^ (h >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return h ^ (h >> np.uint64(31))


def _hll_registers(hashes: np.ndarray) -> np.ndarray:
    """Vectorized register maxima for a batch of uint64 hashes."""
    idx = (hashes >> np.uint64(64 - _HLL_P)).astype(np.int64)
    rest = hashes << np.uint64(_HLL_P)  # remaining 52 bits at the top
    # rank = leading zeros of `rest` + 1 (capped by the 52 usable bits;
    # rest == 0 means all remaining bits were zero → the cap itself)
    lz = np.full(len(hashes), 64 - _HLL_P + 1, dtype=np.int64)
    nonzero = rest != 0
    lz[nonzero] = 64 - _bitlen_u64(rest[nonzero]) + 1
    regs = np.zeros(_HLL_M, dtype=np.int64)
    np.maximum.at(regs, idx, lz)
    return regs


def _hll_estimate(regs: np.ndarray) -> float:
    m = float(_HLL_M)
    est = 0.7213 / (1 + 1.079 / m) * m * m / np.sum(np.exp2(-regs.astype(np.float64)))
    zeros = int((regs == 0).sum())
    if est <= 2.5 * m and zeros:
        est = m * np.log(m / zeros)  # linear counting for small cardinalities
    return float(est)


def approx_distinct_users(sf_dir: str):
    """Approximate COUNT(DISTINCT user_id) per event_type via a
    HyperLogLog sketch — the MERGEABLE-sketch pattern: each batch emits
    (event_type, register_id, register_max) rows only for TOUCHED
    registers, the combine is a plain max-aggregate (associative,
    commutative, idempotent — safe under retries), and the estimate is
    computed once per type from ≤4096 surviving rows. Unlike
    distinct_users_by_type, NO per-user rows ever shuffle: exchange
    volume is bounded by types × 4096 regardless of input size. Accuracy
    is gated by a pytest bound vs the exact count (~1.6% std error);
    rows-only driver check. Returns (event_type, approx_users)."""
    import ray.data as rd

    ds = rd.read_parquet(table_path(sf_dir, "events"), columns=["event_type", "user_id"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for et, g in b.groupby("event_type", sort=False):
            regs = _hll_registers(_avalanche64(g["user_id"].values))
            touched = np.nonzero(regs)[0]
            frames.append(
                pd.DataFrame(
                    {
                        "event_type": et,
                        "reg_id": touched.astype(np.int64),
                        "reg_max": regs[touched],
                    }
                )
            )
        if not frames:
            return pd.DataFrame(
                {"event_type": [], "reg_id": [], "reg_max": []}
            ).astype({"event_type": "object", "reg_id": "int64", "reg_max": "int64"})
        return pd.concat(frames, ignore_index=True)

    partials = ds.map_batches(partial, batch_format="pandas", batch_size=65536)

    def estimate(h: pd.DataFrame) -> pd.DataFrame:
        out_t, out_n = [], []
        for et, g in h.groupby("event_type"):
            regs = np.zeros(_HLL_M, dtype=np.int64)
            regs[g["reg_id"].values] = g["reg_max"].values
            out_t.append(et)
            out_n.append(int(round(_hll_estimate(regs))))
        return pd.DataFrame(
            {"event_type": out_t, "approx_users": np.asarray(out_n, dtype=np.int64)}
        )

    return two_phase_agg(
        partials,
        ["event_type", "reg_id"],
        {"reg_max": "max"},
        finalize=estimate,
    )


def hll_user_registers(sf_dir: str):
    """The HyperLogLog sketch itself as a value-hashed artifact: the
    merged (event_type, reg_id, reg_max) register table that
    approx_distinct_users estimates from. Registers are pure integers
    (splitmix64 avalanche → top-12-bit index, leading-zero rank of the
    remaining 52 bits) and the merge is an associative max, so the
    distributed sketch is bit-identical to a sequential build at ANY
    block structure — which makes the sketch EXACTLY SQL-oracle-able:
    the oracle unrolls the avalanche in HUGEINT mod-2^64 arithmetic and
    computes the rank with length(bin(rest)). This pins the sketch's
    full state, not just a rows-count: a one-bit drift in hashing,
    indexing or rank arithmetic flips the value hash. Exchange volume
    is ≤ |types| × 4096 rows regardless of input size — the mergeable-
    sketch contract that lets a 10^12-row count-distinct finish with a
    KB-scale shuffle."""
    import ray.data as rd

    ds = rd.read_parquet(
        table_path(sf_dir, "events"), columns=["event_type", "user_id"]
    )

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for et, g in b.groupby("event_type", sort=False):
            regs = _hll_registers(_avalanche64(g["user_id"].values))
            touched = np.nonzero(regs)[0]
            frames.append(
                pd.DataFrame(
                    {
                        "event_type": et,
                        "reg_id": touched.astype(np.int64),
                        "reg_max": regs[touched],
                    }
                )
            )
        if not frames:
            return pd.DataFrame(
                {"event_type": [], "reg_id": [], "reg_max": []}
            ).astype({"event_type": "object", "reg_id": "int64", "reg_max": "int64"})
        return pd.concat(frames, ignore_index=True)

    partials = ds.map_batches(partial, batch_format="pandas", batch_size=65536)
    return two_phase_agg(partials, ["event_type", "reg_id"], {"reg_max": "max"})


def _hll_registers_sql() -> str:
    """DuckDB mirror of _avalanche64 + _hll_registers: xor/floor-division
    shifts and 32-bit-split multiplies are exact on non-negative HUGEINT;
    rank = 64 - bitlen(rest) + 1 with bitlen via length(bin(x)) (bin()
    emits no leading zeros), capped at 53 when the low 52 bits vanish."""
    from open_parse_ray.stages.analysis import _sql_mul64

    m64 = "18446744073709551616"
    s1 = _sql_mul64("xor(z, z // 1073741824)", 0xBF58476D1CE4E5B9)
    s2 = _sql_mul64("xor(z, z // 134217728)", 0x94D049BB133111EB)
    return f"""
        WITH ids AS (
          SELECT DISTINCT event_type, CAST(user_id AS HUGEINT) AS z
          FROM events
        ),
        h1 AS (SELECT event_type, {s1} AS z FROM ids),
        h2 AS (SELECT event_type, {s2} AS z FROM h1),
        h3 AS (SELECT event_type, xor(z, z // 2147483648) AS z FROM h2),
        regs AS (
          SELECT event_type,
                 CAST(z // 4503599627370496 AS BIGINT) AS reg_id,
                 (z * 4096) % {m64} AS rest
          FROM h3
        ),
        ranks AS (
          SELECT event_type, reg_id,
                 CASE WHEN rest = 0 THEN 53
                      ELSE 64 - length(bin(rest)) + 1 END AS rank
          FROM regs
        )
        SELECT event_type, reg_id, CAST(max(rank) AS BIGINT) AS reg_max
        FROM ranks GROUP BY event_type, reg_id
    """


def orders_topk_by_value(sf_dir: str, k: int = 20):
    """Top-k orders by total price: per-batch partial top-k, then a tiny
    global sort+limit — never a full sort of the table."""
    import ray.data as rd

    ds = rd.read_parquet(
        table_path(sf_dir, "orders"), columns=["o_orderkey", "o_totalprice"]
    )

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.assign(price_cents=_cents(b["o_totalprice"]))
        top = b.nlargest(k, "price_cents")
        return top[["o_orderkey", "price_cents"]]

    partials = ds.map_batches(partial, batch_format="pandas", batch_size=65536)
    return topk_rank(partials, "price_cents", "o_orderkey", k)

def events_user_rolling(sf_dir: str, frame: int = 3):
    """Per-user ROWS-frame rolling sum — the ordered window-frame
    aggregate family member (distinct from the time-bucket sliding
    window of events_sliding): for each event, the sum of the user's
    last ``frame`` event values (cents), ordered by (ts, event_id).

    Scale shape: one salted exchange on user_id co-locates each
    user's events; a hot user's partition carries its rows plus
    1/num_parts of the rest (BASELINE.md r5 measured hot-key isolation
    15-25% slower, never faster). Inside the partition the frame sum
    is an integer-exact vectorized cumsum difference
    (cs - cs.shift(frame)), never a Python loop. Returns
    (event_id, user_id, roll_cents) — oracle: SUM(...) OVER (PARTITION
    BY user ORDER BY ts, event_id ROWS BETWEEN frame-1 PRECEDING AND
    CURRENT ROW)."""
    import ray.data as rd

    from open_parse_ray.stages.dedup import salted_groupby

    ds = rd.read_parquet(
        table_path(sf_dir, "events"), columns=["event_id", "user_id", "ts", "value"]
    )

    def add_cents(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_id": b["event_id"].astype("int64"),
                "user_id": b["user_id"].astype("int64"),
                "ts": b["ts"],
                "cents": _cents(b["value"]),
            }
        )

    keyed = ds.map_batches(add_cents, batch_format="pandas", batch_size=65536)

    def roll(part: pd.DataFrame) -> pd.DataFrame:
        part = part.sort_values(["user_id", "ts", "event_id"]).reset_index(drop=True)
        cs = part.groupby("user_id")["cents"].cumsum()
        shifted = (
            cs.groupby(part["user_id"]).shift(frame).fillna(0).astype("int64")
        )
        return pd.DataFrame(
            {
                "event_id": part["event_id"],
                "user_id": part["user_id"],
                "roll_cents": (cs - shifted).astype("int64"),
            }
        )

    return salted_groupby(keyed, "user_id", roll)


def events_prior_window_counts(
    sf_dir: str,
    left_type: str = "purchase",
    right_type: str = "click",
    window_s: int = 600,
    num_parts: Optional[int] = None,
):
    """Bucketized INTERVAL (range) join with NO equi-key: for every
    ``left_type`` event, the exact count of ``right_type`` events — by
    ANY user — with ts in [t - W, t). The pure time-range predicate is
    the join Ray Data (and the reference) cannot express natively;
    events_followup's user-salted shape doesn't apply because there is
    no key to co-locate on.

    Plan: quantize time into buckets of width W. A right event belongs
    to bucket t//W; a left event's window spans AT MOST two buckets, so
    it ships exactly two probe rows (buckets b-1 and b). One salted
    exchange on bucket id co-locates each probe with every right event
    it could match; the per-partition kernel clamps the window to the
    probed bucket's time span [tb·W, (tb+1)·W) — distinct buckets own
    disjoint time ranges, so two searchsorted calls over the
    partition's ts-sorted right events count exactly the in-bucket
    in-window rows, and summing a left event's two probes (second
    salted exchange, on event_id) gives the exact total. Rows shipped:
    2·|left| + |right| fixed-width rows — never the events payload; no
    all-pairs stage at any skew (a hot bucket is bounded by W's event
    rate, and W is the query parameter).

    PARTITIONING ASSUMPTION: per-bucket right-event count fits a
    worker (salt on bucket id; hot buckets could be sub-salted by
    splitting the probe instead — not needed at any tested scale)."""
    import ray.data as rd

    from open_parse_ray.stages.dedup import salted_groupby

    w_us = np.int64(window_s) * 1_000_000

    ds = rd.read_parquet(
        table_path(sf_dir, "events"), columns=["event_id", "ts", "event_type"]
    )

    def to_bucket_rows(b: pd.DataFrame) -> pd.DataFrame:
        t = b["ts"].values.astype("datetime64[us]").astype(np.int64)
        et = b["event_type"].to_numpy()
        eid = b["event_id"].to_numpy(dtype=np.int64)
        outs = []
        mr = et == right_type
        if mr.any():
            outs.append(
                pd.DataFrame(
                    {
                        "bucket": t[mr] // w_us,
                        "tag": np.int64(0),
                        "event_id": eid[mr],
                        "t": t[mr],
                    }
                )
            )
        ml = et == left_type
        if ml.any():
            bkt = t[ml] // w_us
            for tb in (bkt - 1, bkt):
                outs.append(
                    pd.DataFrame(
                        {
                            "bucket": tb,
                            "tag": np.int64(1),
                            "event_id": eid[ml],
                            "t": t[ml],
                        }
                    )
                )
        if not outs:
            return pd.DataFrame(
                {"bucket": [], "tag": [], "event_id": [], "t": []}
            ).astype("int64")
        return pd.concat(outs, ignore_index=True).astype("int64")

    rows = ds.map_batches(to_bucket_rows, batch_format="pandas", batch_size=65536)

    def probe(part: pd.DataFrame) -> pd.DataFrame:
        tag = part["tag"].to_numpy(dtype=np.int64)
        t = part["t"].to_numpy(dtype=np.int64)
        rt = np.sort(t[tag == 0])
        pm = tag == 1
        pt, pb = t[pm], part["bucket"].to_numpy(dtype=np.int64)[pm]
        lo = np.maximum(pt - w_us, pb * w_us)
        hi = np.minimum(pt, (pb + 1) * w_us)
        cnt = np.searchsorted(rt, hi, side="left") - np.searchsorted(
            rt, lo, side="left"
        )
        cnt = np.where(hi > lo, cnt, 0)
        return pd.DataFrame(
            {
                "event_id": part["event_id"].to_numpy(dtype=np.int64)[pm],
                "cnt": cnt.astype(np.int64),
            }
        )

    partials = salted_groupby(rows, "bucket", probe, num_parts=num_parts)

    def finish(part: pd.DataFrame) -> pd.DataFrame:
        g = part.groupby("event_id", as_index=False).agg(n_prior=("cnt", "sum"))
        return g.astype({"event_id": "int64", "n_prior": "int64"})

    return salted_groupby(partials, "event_id", finish, num_parts=num_parts)


def orders_returned_semijoin(sf_dir: str):
    """Distributed SEMI-join — the EXISTS shape (TPC-H Q4): per
    o_orderpriority, the count of orders with AT LEAST ONE returned
    line (l_returnflag = 'R'). Completes the join family alongside the
    inner (orders_customer_join), anti (customers_no_urgent_orders),
    as-of (events_asof_prev_click), band (events_followup) and keyless
    range (events_prior_window_counts) joins.

    Scale shape: the probe side never ships payload — lineitem batches
    collapse to the DISTINCT qualifying orderkeys in the block before
    the exchange (a returned order with 7 returned lines ships ≤1 row
    per block it appears in, deduped again inside the partition), and
    the build side ships (orderkey, priority) only. One salted exchange
    on orderkey co-locates both sides; each partition emits bounded
    per-priority partial counts (≤5 rows), so the final combine is
    driver-sized regardless of input size."""
    import pyarrow as pa
    import ray.data as rd

    from open_parse_ray.stages.dedup import salted_groupby

    def proj_lineitem(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keys = t.filter(pc.equal(t["l_returnflag"], "R"))["l_orderkey"]
        uniq = np.unique(keys.to_numpy(zero_copy_only=False).astype(np.int64))
        return pa.table(
            {
                "key": pa.array(uniq),
                "side": pa.array(np.ones(len(uniq), dtype=np.int64)),
                "prio": pa.array([""] * len(uniq), type=pa.string()),
            }
        )

    def proj_orders(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "key": t["o_orderkey"].cast(pa.int64()),
                "side": pa.array(np.zeros(t.num_rows, dtype=np.int64)),
                "prio": t["o_orderpriority"].cast(pa.string()),
            }
        )

    probe = rd.read_parquet(
        table_path(sf_dir, "lineitem"), columns=["l_orderkey", "l_returnflag"]
    ).map_batches(proj_lineitem, batch_format="pyarrow", batch_size=65536)
    build = rd.read_parquet(
        table_path(sf_dir, "orders"), columns=["o_orderkey", "o_orderpriority"]
    ).map_batches(proj_orders, batch_format="pyarrow", batch_size=65536)

    def semi(part: pd.DataFrame) -> pd.DataFrame:
        have = part.loc[part["side"] == 1, "key"].to_numpy(dtype=np.int64)
        o = part[part["side"] == 0]
        hit = o.loc[
            np.isin(o["key"].to_numpy(dtype=np.int64), have), "prio"
        ]
        if not len(hit):
            return pd.DataFrame({"o_orderpriority": [], "n_orders": []}).astype(
                {"o_orderpriority": "str", "n_orders": "int64"}
            )
        g = hit.value_counts()
        return pd.DataFrame(
            {
                "o_orderpriority": g.index.astype(str),
                "n_orders": g.to_numpy(dtype=np.int64),
            }
        )

    partials = salted_groupby(probe.union(build), "key", semi)
    return two_phase_agg(partials, ["o_orderpriority"], {"n_orders": "sum"})


def events_robust_stats(sf_dir: str):
    """EXACT per-type robust statistics — median and MAD (median
    absolute deviation) of value in cents — from ONE histogram pass:
    the same bounded (event_type, v_cents) count partials as
    events_quantiles, but after the combine the |v - median| histogram
    is DERIVED from the value histogram locally (reflect-and-sum, no
    second data scan), so the two nested medians cost one exchange.
    Rank rule is the family's ceil form: smallest v with
    cum >= ceil(total*50/100). Returns
    (event_type, median_cents, mad_cents)."""
    import ray.data as rd

    ds = rd.read_parquet(table_path(sf_dir, "events"), columns=["event_type", "value"])

    def partial(t: "pa.Table") -> "pa.Table":
        return _arrow_group_aggs(
            {
                "event_type": t.column("event_type"),
                "v_cents": _cents(t.column("value").to_numpy(zero_copy_only=False)),
            },
            {"n": ("count", None)},
            t.num_rows,
        )

    partials = ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)

    def _rank_pick(vals: np.ndarray, cnts: np.ndarray) -> int:
        order = np.argsort(vals, kind="stable")
        v, n = vals[order], cnts[order]
        cum = np.cumsum(n)
        tot = int(cum[-1])
        thresh = (tot * 50 + 99) // 100
        return int(v[np.searchsorted(cum, thresh, side="left")])

    def robust(h: pd.DataFrame) -> pd.DataFrame:
        out_t, out_m, out_d = [], [], []
        for et, g in h.groupby("event_type"):
            vals = g["v_cents"].to_numpy(dtype=np.int64)
            cnts = g["n"].to_numpy(dtype=np.int64)
            med = _rank_pick(vals, cnts)
            # |v - med| histogram folded from the value histogram
            dev = np.abs(vals - med)
            uv, inv = np.unique(dev, return_inverse=True)
            dn = np.zeros(len(uv), dtype=np.int64)
            np.add.at(dn, inv, cnts)
            out_t.append(et)
            out_m.append(med)
            out_d.append(_rank_pick(uv, dn))
        return pd.DataFrame(
            {
                "event_type": out_t,
                "median_cents": np.asarray(out_m, dtype=np.int64),
                "mad_cents": np.asarray(out_d, dtype=np.int64),
            }
        )

    return two_phase_agg(
        partials,
        ["event_type", "v_cents"],
        {"n": "sum"},
        finalize=robust,
    )


def events_session_ids(sf_dir: str, gap_minutes: int = 30):
    """Per-EVENT sessionization (sessions_per_user's row-level twin):
    assign every event its user-scoped session index (1-based, in
    (ts, event_id) order; a new session starts when the gap to the
    user's previous event exceeds ``gap_minutes``). The window-function
    shape — sum of gap-start flags over the per-user ordered prefix —
    computed with one user-salted exchange and a partition-wide
    vectorized cumsum (no per-user Python loop: session indices are the
    grouped cumulative sum of start flags, reset at user boundaries by
    construction). Returns (event_id, user_id, session_idx)."""
    import ray.data as rd

    from open_parse_ray.stages.dedup import salted_groupby

    ds = rd.read_parquet(
        table_path(sf_dir, "events"), columns=["user_id", "ts", "event_id"]
    )

    def assign(part: pd.DataFrame) -> pd.DataFrame:
        g = part.sort_values(["user_id", "ts", "event_id"])
        # integer-microsecond gap test: exact on both sides of the oracle
        t = g["ts"].values.astype("datetime64[us]").astype(np.int64)
        gaps = np.diff(t, prepend=t[0] if len(t) else 0)
        new_user = g["user_id"].ne(g["user_id"].shift())
        start = (
            new_user.to_numpy() | (gaps > np.int64(gap_minutes) * 60 * 1_000_000)
        )
        cum = np.cumsum(start.astype(np.int64))
        # reset per user: subtract the cumsum just before the user's
        # first row (its start flag is always set, so idx starts at 1)
        first = np.where(new_user.to_numpy())[0]
        base = np.zeros(len(g), dtype=np.int64)
        base[first] = cum[first] - 1
        base = np.maximum.accumulate(base)
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy(dtype=np.int64),
                "user_id": g["user_id"].to_numpy(dtype=np.int64),
                "session_idx": cum - base,
            }
        )

    return salted_groupby(ds, "user_id", assign)


def fk_audit(sf_dir: str, num_parts: Optional[int] = None):
    """Referential-integrity audit — the data-quality gate a pipeline
    runs before trusting a snapshot: for each FK relation, the exact
    number of child rows whose key has no parent. Relations covered:
    orders.o_custkey -> customer, lineitem.l_orderkey -> orders,
    lineitem.l_partkey -> part, customer.c_nationkey -> nation.
    Returns (relation, n_child, n_orphans).

    Scale shape: each relation is a salted ANTI-join on the key — both
    sides ship (key, side, cnt) fixed-width rows only; the child side
    pre-aggregates to distinct keys WITH COUNTS per block (a key
    appearing 10^6 times ships once per block), the parent side is
    deduped per block, and each partition counts child rows whose key
    has no parent row co-located with it. Per-relation output is one
    row per partition, combined driver-side."""
    import pyarrow as pa
    import ray.data as rd

    from open_parse_ray.stages.dedup import salted_groupby

    def one_relation(child_tbl, child_col, parent_tbl, parent_col, name):
        child = rd.read_parquet(table_path(sf_dir, child_tbl), columns=[child_col])
        parent = rd.read_parquet(table_path(sf_dir, parent_tbl), columns=[parent_col])

        def proj_child(t: pa.Table) -> pa.Table:
            k, c = np.unique(
                t[child_col].to_numpy(zero_copy_only=False).astype(np.int64),
                return_counts=True,
            )
            return pa.table(
                {
                    "key": pa.array(k),
                    "side": pa.array(np.zeros(len(k), dtype=np.int64)),
                    "cnt": pa.array(c.astype(np.int64)),
                }
            )

        def proj_parent(t: pa.Table) -> pa.Table:
            k = np.unique(
                t[parent_col].to_numpy(zero_copy_only=False).astype(np.int64)
            )
            return pa.table(
                {
                    "key": pa.array(k),
                    "side": pa.array(np.ones(len(k), dtype=np.int64)),
                    "cnt": pa.array(np.zeros(len(k), dtype=np.int64)),
                }
            )

        both = child.map_batches(
            proj_child, batch_format="pyarrow", batch_size=65536
        ).union(
            parent.map_batches(proj_parent, batch_format="pyarrow", batch_size=65536)
        )

        def anti(part: pd.DataFrame) -> pd.DataFrame:
            have = np.unique(
                part.loc[part["side"] == 1, "key"].to_numpy(dtype=np.int64)
            )
            ch = part[part["side"] == 0]
            keys = ch["key"].to_numpy(dtype=np.int64)
            orphan = ~np.isin(keys, have)
            return pd.DataFrame(
                {
                    "n_child": [np.int64(ch["cnt"].sum())],
                    "n_orphans": [
                        np.int64(ch["cnt"].to_numpy(dtype=np.int64)[orphan].sum())
                    ],
                }
            )

        parts = salted_groupby(both, "key", anti, num_parts=num_parts).to_pandas()
        return {
            "relation": name,
            "n_child": int(parts["n_child"].sum()),
            "n_orphans": int(parts["n_orphans"].sum()),
        }

    rows = [
        one_relation("orders", "o_custkey", "customer", "c_custkey",
                     "orders.o_custkey->customer"),
        one_relation("lineitem", "l_orderkey", "orders", "o_orderkey",
                     "lineitem.l_orderkey->orders"),
        one_relation("lineitem", "l_partkey", "part", "p_partkey",
                     "lineitem.l_partkey->part"),
        one_relation("customer", "c_nationkey", "nation", "n_nationkey",
                     "customer.c_nationkey->nation"),
    ]
    import ray.data as _rd

    return _rd.from_pandas(
        pd.DataFrame(rows).astype({"n_child": "int64", "n_orphans": "int64"})
    )


def events_user_streaks(sf_dir: str):
    """Gaps-and-islands: per user, the longest run of CONSECUTIVE UTC
    calendar days with at least one event, plus the total count of
    active days — the engagement-streak statistic. Fully vectorized
    island detection over one user-salted exchange: distinct
    (user, day) pairs sort within the partition, an island starts where
    the user changes or the day jumps by more than 1, and island
    lengths come from boundary differences (no per-user loop).
    Returns (user_id, max_streak_days, n_active_days)."""
    import ray.data as rd

    from open_parse_ray.stages.dedup import salted_groupby

    ds = rd.read_parquet(table_path(sf_dir, "events"), columns=["user_id", "ts"])

    def streaks(part: pd.DataFrame) -> pd.DataFrame:
        if not len(part):
            return pd.DataFrame(
                {
                    "user_id": pd.Series(dtype="int64"),
                    "max_streak_days": pd.Series(dtype="int64"),
                    "n_active_days": pd.Series(dtype="int64"),
                }
            )
        u = part["user_id"].to_numpy(dtype=np.int64)
        day = (
            part["ts"].values.astype("datetime64[us]").astype(np.int64)
            // 86_400_000_000
        )
        # distinct (user, day), sorted — day fits well under 2^20
        key = np.unique(u * (1 << 21) + day)
        ku, kd = key >> 21, key & ((1 << 21) - 1)
        starts = np.ones(len(key), dtype=bool)
        starts[1:] = (ku[1:] != ku[:-1]) | (kd[1:] - kd[:-1] > 1)
        sidx = np.flatnonzero(starts)
        lengths = np.diff(np.append(sidx, len(key)))
        island_user = ku[sidx]
        uu, inv = np.unique(island_user, return_inverse=True)
        mx = np.zeros(len(uu), dtype=np.int64)
        np.maximum.at(mx, inv, lengths)
        tot = np.zeros(len(uu), dtype=np.int64)
        np.add.at(tot, inv, lengths)
        return pd.DataFrame(
            {"user_id": uu, "max_streak_days": mx, "n_active_days": tot}
        )

    return salted_groupby(ds, "user_id", streaks)


def events_max_concurrency(
    sf_dir: str, duration_s: int = 300, bucket_s: int = 3600, num_parts: Optional[int] = None
):
    """Interval max-concurrency (the 'airport problem'): treating every
    event as an interval [ts, ts + duration), the maximum number
    simultaneously open at any instant. The canonical +1/-1 sweep needs
    a GLOBALLY ordered running sum — the distributed-scan shape: time
    is bucketed, each bucket's partition reduces its local deltas to
    (bucket, total_delta, local_max_prefix), the driver prefix-scans
    the tiny per-bucket table (one row per NONEMPTY bucket) to get each
    bucket's carry-in, and the answer is max over buckets of
    carry_in + local_max_prefix. One exchange; only (t_us, delta) pairs
    travel; the driver holds one row per nonempty bucket.

    Tie order at equal t is delta ascending (-1 before +1): intervals
    are half-open, an end at t never overlaps a start at t — the same
    (t, d) ordering the SQL oracle's window uses.
    Returns one row (max_concurrent)."""
    import ray.data as rd

    from open_parse_ray.stages.dedup import salted_groupby

    dur_us = np.int64(duration_s) * 1_000_000
    b_us = np.int64(bucket_s) * 1_000_000

    ds = rd.read_parquet(table_path(sf_dir, "events"), columns=["ts"])

    def deltas(b: pd.DataFrame) -> pd.DataFrame:
        t = b["ts"].values.astype("datetime64[us]").astype(np.int64)
        ts_all = np.concatenate([t, t + dur_us])
        d = np.concatenate(
            [np.ones(len(t), dtype=np.int64), -np.ones(len(t), dtype=np.int64)]
        )
        return pd.DataFrame({"bucket": ts_all // b_us, "t": ts_all, "d": d})

    pts = ds.map_batches(deltas, batch_format="pandas", batch_size=65536)

    def bucket_reduce(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for bk, g in part.groupby("bucket", sort=False):
            order = np.lexsort((g["d"].to_numpy(), g["t"].to_numpy()))
            c = np.cumsum(g["d"].to_numpy(dtype=np.int64)[order])
            rows.append(
                {
                    "bucket": np.int64(bk),
                    "total": np.int64(c[-1]),
                    "local_max": np.int64(c.max()),
                }
            )
        return pd.DataFrame(rows)

    per_bucket = salted_groupby(
        pts, "bucket", bucket_reduce, num_parts=num_parts
    ).to_pandas()
    per_bucket = per_bucket.sort_values("bucket")
    carry = np.concatenate(
        [[0], np.cumsum(per_bucket["total"].to_numpy(dtype=np.int64))[:-1]]
    )
    best = int((carry + per_bucket["local_max"].to_numpy(dtype=np.int64)).max())
    return rd.from_pandas(
        pd.DataFrame({"max_concurrent": [best]}).astype("int64")
    )


def events_hourly_trend(sf_dir: str):
    """Per-type linear TREND of hourly revenue, integer-exact: the
    least-squares slope of (hour index, hourly total cents) reported as
    the exact integer pair (slope_num, slope_den) = (n·Σxy − Σx·Σy,
    n·Σx² − (Σx)²) over the OBSERVED hours — the ratio is the slope in
    cents/hour, but the components hash-compare exactly where a float
    slope could not. Hours are rebased to the corpus's first hour
    (slope is shift-invariant) which keeps every product comfortably
    in int64. One bounded-cardinality two-phase aggregate (the
    events_hourly shape); the regression arithmetic runs in the single
    combined block, driver-free. Returns
    (event_type, n_hours, slope_num, slope_den)."""
    import ray.data as rd

    ds = rd.read_parquet(table_path(sf_dir, "events"), columns=["event_type", "ts", "value"])

    def partial(t: "pa.Table") -> "pa.Table":
        ts = t.column("ts").to_numpy(zero_copy_only=False)
        hr = ts.astype("datetime64[us]").astype(np.int64) // 3_600_000_000
        return _arrow_group_aggs(
            {"event_type": t.column("event_type"), "hr": hr},
            {
                "y": ("sum", _cents(t.column("value").to_numpy(zero_copy_only=False))),
            },
            t.num_rows,
        )

    def trend(h: pd.DataFrame) -> pd.DataFrame:
        if not len(h):
            return pd.DataFrame(
                {
                    "event_type": pd.Series(dtype="object"),
                    "n_hours": pd.Series(dtype="int64"),
                    "slope_num": pd.Series(dtype="int64"),
                    "slope_den": pd.Series(dtype="int64"),
                }
            )
        h0 = int(h["hr"].min())
        rows = []
        for et, g in h.groupby("event_type"):
            x = g["hr"].to_numpy(dtype=np.int64) - h0
            y = g["y"].to_numpy(dtype=np.int64)
            n = np.int64(len(x))
            sx, sy = int(x.sum()), int(y.sum())
            sxy, sxx = int((x * y).sum()), int((x * x).sum())
            rows.append(
                {
                    "event_type": et,
                    "n_hours": int(n),
                    "slope_num": int(n) * sxy - sx * sy,
                    "slope_den": int(n) * sxx - sx * sx,
                }
            )
        out = pd.DataFrame(rows)
        return out.astype(
            {"n_hours": "int64", "slope_num": "int64", "slope_den": "int64"}
        )

    return two_phase_agg(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=65536),
        ["event_type", "hr"],
        {"y": "sum"},
        finalize=trend,
    )


def events_grouping_sets(sf_dir: str):
    """Multi-level aggregate in ONE pass (GROUPING SETS / CUBE over
    (event_type, hour-of-day)): counts and summed cents at all four
    levels — (type, hod), (type), (hod), and grand total — with
    sentinel '*' / -1 for aggregated dimensions. The doc_rollup_stats
    pattern for events: per-batch partials at the FINEST level only
    (bounded: types × 24), one combine, coarse levels DERIVED from the
    finest combined table so every level is mutually consistent by
    construction. Returns (event_type, hour_of_day, n, v_cents)."""
    import ray.data as rd

    ds = rd.read_parquet(
        table_path(sf_dir, "events"), columns=["event_type", "ts", "value"]
    )

    def partial(t: "pa.Table") -> "pa.Table":
        ts = t.column("ts").to_numpy(zero_copy_only=False)
        hod = (ts.astype("datetime64[us]").astype(np.int64) // 3_600_000_000) % 24
        return _arrow_group_aggs(
            {"event_type": t.column("event_type"), "hour_of_day": hod},
            {
                "n": ("count", None),
                "v_cents": (
                    "sum",
                    _cents(t.column("value").to_numpy(zero_copy_only=False)),
                ),
            },
            t.num_rows,
        )

    def levels(h: pd.DataFrame) -> pd.DataFrame:
        if not len(h):
            return pd.DataFrame(
                {
                    "event_type": pd.Series(dtype="object"),
                    "hour_of_day": pd.Series(dtype="int64"),
                    "n": pd.Series(dtype="int64"),
                    "v_cents": pd.Series(dtype="int64"),
                }
            )
        outs = [h]
        by_t = h.groupby("event_type", as_index=False).agg(
            n=("n", "sum"), v_cents=("v_cents", "sum")
        )
        by_t["hour_of_day"] = np.int64(-1)
        outs.append(by_t)
        by_h = h.groupby("hour_of_day", as_index=False).agg(
            n=("n", "sum"), v_cents=("v_cents", "sum")
        )
        by_h["event_type"] = "*"
        outs.append(by_h)
        outs.append(
            pd.DataFrame(
                {
                    "event_type": ["*"],
                    "hour_of_day": np.int64(-1),
                    "n": [np.int64(h["n"].sum())],
                    "v_cents": [np.int64(h["v_cents"].sum())],
                }
            )
        )
        out = pd.concat(outs, ignore_index=True)
        return out[["event_type", "hour_of_day", "n", "v_cents"]].astype(
            {"hour_of_day": "int64", "n": "int64", "v_cents": "int64"}
        )

    return two_phase_agg(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=65536),
        ["event_type", "hour_of_day"],
        {"n": "sum", "v_cents": "sum"},
        finalize=levels,
    )


def customer_rfm_segments(sf_dir: str, num_parts: Optional[int] = None):
    """RFM segmentation — the classic customer-analytics operator: per
    customer, Recency (days between their last order and the corpus's
    last order), Frequency (order count) and Monetary (total cents),
    each bucketed into terciles 1..3 by the family's ceil rank rule
    (cutoff = value at rank ceil(n_customers·p/100), p = 33, 66;
    segment = 1 + (v > c33) + (v > c66)). Returns
    (c_custkey, r_days, n_orders, m_cents, r_seg, f_seg, m_seg).

    Plan: one cust-salted exchange builds the per-customer triple
    (orders' payload never leaves its partition); per-batch
    (value, count) histogram partials over the TRIPLES give the three
    cutoff pairs on the driver (distinct-value bounded, the
    events_quantiles argument); the broadcast cutoffs map each triple
    to segments in a final streaming pass."""
    import ray
    import ray.data as rd

    from open_parse_ray.stages.dedup import salted_groupby

    ds = rd.read_parquet(
        table_path(sf_dir, "orders"),
        columns=["o_custkey", "o_orderdate", "o_totalprice"],
    )

    def triples(part: pd.DataFrame) -> pd.DataFrame:
        day = (
            part["o_orderdate"].values.astype("datetime64[us]").astype(np.int64)
            // 86_400_000_000
        )
        g = pd.DataFrame(
            {
                "c_custkey": part["o_custkey"].to_numpy(dtype=np.int64),
                "day": day,
                "cents": _cents(part["o_totalprice"].to_numpy()),
            }
        ).groupby("c_custkey", as_index=False)
        out = g.agg(
            last_day=("day", "max"),
            n_orders=("day", "size"),
            m_cents=("cents", "sum"),
        )
        return out.astype("int64")

    tri = salted_groupby(ds, "o_custkey", triples, num_parts=num_parts).materialize()

    def hist_partial(b: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for col in ("last_day", "n_orders", "m_cents"):
            v, c = np.unique(b[col].to_numpy(dtype=np.int64), return_counts=True)
            frames.append(pd.DataFrame({"dim": col, "v": v, "n": c.astype(np.int64)}))
        return pd.concat(frames, ignore_index=True)

    hist = two_phase_agg(
        tri.map_batches(hist_partial, batch_format="pandas", batch_size=65536),
        ["dim", "v"],
        {"n": "sum"},
    ).to_pandas()

    max_day = int(hist.loc[hist["dim"] == "last_day", "v"].max())

    def cutoffs(dim: str, transform=None):
        g = hist[hist["dim"] == dim].sort_values("v")
        v = g["v"].to_numpy(dtype=np.int64)
        if transform is not None:
            v = transform(v)
            order = np.argsort(v, kind="stable")
            v = v[order]
            n = g["n"].to_numpy(dtype=np.int64)[order]
        else:
            n = g["n"].to_numpy(dtype=np.int64)
        cum = np.cumsum(n)
        tot = int(cum[-1])
        out = []
        for p in (33, 66):
            thresh = (tot * p + 99) // 100
            out.append(int(v[np.searchsorted(cum, thresh, side="left")]))
        return out

    c_r = cutoffs("last_day", transform=lambda v: max_day - v)
    c_f = cutoffs("n_orders")
    c_m = cutoffs("m_cents")
    cut_ref = ray.put((max_day, c_r, c_f, c_m))

    def segment(b: pd.DataFrame) -> pd.DataFrame:
        md, cr, cf, cm = ray.get(cut_ref)
        r = md - b["last_day"].to_numpy(dtype=np.int64)
        f = b["n_orders"].to_numpy(dtype=np.int64)
        m = b["m_cents"].to_numpy(dtype=np.int64)

        def seg(v, c):
            return 1 + (v > c[0]).astype(np.int64) + (v > c[1]).astype(np.int64)

        return pd.DataFrame(
            {
                "c_custkey": b["c_custkey"].to_numpy(dtype=np.int64),
                "r_days": r,
                "n_orders": f,
                "m_cents": m,
                "r_seg": seg(r, cr),
                "f_seg": seg(f, cf),
                "m_seg": seg(m, cm),
            }
        )

    return tri.map_batches(segment, batch_format="pandas", batch_size=65536)


def customer_order_distribution(sf_dir: str):
    """Order-count distribution over customers INCLUDING the zero class
    (the TPC-H Q13 shape: how many customers placed exactly N orders).
    The classic plan LEFT-joins the full customer table against orders;
    at 10^12 customers that join ships every customer row through an
    exchange just to discover most have some orders. Here the customer
    table never crosses an exchange at all: per-block Arrow partials
    collapse orders to (custkey -> count) rows, a custkey-salted
    exchange finishes the counts, and each key-complete partition
    collapses AGAIN to a (n_orders -> n_customers) histogram partial —
    bounded by max-orders-per-customer, so the final combine is tiny.
    The zero class is pure scalar arithmetic: |customer| (a streaming
    count) minus the histogram's own mass (each partition holds disjoint
    custkeys, so the sum of histogram counts IS the number of distinct
    ordering customers — no separate distinct pass). Returns
    (n_orders, n_customers). Reference's only distribution report is
    per-document token stats (schemas.py:499-524); this is the
    cross-table scale analog."""
    import pyarrow as pa
    import ray.data as rd

    from open_parse_ray.stages.dedup import salted_groupby

    orders = rd.read_parquet(table_path(sf_dir, "orders"), columns=["o_custkey"])

    def partial(t: pa.Table) -> pa.Table:
        return _arrow_group_aggs(
            {"k": t["o_custkey"]}, {"n": ("count", None)}, t.num_rows
        )

    partials = orders.map_batches(partial, batch_format="pyarrow", batch_size=65536)

    def hist(part: pd.DataFrame) -> pd.DataFrame:
        if len(part) == 0:
            return pd.DataFrame(
                {
                    "n_orders": pd.Series([], dtype="int64"),
                    "n_customers": pd.Series([], dtype="int64"),
                }
            )
        per_cust = part.groupby("k")["n"].sum()
        vc = per_cust.value_counts()
        return pd.DataFrame(
            {
                "n_orders": vc.index.to_numpy(dtype=np.int64),
                "n_customers": vc.to_numpy().astype(np.int64),
            }
        )

    h = salted_groupby(partials, "k", hist)
    combined = two_phase_agg(h, ["n_orders"], {"n_customers": "sum"}).to_pandas()

    n_cust = rd.read_parquet(
        table_path(sf_dir, "customer"), columns=["c_custkey"]
    ).count()
    n_zero = int(n_cust) - int(combined["n_customers"].sum())
    if n_zero > 0:
        combined = pd.concat(
            [
                pd.DataFrame({"n_orders": [0], "n_customers": [n_zero]}),
                combined,
            ],
            ignore_index=True,
        )
    import ray.data as _rd

    return _rd.from_pandas(
        combined.sort_values("n_orders")
        .reset_index(drop=True)
        .astype({"n_orders": "int64", "n_customers": "int64"})
    )


def dormant_balance_report(sf_dir: str, cutoff: str = "2000-01-01"):
    """Dormant high-balance customers per market segment (the TPC-H Q22
    shape): customers whose positive account balance is STRICTLY above
    the average positive balance and who placed no order on/after
    ``cutoff``, reported as (segment, count, total balance cents). Three
    scale moves: (1) the global average is never a float — phase A
    reduces customer to two integer scalars (n, total_cents) via
    per-batch partials and the threshold test is the cross-multiplied
    ``bal*n > tot`` (events_outlier_flags' integer trick; the product
    bound is asserted, not assumed); (2) the orders probe side is
    predicate-filtered AT THE READ (o_orderdate >= cutoff pushed into
    the Parquet scan) and per-batch deduped, so only distinct recent
    custkeys travel; (3) the anti-join is the co-partitioned tagged
    union of customers_no_urgent_orders, and each partition collapses
    straight to per-segment partials — bounded cardinality, tiny final
    combine. Returns (c_mktsegment, n_cust, bal_cents)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.dataset as pads
    import ray
    import ray.data as rd

    from open_parse_ray.stages.dedup import salted_groupby

    cust_raw = rd.read_parquet(
        table_path(sf_dir, "customer"),
        columns=["c_custkey", "c_mktsegment", "c_acctbal"],
    )

    # phase A: two integer scalars over positive-balance customers
    def scal_partial(t: pa.Table) -> pa.Table:
        bal = _cents(t["c_acctbal"].to_numpy())
        pos = bal[bal > 0]
        return pa.table(
            {
                "n": pa.array([np.int64(len(pos))]),
                "tot": pa.array([pos.sum(dtype=np.int64)]),
            }
        )

    sc = (
        cust_raw.map_batches(scal_partial, batch_format="pyarrow", batch_size=65536)
        .to_pandas()
        .sum()
    )
    n_pos, tot_pos = int(sc["n"]), int(sc["tot"])
    thresh_ref = ray.put((n_pos, tot_pos))

    def proj_cand(t: pa.Table) -> pa.Table:
        n_p, tot_p = ray.get(thresh_ref)
        bal = _cents(t["c_acctbal"].to_numpy())
        # integer cross-multiply: bal > tot/n  <=>  bal*n > tot; the
        # product must fit int64 — assert the bound, never fall back to
        # a silent float comparison
        if len(bal):
            assert abs(int(bal.max())) * max(n_p, 1) < 2**63
        keep = (bal > 0) & (bal * np.int64(n_p) > np.int64(tot_p))
        kept = t.filter(pa.array(keep))
        m = kept.num_rows
        return pa.table(
            {
                "key": kept["c_custkey"].cast(pa.int64()),
                "side": pa.array(np.zeros(m, dtype=np.int64)),
                "seg": kept["c_mktsegment"].cast(pa.string()),
                "bal": pa.array(_cents(kept["c_acctbal"].to_numpy())),
            }
        )

    def proj_recent(t: pa.Table) -> pa.Table:
        keys = pc.unique(t["o_custkey"].combine_chunks()).cast(pa.int64())
        m = len(keys)
        return pa.table(
            {
                "key": keys,
                "side": pa.array(np.ones(m, dtype=np.int64)),
                "seg": pa.array([""] * m, pa.string()),
                "bal": pa.array(np.full(m, -1, dtype=np.int64)),
            }
        )

    import datetime as _dt

    cut_ts = _dt.datetime.fromisoformat(cutoff)
    cand = cust_raw.map_batches(proj_cand, batch_format="pyarrow", batch_size=65536)
    recent = rd.read_parquet(
        table_path(sf_dir, "orders"),
        columns=["o_custkey"],
        filter=pads.field("o_orderdate") >= cut_ts,
    ).map_batches(proj_recent, batch_format="pyarrow", batch_size=65536)

    def anti_seg_partial(part: pd.DataFrame) -> pd.DataFrame:
        left = part[part["side"] == 0]
        have = part.loc[part["side"] == 1, "key"]
        out = left[~left["key"].isin(have)]
        if len(out) == 0:
            return pd.DataFrame(
                {
                    "c_mktsegment": pd.Series([], dtype="object"),
                    "n_cust": pd.Series([], dtype="int64"),
                    "bal_cents": pd.Series([], dtype="int64"),
                }
            )
        g = out.groupby("seg", as_index=False).agg(
            n_cust=("key", "size"), bal_cents=("bal", "sum")
        )
        return pd.DataFrame(
            {
                "c_mktsegment": g["seg"],
                "n_cust": g["n_cust"].astype("int64"),
                "bal_cents": g["bal_cents"].astype("int64"),
            }
        )

    partials = salted_groupby(cand.union(recent), "key", anti_seg_partial)
    return two_phase_agg(
        partials,
        ["c_mktsegment"],
        {"n_cust": "sum", "bal_cents": "sum"},
    )


def large_volume_orders(sf_dir: str, min_qty: int = 250):
    """Large-volume orders (the TPC-H Q18 shape): orders whose summed
    lineitem quantity exceeds ``min_qty``, enriched with the customer
    name. The HAVING filter is the scale bound: the qualifying set holds
    at most total_quantity/min_qty orders (each must absorb > min_qty
    units), so it broadcasts — lineitem collapses through Arrow
    (orderkey → qty) partials and one orderkey-salted exchange, the
    survivors become a ray.put lookup, and BOTH enrichment scans
    (orders, customer) are streaming filters against that broadcast set
    (sorted-np.isin, no join exchange; the final customer-name attach
    happens on two qualifying-sized tables). Returns (o_orderkey,
    o_custkey, c_name, price_cents, total_qty)."""
    import pyarrow as pa
    import ray
    import ray.data as rd

    from open_parse_ray.stages.dedup import salted_groupby

    li = rd.read_parquet(
        table_path(sf_dir, "lineitem"), columns=["l_orderkey", "l_quantity"]
    )

    def partial(t: pa.Table) -> pa.Table:
        q = np.rint(t["l_quantity"].to_numpy()).astype(np.int64)
        return _arrow_group_aggs(
            {"k": t["l_orderkey"]}, {"q": ("sum", q)}, t.num_rows
        )

    def finish(part: pd.DataFrame) -> pd.DataFrame:
        g = part.groupby("k", as_index=False)["q"].sum()
        g = g[g["q"] > min_qty]
        return pd.DataFrame(
            {
                "o_orderkey": g["k"].astype("int64"),
                "total_qty": g["q"].astype("int64"),
            }
        )

    qualifying = salted_groupby(
        li.map_batches(partial, batch_format="pyarrow", batch_size=65536),
        "k",
        finish,
    ).to_pandas()
    okeys = np.sort(qualifying["o_orderkey"].to_numpy(dtype=np.int64))
    qty_of = dict(
        zip(qualifying["o_orderkey"].astype(int), qualifying["total_qty"].astype(int))
    )
    ok_ref = ray.put(okeys)

    def pick_orders(t: pa.Table) -> pa.Table:
        want = ray.get(ok_ref)
        ids = t["o_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        m = np.isin(ids, want, assume_unique=False)
        kept = t.filter(pa.array(m))
        return pa.table(
            {
                "o_orderkey": kept["o_orderkey"].cast(pa.int64()),
                "o_custkey": kept["o_custkey"].cast(pa.int64()),
                "price_cents": pa.array(_cents(kept["o_totalprice"].to_numpy())),
            }
        )

    hits = (
        rd.read_parquet(
            table_path(sf_dir, "orders"),
            columns=["o_orderkey", "o_custkey", "o_totalprice"],
        )
        .map_batches(pick_orders, batch_format="pyarrow", batch_size=65536)
        .to_pandas()
    )

    ckeys = np.sort(hits["o_custkey"].unique().astype(np.int64))
    ck_ref = ray.put(ckeys)

    def pick_cust(t: pa.Table) -> pa.Table:
        want = ray.get(ck_ref)
        ids = t["c_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        kept = t.filter(pa.array(np.isin(ids, want)))
        return pa.table(
            {
                "c_custkey": kept["c_custkey"].cast(pa.int64()),
                "c_name": kept["c_name"].cast(pa.string()),
            }
        )

    names = (
        rd.read_parquet(
            table_path(sf_dir, "customer"), columns=["c_custkey", "c_name"]
        )
        .map_batches(pick_cust, batch_format="pyarrow", batch_size=65536)
        .to_pandas()
    )

    out = hits.merge(names, left_on="o_custkey", right_on="c_custkey")
    out["total_qty"] = out["o_orderkey"].map(qty_of).astype("int64")
    import ray.data as _rd

    return _rd.from_pandas(
        out[["o_orderkey", "o_custkey", "c_name", "price_cents", "total_qty"]]
        .sort_values("o_orderkey")
        .reset_index(drop=True)
    )


def user_journeys(sf_dir: str, max_len: int = 64):
    """Per-user behavioral JOURNEY strings — the event-log→training-
    sequence assembly step for sequence models: each user's event types
    joined with '>' in (ts, event_id) order, TRUNCATED to the first
    ``max_len`` events (the scale bound on the output string — a bot
    user with 10^8 events must not produce a 10^8-token row; the cap is
    part of the spec and mirrored by the oracle's row_number cutoff),
    plus the UNtruncated total count. One user-salted exchange; inside
    each partition a single
    lexsort + cumcount builds every journey vectorized (no per-user
    Python). Returns (user_id, n_events, journey)."""
    import ray.data as rd

    from open_parse_ray.stages.dedup import salted_groupby

    ds = rd.read_parquet(
        table_path(sf_dir, "events"), columns=["user_id", "ts", "event_id", "event_type"]
    ).map_batches(
        lambda b: pd.DataFrame(
            {
                "user_id": b["user_id"].astype("int64"),
                "ts_us": b["ts"].astype("int64"),
                "event_id": b["event_id"].astype("int64"),
                "event_type": b["event_type"],
            }
        ),
        batch_format="pandas",
        batch_size=65536,
    )

    def assemble(part: pd.DataFrame) -> pd.DataFrame:
        if len(part) == 0:
            return pd.DataFrame(
                {
                    "user_id": pd.Series([], dtype="int64"),
                    "n_events": pd.Series([], dtype="int64"),
                    "journey": pd.Series([], dtype="object"),
                }
            )
        g = part.sort_values(["user_id", "ts_us", "event_id"])
        pos = g.groupby("user_id").cumcount()
        n = g.groupby("user_id", as_index=False).agg(n_events=("event_id", "size"))
        kept = g[pos.to_numpy() < max_len]
        j = kept.groupby("user_id", as_index=False).agg(
            journey=("event_type", lambda s: ">".join(s))
        )
        out = n.merge(j, on="user_id")
        return out.astype({"user_id": "int64", "n_events": "int64"})

    return salted_groupby(ds, "user_id", assemble)


def events_gap_histogram(sf_dir: str):
    """Inter-arrival structure per event type: the histogram of gaps
    between CONSECUTIVE same-(user, type) events, log2-bucketed —
    bucket = bit_length(gap seconds), −1 for sub-second — with the
    exact integer gap-second sum per bucket (burstiness / periodicity
    report; the log2 bucketing is what bounds the group cardinality to
    ~40 buckets per type, where raw microsecond gaps would make the
    partial table as large as the input). One user-salted exchange
    builds gaps vectorized (lag within (user, type) runs after a single
    lexsort — (user, type) nests inside the user salt); bucket ids come
    from np.frexp's exponent, which equals bit_length exactly for
    integers < 2^53. Returns (event_type, bucket, n, total_gap_s)."""
    import ray.data as rd

    from open_parse_ray.stages.dedup import salted_groupby

    ds = rd.read_parquet(
        table_path(sf_dir, "events"),
        columns=["user_id", "event_type", "ts", "event_id"],
    ).map_batches(
        lambda b: pd.DataFrame(
            {
                "user_id": b["user_id"].astype("int64"),
                "event_type": b["event_type"],
                "ts_us": b["ts"].values.astype("datetime64[us]").astype(np.int64),
                "event_id": b["event_id"].astype("int64"),
            }
        ),
        batch_format="pandas",
        batch_size=65536,
    )

    def gaps_partial(part: pd.DataFrame) -> pd.DataFrame:
        if len(part) == 0:
            return pd.DataFrame(
                {
                    "event_type": pd.Series([], dtype="object"),
                    "bucket": pd.Series([], dtype="int64"),
                    "n": pd.Series([], dtype="int64"),
                    "total_gap_s": pd.Series([], dtype="int64"),
                }
            )
        g = part.sort_values(["user_id", "event_type", "ts_us", "event_id"])
        u = g["user_id"].to_numpy()
        t = g["event_type"].to_numpy()
        ts = g["ts_us"].to_numpy()
        same = np.zeros(len(g), dtype=bool)
        same[1:] = (u[1:] == u[:-1]) & (t[1:] == t[:-1])
        gap_us = np.zeros(len(g), dtype=np.int64)
        gap_us[1:] = ts[1:] - ts[:-1]
        gap_s = gap_us[same] // 1_000_000
        types = t[same]
        # bit_length via frexp's exponent (exact for ints < 2^53)
        bucket = np.where(
            gap_s == 0, np.int64(-1), np.frexp(gap_s.astype(np.float64))[1]
        ).astype(np.int64)
        df = pd.DataFrame({"event_type": types, "bucket": bucket, "gap_s": gap_s})
        out = df.groupby(["event_type", "bucket"], as_index=False).agg(
            n=("gap_s", "size"), total_gap_s=("gap_s", "sum")
        )
        return out.astype({"bucket": "int64", "n": "int64", "total_gap_s": "int64"})

    partials = salted_groupby(ds, "user_id", gaps_partial)
    return two_phase_agg(
        partials,
        ["event_type", "bucket"],
        {"n": "sum", "total_gap_s": "sum"},
    )


def shipping_priority_top10(sf_dir: str, k: int = 10):
    """Shipping-priority report (the TPC-H Q3 shape): the ``k`` highest-
    revenue unshipped orders for BUILDING-segment customers — orders
    placed before 1998-01-01 with lineitems shipping after it. Plan:
    both date predicates are pushed INTO the Parquet scans; the
    customer-segment semijoin is the co-partitioned tagged union on
    custkey (the probe side ships only distinct custkeys); qualifying
    orders then meet lineitem revenue partials in an orderkey-salted
    exchange where each partition finishes its sums AND keeps only its
    local top-k (revenue DESC, orderkey ASC) — the global answer is a
    k-row merge of 32 k-row partials, so no full ranking ever
    materializes. Returns (l_orderkey, revenue_cents, o_orderdate_day,
    o_orderpriority)."""
    import datetime as _dt

    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.dataset as pads
    import ray.data as rd

    from open_parse_ray.stages.dedup import salted_groupby

    cut = _dt.datetime(1998, 1, 1)

    def proj_cust(t: pa.Table) -> pa.Table:
        keys = pc.unique(t["c_custkey"].combine_chunks()).cast(pa.int64())
        n = len(keys)
        return pa.table(
            {
                "key": keys,
                "side": pa.array(np.zeros(n, dtype=np.int64)),
                "okey": pa.array(np.full(n, -1, dtype=np.int64)),
                "oday": pa.array(np.full(n, -1, dtype=np.int64)),
                "oprio": pa.array([""] * n, pa.string()),
            }
        )

    def proj_orders(t: pa.Table) -> pa.Table:
        n = t.num_rows
        day = (
            t["o_orderdate"].cast(pa.timestamp("us")).cast(pa.int64()).to_numpy()
            // 86_400_000_000
        )
        return pa.table(
            {
                "key": t["o_custkey"].cast(pa.int64()),
                "side": pa.array(np.ones(n, dtype=np.int64)),
                "okey": t["o_orderkey"].cast(pa.int64()),
                "oday": pa.array(day.astype(np.int64)),
                "oprio": t["o_orderpriority"].cast(pa.string()),
            }
        )

    cust = rd.read_parquet(
        table_path(sf_dir, "customer"),
        columns=["c_custkey"],
        filter=pads.field("c_mktsegment") == "BUILDING",
    ).map_batches(proj_cust, batch_format="pyarrow", batch_size=65536)
    orders = rd.read_parquet(
        table_path(sf_dir, "orders"),
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"],
        filter=pads.field("o_orderdate") < cut,
    ).map_batches(proj_orders, batch_format="pyarrow", batch_size=65536)

    def semi(part: pd.DataFrame) -> pd.DataFrame:
        seg = part.loc[part["side"] == 0, "key"]
        o = part[part["side"] == 1]
        o = o[o["key"].isin(seg)]
        return pd.DataFrame(
            {
                "okey": o["okey"].astype("int64"),
                "oday": o["oday"].astype("int64"),
                "oprio": o["oprio"],
                "rev": np.zeros(len(o), dtype=np.int64),
                "side": np.zeros(len(o), dtype=np.int64),
            }
        )

    qual_orders = salted_groupby(cust.union(orders), "key", semi)

    def li_partial(t: pa.Table) -> pa.Table:
        price = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = t["l_discount"].to_numpy(zero_copy_only=False)
        agg = _arrow_group_aggs(
            {"okey": t["l_orderkey"]},
            {"rev": ("sum", _cents(price * (1 - disc)))},
            t.num_rows,
        )
        n = agg.num_rows
        return agg.append_column(
            "oday", pa.array(np.full(n, -1, dtype=np.int64))
        ).append_column("oprio", pa.array([""] * n, pa.string())).append_column(
            "side", pa.array(np.ones(n, dtype=np.int64))
        )

    li = rd.read_parquet(
        table_path(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
        filter=pads.field("l_shipdate") > cut,
    ).map_batches(li_partial, batch_format="pyarrow", batch_size=65536)

    def topk_partial(part: pd.DataFrame) -> pd.DataFrame:
        o = part[part["side"] == 0]
        r = part[part["side"] == 1]
        rev = r.groupby("okey")["rev"].sum()
        o = o[o["okey"].isin(rev.index)].copy()
        o["revenue_cents"] = o["okey"].map(rev).astype("int64")
        o = o.sort_values(["revenue_cents", "okey"], ascending=[False, True]).head(k)
        return pd.DataFrame(
            {
                "l_orderkey": o["okey"].astype("int64"),
                "revenue_cents": o["revenue_cents"],
                "o_orderdate_day": o["oday"].astype("int64"),
                "o_orderpriority": o["oprio"],
            }
        )

    partials = salted_groupby(
        qual_orders.union(
            li.map_batches(
                lambda b: b[["okey", "oday", "oprio", "rev", "side"]],
                batch_format="pandas",
                batch_size=65536,
            )
        ),
        "okey",
        topk_partial,
    ).to_pandas()
    out = partials.sort_values(
        ["revenue_cents", "l_orderkey"], ascending=[False, True]
    ).head(k)
    import pyarrow as _pa
    import ray.data as _rd

    return _rd.from_arrow(
        _pa.table(
            {
                "l_orderkey": _pa.array(
                    out["l_orderkey"].to_numpy(dtype=np.int64), _pa.int64()
                ),
                "revenue_cents": _pa.array(
                    out["revenue_cents"].to_numpy(dtype=np.int64), _pa.int64()
                ),
                "o_orderdate_day": _pa.array(
                    out["o_orderdate_day"].to_numpy(dtype=np.int64), _pa.int64()
                ),
                "o_orderpriority": _pa.array(out["o_orderpriority"], _pa.string()),
            }
        )
    )


def promo_revenue_share(sf_dir: str):
    """Promo revenue share by ship month (the TPC-H Q14 shape, all
    months): per calendar month, revenue cents from PROMO-type parts
    and total revenue cents — emitted as two integer sums rather than
    the percentage so the value hash is float-free (the reader divides).
    Plan: the part table collapses to a partkey-indexed BIT array
    (np.packbits — one bit per partkey, so 10^9 parts broadcast as
    ~125 MB via ray.put) and lineitem streams through a single
    column-pruned scan with bounded (month) partials; zero exchanges.
    Months are integer months-since-1970 (numpy datetime64[M] ==
    (year-1970)*12 + month-1 in the oracle). Returns (ship_month,
    promo_cents, total_cents, n_items)."""
    import pyarrow as pa
    import ray
    import ray.data as rd

    part = pd.read_parquet(
        table_path(sf_dir, "part"), columns=["p_partkey", "p_type"]
    )
    keys = part["p_partkey"].to_numpy(dtype=np.int64)
    flags = np.zeros(int(keys.max()) + 1, dtype=np.uint8)
    flags[keys[(part["p_type"] == "PROMO").to_numpy()]] = 1
    bits_ref = ray.put(np.packbits(flags))

    def partial(t: pa.Table) -> pa.Table:
        bits = ray.get(bits_ref)
        pk = t["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        is_promo = (bits[pk >> 3] >> (7 - (pk & 7))) & 1
        price = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = t["l_discount"].to_numpy(zero_copy_only=False)
        cents = _cents(price * (1 - disc))
        month = (
            t["l_shipdate"]
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[M]")
            .astype(np.int64)
        )
        return _arrow_group_aggs(
            {"ship_month": month},
            {
                "promo_cents": ("sum", cents * is_promo.astype(np.int64)),
                "total_cents": ("sum", cents),
                "n_items": ("count", None),
            },
            t.num_rows,
        )

    partials = rd.read_parquet(
        table_path(sf_dir, "lineitem"),
        columns=["l_partkey", "l_shipdate", "l_extendedprice", "l_discount"],
    ).map_batches(partial, batch_format="pyarrow", batch_size=65536)
    return two_phase_agg(
        partials,
        ["ship_month"],
        {"promo_cents": "sum", "total_cents": "sum", "n_items": "sum"},
    )


def small_qty_order_revenue(sf_dir: str, brand: str = "Brand#13"):
    """Small-quantity-order revenue (the TPC-H Q17 shape): total revenue
    from ``brand`` lineitems whose quantity is below 20% of that part's
    corpus-wide average quantity. The correlated subquery never becomes
    a join: every lineitem of one part lands in one partkey-salted
    partition (the brand filter — a broadcast sorted-partkey np.isin —
    preselects exactly the rows the subquery aggregates over, since
    brand is a property of the part), so the per-part (sum_qty, count)
    and the row-level test happen in the SAME partition: ONE exchange
    total. The 20%-of-average test is the exact integer cross-multiply
    5*qty*cnt < sum_qty — no float division on either side. Quantities
    are asserted integral before the cast. Returns one row
    (n_lineitems, revenue_cents)."""
    import pyarrow as pa
    import ray
    import ray.data as rd

    from open_parse_ray.stages.dedup import salted_groupby

    part = pd.read_parquet(
        table_path(sf_dir, "part"), columns=["p_partkey", "p_brand"]
    )
    brand_keys = np.sort(
        part.loc[part["p_brand"] == brand, "p_partkey"].to_numpy(dtype=np.int64)
    )
    keys_ref = ray.put(brand_keys)

    def pick(t: pa.Table) -> pa.Table:
        bk = ray.get(keys_ref)
        pk = t["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        m = np.isin(pk, bk)
        qty = t["l_quantity"].to_numpy(zero_copy_only=False)[m]
        assert np.all(qty == np.floor(qty)), "non-integral l_quantity"
        price = t["l_extendedprice"].to_numpy(zero_copy_only=False)[m]
        return pa.table(
            {
                "pk": pa.array(pk[m], pa.int64()),
                "qty": pa.array(qty.astype(np.int64), pa.int64()),
                "cents": pa.array(_cents(pd.Series(price)), pa.int64()),
            }
        )

    cand = rd.read_parquet(
        table_path(sf_dir, "lineitem"),
        columns=["l_partkey", "l_quantity", "l_extendedprice"],
    ).map_batches(pick, batch_format="pyarrow", batch_size=65536)

    def verify(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame(
                {"n_lineitems": pd.Series([], dtype="int64"),
                 "revenue_cents": pd.Series([], dtype="int64")}
            )
        st = g.groupby("pk")["qty"].agg(["sum", "count"])
        s = g["pk"].map(st["sum"]).to_numpy(dtype=np.int64)
        c = g["pk"].map(st["count"]).to_numpy(dtype=np.int64)
        keep = 5 * g["qty"].to_numpy(dtype=np.int64) * c < s
        return pd.DataFrame(
            {
                "n_lineitems": [np.int64(keep.sum())],
                "revenue_cents": [g["cents"].to_numpy(dtype=np.int64)[keep].sum()],
            }
        )

    partials = salted_groupby(cand, "pk", verify)

    def total(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "n_lineitems": [np.int64(b["n_lineitems"].sum())],
                "revenue_cents": [np.int64(b["revenue_cents"].sum())],
            }
        )

    return partials.repartition(1).map_batches(
        total, batch_format="pandas", batch_size=None
    )


def top_supplier_revenue(sf_dir: str):
    """Top supplier(s) by 1996 shipped revenue (the TPC-H Q15 shape —
    global argmax with ties kept). Plan: the date window is pushed into
    the lineitem scan; per-batch Arrow partials collapse each block to
    its distinct suppkeys; a suppkey-salted exchange finishes the sums
    and each partition forwards only its LOCAL max rows (ties included),
    so the driver merges ≤ |partitions| × ties candidates instead of
    every supplier; the winner set then isin-filters a streaming
    supplier scan for names (no supplier broadcast needed — only the
    argmax result crosses to the driver). Returns (s_suppkey, s_name,
    total_revenue_cents), all tied maxima."""
    import datetime as _dt

    import pyarrow as pa
    import pyarrow.dataset as pads
    import ray
    import ray.data as rd

    from open_parse_ray.stages.dedup import salted_groupby

    lo, hi = _dt.datetime(1996, 1, 1), _dt.datetime(1997, 1, 1)

    def partial(t: pa.Table) -> pa.Table:
        price = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = t["l_discount"].to_numpy(zero_copy_only=False)
        return _arrow_group_aggs(
            {"sk": t["l_suppkey"]},
            {"rev": ("sum", _cents(price * (1 - disc)))},
            t.num_rows,
        )

    parts = rd.read_parquet(
        table_path(sf_dir, "lineitem"),
        columns=["l_suppkey", "l_extendedprice", "l_discount"],
        filter=(pads.field("l_shipdate") >= lo) & (pads.field("l_shipdate") < hi),
    ).map_batches(partial, batch_format="pyarrow", batch_size=65536)

    def local_max(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame(
                {"sk": pd.Series([], dtype="int64"),
                 "rev": pd.Series([], dtype="int64")}
            )
        tot = g.groupby("sk", as_index=False)["rev"].sum()
        return tot[tot["rev"] == tot["rev"].max()]

    cand = salted_groupby(parts, "sk", local_max).to_pandas()
    best = int(cand["rev"].max())
    winners = np.sort(
        cand.loc[cand["rev"] == best, "sk"].to_numpy(dtype=np.int64)
    )
    win_ref = ray.put(winners)

    def pick_names(t: pa.Table) -> pa.Table:
        w = ray.get(win_ref)
        sk = t["s_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        return t.filter(pa.array(np.isin(sk, w)))

    names = (
        rd.read_parquet(
            table_path(sf_dir, "supplier"), columns=["s_suppkey", "s_name"]
        )
        .map_batches(pick_names, batch_format="pyarrow", batch_size=65536)
        .to_pandas()
        .sort_values("s_suppkey")
    )
    return rd.from_pandas(
        pd.DataFrame(
            {
                "s_suppkey": names["s_suppkey"].to_numpy(dtype=np.int64),
                "s_name": names["s_name"].to_numpy(dtype=object),
                "total_revenue_cents": np.full(len(names), best, dtype=np.int64),
            }
        )
    )


def nation_volume_shipping(sf_dir: str):
    """Cross-nation shipping volume (the TPC-H Q7 shape, generalized to
    every ordered nation pair): revenue by (supplier nation, customer
    nation, ship year) where the two nations differ, over two ship
    years. Plan: supplier→nationkey broadcasts as a dense suppkey-
    indexed int8 array (nationkeys are bounded) so lineitem resolves its
    supplier nation with zero joins; exchange 1 (orderkey salt) joins
    date-pruned lineitem partials with orders and RE-aggregates to
    (custkey, supp_nk, year) before anything else moves; exchange 2
    (custkey salt) resolves the customer nation and collapses to the
    bounded (supp_nk, cust_nk, year) grid, so the final combine sees
    ≤ 25×25×2 rows per partition. Names attach from a 25-row broadcast
    dict at the very end. Returns (supp_nation, cust_nation, l_year,
    revenue_cents)."""
    import datetime as _dt

    import pyarrow as pa
    import pyarrow.dataset as pads
    import ray
    import ray.data as rd

    from open_parse_ray.stages.dedup import salted_groupby

    lo, hi = _dt.datetime(1996, 1, 1), _dt.datetime(1998, 1, 1)

    nation = pd.read_parquet(table_path(sf_dir, "nation"))
    nk_name = dict(zip(nation["n_nationkey"].astype(int), nation["n_name"]))
    supp = pd.read_parquet(
        table_path(sf_dir, "supplier"), columns=["s_suppkey", "s_nationkey"]
    )
    sk = supp["s_suppkey"].to_numpy(dtype=np.int64)
    s_nk = np.full(int(sk.max()) + 1, -1, dtype=np.int8)
    s_nk[sk] = supp["s_nationkey"].to_numpy(dtype=np.int8)
    snk_ref = ray.put(s_nk)

    def li_partial(t: pa.Table) -> pa.Table:
        m = ray.get(snk_ref)
        skey = t["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        price = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = t["l_discount"].to_numpy(zero_copy_only=False)
        year = (
            t["l_shipdate"]
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[Y]")
            .astype(np.int64)
            + 1970
        )
        agg = _arrow_group_aggs(
            {
                "okey": t["l_orderkey"],
                "supp_nk": m[skey].astype(np.int64),
                "l_year": year,
            },
            {"rev": ("sum", _cents(price * (1 - disc)))},
            t.num_rows,
        )
        return agg.append_column(
            "side", pa.array(np.ones(agg.num_rows, dtype=np.int64))
        )

    li = rd.read_parquet(
        table_path(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_suppkey", "l_shipdate",
                 "l_extendedprice", "l_discount"],
        filter=(pads.field("l_shipdate") >= lo) & (pads.field("l_shipdate") < hi),
    ).map_batches(li_partial, batch_format="pyarrow", batch_size=65536)

    def proj_orders(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table(
            {
                "okey": t["o_orderkey"].cast(pa.int64()),
                "supp_nk": t["o_custkey"].cast(pa.int64()),
                "l_year": pa.array(np.zeros(n, dtype=np.int64)),
                "rev": pa.array(np.zeros(n, dtype=np.int64)),
                "side": pa.array(np.zeros(n, dtype=np.int64)),
            }
        )

    orders = rd.read_parquet(
        table_path(sf_dir, "orders"), columns=["o_orderkey", "o_custkey"]
    ).map_batches(proj_orders, batch_format="pyarrow", batch_size=65536)

    def join1(g: pd.DataFrame) -> pd.DataFrame:
        o = g[g["side"] == 0]
        l = g[g["side"] == 1]
        ck = dict(zip(o["okey"].to_numpy(), o["supp_nk"].to_numpy()))
        cust = l["okey"].map(ck)
        out = pd.DataFrame(
            {
                "custkey": cust.to_numpy(dtype=np.int64),
                "supp_nk": l["supp_nk"].to_numpy(dtype=np.int64),
                "l_year": l["l_year"].to_numpy(dtype=np.int64),
                "rev": l["rev"].to_numpy(dtype=np.int64),
            }
        )
        out = out.groupby(["custkey", "supp_nk", "l_year"], as_index=False)[
            "rev"
        ].sum()
        out["side"] = np.int64(1)
        return out

    stage1 = salted_groupby(orders.union(li), "okey", join1)

    def proj_cust(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "custkey": b["c_custkey"].to_numpy(dtype=np.int64),
                "supp_nk": b["c_nationkey"].to_numpy(dtype=np.int64),
                "l_year": np.zeros(len(b), dtype=np.int64),
                "rev": np.zeros(len(b), dtype=np.int64),
                "side": np.zeros(len(b), dtype=np.int64),
            }
        )

    cust = rd.read_parquet(
        table_path(sf_dir, "customer"), columns=["c_custkey", "c_nationkey"]
    ).map_batches(proj_cust, batch_format="pandas", batch_size=65536)

    def join2(g: pd.DataFrame) -> pd.DataFrame:
        c = g[g["side"] == 0]
        r = g[g["side"] == 1]
        nk = dict(zip(c["custkey"].to_numpy(), c["supp_nk"].to_numpy()))
        out = pd.DataFrame(
            {
                "supp_nk": r["supp_nk"].to_numpy(dtype=np.int64),
                "cust_nk": r["custkey"].map(nk).to_numpy(dtype=np.int64),
                "l_year": r["l_year"].to_numpy(dtype=np.int64),
                "rev": r["rev"].to_numpy(dtype=np.int64),
            }
        )
        out = out[out["supp_nk"] != out["cust_nk"]]
        return out.groupby(["supp_nk", "cust_nk", "l_year"], as_index=False)[
            "rev"
        ].sum()

    partials = salted_groupby(cust.union(stage1), "custkey", join2)

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return pd.DataFrame(
                {
                    "supp_nation": pd.Series([], dtype=object),
                    "cust_nation": pd.Series([], dtype=object),
                    "l_year": pd.Series([], dtype="int64"),
                    "revenue_cents": pd.Series([], dtype="int64"),
                }
            )
        out = b.groupby(["supp_nk", "cust_nk", "l_year"], as_index=False)[
            "rev"
        ].sum()
        return pd.DataFrame(
            {
                "supp_nation": out["supp_nk"].map(nk_name).to_numpy(dtype=object),
                "cust_nation": out["cust_nk"].map(nk_name).to_numpy(dtype=object),
                "l_year": out["l_year"].to_numpy(dtype=np.int64),
                "revenue_cents": out["rev"].to_numpy(dtype=np.int64),
            }
        )

    return partials.repartition(1).map_batches(
        finish, batch_format="pandas", batch_size=None
    )


def returned_item_top_customers(sf_dir: str, k: int = 20):
    """Returned-item reporting (the TPC-H Q10 shape): the ``k`` customers
    who generated the most revenue on returned lineitems (returnflag R)
    for orders placed in 1996H1, with account balance and nation. Plan:
    the returnflag filter and the order-date window are both pushed into
    the scans; per-batch lineitem partials collapse to distinct
    orderkeys; exchange 1 (orderkey salt) joins them with orders and
    re-aggregates to per-partition custkey sums; exchange 2 (custkey
    salt) finishes the sums and keeps only each partition's local top-k,
    so the driver merges k×|partitions| rows; the k winners then
    isin-filter a streaming customer scan (broadcast winner array — the
    customer table never shuffles) and nation names come from a 25-row
    dict. Returns (c_custkey, c_name, revenue_cents, acctbal_cents,
    n_name) ordered by revenue DESC, custkey."""
    import datetime as _dt

    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.dataset as pads
    import ray
    import ray.data as rd

    from open_parse_ray.stages.dedup import salted_groupby

    lo, hi = _dt.datetime(1996, 1, 1), _dt.datetime(1996, 7, 1)

    def li_partial(t: pa.Table) -> pa.Table:
        price = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = t["l_discount"].to_numpy(zero_copy_only=False)
        agg = _arrow_group_aggs(
            {"okey": t["l_orderkey"]},
            {"rev": ("sum", _cents(price * (1 - disc)))},
            t.num_rows,
        )
        return agg.append_column(
            "side", pa.array(np.ones(agg.num_rows, dtype=np.int64))
        )

    li = rd.read_parquet(
        table_path(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
        filter=pads.field("l_returnflag") == "R",
    ).map_batches(li_partial, batch_format="pyarrow", batch_size=65536)

    def proj_orders(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table(
            {
                "okey": t["o_orderkey"].cast(pa.int64()),
                "rev": t["o_custkey"].cast(pa.int64()),
                "side": pa.array(np.zeros(n, dtype=np.int64)),
            }
        )

    orders = rd.read_parquet(
        table_path(sf_dir, "orders"),
        columns=["o_orderkey", "o_custkey"],
        filter=(pads.field("o_orderdate") >= lo) & (pads.field("o_orderdate") < hi),
    ).map_batches(proj_orders, batch_format="pyarrow", batch_size=65536)

    def join1(g: pd.DataFrame) -> pd.DataFrame:
        o = g[g["side"] == 0]
        l = g[g["side"] == 1]
        ck = dict(zip(o["okey"].to_numpy(), o["rev"].to_numpy()))
        cust = l["okey"].map(ck)
        m = cust.notna()
        out = pd.DataFrame(
            {
                "custkey": cust[m].to_numpy(dtype=np.int64),
                "rev": l.loc[m, "rev"].to_numpy(dtype=np.int64),
            }
        )
        return out.groupby("custkey", as_index=False)["rev"].sum()

    stage1 = salted_groupby(orders.union(li), "okey", join1)

    def topk(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame(
                {"custkey": pd.Series([], dtype="int64"),
                 "rev": pd.Series([], dtype="int64")}
            )
        tot = g.groupby("custkey", as_index=False)["rev"].sum()
        return tot.sort_values(
            ["rev", "custkey"], ascending=[False, True]
        ).head(k)

    cand = salted_groupby(stage1, "custkey", topk).to_pandas()
    win = cand.sort_values(["rev", "custkey"], ascending=[False, True]).head(k)
    winners = np.sort(win["custkey"].to_numpy(dtype=np.int64))
    rev_of = dict(zip(win["custkey"].to_numpy(), win["rev"].to_numpy()))
    win_ref = ray.put(winners)

    def pick(t: pa.Table) -> pa.Table:
        w = ray.get(win_ref)
        ck = t["c_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        return t.filter(pa.array(np.isin(ck, w)))

    cust = (
        rd.read_parquet(
            table_path(sf_dir, "customer"),
            columns=["c_custkey", "c_name", "c_acctbal", "c_nationkey"],
        )
        .map_batches(pick, batch_format="pyarrow", batch_size=65536)
        .to_pandas()
    )
    nation = pd.read_parquet(table_path(sf_dir, "nation"))
    nk_name = dict(zip(nation["n_nationkey"].astype(int), nation["n_name"]))
    cust["revenue_cents"] = cust["c_custkey"].map(rev_of).astype("int64")
    cust = cust.sort_values(
        ["revenue_cents", "c_custkey"], ascending=[False, True]
    )
    return rd.from_pandas(
        pd.DataFrame(
            {
                "c_custkey": cust["c_custkey"].to_numpy(dtype=np.int64),
                "c_name": cust["c_name"].to_numpy(dtype=object),
                "revenue_cents": cust["revenue_cents"].to_numpy(dtype=np.int64),
                "acctbal_cents": _cents(cust["c_acctbal"]),
                "n_name": cust["c_nationkey"].map(nk_name).to_numpy(dtype=object),
            }
        )
    )


def order_fulfillment_span(sf_dir: str):
    """Order fulfillment span by priority: per o_orderpriority, how many
    orders and the total days from order date to FIRST and to LAST
    lineitem shipment (integer day sums, not float averages — the reader
    divides). Plan: lineitem collapses per batch to per-orderkey
    (min_day, max_day) Arrow partials, so only one row per distinct
    orderkey per block crosses the single orderkey-salted exchange;
    orders ride with (priority, order day); inside the partition lags
    resolve and re-collapse to the bounded priority grid. Orders with no
    lineitems drop (inner-join semantics, mirrored by the oracle).
    Returns (o_orderpriority, n_orders, total_first_lag_days,
    total_last_lag_days)."""
    import pyarrow as pa
    import ray.data as rd

    from open_parse_ray.stages.dedup import salted_groupby

    def li_partial(t: pa.Table) -> pa.Table:
        day = (
            t["l_shipdate"]
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[D]")
            .astype(np.int64)
        )
        agg = _arrow_group_aggs(
            {"okey": t["l_orderkey"]},
            {"lo": ("min", day), "hi": ("max", day)},
            t.num_rows,
        )
        return agg.append_column(
            "prio", pa.array([""] * agg.num_rows, pa.string())
        ).append_column("side", pa.array(np.ones(agg.num_rows, dtype=np.int64)))

    li = rd.read_parquet(
        table_path(sf_dir, "lineitem"), columns=["l_orderkey", "l_shipdate"]
    ).map_batches(li_partial, batch_format="pyarrow", batch_size=65536)

    def proj_orders(t: pa.Table) -> pa.Table:
        n = t.num_rows
        day = (
            t["o_orderdate"]
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[D]")
            .astype(np.int64)
        )
        return pa.table(
            {
                "okey": t["o_orderkey"].cast(pa.int64()),
                "lo": pa.array(day, pa.int64()),
                "hi": pa.array(np.zeros(n, dtype=np.int64)),
                "prio": t["o_orderpriority"].cast(pa.string()),
                "side": pa.array(np.zeros(n, dtype=np.int64)),
            }
        )

    orders = rd.read_parquet(
        table_path(sf_dir, "orders"),
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
    ).map_batches(proj_orders, batch_format="pyarrow", batch_size=65536)

    def span(g: pd.DataFrame) -> pd.DataFrame:
        o = g[g["side"] == 0]
        l = g[g["side"] == 1]
        if len(l) == 0 or len(o) == 0:
            return pd.DataFrame(
                {
                    "o_orderpriority": pd.Series([], dtype=object),
                    "n_orders": pd.Series([], dtype="int64"),
                    "total_first_lag_days": pd.Series([], dtype="int64"),
                    "total_last_lag_days": pd.Series([], dtype="int64"),
                }
            )
        ship = l.groupby("okey").agg(lo=("lo", "min"), hi=("hi", "max"))
        j = o.set_index("okey").join(ship, how="inner", lsuffix="_o")
        out = pd.DataFrame(
            {
                "o_orderpriority": j["prio"].to_numpy(dtype=object),
                "first_lag": j["lo"].to_numpy(dtype=np.int64)
                - j["lo_o"].to_numpy(dtype=np.int64),
                "last_lag": j["hi"].to_numpy(dtype=np.int64)
                - j["lo_o"].to_numpy(dtype=np.int64),
            }
        )
        return out.groupby("o_orderpriority", as_index=False).agg(
            n_orders=("first_lag", "size"),
            total_first_lag_days=("first_lag", "sum"),
            total_last_lag_days=("last_lag", "sum"),
        )

    partials = salted_groupby(orders.union(li), "okey", span)
    return two_phase_agg(
        partials,
        ["o_orderpriority"],
        {
            "n_orders": "sum",
            "total_first_lag_days": "sum",
            "total_last_lag_days": "sum",
        },
    )


def largest_doc_by_group(sf_dir: str):
    """Distributed argmax with a deterministic tie rule and ZERO
    exchanges: per (lang, source), the doc with the most characters
    (ties → smallest doc_id). The (value, id) argmax folds through
    plain integer MAX partials because the pair is packed into one
    monotone composite — n_chars·2^40 + (2^40−1−doc_id) — so max
    composite ⟺ (max n_chars, then min doc_id); both bounds are
    asserted per batch (n_chars < 2^23, doc_id < 2^40, same idiom as
    grouped_rank_events). Per-batch Arrow max partials collapse to the
    bounded (lang, source) grid; the driver-side decode unpacks the
    winner. Returns (lang, source, doc_id, n_chars)."""
    import pyarrow as pa

    from open_parse_ray.stages.analysis import read_documents

    _ID_SPACE = np.int64(1) << 40

    def partial(t: pa.Table) -> pa.Table:
        nc = t["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        did = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        if t.num_rows:
            assert nc.max() < (1 << 23) and 0 <= did.min() and did.max() < _ID_SPACE
        comp = nc * _ID_SPACE + (_ID_SPACE - 1 - did)
        return _arrow_group_aggs(
            {"lang": t["lang"], "source": t["source"]},
            {"comp": ("max", comp)},
            t.num_rows,
        )

    partials = read_documents(
        sf_dir, columns=["doc_id", "lang", "source", "n_chars"]
    ).map_batches(partial, batch_format="pyarrow", batch_size=65536)
    def decode(b: pd.DataFrame) -> pd.DataFrame:
        comp = b["comp"].to_numpy(dtype=np.int64)
        return pd.DataFrame(
            {
                "lang": b["lang"].to_numpy(dtype=object),
                "source": b["source"].to_numpy(dtype=object),
                "doc_id": _ID_SPACE - 1 - (comp % _ID_SPACE),
                "n_chars": comp // _ID_SPACE,
            }
        )

    return two_phase_agg(partials, ["lang", "source"], {"comp": "max"}, finalize=decode)


def forecast_revenue_change(sf_dir: str):
    """Forecast revenue change (the TPC-H Q6 shape): the revenue a
    blanket discount revocation would have recovered — sum of
    extendedprice × discount over one ship year for mid-band discounts
    (5-7%) and small quantities (< 24). Pure scan-side pipeline: the
    date window is pushed into the Parquet scan (row groups outside it
    never leave storage), the discount band compares in integer
    percent (round(d*100) ∈ [5,7] — no float-boundary ambiguity against
    the oracle's identical expression) and the quantity cut is
    vectorized; blocks collapse to one partial row each; zero
    exchanges. Returns one row (n_lineitems, forecast_cents)."""
    import datetime as _dt

    import pyarrow as pa
    import pyarrow.dataset as pads
    import ray.data as rd

    lo, hi = _dt.datetime(1996, 1, 1), _dt.datetime(1997, 1, 1)

    def partial(t: pa.Table) -> pa.Table:
        price = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = t["l_discount"].to_numpy(zero_copy_only=False)
        qty = t["l_quantity"].to_numpy(zero_copy_only=False)
        pct = np.round(disc * 100).astype(np.int64)
        m = (pct >= 5) & (pct <= 7) & (qty < 24)
        return pa.table(
            {
                "n_lineitems": pa.array([np.int64(m.sum())], pa.int64()),
                "forecast_cents": pa.array(
                    [_cents(pd.Series(price[m] * disc[m])).sum()], pa.int64()
                ),
            }
        )

    partials = rd.read_parquet(
        table_path(sf_dir, "lineitem"),
        columns=["l_quantity", "l_extendedprice", "l_discount"],
        filter=(pads.field("l_shipdate") >= lo) & (pads.field("l_shipdate") < hi),
    ).map_batches(partial, batch_format="pyarrow", batch_size=65536)

    def total(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "n_lineitems": [np.int64(b["n_lineitems"].sum())],
                "forecast_cents": [np.int64(b["forecast_cents"].sum())],
            }
        )

    return partials.repartition(1).map_batches(
        total, batch_format="pandas", batch_size=None
    )


def banded_brand_revenue(sf_dir: str):
    """Disjunctive multi-predicate revenue (the TPC-H Q19 shape, minus
    the container/shipmode columns this corpus lacks): revenue from
    lineitems satisfying ANY of three (brand, quantity-band) arms —
    (Brand#1, qty 1–11) ∨ (Brand#2, qty 10–20) ∨ (Brand#3, qty 20–30).
    The OR never becomes three scans: part collapses to a dense
    partkey-indexed int8 brand-code array (0 = not interesting, 1/2/3 =
    arm) broadcast once, and one lineitem pass evaluates all three arms
    vectorized against the per-row arm code; blocks collapse to one
    (arm, n, cents) partial each (bounded grid), zero exchanges.
    Returns (arm, n_lineitems, revenue_cents) — one row per arm so a
    plan regression in any single arm is visible in the hash."""
    import pyarrow as pa
    import ray
    import ray.data as rd

    arms = {"Brand#1": 1, "Brand#2": 2, "Brand#3": 3}
    part = pd.read_parquet(
        table_path(sf_dir, "part"), columns=["p_partkey", "p_brand"]
    )
    keys = part["p_partkey"].to_numpy(dtype=np.int64)
    code = np.zeros(int(keys.max()) + 1, dtype=np.int8)
    for b, c in arms.items():
        code[keys[(part["p_brand"] == b).to_numpy()]] = c
    code_ref = ray.put(code)
    lo = np.array([0, 1, 10, 20], dtype=np.int64)
    hi = np.array([0, 11, 20, 30], dtype=np.int64)

    def partial(t: pa.Table) -> pa.Table:
        cd = ray.get(code_ref)
        pk = t["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        qty = t["l_quantity"].to_numpy(zero_copy_only=False)
        price = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = t["l_discount"].to_numpy(zero_copy_only=False)
        arm = cd[pk].astype(np.int64)
        m = (arm > 0) & (qty >= lo[arm]) & (qty <= hi[arm])
        return _arrow_group_aggs(
            {"arm": arm[m]},
            {
                "n_lineitems": ("count", None),
                "revenue_cents": ("sum", _cents(pd.Series(price[m] * (1 - disc[m])))),
            },
            int(m.sum()),
        )

    partials = rd.read_parquet(
        table_path(sf_dir, "lineitem"),
        columns=["l_partkey", "l_quantity", "l_extendedprice", "l_discount"],
    ).map_batches(partial, batch_format="pyarrow", batch_size=65536)
    return two_phase_agg(
        partials,
        ["arm"],
        {"n_lineitems": "sum", "revenue_cents": "sum"},
    )


def customer_cohort_revenue(sf_dir: str):
    """Customer-cohort revenue triangle (the LTV matrix a subscription
    dashboard draws): customers are grouped by the month of their FIRST
    order, and revenue is reported per (cohort_month, order_month).
    The window function never runs: a custkey-salted exchange co-locates
    each customer's entire order history, so the per-customer min-month
    and the (cohort, month) rollup happen in the same partition — ONE
    exchange over (custkey, month, cents) rows pre-aggregated per batch,
    and the output is the bounded month×month triangle. Months are
    months-since-1970 (datetime64[M]). Returns (cohort_month,
    order_month, n_orders, revenue_cents)."""
    import pyarrow as pa
    import ray.data as rd

    from open_parse_ray.stages.dedup import salted_groupby

    def partial(t: pa.Table) -> pa.Table:
        month = (
            t["o_orderdate"]
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[M]")
            .astype(np.int64)
        )
        return _arrow_group_aggs(
            {"ck": t["o_custkey"], "m": month},
            {
                "n_orders": ("count", None),
                "cents": ("sum", _cents(t["o_totalprice"].to_numpy(zero_copy_only=False))),
            },
            t.num_rows,
        )

    parts = rd.read_parquet(
        table_path(sf_dir, "orders"),
        columns=["o_custkey", "o_orderdate", "o_totalprice"],
    ).map_batches(partial, batch_format="pyarrow", batch_size=65536)

    def cohort(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame(
                {
                    "cohort_month": pd.Series([], dtype="int64"),
                    "order_month": pd.Series([], dtype="int64"),
                    "n_orders": pd.Series([], dtype="int64"),
                    "revenue_cents": pd.Series([], dtype="int64"),
                }
            )
        g = g.copy()
        g["cohort_month"] = g.groupby("ck")["m"].transform("min")
        out = g.groupby(["cohort_month", "m"], as_index=False).agg(
            n_orders=("n_orders", "sum"), revenue_cents=("cents", "sum")
        )
        return out.rename(columns={"m": "order_month"})

    partials = salted_groupby(parts, "ck", cohort)
    return two_phase_agg(
        partials,
        ["cohort_month", "order_month"],
        {"n_orders": "sum", "revenue_cents": "sum"},
    )


def loyal_customers(sf_dir: str, min_quarters: int = 3):
    """Near-relational-division loyalty report: customers who placed
    orders in at least ``min_quarters`` distinct quarters of 1996, with
    their quarter count, order count and total spend. The divisor set
    (quarters) is tiny and fixed, so division reduces to a distinct
    count: per-batch Arrow partials collapse blocks to (custkey,
    quarter) rows with order/cents sums, ONE custkey-salted exchange
    finishes the distinct-quarter count and the HAVING filter
    partition-locally — qualifying rows only ever cross to the driver.
    Returns (c_custkey, n_quarters, n_orders, total_cents)."""
    import datetime as _dt

    import pyarrow as pa
    import pyarrow.dataset as pads
    import ray.data as rd

    from open_parse_ray.stages.dedup import salted_groupby

    lo, hi = _dt.datetime(1996, 1, 1), _dt.datetime(1997, 1, 1)

    def partial(t: pa.Table) -> pa.Table:
        month = (
            t["o_orderdate"]
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[M]")
            .astype(np.int64)
        )
        qt = (month - (1996 - 1970) * 12) // 3
        return _arrow_group_aggs(
            {"ck": t["o_custkey"], "qt": qt},
            {
                "n_orders": ("count", None),
                "cents": ("sum", _cents(t["o_totalprice"].to_numpy(zero_copy_only=False))),
            },
            t.num_rows,
        )

    parts = rd.read_parquet(
        table_path(sf_dir, "orders"),
        columns=["o_custkey", "o_orderdate", "o_totalprice"],
        filter=(pads.field("o_orderdate") >= lo) & (pads.field("o_orderdate") < hi),
    ).map_batches(partial, batch_format="pyarrow", batch_size=65536)

    def divide(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame(
                {
                    "c_custkey": pd.Series([], dtype="int64"),
                    "n_quarters": pd.Series([], dtype="int64"),
                    "n_orders": pd.Series([], dtype="int64"),
                    "total_cents": pd.Series([], dtype="int64"),
                }
            )
        out = g.groupby("ck").agg(
            n_quarters=("qt", "nunique"),
            n_orders=("n_orders", "sum"),
            total_cents=("cents", "sum"),
        )
        out = out[out["n_quarters"] >= min_quarters].reset_index()
        return out.rename(columns={"ck": "c_custkey"}).astype("int64")

    return salted_groupby(parts, "ck", divide)


def late_order_priority_counts(sf_dir: str, late_days: int = 60):
    """Order-priority late check (the TPC-H Q4 shape with the EXISTS
    collapsed to an order-local max): per o_orderpriority, how many
    orders placed in [1996-07-01, 1997-07-01) have at least one lineitem
    shipped more than ``late_days`` whole days after the order date.
    EXISTS(ship_day > order_day + k) == (max ship_day > order_day + k),
    so lineitem collapses per block to one (orderkey, max_day) Arrow
    partial row and the whole test resolves inside ONE orderkey-salted
    partition; the date window prunes orders at the scan. Day arithmetic
    is integer epoch-days on both sides (floor, never round). Output per
    partition is the bounded priority grid. Returns (o_orderpriority,
    n_late_orders)."""
    import datetime as _dt

    import pyarrow as pa
    import pyarrow.dataset as pads
    import ray.data as rd

    from open_parse_ray.stages.dedup import salted_groupby

    lo, hi = _dt.datetime(1996, 7, 1), _dt.datetime(1997, 7, 1)

    def li_partial(t: pa.Table) -> pa.Table:
        day = (
            t["l_shipdate"]
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[D]")
            .astype(np.int64)
        )
        agg = _arrow_group_aggs(
            {"okey": t["l_orderkey"]}, {"md": ("max", day)}, t.num_rows
        )
        return agg.append_column(
            "prio", pa.array([""] * agg.num_rows, pa.string())
        ).append_column("side", pa.array(np.ones(agg.num_rows, dtype=np.int64)))

    li = rd.read_parquet(
        table_path(sf_dir, "lineitem"), columns=["l_orderkey", "l_shipdate"]
    ).map_batches(li_partial, batch_format="pyarrow", batch_size=65536)

    def proj_orders(t: pa.Table) -> pa.Table:
        day = (
            t["o_orderdate"]
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[D]")
            .astype(np.int64)
        )
        return pa.table(
            {
                "okey": t["o_orderkey"].cast(pa.int64()),
                "md": pa.array(day, pa.int64()),
                "prio": t["o_orderpriority"].cast(pa.string()),
                "side": pa.array(np.zeros(t.num_rows, dtype=np.int64)),
            }
        )

    orders = rd.read_parquet(
        table_path(sf_dir, "orders"),
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
        filter=(pads.field("o_orderdate") >= lo) & (pads.field("o_orderdate") < hi),
    ).map_batches(proj_orders, batch_format="pyarrow", batch_size=65536)

    def late(g: pd.DataFrame) -> pd.DataFrame:
        o = g[g["side"] == 0]
        l = g[g["side"] == 1]
        if len(o) == 0 or len(l) == 0:
            return pd.DataFrame(
                {
                    "o_orderpriority": pd.Series([], dtype=object),
                    "n_late_orders": pd.Series([], dtype="int64"),
                }
            )
        ship = l.groupby("okey")["md"].max()
        j = o.set_index("okey").join(ship, how="inner", rsuffix="_s")
        j = j[j["md_s"].to_numpy() > j["md"].to_numpy() + late_days]
        if len(j) == 0:
            return pd.DataFrame(
                {
                    "o_orderpriority": pd.Series([], dtype=object),
                    "n_late_orders": pd.Series([], dtype="int64"),
                }
            )
        return j.groupby("prio", as_index=False).size().rename(
            columns={"prio": "o_orderpriority", "size": "n_late_orders"}
        )

    partials = salted_groupby(orders.union(li), "okey", late)
    return two_phase_agg(partials, ["o_orderpriority"], {"n_late_orders": "sum"})


def sole_delay_suppliers(sf_dir: str, k: int = 25, late_days: int = 60):
    """Suppliers who alone delayed multi-supplier finished orders (the
    TPC-H Q21 shape): over orders with o_orderstatus = 'F', a supplier
    scores one wait per order where (a) the order drew lines from >= 2
    distinct suppliers, (b) this supplier's latest line shipped more
    than ``late_days`` whole days after the order date, and (c) no other
    supplier on the order was late. Top ``k`` suppliers by wait count
    (ties broken by suppkey — a total order, so the cutoff is exact).

    Plan: lineitem collapses per block to (orderkey, suppkey, max_day)
    Arrow partials; status-filtered orders ride (orderkey, order_day);
    ONE orderkey-salted exchange resolves the whole per-order rule
    locally and re-collapses to per-supplier partial counts; a second
    suppkey-salted exchange finishes the counts and forwards only each
    partition's LOCAL top-k (suppkeys are disjoint across partitions, so
    the global top-k is the top-k of <= parts x k candidates); the
    winner set then isin-filters a streaming supplier scan for names —
    supplier never shuffles and nothing unbounded reaches the driver.
    Returns (s_suppkey, s_name, n_orders_sole_late)."""
    import pyarrow as pa
    import pyarrow.dataset as pads
    import ray
    import ray.data as rd

    from open_parse_ray.stages.dedup import salted_groupby

    def li_partial(t: pa.Table) -> pa.Table:
        day = (
            t["l_shipdate"]
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[D]")
            .astype(np.int64)
        )
        agg = _arrow_group_aggs(
            {"okey": t["l_orderkey"], "sk": t["l_suppkey"]},
            {"md": ("max", day)},
            t.num_rows,
        )
        return agg.append_column(
            "side", pa.array(np.ones(agg.num_rows, dtype=np.int64))
        )

    li = rd.read_parquet(
        table_path(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_suppkey", "l_shipdate"],
    ).map_batches(li_partial, batch_format="pyarrow", batch_size=65536)

    def proj_orders(t: pa.Table) -> pa.Table:
        day = (
            t["o_orderdate"]
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[D]")
            .astype(np.int64)
        )
        return pa.table(
            {
                "okey": t["o_orderkey"].cast(pa.int64()),
                "sk": pa.array(np.zeros(t.num_rows, dtype=np.int64)),
                "md": pa.array(day, pa.int64()),
                "side": pa.array(np.zeros(t.num_rows, dtype=np.int64)),
            }
        )

    orders = rd.read_parquet(
        table_path(sf_dir, "orders"),
        columns=["o_orderkey", "o_orderdate"],
        filter=pads.field("o_orderstatus") == "F",
    ).map_batches(proj_orders, batch_format="pyarrow", batch_size=65536)

    def waits_partial(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {"sk": pd.Series([], dtype="int64"), "n": pd.Series([], dtype="int64")}
        )
        o = g[g["side"] == 0]
        l = g[g["side"] == 1]
        if len(o) == 0 or len(l) == 0:
            return empty
        per = l.groupby(["okey", "sk"], as_index=False)["md"].max()
        per = per.merge(
            o[["okey", "md"]].rename(columns={"md": "oday"}), on="okey", how="inner"
        )
        if len(per) == 0:
            return empty
        per["late"] = per["md"].to_numpy() > per["oday"].to_numpy() + late_days
        st = per.groupby("okey").agg(ns=("sk", "size"), nl=("late", "sum"))
        per = per.join(st, on="okey")
        win = per[per["late"] & (per["ns"] >= 2) & (per["nl"] == 1)]
        if len(win) == 0:
            return empty
        return win.groupby("sk", as_index=False).size().rename(columns={"size": "n"})

    partials = salted_groupby(orders.union(li), "okey", waits_partial)

    def local_topk(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame(
                {"sk": pd.Series([], dtype="int64"), "n": pd.Series([], dtype="int64")}
            )
        tot = g.groupby("sk", as_index=False)["n"].sum()
        return tot.sort_values(["n", "sk"], ascending=[False, True]).head(k)

    cand = salted_groupby(
        partials.map_batches(
            lambda t: t, batch_format="pyarrow", batch_size=65536
        ),
        "sk",
        local_topk,
    ).to_pandas()
    cand = cand.sort_values(["n", "sk"], ascending=[False, True]).head(k)
    counts = dict(
        zip(cand["sk"].to_numpy(dtype=np.int64), cand["n"].to_numpy(dtype=np.int64))
    )
    win_ref = ray.put(np.sort(cand["sk"].to_numpy(dtype=np.int64)))

    def pick_names(t: pa.Table) -> pa.Table:
        w = ray.get(win_ref)
        sk = t["s_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        return t.filter(pa.array(np.isin(sk, w)))

    names = (
        rd.read_parquet(table_path(sf_dir, "supplier"), columns=["s_suppkey", "s_name"])
        .map_batches(pick_names, batch_format="pyarrow", batch_size=65536)
        .to_pandas()
        .sort_values("s_suppkey")
    )
    sk = names["s_suppkey"].to_numpy(dtype=np.int64)
    return rd.from_pandas(
        pd.DataFrame(
            {
                "s_suppkey": sk,
                "s_name": names["s_name"].to_numpy(dtype=object),
                "n_orders_sole_late": np.array(
                    [counts[int(s)] for s in sk], dtype=np.int64
                ),
            }
        )
    )


def user_modal_event(sf_dir: str):
    """Per-user modal event type: for every user, the event_type they
    fired most often (ties to the lexicographically smallest type) and
    its count. Per-block Arrow partials collapse to distinct
    (user, type) pairs — bounded by block rows, and in practice by
    users x |event-type vocabulary| — then ONE user-salted exchange
    finishes the sums and resolves the argmax locally (every type of a
    user lands in the same partition; the tie rule is a stable sort by
    type within user before an idxmax). No second combine: users are
    disjoint across partitions. Returns (user_id, event_type,
    n_events)."""
    import pyarrow as pa
    import ray.data as rd

    from open_parse_ray.stages.dedup import salted_groupby

    def partial(t: pa.Table) -> pa.Table:
        return _arrow_group_aggs(
            {"user_id": t["user_id"], "event_type": t["event_type"]},
            {"n_events": ("count", None)},
            t.num_rows,
        )

    parts = rd.read_parquet(
        table_path(sf_dir, "events"), columns=["user_id", "event_type"]
    ).map_batches(partial, batch_format="pyarrow", batch_size=65536)

    def modal(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame(
                {
                    "user_id": pd.Series([], dtype="int64"),
                    "event_type": pd.Series([], dtype=object),
                    "n_events": pd.Series([], dtype="int64"),
                }
            )
        tot = g.groupby(["user_id", "event_type"], as_index=False)["n_events"].sum()
        # (count DESC, type ASC) argmax per user via one stable sort +
        # first-row-per-user — no Python loop.
        tot = tot.sort_values(
            ["user_id", "n_events", "event_type"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        out = tot.drop_duplicates("user_id", keep="first")
        return pd.DataFrame(
            {
                "user_id": out["user_id"].to_numpy(dtype=np.int64),
                "event_type": out["event_type"].to_numpy(dtype=object),
                "n_events": out["n_events"].to_numpy(dtype=np.int64),
            }
        )

    return salted_groupby(parts, "user_id", modal)


def parts_never_shipped(sf_dir: str, year: int = 1997):
    """Anti-join without a broadcast OR a driver set: parts with NO
    lineitem shipped during the given calendar year. The lineitem scan
    is pruned to the ship-year window and collapses per block to its
    DISTINCT partkeys (one int64 row each); part rows carry
    (key, name, brand). ONE partkey-salted exchange co-locates each
    part with every evidence row for its key, and the partition emits
    the part rows whose key drew none — NOT-EXISTS resolved locally,
    nothing unbounded on the driver, both sides streamed. Returns
    (p_partkey, p_name, p_brand)."""
    import datetime as _dt

    import pyarrow as pa
    import pyarrow.dataset as pads
    import ray.data as rd

    from open_parse_ray.stages.dedup import salted_groupby

    lo, hi = _dt.datetime(year, 1, 1), _dt.datetime(year + 1, 1, 1)

    def li_partial(t: pa.Table) -> pa.Table:
        agg = _arrow_group_aggs(
            {"pk": t["l_partkey"]}, {"n": ("count", None)}, t.num_rows
        )
        n = agg.num_rows
        return pa.table(
            {
                "pk": agg["pk"].cast(pa.int64()),
                "p_name": pa.array([""] * n, pa.string()),
                "p_brand": pa.array([""] * n, pa.string()),
                "side": pa.array(np.ones(n, dtype=np.int64)),
            }
        )

    li = rd.read_parquet(
        table_path(sf_dir, "lineitem"),
        columns=["l_partkey"],
        filter=(pads.field("l_shipdate") >= lo) & (pads.field("l_shipdate") < hi),
    ).map_batches(li_partial, batch_format="pyarrow", batch_size=65536)

    def proj_part(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "pk": t["p_partkey"].cast(pa.int64()),
                "p_name": t["p_name"].cast(pa.string()),
                "p_brand": t["p_brand"].cast(pa.string()),
                "side": pa.array(np.zeros(t.num_rows, dtype=np.int64)),
            }
        )

    part = rd.read_parquet(
        table_path(sf_dir, "part"), columns=["p_partkey", "p_name", "p_brand"]
    ).map_batches(proj_part, batch_format="pyarrow", batch_size=65536)

    def antijoin(g: pd.DataFrame) -> pd.DataFrame:
        p = g[g["side"] == 0]
        if len(p) == 0:
            return pd.DataFrame(
                {
                    "p_partkey": pd.Series([], dtype="int64"),
                    "p_name": pd.Series([], dtype=object),
                    "p_brand": pd.Series([], dtype=object),
                }
            )
        seen = g.loc[g["side"] == 1, "pk"].to_numpy(dtype=np.int64)
        keep = p[~np.isin(p["pk"].to_numpy(dtype=np.int64), seen)]
        return pd.DataFrame(
            {
                "p_partkey": keep["pk"].to_numpy(dtype=np.int64),
                "p_name": keep["p_name"].to_numpy(dtype=object),
                "p_brand": keep["p_brand"].to_numpy(dtype=object),
            }
        )

    return salted_groupby(part.union(li), "pk", antijoin)


def customer_order_recency(sf_dir: str):
    """LEFT OUTER join with defaults, resolved in one exchange: every
    customer with their order count and most recent order day since
    2000-01-01 — customers with no recent order keep (0, -1) instead of
    dropping (the outer branch is the point; compare
    parts_never_shipped, which keeps ONLY that branch). Orders collapse
    per block to (custkey, count, max_day) Arrow partials behind a
    scan-pushed date filter; the customer side ships just its key; the
    custkey-salted partition finishes the sums and null-extends
    locally. Returns (c_custkey, n_orders, last_order_day)."""
    import datetime as _dt

    import pyarrow as pa
    import pyarrow.dataset as pads
    import ray.data as rd

    from open_parse_ray.stages.dedup import salted_groupby

    since = _dt.datetime(2000, 1, 1)

    def o_partial(t: pa.Table) -> pa.Table:
        day = (
            t["o_orderdate"]
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[D]")
            .astype(np.int64)
        )
        agg = _arrow_group_aggs(
            {"ck": t["o_custkey"]},
            {"n": ("count", None), "d": ("max", day)},
            t.num_rows,
        )
        return agg.append_column(
            "side", pa.array(np.ones(agg.num_rows, dtype=np.int64))
        )

    orders = rd.read_parquet(
        table_path(sf_dir, "orders"),
        columns=["o_custkey", "o_orderdate"],
        filter=pads.field("o_orderdate") >= since,
    ).map_batches(o_partial, batch_format="pyarrow", batch_size=65536)

    def proj_cust(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table(
            {
                "ck": t["c_custkey"].cast(pa.int64()),
                "n": pa.array(np.zeros(n, dtype=np.int64)),
                "d": pa.array(np.full(n, -1, dtype=np.int64)),
                "side": pa.array(np.zeros(n, dtype=np.int64)),
            }
        )

    cust = rd.read_parquet(
        table_path(sf_dir, "customer"), columns=["c_custkey"]
    ).map_batches(proj_cust, batch_format="pyarrow", batch_size=65536)

    def extend(g: pd.DataFrame) -> pd.DataFrame:
        c = g[g["side"] == 0]
        if len(c) == 0:
            return pd.DataFrame(
                {
                    "c_custkey": pd.Series([], dtype="int64"),
                    "n_orders": pd.Series([], dtype="int64"),
                    "last_order_day": pd.Series([], dtype="int64"),
                }
            )
        o = g[g["side"] == 1]
        fin = o.groupby("ck").agg(n=("n", "sum"), d=("d", "max"))
        j = c.set_index("ck")[[]].join(fin, how="left")
        return pd.DataFrame(
            {
                "c_custkey": j.index.to_numpy(dtype=np.int64),
                "n_orders": j["n"].fillna(0).to_numpy(dtype=np.int64),
                "last_order_day": j["d"].fillna(-1).to_numpy(dtype=np.int64),
            }
        )

    return salted_groupby(cust.union(orders), "ck", extend)


def market_share(
    sf_dir: str,
    region: str = "AMERICA",
    nation: str = "NATION_19",
    p_type: str = "ECONOMY",
):
    """National market share (the TPC-H Q8 shape): within one region's
    customers and one part type, the share of order-year revenue that
    was supplied by one nation — emitted as the two integer sums
    (nation_rev_cents, total_rev_cents) per year rather than the float
    ratio so the value hash is exact (compare promo_revenue_share).

    Plan — the densest star join in the suite (7 tables) resolved with
    two broadcasts and two exchanges, none of which ship a dimension:
    the part-type predicate collapses to a partkey bit array
    (np.packbits; 10^9 parts ≈ 125 MB — the Q14 idiom) and
    supplier→nationkey to a dense suppkey-indexed int8 array (the Q7
    idiom), so lineitem resolves both at scan speed with zero joins.
    Exchange 1 (orderkey salt) joins the filtered lineitem partials
    with date-windowed orders (which carry custkey + order year) and
    RE-aggregates to (custkey, year, supp_nk) before anything else
    moves; exchange 2 (custkey salt) resolves the customer's nation,
    gates on the region via the 25-entry nation→region closure dict,
    and collapses to the bounded (year, supp_nk) grid. The final
    combine folds supp_nk into the numerator/denominator pair. Returns
    (o_year, nation_rev_cents, total_rev_cents)."""
    import datetime as _dt

    import pyarrow as pa
    import pyarrow.dataset as pads
    import ray
    import ray.data as rd

    from open_parse_ray.stages.dedup import salted_groupby

    lo, hi = _dt.datetime(1996, 1, 1), _dt.datetime(1998, 1, 1)

    nat = pd.read_parquet(table_path(sf_dir, "nation"))
    nk_region = dict(
        zip(nat["n_nationkey"].astype(int), nat["n_regionkey"].astype(int))
    )
    reg = pd.read_parquet(table_path(sf_dir, "region"))
    rk = int(reg.loc[reg["r_name"] == region, "r_regionkey"].iloc[0])
    target_nk = int(nat.loc[nat["n_name"] == nation, "n_nationkey"].iloc[0])

    part = pd.read_parquet(table_path(sf_dir, "part"), columns=["p_partkey", "p_type"])
    pk = part["p_partkey"].to_numpy(dtype=np.int64)
    flags = np.zeros(int(pk.max()) + 1, dtype=np.uint8)
    flags[pk[(part["p_type"] == p_type).to_numpy()]] = 1
    bits_ref = ray.put(np.packbits(flags))

    supp = pd.read_parquet(
        table_path(sf_dir, "supplier"), columns=["s_suppkey", "s_nationkey"]
    )
    sk = supp["s_suppkey"].to_numpy(dtype=np.int64)
    s_nk = np.full(int(sk.max()) + 1, -1, dtype=np.int8)
    s_nk[sk] = supp["s_nationkey"].to_numpy(dtype=np.int8)
    snk_ref = ray.put(s_nk)

    def li_partial(t: pa.Table) -> pa.Table:
        bits = ray.get(bits_ref)
        m = ray.get(snk_ref)
        pkey = t["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = ((bits[pkey >> 3] >> (7 - (pkey & 7))) & 1).astype(bool)
        skey = t["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)[keep]
        price = t["l_extendedprice"].to_numpy(zero_copy_only=False)[keep]
        disc = t["l_discount"].to_numpy(zero_copy_only=False)[keep]
        okey = t["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)[keep]
        agg = _arrow_group_aggs(
            {"okey": okey, "supp_nk": m[skey].astype(np.int64)},
            {"rev": ("sum", _cents(price * (1 - disc)))},
            int(keep.sum()),
        )
        n = agg.num_rows
        return agg.append_column(
            "side", pa.array(np.ones(n, dtype=np.int64))
        ).append_column("o_year", pa.array(np.zeros(n, dtype=np.int64)))

    li = rd.read_parquet(
        table_path(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_partkey", "l_suppkey",
                 "l_extendedprice", "l_discount"],
    ).map_batches(li_partial, batch_format="pyarrow", batch_size=65536)

    def proj_orders(t: pa.Table) -> pa.Table:
        n = t.num_rows
        year = (
            t["o_orderdate"]
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[Y]")
            .astype(np.int64)
            + 1970
        )
        return pa.table(
            {
                "okey": t["o_orderkey"].cast(pa.int64()),
                "supp_nk": t["o_custkey"].cast(pa.int64()),
                "rev": pa.array(np.zeros(n, dtype=np.int64)),
                "side": pa.array(np.zeros(n, dtype=np.int64)),
                "o_year": pa.array(year),
            }
        )

    orders = rd.read_parquet(
        table_path(sf_dir, "orders"),
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
        filter=(pads.field("o_orderdate") >= lo) & (pads.field("o_orderdate") < hi),
    ).map_batches(proj_orders, batch_format="pyarrow", batch_size=65536)

    def join1(g: pd.DataFrame) -> pd.DataFrame:
        o = g[g["side"] == 0]
        l = g[g["side"] == 1]
        ck = dict(zip(o["okey"].to_numpy(), o["supp_nk"].to_numpy()))
        yr = dict(zip(o["okey"].to_numpy(), o["o_year"].to_numpy()))
        cust = l["okey"].map(ck)
        inside = cust.notna().to_numpy()
        out = pd.DataFrame(
            {
                "custkey": cust.to_numpy(dtype=np.float64)[inside].astype(np.int64),
                "o_year": l["okey"].map(yr).to_numpy(dtype=np.float64)[inside].astype(np.int64),
                "supp_nk": l["supp_nk"].to_numpy(dtype=np.int64)[inside],
                "rev": l["rev"].to_numpy(dtype=np.int64)[inside],
            }
        )
        out = out.groupby(["custkey", "o_year", "supp_nk"], as_index=False)[
            "rev"
        ].sum()
        out["side"] = np.int64(1)
        return out

    stage1 = salted_groupby(orders.union(li), "okey", join1)

    def proj_cust(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "custkey": b["c_custkey"].to_numpy(dtype=np.int64),
                "o_year": np.zeros(len(b), dtype=np.int64),
                "supp_nk": b["c_nationkey"].to_numpy(dtype=np.int64),
                "rev": np.zeros(len(b), dtype=np.int64),
                "side": np.zeros(len(b), dtype=np.int64),
            }
        )

    cust = rd.read_parquet(
        table_path(sf_dir, "customer"), columns=["c_custkey", "c_nationkey"]
    ).map_batches(proj_cust, batch_format="pandas", batch_size=65536)

    def join2(g: pd.DataFrame) -> pd.DataFrame:
        c = g[g["side"] == 0]
        r = g[g["side"] == 1]
        in_region = frozenset(
            int(k)
            for k, nk in zip(c["custkey"].to_numpy(), c["supp_nk"].to_numpy())
            if nk_region[int(nk)] == rk
        )
        keep = r["custkey"].isin(in_region).to_numpy()
        out = pd.DataFrame(
            {
                "o_year": r["o_year"].to_numpy(dtype=np.int64)[keep],
                "supp_nk": r["supp_nk"].to_numpy(dtype=np.int64)[keep],
                "rev": r["rev"].to_numpy(dtype=np.int64)[keep],
            }
        )
        return out.groupby(["o_year", "supp_nk"], as_index=False)["rev"].sum()

    partials = salted_groupby(cust.union(stage1), "custkey", join2)

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return pd.DataFrame(
                {
                    "o_year": pd.Series([], dtype="int64"),
                    "nation_rev_cents": pd.Series([], dtype="int64"),
                    "total_rev_cents": pd.Series([], dtype="int64"),
                }
            )
        b = b.copy()
        b["num"] = np.where(
            b["supp_nk"].to_numpy() == target_nk, b["rev"].to_numpy(), 0
        )
        out = b.groupby("o_year", as_index=False).agg(
            nation_rev_cents=("num", "sum"), total_rev_cents=("rev", "sum")
        )
        return pd.DataFrame(
            {
                "o_year": out["o_year"].to_numpy(dtype=np.int64),
                "nation_rev_cents": out["nation_rev_cents"].to_numpy(dtype=np.int64),
                "total_rev_cents": out["total_rev_cents"].to_numpy(dtype=np.int64),
            }
        )

    return partials.repartition(1).map_batches(
        finish, batch_format="pandas", batch_size=None
    )


def _skyline_kernel(pkey: np.ndarray, price: np.ndarray, size: np.ndarray):
    """Vectorized 2-D skyline (minimize price, maximize size). A row
    survives iff its size equals the max size within its own price
    group AND strictly exceeds the max size over all strictly lower
    prices (a lower-price row with EQUAL size dominates — strict in
    price, ≥ in size; exact (price, size) duplicates dominate neither
    way and all survive). Composition-safe: skyline(concat(local
    skylines)) == skyline(all rows), because any dominator of a
    discarded row either survives its own block's skyline or is itself
    dominated transitively by a survivor."""
    uq, inv = np.unique(price, return_inverse=True)
    permax = np.full(len(uq), np.iinfo(np.int64).min, dtype=np.int64)
    np.maximum.at(permax, inv, size)
    lower = np.empty(len(uq), dtype=np.int64)
    lower[0] = np.iinfo(np.int64).min
    if len(uq) > 1:
        np.maximum.accumulate(permax[:-1], out=lower[1:])
    keep = (size == permax[inv]) & (size > lower[inv])
    return pkey[keep], price[keep], size[keep]


def pareto_frontier_parts(sf_dir: str):
    """Distributed SKYLINE of the part table on (minimize retail price,
    maximize size) — the non-dominated frontier, the multi-objective
    ranking primitive (cheapest part at every size tier). Plan: each
    block collapses to its LOCAL skyline (bounded by the block's
    distinct-size count — p_size has a small domain, so a local
    frontier is ≤ |size domain| rows no matter the block size); the
    union of local frontiers is tiny and one final pass re-runs the
    identical kernel, which is exact because skyline composition is
    closed under concatenation (see _skyline_kernel). Zero shuffles —
    the classic partition-then-merge skyline plan. Returns
    (p_partkey, price_cents, p_size)."""
    import pyarrow as pa
    import ray.data as rd

    def local(t: pa.Table) -> pa.Table:
        pkey = t["p_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        price = _cents(t["p_retailprice"].to_numpy(zero_copy_only=False))
        size = t["p_size"].to_numpy(zero_copy_only=False).astype(np.int64)
        k, p, s = _skyline_kernel(pkey, price, size)
        return pa.table(
            {
                "p_partkey": pa.array(k),
                "price_cents": pa.array(p),
                "p_size": pa.array(s),
            }
        )

    partials = rd.read_parquet(
        table_path(sf_dir, "part"),
        columns=["p_partkey", "p_retailprice", "p_size"],
    ).map_batches(local, batch_format="pyarrow", batch_size=65536)

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return pd.DataFrame(
                {
                    "p_partkey": pd.Series([], dtype="int64"),
                    "price_cents": pd.Series([], dtype="int64"),
                    "p_size": pd.Series([], dtype="int64"),
                }
            )
        k, p, s = _skyline_kernel(
            b["p_partkey"].to_numpy(dtype=np.int64),
            b["price_cents"].to_numpy(dtype=np.int64),
            b["p_size"].to_numpy(dtype=np.int64),
        )
        return pd.DataFrame({"p_partkey": k, "price_cents": p, "p_size": s})

    return partials.repartition(1).map_batches(
        finish, batch_format="pandas", batch_size=None
    )


def dominant_part_suppliers(sf_dir: str, share_pct: int = 15):
    """Dominant-supplier audit (the TPC-H Q20 correlated-aggregate
    family, compare small_qty_order_revenue): for every supplier, the
    number of CONTESTED parts (≥ 2 distinct suppliers ship it) where
    this supplier alone shipped strictly more than ``share_pct``% of
    the part's total quantity (15% default — with ~10 suppliers per
    part on this corpus the uniform share is ~10%, so 15% marks a
    genuinely over-weighted supplier; 50% is empty at every scale).
    The correlated per-part total NEVER becomes a join: lineitem
    collapses per block to (partkey, suppkey, qty) Arrow partials,
    and inside the partkey-salted partition a part's total, its
    distinct-supplier count and each supplier's share are all
    partition-local, so the share test is the integer cross-multiply
    100*q_sp > share_pct*q_p. Only bounded (suppkey, count) partials
    leave the exchange; winner names attach via an isin-filtered
    streaming supplier scan (the Q10 idiom — supplier never
    shuffles). Returns (s_suppkey, s_name, n_dominant_parts)."""
    import pyarrow as pa
    import ray
    import ray.data as rd

    from open_parse_ray.stages.dedup import salted_groupby

    def li_partial(t: pa.Table) -> pa.Table:
        qty = t["l_quantity"].to_numpy(zero_copy_only=False).astype(np.int64)
        return _arrow_group_aggs(
            {"pk": t["l_partkey"], "sk": t["l_suppkey"]},
            {"qs": ("sum", qty)},
            t.num_rows,
        )

    li = rd.read_parquet(
        table_path(sf_dir, "lineitem"),
        columns=["l_partkey", "l_suppkey", "l_quantity"],
    ).map_batches(li_partial, batch_format="pyarrow", batch_size=65536)

    def dominate(g: pd.DataFrame) -> pd.DataFrame:
        q = g.groupby(["pk", "sk"], as_index=False)["qs"].sum()
        p = q.groupby("pk").agg(qp=("qs", "sum"), nsupp=("sk", "size"))
        qp = q["pk"].map(p["qp"]).to_numpy(dtype=np.int64)
        nsupp = q["pk"].map(p["nsupp"]).to_numpy(dtype=np.int64)
        win = (nsupp >= 2) & (
            100 * q["qs"].to_numpy(dtype=np.int64) > share_pct * qp
        )
        out = q[win].groupby("sk", as_index=False).size()
        return pd.DataFrame(
            {
                "sk": out["sk"].to_numpy(dtype=np.int64),
                "n": out["size"].to_numpy(dtype=np.int64),
            }
        )

    partials = salted_groupby(li, "pk", dominate)
    tot = two_phase_agg(partials, ["sk"], {"n": "sum"}).to_pandas()
    if len(tot) == 0:
        tot = pd.DataFrame({"sk": pd.Series([], dtype="int64"),
                            "n": pd.Series([], dtype="int64")})
    winners = np.sort(tot["sk"].to_numpy(dtype=np.int64))
    n_of = dict(zip(tot["sk"].to_numpy(), tot["n"].to_numpy()))
    win_ref = ray.put(winners)

    def pick(t: pa.Table) -> pa.Table:
        w = ray.get(win_ref)
        sk = t["s_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        return t.filter(pa.array(np.isin(sk, w)))

    supp = (
        rd.read_parquet(
            table_path(sf_dir, "supplier"), columns=["s_suppkey", "s_name"]
        )
        .map_batches(pick, batch_format="pyarrow", batch_size=65536)
        .to_pandas()
    )
    if len(supp) == 0:
        supp = pd.DataFrame(
            {"s_suppkey": pd.Series([], dtype="int64"),
             "s_name": pd.Series([], dtype=object)}
        )
    supp = supp.sort_values("s_suppkey")
    return rd.from_pandas(
        pd.DataFrame(
            {
                "s_suppkey": supp["s_suppkey"].to_numpy(dtype=np.int64),
                "s_name": supp["s_name"].to_numpy(dtype=object),
                "n_dominant_parts": supp["s_suppkey"]
                .map(n_of)
                .to_numpy(dtype=np.int64),
            }
        )
    )


def _inversions_chunked(v: np.ndarray, chunk: int = 1024) -> int:
    """Exact inversion count of one sequence (pairs i<j with v[i]>v[j])
    in O(n·chunk + (n/chunk)·K) without a per-row Python loop: chunk
    triangles are counted with one c×c broadcast each, cross-chunk
    pairs against all PRIOR chunks fold through a dense rank histogram
    and its suffix sum (count-greater in O(K) per chunk). The Python
    loop runs once per CHUNK, never per row — the blocked analog of
    merge-sort counting, and the same histogram trick the distributed
    quantile engine uses."""
    n = len(v)
    if n < 2:
        return 0
    uq, r = np.unique(v, return_inverse=True)
    K = len(uq)
    hist = np.zeros(K + 1, dtype=np.int64)
    total = 0
    for s in range(0, n, chunk):
        rc = r[s : s + chunk]
        # intra-chunk: strict upper triangle comparisons, one broadcast
        total += int(np.triu(rc[:, None] > rc[None, :], k=1).sum())
        # cross-chunk: prior elements with strictly larger rank
        if s:
            suffix = np.cumsum(hist[::-1])[::-1]
            total += int(suffix[rc + 1].sum())
        np.add.at(hist, rc, 1)
    return total


def events_disorder_stats(sf_dir: str):
    """Per-user temporal DISORDER: the number of discordant pairs
    (earlier event has strictly larger value) in the user's event
    sequence ordered by (ts, event_id) — the Kendall-discordance
    counting problem, the order-statistics family member the suite
    lacked. The SQL mirror is the O(n²) self-join; the kernel is the
    blocked histogram counter above (O(n·c + (n/c)·K) per user), so
    a 10^9-event user costs ~10^12/c comparisons instead of 10^18
    pairs. One user-salted exchange; values compare as integer cents
    (rank-compressed per user, so the histogram is bounded by the
    user's DISTINCT values). Returns (user_id, n_events, inversions)."""
    import ray.data as rd

    from open_parse_ray.stages.dedup import salted_groupby

    ds = rd.read_parquet(
        table_path(sf_dir, "events"),
        columns=["user_id", "ts", "event_id", "value"],
    )

    def per_user(part: pd.DataFrame) -> pd.DataFrame:
        if len(part) == 0:
            return pd.DataFrame(
                {
                    "user_id": pd.Series([], dtype="int64"),
                    "n_events": pd.Series([], dtype="int64"),
                    "inversions": pd.Series([], dtype="int64"),
                }
            )
        u = part["user_id"].to_numpy(dtype=np.int64)
        ts = part["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        eid = part["event_id"].to_numpy(dtype=np.int64)
        v = _cents(part["value"])
        order = np.lexsort((eid, ts, u))
        u, v = u[order], v[order]
        starts = np.flatnonzero(np.r_[True, u[1:] != u[:-1]])
        ends = np.r_[starts[1:], len(u)]
        out_u, out_n, out_i = [], [], []
        for s, e in zip(starts, ends):
            out_u.append(int(u[s]))
            out_n.append(int(e - s))
            out_i.append(_inversions_chunked(v[s:e]))
        return pd.DataFrame(
            {
                "user_id": np.asarray(out_u, dtype=np.int64),
                "n_events": np.asarray(out_n, dtype=np.int64),
                "inversions": np.asarray(out_i, dtype=np.int64),
            }
        )

    return salted_groupby(ds, "user_id", per_user)


def events_drift_cusum(sf_dir: str):
    """CUSUM drift detection per event type — the monitoring primitive
    that flags WHEN a type's rate changed: over the corpus-wide hourly
    grid [min hour, max hour] (zero-filled — silence is signal), the
    cumulative-sum deviation D_k = H·S_k − k·T (n-times-scaled so it
    stays integer; S_k = events in the first k hours, T = total,
    H = grid length) peaks at the changepoint. Returns per type the
    peak |D_k| and its grid offset (ties → smallest k). Shape: bounded
    (type, hour) count partials → one combined block; the grid build,
    cumsum and argmax are vectorized per type INSIDE the block (the
    events_hourly_trend rebase rule: hours are grid offsets, so no
    epoch-hour products). Returns (event_type, n_hours, total_events,
    max_dev, k_at_max)."""
    import ray.data as rd

    ds = rd.read_parquet(table_path(sf_dir, "events"), columns=["event_type", "ts"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        h = b["ts"].to_numpy().astype("datetime64[h]").astype(np.int64)
        out = pd.DataFrame({"event_type": b["event_type"], "h": h})
        g = out.groupby(["event_type", "h"], as_index=False).size()
        return pd.DataFrame(
            {
                "event_type": g["event_type"],
                "h": g["h"].astype("int64"),
                "n": g["size"].astype("int64"),
            }
        )

    partials = ds.map_batches(partial, batch_format="pandas", batch_size=65536)

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return pd.DataFrame(
                {
                    "event_type": pd.Series([], dtype=object),
                    "n_hours": pd.Series([], dtype="int64"),
                    "total_events": pd.Series([], dtype="int64"),
                    "max_dev": pd.Series([], dtype="int64"),
                    "k_at_max": pd.Series([], dtype="int64"),
                }
            )
        hmin = int(b["h"].min())
        hmax = int(b["h"].max())
        H = hmax - hmin + 1
        types = np.sort(b["event_type"].unique())
        rows = []
        for t in types:
            g = b[b["event_type"] == t]
            grid = np.zeros(H, dtype=np.int64)
            grid[g["h"].to_numpy(dtype=np.int64) - hmin] = g["n"].to_numpy(
                dtype=np.int64
            )
            sk = np.cumsum(grid)
            T = int(sk[-1])
            k = np.arange(1, H + 1, dtype=np.int64)
            dev = np.abs(H * sk - k * T)
            i = int(np.argmax(dev))  # first max -> smallest k on ties
            rows.append((t, H, T, int(dev[i]), i + 1))
        return pd.DataFrame(
            {
                "event_type": [r[0] for r in rows],
                "n_hours": np.asarray([r[1] for r in rows], dtype=np.int64),
                "total_events": np.asarray([r[2] for r in rows], dtype=np.int64),
                "max_dev": np.asarray([r[3] for r in rows], dtype=np.int64),
                "k_at_max": np.asarray([r[4] for r in rows], dtype=np.int64),
            }
        )

    return two_phase_agg(partials, ["event_type", "h"], {"n": "sum"}, finalize=finish)


def events_periodicity(sf_dir: str, lags=(1, 24, 168)):
    """Rhythm detection per event type — raw AUTOCORRELATION dot
    products of the zero-filled hourly count series at fixed lags
    (1 h adjacency, 24 h daily, 168 h weekly): dot_L = Σ c_t·c_{t+L},
    a pure-integer periodicity signal (a strong daily rhythm shows as
    dot_24 ≫ dot_1's baseline; the reader normalizes). Same bounded
    (type, hour) partial grid as events_drift_cusum; the per-type dot
    products are one vectorized slice-multiply each inside the single
    combined block. Lags ≥ the grid length emit nothing (mirrored by
    the oracle's join bound). Returns (event_type, lag, dot, n_terms)."""
    import ray.data as rd

    ds = rd.read_parquet(table_path(sf_dir, "events"), columns=["event_type", "ts"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        h = b["ts"].to_numpy().astype("datetime64[h]").astype(np.int64)
        g = pd.DataFrame({"event_type": b["event_type"], "h": h}).groupby(
            ["event_type", "h"], as_index=False
        ).size()
        return pd.DataFrame(
            {
                "event_type": g["event_type"],
                "h": g["h"].astype("int64"),
                "n": g["size"].astype("int64"),
            }
        )

    partials = ds.map_batches(partial, batch_format="pandas", batch_size=65536)

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return pd.DataFrame(
                {
                    "event_type": pd.Series([], dtype=object),
                    "lag": pd.Series([], dtype="int64"),
                    "dot": pd.Series([], dtype="int64"),
                    "n_terms": pd.Series([], dtype="int64"),
                }
            )
        hmin, hmax = int(b["h"].min()), int(b["h"].max())
        H = hmax - hmin + 1
        rows = []
        for t in np.sort(b["event_type"].unique()):
            g = b[b["event_type"] == t]
            grid = np.zeros(H, dtype=np.int64)
            grid[g["h"].to_numpy(dtype=np.int64) - hmin] = g["n"].to_numpy(
                dtype=np.int64
            )
            for L in lags:
                if L >= H:
                    continue
                rows.append(
                    (t, int(L), int(np.dot(grid[:-L], grid[L:])), H - int(L))
                )
        return pd.DataFrame(
            {
                "event_type": [r[0] for r in rows],
                "lag": np.asarray([r[1] for r in rows], dtype=np.int64),
                "dot": np.asarray([r[2] for r in rows], dtype=np.int64),
                "n_terms": np.asarray([r[3] for r in rows], dtype=np.int64),
            }
        )

    return two_phase_agg(partials, ["event_type", "h"], {"n": "sum"}, finalize=finish)


def user_activity_histogram(sf_dir: str):
    """Distribution-of-activity report: how many users produced exactly
    k events — the engagement-shape statistic (a heavy-tailed corpus
    shows here first, and it is the input to the rate-cap decision the
    same way domain_concentration feeds the domain cap). Two-phase:
    per-block (user, count) Arrow partials finish in ONE user-salted
    exchange (users disjoint across partitions ⇒ per-partition
    histograms over final counts are exact) and collapse to the
    bounded (n_events, n_users) grid. Returns (n_events, n_users)."""
    import pyarrow as pa
    import ray.data as rd

    from open_parse_ray.stages.dedup import salted_groupby

    ds = rd.read_parquet(table_path(sf_dir, "events"), columns=["user_id"])

    def partial(t: pa.Table) -> pa.Table:
        return _arrow_group_aggs(
            {"user_id": t["user_id"]}, {"n": ("count", None)}, t.num_rows
        )

    partials = ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)

    def hist(g: pd.DataFrame) -> pd.DataFrame:
        per_user = g.groupby("user_id", as_index=False)["n"].sum()
        vc = per_user["n"].value_counts()
        return pd.DataFrame(
            {
                "n_events": vc.index.to_numpy(dtype=np.int64),
                "n_users": vc.to_numpy(dtype=np.int64),
            }
        )

    out = salted_groupby(partials, "user_id", hist)
    return two_phase_agg(out, ["n_events"], {"n_users": "sum"})


def _bloom_hashes(keys: np.ndarray, m_bits: int, k_hashes: int) -> np.ndarray:
    """k double-hashed bit positions per key (Kirsch–Mitzenmacher:
    h_i = h1 + i·h2 mod m), both base hashes from the shared splitmix64
    mixer so the filter is deterministic across runs, retries and
    cluster sizes. Returns shape (k, n) int64 positions."""
    from open_parse_ray.stages.analysis import _splitmix63

    h1 = _splitmix63(keys).astype(np.uint64)
    h2 = _splitmix63(keys ^ np.int64(0x5DEECE66D)).astype(np.uint64) | np.uint64(1)
    i = np.arange(k_hashes, dtype=np.uint64)[:, None]
    return ((h1[None, :] + i * h2[None, :]) % np.uint64(m_bits)).astype(np.int64)


def bloom_semijoin_orders(
    sf_dir: str,
    segment: str = "BUILDING",
    m_bits: int = 1 << 17,
    k_hashes: int = 4,
    use_bloom: bool = True,
):
    """Semi-join REDUCTION via a broadcast Bloom filter: orders placed by
    ``segment`` customers, joined exactly. The qualifying-customer key
    set is summarized as an m-bit Bloom bitmap (per-block OR partials,
    folded once on the driver — n_blocks × m/8 bytes, never key rows),
    broadcast via ray.put, and the orders scan drops every row that
    fails the membership test BEFORE the join exchange — at a 20%
    segment the exchange ships ~20% + ε of the fact table instead of
    all of it, and unlike an exact key-set broadcast the bitmap is
    FIXED-SIZE no matter how many keys qualify (10^9 qualifying
    custkeys as an int64 set is 8 GB; the bitmap stays m/8 bytes).
    False positives are removed by the exact in-partition hash join
    against the real (filtered) customer side, so the result is exact
    for ANY m — a tiny bitmap only costs extra shipped rows, never
    correctness (gated). ``use_bloom=False`` broadcasts the exact key
    set instead (the equality-gate twin). Returns
    (o_orderkey, o_custkey, c_nationkey, price_cents)."""
    import pyarrow as pa
    import ray
    import ray.data as rd

    from open_parse_ray.stages.dedup import salted_groupby

    cust_cols = ["c_custkey", "c_nationkey", "c_mktsegment"]
    cust_ds = rd.read_parquet(table_path(sf_dir, "customer"), columns=cust_cols)

    if use_bloom:
        nbytes = m_bits // 8

        def bloom_partial(t: pa.Table) -> pd.DataFrame:
            seg = t["c_mktsegment"].to_numpy(zero_copy_only=False)
            keys = t["c_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
            keys = keys[seg == segment]
            bm = np.zeros(nbytes, dtype=np.uint8)
            if len(keys):
                pos = _bloom_hashes(keys, m_bits, k_hashes).ravel()
                np.bitwise_or.at(
                    bm, pos >> 3, (1 << (7 - (pos & 7))).astype(np.uint8)
                )
            return pd.DataFrame({"bm": [bm.tobytes()]})

        parts = cust_ds.map_batches(
            bloom_partial, batch_format="pyarrow", batch_size=65536
        ).take_all()
        bm = np.zeros(nbytes, dtype=np.uint8)
        for r in parts:  # n_blocks fixed-size bitmaps — driver-bounded
            bm |= np.frombuffer(r["bm"], dtype=np.uint8)
        probe_ref = ray.put(bm)

        def survives(pk: np.ndarray) -> np.ndarray:
            bits = ray.get(probe_ref)
            pos = _bloom_hashes(pk, m_bits, k_hashes)
            ok = np.ones(len(pk), dtype=bool)
            for i in range(k_hashes):
                p = pos[i]
                ok &= ((bits[p >> 3] >> (7 - (p & 7))) & 1).astype(bool)
            return ok

    else:

        def key_partial(t: pa.Table) -> pd.DataFrame:
            seg = t["c_mktsegment"].to_numpy(zero_copy_only=False)
            keys = t["c_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
            return pd.DataFrame({"k": keys[seg == segment]})

        want = np.sort(
            cust_ds.map_batches(
                key_partial, batch_format="pyarrow", batch_size=65536
            )
            .to_pandas()["k"]
            .to_numpy(dtype=np.int64)
        )
        probe_ref = ray.put(want)

        def survives(pk: np.ndarray) -> np.ndarray:
            w = ray.get(probe_ref)
            idx = np.searchsorted(w, pk)
            idx[idx >= len(w)] = 0
            return w[idx] == pk if len(w) else np.zeros(len(pk), dtype=bool)

    def proj_orders(t: pa.Table) -> pa.Table:
        pk = t["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        ok = survives(pk)
        n = int(ok.sum())
        return pa.table(
            {
                "key": pa.array(pk[ok]),
                "side": pa.array(np.zeros(n, dtype=np.int64)),
                "o_orderkey": pa.array(
                    t["o_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)[ok]
                ),
                "price_cents": pa.array(
                    _cents(t["o_totalprice"].to_numpy(zero_copy_only=False))[ok]
                ),
                "c_nationkey": pa.array(np.full(n, -1, dtype=np.int64)),
            }
        )

    def proj_cust(t: pa.Table) -> pa.Table:
        seg = t["c_mktsegment"].to_numpy(zero_copy_only=False)
        m = seg == segment
        n = int(m.sum())
        fill = np.full(n, -1, dtype=np.int64)
        return pa.table(
            {
                "key": pa.array(
                    t["c_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)[m]
                ),
                "side": pa.array(np.ones(n, dtype=np.int64)),
                "o_orderkey": pa.array(fill),
                "price_cents": pa.array(fill),
                "c_nationkey": pa.array(
                    t["c_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64)[m]
                ),
            }
        )

    orders = rd.read_parquet(
        table_path(sf_dir, "orders"),
        columns=["o_orderkey", "o_custkey", "o_totalprice"],
    ).map_batches(proj_orders, batch_format="pyarrow", batch_size=65536)
    cust = cust_ds.map_batches(proj_cust, batch_format="pyarrow", batch_size=65536)

    def join(part: pd.DataFrame) -> pd.DataFrame:
        left = part[part["side"] == 0][["key", "o_orderkey", "price_cents"]]
        right = part[part["side"] == 1][["key", "c_nationkey"]]
        out = left.merge(right, on="key", how="inner")
        return pd.DataFrame(
            {
                "o_orderkey": out["o_orderkey"].astype("int64"),
                "o_custkey": out["key"].astype("int64"),
                "c_nationkey": out["c_nationkey"].astype("int64"),
                "price_cents": out["price_cents"].astype("int64"),
            }
        )

    both = orders.union(cust)
    return salted_groupby(both, "key", join)


def orders_at_time_segment(sf_dir: str):
    """POINT-IN-TIME (as-of) dimension join — the temporal-correctness
    primitive behind reproducible training data: enrich every order
    with the customer's market segment AS OF the order date, against a
    slowly-changing dimension history. Ray Data has no as-of join; this
    composes one from a custkey-salted tagged exchange (orders +
    bounded per-customer version rows co-locate) and one vectorized
    pd.merge_asof per partition — no window scan, no per-row loop.

    The segment HISTORY derives deterministically from the customer
    table so the SQL oracle can rebuild it: version 0 is c_mktsegment
    from day -10^8; customers with c_custkey % 3 == 0 change to
    'UPGRADED' at d1 = min_day + 40% of the corpus day range; those
    with c_custkey % 9 == 0 change again to 'VIP' at d2 = min_day +
    70% of the range (global min/max order days — footer-derivable,
    min/max subqueries in SQL). Returns (o_orderkey, o_custkey,
    order_day, segment, price_cents)."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from open_parse_ray.stages.dedup import salted_groupby

    # global day bounds from parquet footer stats — no data scan
    md = pq.ParquetFile(table_path(sf_dir, "orders")).metadata
    lo = hi = None
    for g in range(md.num_row_groups):
        rg = md.row_group(g)
        for i in range(rg.num_columns):
            c = rg.column(i)
            if c.path_in_schema == "o_orderdate":
                smin = int(
                    np.datetime64(c.statistics.min, "us")
                    .astype("datetime64[D]")
                    .astype(int)
                )
                smax = int(
                    np.datetime64(c.statistics.max, "us")
                    .astype("datetime64[D]")
                    .astype(int)
                )
                lo = smin if lo is None else min(lo, smin)
                hi = smax if hi is None else max(hi, smax)
                break
    d1 = lo + ((hi - lo) * 40) // 100
    d2 = lo + ((hi - lo) * 70) // 100
    # equal-day versions would make the as-of tie ambiguous on both sides
    assert -(10**8) < d1 < d2, "degenerate date range"

    def proj_orders(t: pa.Table) -> pa.Table:
        day = (
            t["o_orderdate"]
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[D]")
            .astype(np.int64)
        )
        n = t.num_rows
        return pa.table(
            {
                "key": t["o_custkey"].cast(pa.int64()),
                "side": pa.array(np.zeros(n, dtype=np.int64)),
                "o_orderkey": t["o_orderkey"].cast(pa.int64()),
                "day": pa.array(day),
                "price_cents": pa.array(_cents(t["o_totalprice"].to_numpy())),
                "seg": pa.array([""] * n, pa.string()),
            }
        )

    def proj_hist(t: pa.Table) -> pa.Table:
        ck = t["c_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        seg0 = t["c_mktsegment"].to_pylist()
        keys, days, segs = [ck], [np.full(len(ck), -(10**8), dtype=np.int64)], [seg0]
        m3 = ck % 3 == 0
        keys.append(ck[m3])
        days.append(np.full(int(m3.sum()), d1, dtype=np.int64))
        segs.append(["UPGRADED"] * int(m3.sum()))
        m9 = ck % 9 == 0
        keys.append(ck[m9])
        days.append(np.full(int(m9.sum()), d2, dtype=np.int64))
        segs.append(["VIP"] * int(m9.sum()))
        k = np.concatenate(keys)
        n = len(k)
        fill = np.full(n, -1, dtype=np.int64)
        return pa.table(
            {
                "key": pa.array(k),
                "side": pa.array(np.ones(n, dtype=np.int64)),
                "o_orderkey": pa.array(fill),
                "day": pa.array(np.concatenate(days)),
                "price_cents": pa.array(fill),
                "seg": pa.array(sum(segs, []), pa.string()),
            }
        )

    orders = rd.read_parquet(
        table_path(sf_dir, "orders"),
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"],
    ).map_batches(proj_orders, batch_format="pyarrow", batch_size=65536)
    hist = rd.read_parquet(
        table_path(sf_dir, "customer"), columns=["c_custkey", "c_mktsegment"]
    ).map_batches(proj_hist, batch_format="pyarrow", batch_size=65536)

    def asof(part: pd.DataFrame) -> pd.DataFrame:
        left = part[part["side"] == 0][
            ["key", "o_orderkey", "day", "price_cents"]
        ].sort_values("day", kind="stable")
        right = part[part["side"] == 1][["key", "day", "seg"]].sort_values(
            "day", kind="stable"
        )
        if len(left) == 0:
            return pd.DataFrame(
                {
                    "o_orderkey": pd.Series([], dtype="int64"),
                    "o_custkey": pd.Series([], dtype="int64"),
                    "order_day": pd.Series([], dtype="int64"),
                    "segment": pd.Series([], dtype="object"),
                    "price_cents": pd.Series([], dtype="int64"),
                }
            )
        out = pd.merge_asof(
            left, right, on="day", by="key", direction="backward"
        )
        return pd.DataFrame(
            {
                "o_orderkey": out["o_orderkey"].astype("int64"),
                "o_custkey": out["key"].astype("int64"),
                "order_day": out["day"].astype("int64"),
                "segment": out["seg"],
                "price_cents": out["price_cents"].astype("int64"),
            }
        )

    both = orders.union(hist)
    return salted_groupby(both, "key", asof)


ORDERS_AT_TIME_SEGMENT_SQL = """
    WITH b AS (
      SELECT min(datediff('day', DATE '1970-01-01', o_orderdate)) AS lo,
             max(datediff('day', DATE '1970-01-01', o_orderdate)) AS hi
      FROM orders
    ),
    bb AS (
      SELECT lo + ((hi - lo) * 40) // 100 AS d1,
             lo + ((hi - lo) * 70) // 100 AS d2
      FROM b
    ),
    hist AS (
      SELECT c_custkey, CAST(-100000000 AS BIGINT) AS vf, c_mktsegment AS seg
      FROM customer
      UNION ALL
      SELECT c_custkey, d1, 'UPGRADED' FROM customer, bb WHERE c_custkey % 3 = 0
      UNION ALL
      SELECT c_custkey, d2, 'VIP' FROM customer, bb WHERE c_custkey % 9 = 0
    )
    SELECT o.o_orderkey, o.o_custkey,
           CAST(datediff('day', DATE '1970-01-01', o.o_orderdate) AS BIGINT)
             AS order_day,
           arg_max(h.seg, h.vf) AS segment,
           CAST(round(o.o_totalprice * 100) AS BIGINT) AS price_cents
    FROM orders o
    JOIN hist h ON h.c_custkey = o.o_custkey
      AND h.vf <= datediff('day', DATE '1970-01-01', o.o_orderdate)
    GROUP BY 1, 2, 3, 5
"""


def linestatus_priority_counts(sf_dir: str):
    """Priority mix per shipping status (the TPC-H Q12 shape — Q12's
    l_shipmode/receipt-window columns don't exist in this corpus, so the
    grid key is (l_returnflag, l_linestatus) and the window is the ship
    date): over lineitems shipped in [1996-01-01, 1998-01-01), how many
    lines belong to high-priority orders ('1-URGENT'/'2-HIGH') vs the
    rest. Reference analogy: the eval runner's aggregate reporting
    (src/evals/run_evals.py) — here as a fact-dimension priority join.

    Scale shape: the ONLY exchange is one orderkey-salted tagged pass.
    lineitem collapses per block to (okey, rf, ls) count partials via
    the Arrow-native kernel (bounded by distinct orders per block × the
    6-cell grid) BEFORE the exchange; orders ships a 2-column
    (okey, is_high) projection. Inside each partition the join is a
    vectorized map + grid aggregate emitting at most the 6-cell grid per
    partition; the final combine sums a tiny table. No order row is ever
    replicated; no full-table groupby happens anywhere.
    Returns (l_returnflag, l_linestatus, high_lines, low_lines)."""
    import datetime as _dt

    import pyarrow as pa
    import pyarrow.dataset as pads
    import ray.data as rd

    from open_parse_ray.stages.dedup import salted_groupby

    lo, hi = _dt.datetime(1996, 1, 1), _dt.datetime(1998, 1, 1)

    def li_partial(t: pa.Table) -> pa.Table:
        agg = _arrow_group_aggs(
            {
                "okey": t["l_orderkey"],
                "rf": t["l_returnflag"],
                "ls": t["l_linestatus"],
            },
            {"n": ("count", None)},
            t.num_rows,
        )
        return agg.append_column(
            "hi", pa.array(np.zeros(agg.num_rows, dtype=np.int64))
        ).append_column("side", pa.array(np.ones(agg.num_rows, dtype=np.int64)))

    li = rd.read_parquet(
        table_path(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_returnflag", "l_linestatus", "l_shipdate"],
        filter=(pads.field("l_shipdate") >= lo) & (pads.field("l_shipdate") < hi),
    ).map_batches(li_partial, batch_format="pyarrow", batch_size=65536)

    def proj_orders(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        prio = t["o_orderpriority"]
        is_hi = pc.is_in(
            prio, value_set=pa.array(["1-URGENT", "2-HIGH"])
        ).to_numpy(zero_copy_only=False)
        n = t.num_rows
        return pa.table(
            {
                "okey": t["o_orderkey"].cast(pa.int64()),
                "rf": pa.array([""] * n, pa.string()),
                "ls": pa.array([""] * n, pa.string()),
                "n": pa.array(np.zeros(n, dtype=np.int64)),
                "hi": pa.array(is_hi.astype(np.int64)),
                "side": pa.array(np.zeros(n, dtype=np.int64)),
            }
        )

    orders = rd.read_parquet(
        table_path(sf_dir, "orders"), columns=["o_orderkey", "o_orderpriority"]
    ).map_batches(proj_orders, batch_format="pyarrow", batch_size=65536)

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        l = g[g["side"] == 1]
        if len(l) == 0:
            return pd.DataFrame(
                {
                    "l_returnflag": pd.Series(dtype="object"),
                    "l_linestatus": pd.Series(dtype="object"),
                    "high_lines": pd.Series(dtype="int64"),
                    "low_lines": pd.Series(dtype="int64"),
                }
            )
        o = g[g["side"] == 0]
        hi_of = pd.Series(o["hi"].to_numpy(), index=o["okey"].to_numpy())
        h = hi_of.reindex(l["okey"].to_numpy()).to_numpy()
        # a lineitem's order is always present (FK — fk_audit pins it);
        # reindex would yield NaN on a violation, which astype raises on
        h = h.astype(np.int64)
        n = l["n"].to_numpy()
        t = pd.DataFrame(
            {
                "l_returnflag": l["rf"].to_numpy(),
                "l_linestatus": l["ls"].to_numpy(),
                "high_lines": n * h,
                "low_lines": n * (1 - h),
            }
        )
        return t.groupby(["l_returnflag", "l_linestatus"], as_index=False).agg(
            high_lines=("high_lines", "sum"), low_lines=("low_lines", "sum")
        )

    parts = salted_groupby(li.union(orders), "okey", finish)
    return two_phase_agg(
        parts,
        ["l_returnflag", "l_linestatus"],
        {"high_lines": "sum", "low_lines": "sum"},
    )


LINESTATUS_PRIORITY_COUNTS_SQL = """
    SELECT l.l_returnflag, l.l_linestatus,
           CAST(sum(CASE WHEN o.o_orderpriority IN ('1-URGENT', '2-HIGH')
                         THEN 1 ELSE 0 END) AS BIGINT) AS high_lines,
           CAST(sum(CASE WHEN o.o_orderpriority IN ('1-URGENT', '2-HIGH')
                         THEN 0 ELSE 1 END) AS BIGINT) AS low_lines
    FROM lineitem l
    JOIN orders o ON o.o_orderkey = l.l_orderkey
    WHERE l.l_shipdate >= TIMESTAMP '1996-01-01'
      AND l.l_shipdate < TIMESTAMP '1998-01-01'
    GROUP BY 1, 2
"""


def event_type_overlap_matrix(sf_dir: str):
    """Exact audience-overlap matrix: for every unordered pair of event
    types (diagonal included), how many distinct users emitted BOTH
    types — the exact version of the theta-sketch set-intersection
    report (and the diagonal reproduces distinct_users_by_type, a
    cross-operator consistency anchor). The co-occurrence input to
    funnel design and feature-overlap audits.

    Scale shape: per block, (user, type) collapses to distinct pairs via
    the Arrow-native kernel (bounded by users-in-block × T). ONE
    user-salted exchange co-locates each user's type set; users are
    disjoint across partitions, so the per-partition self-merge (each
    user's ≤T types → ≤T(T+1)/2 pairs) yields EXACT pair-count partials,
    and each partition emits at most the T(T+1)/2 grid. The final
    combine sums a tiny table. Distinct users never ship twice; no
    count-distinct shuffle happens anywhere.
    Returns (type_a, type_b, n_users), type_a <= type_b."""
    import pyarrow as pa
    import ray.data as rd

    from open_parse_ray.stages.dedup import salted_groupby

    def uniq_pairs(t: pa.Table) -> pa.Table:
        agg = _arrow_group_aggs(
            {"user_id": t["user_id"], "event_type": t["event_type"]},
            {"n": ("count", None)},
            t.num_rows,
        )
        return agg.drop_columns(["n"])

    ds = rd.read_parquet(
        table_path(sf_dir, "events"), columns=["user_id", "event_type"]
    ).map_batches(uniq_pairs, batch_format="pyarrow", batch_size=65536)

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["user_id", "event_type"])
        p = d.merge(d, on="user_id")
        p = p[p["event_type_x"] <= p["event_type_y"]]
        out = p.groupby(["event_type_x", "event_type_y"], as_index=False).agg(
            n_users=("user_id", "size")
        )
        return out.rename(columns={"event_type_x": "type_a", "event_type_y": "type_b"})

    parts = salted_groupby(ds, "user_id", finish)
    return two_phase_agg(parts, ["type_a", "type_b"], {"n_users": "sum"})


EVENT_TYPE_OVERLAP_MATRIX_SQL = """
    WITH d AS (SELECT DISTINCT user_id, event_type FROM events)
    SELECT a.event_type AS type_a, b.event_type AS type_b,
           CAST(count(*) AS BIGINT) AS n_users
    FROM d a
    JOIN d b ON a.user_id = b.user_id AND a.event_type <= b.event_type
    GROUP BY 1, 2
"""


def orders_priority_pivot(sf_dir: str):
    """Pivot / wide-format aggregate: one row per order year with a
    (count, revenue-cents) column PAIR per order priority class — the
    long→wide reshape (SQL FILTER aggregates / pandas pivot_table) as a
    first-class distributed operator. Reference analogy: the eval
    runner's per-category report table (src/evals/run_evals.py).

    Scale shape: the (year × 5-priority) grid is bounded, so per-block
    Arrow partials collapse each block to ≤|grid| narrow rows, the tiny
    combined table is summed once, and the pivot itself happens on the
    already-combined single block — the reshape never touches a wide
    row per input row and there is NO shuffle at all. Missing cells are
    explicit zeros (the pivot contract). Returns
    (o_year, n_urgent..n_low, cents_urgent..cents_low)."""
    import pyarrow as pa
    import ray.data as rd

    classes = [
        ("1-URGENT", "urgent"),
        ("2-HIGH", "high"),
        ("3-MEDIUM", "medium"),
        ("4-NOT SPECIFIED", "notspec"),
        ("5-LOW", "low"),
    ]

    def partial(t: pa.Table) -> pa.Table:
        yr = (
            t["o_orderdate"]
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[Y]")
            .astype(np.int64)
            + 1970
        )
        cents = _cents(t["o_totalprice"].to_numpy(zero_copy_only=False))
        return _arrow_group_aggs(
            {"o_year": yr, "prio": t["o_orderpriority"]},
            {"n": ("count", None), "cents": ("sum", cents)},
            t.num_rows,
        )

    parts = rd.read_parquet(
        table_path(sf_dir, "orders"),
        columns=["o_orderdate", "o_orderpriority", "o_totalprice"],
    ).map_batches(partial, batch_format="pyarrow", batch_size=65536)

    def widen(b: pd.DataFrame) -> pd.DataFrame:
        cols = {"o_year": pd.Series(dtype="int64")}
        for _, short in classes:
            cols[f"n_{short}"] = pd.Series(dtype="int64")
        for _, short in classes:
            cols[f"cents_{short}"] = pd.Series(dtype="int64")
        if len(b) == 0:
            return pd.DataFrame(cols)
        years = np.sort(b["o_year"].unique())
        out = {"o_year": years.astype(np.int64)}
        for prio, short in classes:
            sub = b[b["prio"] == prio].set_index("o_year")
            out[f"n_{short}"] = (
                sub["n"].reindex(years).fillna(0).to_numpy().astype(np.int64)
            )
            out[f"cents_{short}"] = (
                sub["cents"].reindex(years).fillna(0).to_numpy().astype(np.int64)
            )
        return pd.DataFrame(out)[list(cols)]

    return two_phase_agg(
        parts,
        ["o_year", "prio"],
        {"n": "sum", "cents": "sum"},
        finalize=widen,
    )


ORDERS_PRIORITY_PIVOT_SQL = """
    SELECT CAST(year(o_orderdate) AS BIGINT) AS o_year,
           CAST(count(*) FILTER (o_orderpriority = '1-URGENT') AS BIGINT)
               AS n_urgent,
           CAST(count(*) FILTER (o_orderpriority = '2-HIGH') AS BIGINT)
               AS n_high,
           CAST(count(*) FILTER (o_orderpriority = '3-MEDIUM') AS BIGINT)
               AS n_medium,
           CAST(count(*) FILTER (o_orderpriority = '4-NOT SPECIFIED')
               AS BIGINT) AS n_notspec,
           CAST(count(*) FILTER (o_orderpriority = '5-LOW') AS BIGINT)
               AS n_low,
           CAST(COALESCE(sum(CAST(round(o_totalprice * 100) AS BIGINT))
               FILTER (o_orderpriority = '1-URGENT'), 0) AS BIGINT)
               AS cents_urgent,
           CAST(COALESCE(sum(CAST(round(o_totalprice * 100) AS BIGINT))
               FILTER (o_orderpriority = '2-HIGH'), 0) AS BIGINT)
               AS cents_high,
           CAST(COALESCE(sum(CAST(round(o_totalprice * 100) AS BIGINT))
               FILTER (o_orderpriority = '3-MEDIUM'), 0) AS BIGINT)
               AS cents_medium,
           CAST(COALESCE(sum(CAST(round(o_totalprice * 100) AS BIGINT))
               FILTER (o_orderpriority = '4-NOT SPECIFIED'), 0) AS BIGINT)
               AS cents_notspec,
           CAST(COALESCE(sum(CAST(round(o_totalprice * 100) AS BIGINT))
               FILTER (o_orderpriority = '5-LOW'), 0) AS BIGINT)
               AS cents_low
    FROM orders GROUP BY 1
"""


def important_parts_share(sf_dir: str):
    """TPC-H Q11 shape — filter groups by a GLOBAL aggregate: parts whose
    total discounted revenue exceeds 1.5x the average per-part revenue
    (i.e. whose share of GLOBAL revenue exceeds 1.5/n_parts). The
    "HAVING sum(x) > f * (SELECT sum(x) FROM ...)" composition as a
    distributed operator. Reference analogy: the eval runner's
    aggregate reporting (src/evals/run_evals.py) — here a global-scalar
    broadcast gate.

    Scale shape: per-block Arrow partials collapse lineitem to
    (partkey, cents) rows; ONE partkey-salted exchange finishes exact
    per-part sums. That per-part table (bounded by part cardinality,
    ~1/30 of lineitem rows) is materialized ONCE in the object store —
    distributed blocks, never driver-resident; the driver folds only
    per-block (local_cents, local_rows) pairs (<= #blocks rows) into the
    global total and part count as arbitrary-precision Python ints. The
    threshold is then a SINGLE int64 scalar closed over by the final
    filter — the per-row test is cents >= (3*total)//(2*nparts) + 1,
    which is exactly cents*2*nparts > 3*total without the int64 overflow
    the product form would hit at 10^12-row scale.
    Returns (p_partkey, revenue_cents) for passing parts."""
    import pyarrow as pa
    import ray.data as rd

    from open_parse_ray.stages.dedup import salted_groupby

    def partial(t: pa.Table) -> pa.Table:
        price = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = t["l_discount"].to_numpy(zero_copy_only=False)
        return _arrow_group_aggs(
            {"p_partkey": t["l_partkey"]},
            {"revenue_cents": ("sum", _cents(price * (1 - disc)))},
            t.num_rows,
        )

    parts = rd.read_parquet(
        table_path(sf_dir, "lineitem"),
        columns=["l_partkey", "l_extendedprice", "l_discount"],
    ).map_batches(partial, batch_format="pyarrow", batch_size=65536)

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("p_partkey", as_index=False).agg(
            revenue_cents=("revenue_cents", "sum")
        )

    per_part = salted_groupby(parts, "p_partkey", finish).materialize()

    def local_totals(t: pa.Table) -> pa.Table:
        c = t["revenue_cents"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "cents": pa.array([int(c.sum())], pa.int64()),
                "rows": pa.array([t.num_rows], pa.int64()),
            }
        )

    folded = per_part.map_batches(
        local_totals, batch_format="pyarrow", batch_size=None
    ).take_all()
    total = sum(int(r["cents"]) for r in folded)  # Python int — no overflow
    nparts = sum(int(r["rows"]) for r in folded)
    threshold = (3 * total) // (2 * nparts) + 1  # cents*2n > 3*total, exactly
    assert threshold < 2**63

    def keep(t: pa.Table) -> pa.Table:
        c = t["revenue_cents"].to_numpy(zero_copy_only=False)
        return t.filter(pa.array(c >= threshold))

    return per_part.map_batches(keep, batch_format="pyarrow", batch_size=None)


IMPORTANT_PARTS_SHARE_SQL = """
    WITH p AS (
        SELECT l_partkey AS p_partkey,
               CAST(sum(CAST(round(l_extendedprice * (1 - l_discount) * 100)
                   AS BIGINT)) AS BIGINT) AS revenue_cents
        FROM lineitem GROUP BY 1
    ), g AS (
        SELECT sum(revenue_cents) AS total, count(*) AS nparts FROM p
    )
    SELECT p.p_partkey, p.revenue_cents
    FROM p, g
    WHERE p.revenue_cents >= (3 * g.total) // (2 * g.nparts) + 1
"""


def supplier_diversity(sf_dir: str):
    """TPC-H Q16 shape — distinct-count per dimension group with an
    exclusion broadcast: per part brand, how many DISTINCT suppliers
    ever shipped it, excluding "complaint" suppliers (negative account
    balance — the deterministic analog of Q16's comment-pattern set).

    Scale shape: the exclusion set (np.isin against a broadcast sorted
    array, bounded by supplier cardinality) and the partkey→brand-code
    map (dense int8 array — brands are a ~25-value dictionary) are
    ray.put broadcast once; per block, surviving rows collapse to
    DISTINCT (brand_code, suppkey) pairs via the Arrow kernel, so at
    most |brands|x|suppliers-in-block| narrow rows leave any block. ONE
    exchange salted by the PAIR hash co-locates identical pairs, each
    partition dedupes and emits (brand_code, n) partial counts — exact,
    because pairs are globally unique to one partition — and the final
    combine sums a <=|brands| table and decodes names. Supplier rows
    never shuffle; no count-distinct groupby happens anywhere.
    Returns (p_brand, n_suppliers)."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    part_t = pq.read_table(
        table_path(sf_dir, "part"), columns=["p_partkey", "p_brand"]
    )
    pk = part_t["p_partkey"].to_numpy(zero_copy_only=False)
    brands = sorted(set(part_t["p_brand"].to_pylist()))
    b_code = {b: i for i, b in enumerate(brands)}
    # -1 sentinel (nation_year_profit idiom): a lineitem l_partkey
    # absent from part (FK violation / gap id) must fail loudly, not
    # silently count under brand code 0
    code_of_pk = np.full(int(pk.max()) + 1, -1, dtype=np.int16)
    code_of_pk[pk] = np.array(
        [b_code[b] for b in part_t["p_brand"].to_pylist()], dtype=np.int16
    )
    sup_t = pq.read_table(
        table_path(sf_dir, "supplier"), columns=["s_suppkey", "s_acctbal"]
    )
    bal = sup_t["s_acctbal"].to_numpy(zero_copy_only=False)
    excluded = np.sort(
        sup_t["s_suppkey"].to_numpy(zero_copy_only=False)[bal < 0]
    )
    code_ref, excl_ref = ray.put(code_of_pk), ray.put(excluded)

    def pairs(t: pa.Table) -> pa.Table:
        codes = ray.get(code_ref)
        excl = ray.get(excl_ref)
        sk = t["l_suppkey"].to_numpy(zero_copy_only=False)
        keep = ~np.isin(sk, excl)
        sk = sk[keep]
        bc = codes[t["l_partkey"].to_numpy(zero_copy_only=False)[keep]]
        if len(bc) and int(bc.min()) < 0:
            raise ValueError(
                "supplier_diversity: lineitem l_partkey absent from part"
            )
        agg = _arrow_group_aggs(
            {"bc": bc.astype(np.int64), "sk": sk},
            {"n": ("count", None)},
            len(sk),
        )
        return agg.drop_columns(["n"])

    ds = rd.read_parquet(
        table_path(sf_dir, "lineitem"), columns=["l_partkey", "l_suppkey"]
    ).map_batches(pairs, batch_format="pyarrow", batch_size=65536)

    from open_parse_ray.stages.dedup import salted_groupby

    def count_partial(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["bc", "sk"])
        return d.groupby("bc", as_index=False).agg(n_suppliers=("sk", "size"))

    def pair_salt(t: pa.Table) -> np.ndarray:
        return (
            t["bc"].to_numpy(zero_copy_only=False) * 1_000_003
            + t["sk"].to_numpy(zero_copy_only=False)
        )

    parts = salted_groupby(ds, pair_salt, count_partial)

    def decode(b: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                "p_brand": [brands[int(c)] for c in b["bc"]],
                "n_suppliers": b["n_suppliers"].to_numpy().astype(np.int64),
            }
        )
        return out

    return two_phase_agg(parts, ["bc"], {"n_suppliers": "sum"}, finalize=decode)


SUPPLIER_DIVERSITY_SQL = """
    SELECT p.p_brand, CAST(count(DISTINCT l.l_suppkey) AS BIGINT)
        AS n_suppliers
    FROM lineitem l
    JOIN part p ON p.p_partkey = l.l_partkey
    WHERE l.l_suppkey NOT IN
        (SELECT s_suppkey FROM supplier WHERE s_acctbal < 0)
    GROUP BY 1
"""


def orders_priority_unpivot(sf_dir: str):
    """Wide→long UNPIVOT — the inverse reshape of orders_priority_pivot:
    each (year, 5x(count,cents)-pair) wide row becomes 5 long
    (o_year, prio, n, cents) rows, zero cells kept EXPLICIT (the grid
    contract both directions). Completes the reshape pair as
    first-class distributed operators.

    Scale shape: the unpivot itself is a pure per-block reshape (numpy
    repeat/tile — 5x the wide row count, no exchange, no state); it
    composes onto the pivot's bounded-grid partials, so nothing here
    ever exceeds the (years x 5) grid regardless of input size.
    Returns (o_year, prio, n, cents) — the full explicit grid."""
    classes = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
    shorts = ["urgent", "high", "medium", "notspec", "low"]

    wide = orders_priority_pivot(sf_dir)

    def unpivot(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return pd.DataFrame(
                {
                    "o_year": pd.Series(dtype="int64"),
                    "prio": pd.Series(dtype="object"),
                    "n": pd.Series(dtype="int64"),
                    "cents": pd.Series(dtype="int64"),
                }
            )
        years = b["o_year"].to_numpy()
        k = len(classes)
        return pd.DataFrame(
            {
                "o_year": np.repeat(years, k),
                "prio": np.tile(np.array(classes, dtype=object), len(b)),
                "n": np.column_stack(
                    [b[f"n_{s}"].to_numpy() for s in shorts]
                ).ravel(),
                "cents": np.column_stack(
                    [b[f"cents_{s}"].to_numpy() for s in shorts]
                ).ravel(),
            }
        )

    return wide.map_batches(unpivot, batch_format="pandas", batch_size=None)


ORDERS_PRIORITY_UNPIVOT_SQL = """
    WITH y AS (
        SELECT DISTINCT CAST(year(o_orderdate) AS BIGINT) AS o_year
        FROM orders
    ), c(prio) AS (
        VALUES ('1-URGENT'), ('2-HIGH'), ('3-MEDIUM'),
               ('4-NOT SPECIFIED'), ('5-LOW')
    ), a AS (
        SELECT CAST(year(o_orderdate) AS BIGINT) AS o_year,
               o_orderpriority AS prio,
               CAST(count(*) AS BIGINT) AS n,
               CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT)
                   AS cents
        FROM orders GROUP BY 1, 2
    )
    SELECT y.o_year, c.prio,
           CAST(COALESCE(a.n, 0) AS BIGINT) AS n,
           CAST(COALESCE(a.cents, 0) AS BIGINT) AS cents
    FROM y CROSS JOIN c
    LEFT JOIN a ON a.o_year = y.o_year AND a.prio = c.prio
"""


def nation_year_profit(sf_dir: str, name_token: str = "red"):
    """Product-type profit by (supplier nation, order year) — the
    TPC-H Q9 shape (reference-less corpus analog: the testdata schema
    has no partsupp, so supply cost is the deterministic closed form
    ``round(p_retailprice*100) // 2`` cents, mirrored verbatim in the
    SQL oracle). Profit per line is
    ``rev_cents − qty × cost_cents(partkey)`` with rev in integer cents
    (the suite-wide _cents convention), so the value hash is exact.

    Plan — a 5-table star resolved with two broadcasts and ONE
    exchange: the part-name predicate AND the supply cost collapse to a
    single dense partkey-indexed int64 array (cost, −1 = part not
    matching; 10^9 parts ≈ 8 GB worst case — split to the Q14 bitmap +
    a cost lookup only for matches if that ever matters), and
    supplier→nationkey to the dense int8 array (the Q7 idiom), so
    lineitem resolves part filter, cost and supplier nation at scan
    speed. The one orderkey-salted exchange attaches the order YEAR to
    the lineitem partials and re-aggregates to the bounded
    (supp_nk, o_year) grid (≤ 25 × |years| rows per partition), so the
    final combine is trivially small. Returns
    (n_name, o_year, profit_cents) sorted by nation, year."""
    import pyarrow as pa
    import ray
    import ray.data as rd

    from open_parse_ray.stages.dedup import salted_groupby

    nation = pd.read_parquet(table_path(sf_dir, "nation"))
    nk_name = dict(zip(nation["n_nationkey"].astype(int), nation["n_name"]))

    part = pd.read_parquet(
        table_path(sf_dir, "part"), columns=["p_partkey", "p_name", "p_retailprice"]
    )
    pk = part["p_partkey"].to_numpy(dtype=np.int64)
    cost = np.full(int(pk.max()) + 1, -1, dtype=np.int64)
    match = np.fromiter(
        (name_token in n for n in part["p_name"]), dtype=bool, count=len(part)
    )
    cost[pk[match]] = (
        _cents(part["p_retailprice"]) // 2
    )[match]
    cost_ref = ray.put(cost)

    supp = pd.read_parquet(
        table_path(sf_dir, "supplier"), columns=["s_suppkey", "s_nationkey"]
    )
    sk = supp["s_suppkey"].to_numpy(dtype=np.int64)
    s_nk = np.full(int(sk.max()) + 1, -1, dtype=np.int8)
    s_nk[sk] = supp["s_nationkey"].to_numpy(dtype=np.int8)
    snk_ref = ray.put(s_nk)

    def li_partial(t: pa.Table) -> pa.Table:
        c = ray.get(cost_ref)
        m = ray.get(snk_ref)
        pkey = t["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        pc = c[pkey]
        keep = pc >= 0
        skey = t["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)[keep]
        price = t["l_extendedprice"].to_numpy(zero_copy_only=False)[keep]
        disc = t["l_discount"].to_numpy(zero_copy_only=False)[keep]
        qty = (
            t["l_quantity"].to_numpy(zero_copy_only=False).astype(np.int64)[keep]
        )
        amt = _cents(price * (1 - disc)) - qty * pc[keep]
        okey = t["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)[keep]
        agg = _arrow_group_aggs(
            {"okey": okey, "supp_nk": m[skey].astype(np.int64)},
            {"amt": ("sum", amt)},
            int(keep.sum()),
        )
        n = agg.num_rows
        return agg.append_column(
            "side", pa.array(np.ones(n, dtype=np.int64))
        ).append_column("o_year", pa.array(np.zeros(n, dtype=np.int64)))

    li = rd.read_parquet(
        table_path(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_partkey", "l_suppkey", "l_quantity",
                 "l_extendedprice", "l_discount"],
    ).map_batches(li_partial, batch_format="pyarrow", batch_size=65536)

    def proj_orders(t: pa.Table) -> pa.Table:
        n = t.num_rows
        year = (
            t["o_orderdate"]
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[Y]")
            .astype(np.int64)
            + 1970
        )
        return pa.table(
            {
                "okey": t["o_orderkey"].cast(pa.int64()),
                "supp_nk": pa.array(np.zeros(n, dtype=np.int64)),
                "amt": pa.array(np.zeros(n, dtype=np.int64)),
                "side": pa.array(np.zeros(n, dtype=np.int64)),
                "o_year": pa.array(year),
            }
        )

    orders = rd.read_parquet(
        table_path(sf_dir, "orders"), columns=["o_orderkey", "o_orderdate"]
    ).map_batches(proj_orders, batch_format="pyarrow", batch_size=65536)

    def join1(g: pd.DataFrame) -> pd.DataFrame:
        o = g[g["side"] == 0]
        l = g[g["side"] == 1]
        yr = dict(zip(o["okey"].to_numpy(), o["o_year"].to_numpy()))
        out = pd.DataFrame(
            {
                "supp_nk": l["supp_nk"].to_numpy(dtype=np.int64),
                "o_year": l["okey"].map(yr).to_numpy(dtype=np.int64),
                "amt": l["amt"].to_numpy(dtype=np.int64),
            }
        )
        return out.groupby(["supp_nk", "o_year"], as_index=False)["amt"].sum()

    partials = salted_groupby(orders.union(li), "okey", join1)

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return pd.DataFrame(
                {
                    "n_name": pd.Series([], dtype=object),
                    "o_year": pd.Series([], dtype="int64"),
                    "profit_cents": pd.Series([], dtype="int64"),
                }
            )
        g = b.groupby(["supp_nk", "o_year"], as_index=False)["amt"].sum()
        g = g.sort_values(["supp_nk", "o_year"]).reset_index(drop=True)
        return pd.DataFrame(
            {
                "n_name": [nk_name[int(k)] for k in g["supp_nk"]],
                "o_year": g["o_year"].to_numpy(dtype=np.int64),
                "profit_cents": g["amt"].to_numpy(dtype=np.int64),
            }
        )

    return partials.repartition(1).map_batches(
        finish, batch_format="pandas", batch_size=None
    )


NATION_YEAR_PROFIT_SQL = """
    SELECT n_name, CAST(year(o_orderdate) AS BIGINT) AS o_year,
           CAST(sum(CAST(round(l_extendedprice * (1 - l_discount) * 100)
                         AS BIGINT)
                    - CAST(l_quantity AS BIGINT)
                      * (CAST(round(p_retailprice * 100) AS BIGINT) // 2))
                AS BIGINT) AS profit_cents
    FROM lineitem, orders, part, supplier, nation
    WHERE o_orderkey = l_orderkey AND p_partkey = l_partkey
      AND s_suppkey = l_suppkey AND n_nationkey = s_nationkey
      AND p_name LIKE '%red%'
    GROUP BY 1, 2
"""


def min_cost_supplier(sf_dir: str, region: str = "EUROPE", max_size: int = 5):
    """Minimum-cost supplier per part — the TPC-H Q2 shape (correlated
    MIN subquery over a restricted supplier set), with supply cost
    derived from the fact table (no partsupp in the schema): cost of a
    (part, supplier) pair = total extendedprice cents that supplier
    shipped of that part. For every part with ``p_size <= max_size``,
    among the suppliers in ``region`` that shipped it, emit the
    supplier(s) whose cost equals the per-part minimum — TIES KEPT on
    both sides (the SQL keeps every row matching the correlated min).

    Plan — zero dimension shuffles, ONE exchange: the part predicate is
    a partkey bitmap (np.packbits, Q14 idiom), region membership a
    dense suppkey uint8 mask, so lineitem filters both at scan speed
    and collapses to (partkey, suppkey) cost partials per block. The
    single partkey-salted exchange co-locates each part's pairs
    (pairs-per-part ≤ |suppliers that ever shipped it| — bounded), so
    exact pair sums, the per-part min, and the tie filter all happen in
    one kernel with no second pass. Supplier attributes (name, acctbal,
    nation) and the part's brand attach to WINNER rows only, from
    dense-array broadcasts bounded by |suppliers| / |parts| (the Q7 /
    Q19 idioms). Returns
    (p_partkey, p_brand, s_name, s_acctbal_cents, n_name, cost_cents)."""
    import pyarrow as pa
    import ray
    import ray.data as rd

    from open_parse_ray.stages.dedup import salted_groupby

    nation = pd.read_parquet(table_path(sf_dir, "nation"))
    nk_name = dict(zip(nation["n_nationkey"].astype(int), nation["n_name"]))
    nk_region = dict(
        zip(nation["n_nationkey"].astype(int), nation["n_regionkey"].astype(int))
    )
    reg = pd.read_parquet(table_path(sf_dir, "region"))
    rk = int(reg.loc[reg["r_name"] == region, "r_regionkey"].iloc[0])

    supp = pd.read_parquet(table_path(sf_dir, "supplier"))
    sk = supp["s_suppkey"].to_numpy(dtype=np.int64)
    n_sk = int(sk.max()) + 1
    in_region = np.zeros(n_sk, dtype=np.uint8)
    s_nk_all = supp["s_nationkey"].to_numpy(dtype=np.int64)
    reg_mask = np.fromiter(
        (nk_region[int(nk)] == rk for nk in s_nk_all), dtype=bool, count=len(supp)
    )
    in_region[sk[reg_mask]] = 1
    s_names = np.full(n_sk, "", dtype=object)
    s_names[sk] = supp["s_name"].to_numpy(dtype=object)
    s_bal = np.zeros(n_sk, dtype=np.int64)
    s_bal[sk] = _cents(supp["s_acctbal"])
    s_nk_arr = np.full(n_sk, -1, dtype=np.int64)
    s_nk_arr[sk] = s_nk_all
    region_ref = ray.put(in_region)
    attrs_ref = ray.put((s_names, s_bal, s_nk_arr))

    part = pd.read_parquet(
        table_path(sf_dir, "part"), columns=["p_partkey", "p_brand", "p_size"]
    )
    pk = part["p_partkey"].to_numpy(dtype=np.int64)
    flags = np.zeros(int(pk.max()) + 1, dtype=np.uint8)
    flags[pk[(part["p_size"] <= max_size).to_numpy()]] = 1
    bits_ref = ray.put(np.packbits(flags))
    brands = part["p_brand"].astype("category")
    brand_names = list(brands.cat.categories)
    bcode = np.full(int(pk.max()) + 1, -1, dtype=np.int8)
    bcode[pk] = brands.cat.codes.to_numpy(dtype=np.int8)
    brand_ref = ray.put(bcode)

    def li_partial(t: pa.Table) -> pa.Table:
        bits = ray.get(bits_ref)
        inr = ray.get(region_ref)
        pkey = t["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        skey = t["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = (
            ((bits[pkey >> 3] >> (7 - (pkey & 7))) & 1).astype(bool)
            & inr[skey].astype(bool)
        )
        price = t["l_extendedprice"].to_numpy(zero_copy_only=False)[keep]
        return _arrow_group_aggs(
            {"pkey": pkey[keep], "skey": skey[keep]},
            {"cost": ("sum", _cents(price))},
            int(keep.sum()),
        )

    li = rd.read_parquet(
        table_path(sf_dir, "lineitem"),
        columns=["l_partkey", "l_suppkey", "l_extendedprice"],
    ).map_batches(li_partial, batch_format="pyarrow", batch_size=65536)

    def pick_min(g: pd.DataFrame) -> pd.DataFrame:
        bn = ray.get(brand_ref)
        s_names_, s_bal_, s_nk_ = ray.get(attrs_ref)
        agg = g.groupby(["pkey", "skey"], as_index=False)["cost"].sum()
        pkv = agg["pkey"].to_numpy(dtype=np.int64)
        skv = agg["skey"].to_numpy(dtype=np.int64)
        cv = agg["cost"].to_numpy(dtype=np.int64)
        order = np.lexsort((skv, cv, pkv))
        pk_s, sk_s, c_s = pkv[order], skv[order], cv[order]
        first = np.ones(len(pk_s), dtype=bool)
        first[1:] = pk_s[1:] != pk_s[:-1]
        gmin = c_s[first][np.cumsum(first) - 1]
        keep = c_s == gmin
        pk_w, sk_w, c_w = pk_s[keep], sk_s[keep], c_s[keep]
        return pd.DataFrame(
            {
                "p_partkey": pk_w,
                "p_brand": [brand_names[b] for b in bn[pk_w]],
                "s_name": s_names_[sk_w],
                "s_acctbal_cents": s_bal_[sk_w],
                "n_name": [nk_name[int(k)] for k in s_nk_[sk_w]],
                "cost_cents": c_w,
            }
        )

    return salted_groupby(li, "pkey", pick_min)


MIN_COST_SUPPLIER_SQL = """
    WITH cost AS (
        SELECT l_partkey AS p, l_suppkey AS s,
               CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT))
                    AS BIGINT) AS cost_cents
        FROM lineitem
        JOIN supplier ON s_suppkey = l_suppkey
        JOIN nation ON n_nationkey = s_nationkey
        JOIN region ON r_regionkey = n_regionkey
        WHERE r_name = 'EUROPE'
        GROUP BY 1, 2
    )
    SELECT p_partkey, p_brand, s_name,
           CAST(round(s_acctbal * 100) AS BIGINT) AS s_acctbal_cents,
           n_name, cost_cents
    FROM cost
    JOIN part ON p_partkey = p
    JOIN supplier ON s_suppkey = s
    JOIN nation ON n_nationkey = s_nationkey
    WHERE p_size <= 5
      AND cost_cents = (SELECT min(c2.cost_cents) FROM cost c2
                        WHERE c2.p = cost.p)
"""


def events_type_correlation_moments(sf_dir: str):
    """Pairwise co-movement of event types — the exact INTEGER moment
    matrix of the zero-filled hourly count series, from which Pearson
    correlation derives: for every unordered type pair (a < b) the
    grid length, the two sums, the cross dot Σ n_a(t)·n_b(t) and the
    two sum-of-squares. Emitting the moments instead of the float
    correlation keeps the value hash exact (the promo_revenue_share
    rule: ship the integer numerator/denominator parts, let the reader
    divide); corr = (H·dot − sa·sb) / √((H·sqa − sa²)(H·sqb − sb²)).

    Shape: the same bounded (type, hour) count partial as
    events_drift_cusum collapses every block before the single tiny
    combine; zero cells contribute nothing to any moment, so neither
    side materializes the grid — the Ray kernel computes dots with one
    T×H matmul on the combined block, the oracle joins nonzero cells
    on matching hours. Moments are int64-bounded by (max hourly
    count)²·H. Returns (type_a, type_b, n_hours, sum_a, sum_b, dot_ab,
    sumsq_a, sumsq_b)."""
    import ray.data as rd

    ds = rd.read_parquet(table_path(sf_dir, "events"), columns=["event_type", "ts"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        h = b["ts"].to_numpy().astype("datetime64[h]").astype(np.int64)
        g = pd.DataFrame({"event_type": b["event_type"], "h": h}).groupby(
            ["event_type", "h"], as_index=False
        ).size()
        return pd.DataFrame(
            {
                "event_type": g["event_type"],
                "h": g["h"].astype("int64"),
                "n": g["size"].astype("int64"),
            }
        )

    partials = ds.map_batches(partial, batch_format="pandas", batch_size=65536)

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        cols = ["type_a", "type_b", "n_hours", "sum_a", "sum_b",
                "dot_ab", "sumsq_a", "sumsq_b"]
        if len(b) == 0:
            return pd.DataFrame(
                {"type_a": pd.Series([], dtype=object),
                 "type_b": pd.Series([], dtype=object)}
                | {c: pd.Series([], dtype="int64") for c in cols[2:]}
            )
        hmin, hmax = int(b["h"].min()), int(b["h"].max())
        H = hmax - hmin + 1
        types = np.sort(b["event_type"].unique())
        ti = {t: i for i, t in enumerate(types)}
        G = np.zeros((len(types), H), dtype=np.int64)
        G[
            b["event_type"].map(ti).to_numpy(dtype=np.int64),
            b["h"].to_numpy(dtype=np.int64) - hmin,
        ] = b["n"].to_numpy(dtype=np.int64)
        sums = G.sum(axis=1)
        dots = G @ G.T
        ia, ib = np.triu_indices(len(types), k=1)
        return pd.DataFrame(
            {
                "type_a": types[ia],
                "type_b": types[ib],
                "n_hours": np.full(len(ia), H, dtype=np.int64),
                "sum_a": sums[ia],
                "sum_b": sums[ib],
                "dot_ab": dots[ia, ib],
                "sumsq_a": dots[ia, ia],
                "sumsq_b": dots[ib, ib],
            }
        )

    return two_phase_agg(partials, ["event_type", "h"], {"n": "sum"}, finalize=finish)


EVENTS_TYPE_CORRELATION_MOMENTS_SQL = """
    WITH c AS (
      SELECT event_type,
             CAST(floor(epoch(ts)) AS BIGINT) // 3600 AS h,
             CAST(count(*) AS BIGINT) AS n
      FROM events GROUP BY 1, 2
    ),
    b AS (SELECT max(h) - min(h) + 1 AS H FROM c),
    t AS (
      SELECT event_type, CAST(sum(n) AS BIGINT) AS s,
             CAST(sum(n * n) AS BIGINT) AS sq
      FROM c GROUP BY 1
    ),
    d AS (
      SELECT a.event_type AS ta, x.event_type AS tb,
             sum(a.n * x.n) AS dot
      FROM c a JOIN c x ON x.h = a.h AND a.event_type < x.event_type
      GROUP BY 1, 2
    )
    SELECT ta.event_type AS type_a, tb.event_type AS type_b,
           CAST((SELECT H FROM b) AS BIGINT) AS n_hours,
           ta.s AS sum_a, tb.s AS sum_b,
           CAST(coalesce(d.dot, 0) AS BIGINT) AS dot_ab,
           ta.sq AS sumsq_a, tb.sq AS sumsq_b
    FROM t ta
    JOIN t tb ON ta.event_type < tb.event_type
    LEFT JOIN d ON d.ta = ta.event_type AND d.tb = tb.event_type
"""


_PROFILE_COLS = [
    ("o_orderkey", "int"),
    ("o_custkey", "int"),
    ("o_orderstatus", "str"),
    ("o_totalprice", "cents"),
    ("o_orderdate", "ts"),
    ("o_orderpriority", "str"),
]


def _profile_canon(vals: pd.Series, kind: str):
    """Canonical comparable form per column type: int64 for numerics
    (cents for money, epoch-µs for timestamps — both monotone, so
    min/max commute with the mapping), raw strings for varchars."""
    if kind == "int":
        return vals.to_numpy(dtype=np.int64), None
    if kind == "cents":
        return _cents(vals), None
    if kind == "ts":
        # unit-explicit epoch-µs regardless of the frame's datetime unit
        return vals.to_numpy(dtype="datetime64[us]").astype(np.int64), None
    return None, vals.astype(str)


def table_profile_orders(sf_dir: str):
    """Data-profiling pass over the orders table — the ingest-time
    DATA CARD every warehouse job runs first: per column, row count,
    null count, EXACT distinct count, and canonical min/max. One
    streaming pass collapses each block to 6 stat-partial rows
    (min/max/nulls fuse per batch); distinct counting ships per-block-
    distinct 16-byte fingerprints through one column-salted exchange
    where each value's rows co-locate, so per-partition distinct
    counts sum exactly. Both partial streams share one tagged schema
    and union into a single-block final combine — no joins. Numeric
    min/max ride as int64 (cents / epoch-µs: monotone maps commute
    with min), strings compare binary like DuckDB's default collation.
    Returns (col, n_rows, n_nulls, n_distinct, min_s, max_s)."""
    import hashlib

    import ray.data as rd

    from open_parse_ray.stages.analysis import _splitmix63
    from open_parse_ray.stages.dedup import salted_groupby

    names = [c for c, _ in _PROFILE_COLS]
    ds = rd.read_parquet(table_path(sf_dir, "orders"), columns=names)

    def _empty_tagged():
        return pd.DataFrame(
            {
                "col": pd.Series([], dtype="object"),
                "kind": pd.Series([], dtype="int64"),
                "n": pd.Series([], dtype="int64"),
                "nulls": pd.Series([], dtype="int64"),
                "imin": pd.Series([], dtype="int64"),
                "imax": pd.Series([], dtype="int64"),
                "smin": pd.Series([], dtype="object"),
                "smax": pd.Series([], dtype="object"),
                "h1": pd.Series([], dtype="int64"),
                "h2": pd.Series([], dtype="int64"),
                "dcount": pd.Series([], dtype="int64"),
            }
        )

    def stat_partial(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return _empty_tagged()
        rows = []
        for col, kind in _PROFILE_COLS:
            v = b[col]
            nulls = int(v.isna().sum())
            nn = v.dropna()
            iv, sv = (
                _profile_canon(nn, kind) if len(nn) else (None, None)
            )
            rows.append(
                {
                    "col": col,
                    "kind": 0,
                    "n": len(v),
                    "nulls": nulls,
                    "imin": int(iv.min()) if iv is not None else 0,
                    "imax": int(iv.max()) if iv is not None else 0,
                    "smin": sv.min() if sv is not None else "",
                    "smax": sv.max() if sv is not None else "",
                    "h1": -1,
                    "h2": -1,
                    "dcount": 1 if len(nn) else 0,  # 1 = block had values
                }
            )
        out = pd.DataFrame(rows)
        return out.astype(
            {"kind": "int64", "n": "int64", "nulls": "int64",
             "imin": "int64", "imax": "int64", "h1": "int64",
             "h2": "int64", "dcount": "int64"}
        )

    def _empty_distinct():
        return pd.DataFrame(
            {
                "col": pd.Series([], dtype="object"),
                "h1": pd.Series([], dtype="int64"),
                "h2": pd.Series([], dtype="int64"),
            }
        )

    def distinct_rows(b: pd.DataFrame) -> pd.DataFrame:
        # SLIM exchange schema (col, h1, h2): the wide tagged schema is
        # only needed at the post-count union — shipping it per distinct
        # value would triple the exchange bytes
        if len(b) == 0:
            return _empty_distinct()
        frames = []
        for ci, (col, kind) in enumerate(_PROFILE_COLS):
            nn = b[col].dropna()
            if not len(nn):
                continue
            iv, sv = _profile_canon(nn, kind)
            if iv is not None:
                # integer canon: the splitmix avalanche is a BIJECTION
                # on 64 bits, so h1 alone is collision-FREE (stronger
                # than any digest) and fully vectorized; h2 = 0
                uniq = np.unique(iv)
                h1 = _avalanche64(uniq).astype(np.int64)
                h2 = np.zeros(len(uniq), dtype=np.int64)
                canon = uniq
            else:
                # strings: full 128-bit md5 (a 64-bit half birthday-
                # collides at 10^12 scale and silently undercounts)
                canon = sv.unique()
                digs = [
                    hashlib.md5(f"{col}:{s}".encode()).digest()
                    for s in canon
                ]
                h1 = np.fromiter(
                    (int.from_bytes(d[:8], "big", signed=True) for d in digs),
                    dtype=np.int64,
                    count=len(digs),
                )
                h2 = np.fromiter(
                    (int.from_bytes(d[8:], "big", signed=True) for d in digs),
                    dtype=np.int64,
                    count=len(digs),
                )
            frames.append(
                pd.DataFrame({"col": col, "h1": h1, "h2": h2})
            )
        if not frames:
            return _empty_distinct()
        return pd.concat(frames, ignore_index=True).astype(
            {"h1": "int64", "h2": "int64"}
        )

    stats = ds.map_batches(stat_partial, batch_format="pandas", batch_size=65536)
    drows = ds.map_batches(distinct_rows, batch_format="pandas", batch_size=65536)

    def count_distinct(g: pd.DataFrame) -> pd.DataFrame:
        # values co-locate by hash: per-partition distinct sums exactly
        out = (
            g.drop_duplicates(["col", "h1", "h2"])
            .groupby("col", as_index=False)
            .size()
            .rename(columns={"size": "dcount"})
        )
        f = _empty_tagged().reindex(range(len(out)))
        f["col"] = out["col"].to_numpy(dtype=object)
        f["kind"] = 1
        f[["n", "nulls", "imin", "imax", "h1", "h2"]] = 0
        f[["smin", "smax"]] = ""
        f["dcount"] = out["dcount"].to_numpy(dtype=np.int64)
        return f.astype(
            {"kind": "int64", "n": "int64", "nulls": "int64",
             "imin": "int64", "imax": "int64", "h1": "int64",
             "h2": "int64", "dcount": "int64"}
        )

    dpart = salted_groupby(drows, lambda t: np.abs(t["h1"].to_numpy()), count_distinct)

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        kinds = dict(_PROFILE_COLS)
        recs = []
        for col, grp in g.groupby("col"):
            s = grp[grp["kind"] == 0]
            has = s[s["dcount"] == 1]  # stat blocks that saw values
            kind = kinds[col]
            # a column with NO values corpus-wide gets SQL-NULL min/max
            # (matching min(col) over all NULLs), never ''
            if kind == "str":
                mn = has["smin"].min() if len(has) else None
                mx = has["smax"].max() if len(has) else None
            else:
                mn = str(int(has["imin"].min())) if len(has) else None
                mx = str(int(has["imax"].max())) if len(has) else None
            recs.append(
                {
                    "col": col,
                    "n_rows": int(s["n"].sum()),
                    "n_nulls": int(s["nulls"].sum()),
                    "n_distinct": int(grp[grp["kind"] == 1]["dcount"].sum()),
                    "min_s": mn,
                    "max_s": mx,
                }
            )
        return pd.DataFrame(recs).astype(
            {"n_rows": "int64", "n_nulls": "int64", "n_distinct": "int64"}
        )

    return (
        stats.union(dpart)
        .repartition(1)
        .map_batches(finish, batch_format="pandas", batch_size=None)
    )


def _profile_sql_one(col: str, kind: str) -> str:
    if kind == "int":
        mn, mx = f"CAST(min({col}) AS VARCHAR)", f"CAST(max({col}) AS VARCHAR)"
    elif kind == "cents":
        mn = f"CAST(CAST(round(min({col}) * 100) AS BIGINT) AS VARCHAR)"
        mx = f"CAST(CAST(round(max({col}) * 100) AS BIGINT) AS VARCHAR)"
    elif kind == "ts":
        mn = f"CAST(epoch_us(min({col})) AS VARCHAR)"
        mx = f"CAST(epoch_us(max({col})) AS VARCHAR)"
    else:
        mn, mx = f"min({col})", f"max({col})"
    return f"""
        SELECT '{col}' AS col, CAST(count(*) AS BIGINT) AS n_rows,
               CAST(sum(CASE WHEN {col} IS NULL THEN 1 ELSE 0 END) AS BIGINT)
                   AS n_nulls,
               CAST(count(DISTINCT {col}) AS BIGINT) AS n_distinct,
               {mn} AS min_s, {mx} AS max_s
        FROM orders
    """


TABLE_PROFILE_ORDERS_SQL = " UNION ALL ".join(
    _profile_sql_one(c, k) for c, k in _PROFILE_COLS
)


def events_watermark_lateness(
    sf_dir: str, delay_hours: int = 2, n_queues: int = 16
):
    """STREAMING-WINDOW semantics over a batch table — watermark/late-
    event accounting, the stateful streaming operator a replay pipeline
    needs: events ARRIVE in a deterministic multi-queue order (queue
    q = event_id % n_queues drained queue-by-queue, each in id order —
    the sharded-crawler replay model), the watermark is the running max
    event-time of everything that arrived STRICTLY BEFORE, and an event
    is LATE when its own time sits more than ``delay_hours`` behind the
    watermark. Returns per (event_type, tumbling hour window):
    (on_time, late) counts.

    Scale shape: the watermark is a PREFIX MAX over arrival order —
    computed distributed like every prefix scan here: arrival order is
    range-partitioned into contiguous buckets (queue × id-range, width
    from the parquet footer max, no data scan), pass 1 ships one
    (bucket, max_ts) row per block, the driver folds the bounded bucket
    table into exclusive prefix maxes, pass 2 co-locates each bucket,
    resolves the local exclusive cummax against the broadcast bucket
    prefix, and collapses straight to bounded (type, hour) partials —
    per-event rows never leave their partition."""
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    from open_parse_ray.stages.dedup import default_num_parts, salted_groupby

    delay_us = int(delay_hours) * 3_600_000_000
    hour_us = 3_600_000_000
    sentinel = np.iinfo(np.int64).min

    md = pq.ParquetFile(table_path(sf_dir, "events")).metadata
    mx_id = 0
    for g in range(md.num_row_groups):
        rg = md.row_group(g)
        for i in range(rg.num_columns):
            c = rg.column(i)
            if c.path_in_schema == "event_id":
                mx_id = max(mx_id, int(c.statistics.max))
    ds = rd.read_parquet(
        table_path(sf_dir, "events"), columns=["event_id", "ts", "event_type"]
    )
    nsub = max(1, default_num_parts(ds) // n_queues)
    w = mx_id // nsub + 1
    n_buckets = n_queues * nsub

    def bucket_of(ids: np.ndarray) -> np.ndarray:
        q = ids % n_queues
        return q * nsub + np.minimum(ids // w, nsub - 1)

    def max_partial(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return pd.DataFrame(
                {"bucket": pd.Series([], dtype="int64"),
                 "mx": pd.Series([], dtype="int64")}
            )
        bk = bucket_of(b["event_id"].to_numpy(dtype=np.int64))
        tus = b["ts"].to_numpy(dtype="datetime64[us]").astype(np.int64)
        mx = np.full(n_buckets, sentinel, dtype=np.int64)
        np.maximum.at(mx, bk, tus)
        touched = np.nonzero(mx != sentinel)[0]
        return pd.DataFrame(
            {"bucket": touched.astype(np.int64), "mx": mx[touched]}
        )

    bmax = (
        two_phase_agg(
            ds.map_batches(max_partial, batch_format="pandas", batch_size=65536),
            ["bucket"],
            {"mx": "max"},
        )
        .to_pandas()
        .set_index("bucket")["mx"]
    )
    pre = np.full(n_buckets, sentinel, dtype=np.int64)
    cur = sentinel
    for b in range(n_buckets):
        pre[b] = cur
        if b in bmax.index:
            cur = max(cur, int(bmax.loc[b]))
    pre_ref = ray.put(pre)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        prem = ray.get(pre_ref)
        ids = g["event_id"].to_numpy(dtype=np.int64)
        bk = bucket_of(ids)
        tus = g["ts"].to_numpy(dtype="datetime64[us]").astype(np.int64)
        frames = []
        for b in np.unique(bk):
            m = bk == b
            order = np.argsort(ids[m], kind="stable")  # ids unique
            t = tus[m][order]
            excl = np.concatenate(([sentinel], np.maximum.accumulate(t)[:-1]))
            excl = np.maximum(excl, prem[b])
            late = np.zeros(len(t), dtype=bool)
            v = excl != sentinel  # avoid sentinel - delay int64 wrap
            late[v] = t[v] < excl[v] - delay_us
            f = pd.DataFrame(
                {
                    "event_type": g["event_type"].to_numpy(dtype=object)[m][order],
                    "window_hour": t // hour_us,
                    "on_time": (~late).astype(np.int64),
                    "late": late.astype(np.int64),
                }
            )
            frames.append(
                f.groupby(["event_type", "window_hour"], as_index=False).agg(
                    on_time=("on_time", "sum"), late=("late", "sum")
                )
            )
        out = pd.concat(frames, ignore_index=True)
        return out.astype(
            {"window_hour": "int64", "on_time": "int64", "late": "int64"}
        )

    partials = salted_groupby(
        ds,
        lambda t: bucket_of(np.asarray(t["event_id"], np.int64)),
        per_bucket,
        num_parts=n_buckets,
    )
    return two_phase_agg(
        partials,
        ["event_type", "window_hour"],
        {"on_time": "sum", "late": "sum"},
    )


def events_watermark_lateness_sql(
    delay_hours: int = 2, n_queues: int = 16
) -> str:
    delay_us = int(delay_hours) * 3_600_000_000
    return f"""
        WITH wm AS (
          SELECT event_type, epoch_us(ts) AS tus,
                 max(ts) OVER (
                   ORDER BY event_id % {n_queues}, event_id
                   ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
                 ) AS pm
          FROM events
        ),
        f AS (
          SELECT event_type, tus // 3600000000 AS window_hour,
                 CASE WHEN pm IS NOT NULL
                           AND tus < epoch_us(pm) - {delay_us}
                      THEN 1 ELSE 0 END AS late
          FROM wm
        )
        SELECT event_type, CAST(window_hour AS BIGINT) AS window_hour,
               CAST(sum(1 - late) AS BIGINT) AS on_time,
               CAST(sum(late) AS BIGINT) AS late
        FROM f GROUP BY event_type, window_hour
    """


def orders_trailing_revenue(sf_dir: str, window_days: int = 90):
    """Per-customer RANGE-frame trailing window — the time-based twin
    of events_user_rolling's ROWS frame: for every order, the customer's
    revenue over [o_orderdate - window_days, o_orderdate] INCLUSIVE of
    both ends and of same-day peers (exactly SQL's
    RANGE BETWEEN INTERVAL .. PRECEDING AND CURRENT ROW frame, which
    closes over peer rows — a ROWS frame would not). Returns
    (o_orderkey, o_custkey, trailing_cents, n_in_window).

    Scale shape: one salted exchange on hash(custkey) co-locates each
    customer's orders; inside the partition the frame sum is two
    searchsorted probes against the per-customer date-sorted integer
    cumsum — lo = first day ≥ d - W (left), hi = last same-day peer
    (right) — never a Python loop over window contents."""
    import ray.data as rd

    from open_parse_ray.stages.dedup import salted_groupby

    ds = rd.read_parquet(
        table_path(sf_dir, "orders"),
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"],
    )

    def add_cents(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "o_orderkey": b["o_orderkey"].to_numpy(dtype=np.int64),
                "o_custkey": b["o_custkey"].to_numpy(dtype=np.int64),
                "day": b["o_orderdate"]
                .to_numpy(dtype="datetime64[D]")
                .astype(np.int64),
                "cents": _cents(b["o_totalprice"]),
            }
        )

    rows = ds.map_batches(add_cents, batch_format="pandas", batch_size=65536)

    def per_cust(g: pd.DataFrame) -> pd.DataFrame:
        # loop-free across ALL customers in the partition: sort once by
        # (custkey, day, orderkey), pack (custkey << 24 | day) so one
        # global searchsorted pair resolves every per-customer window —
        # other customers' keys fall outside [ck<<24, (ck+1)<<24) so the
        # cumsum difference telescopes within the right customer only.
        s = g.sort_values(
            ["o_custkey", "day", "o_orderkey"], kind="stable"
        ).reset_index(drop=True)
        ck = s["o_custkey"].to_numpy(dtype=np.int64)
        days = s["day"].to_numpy(dtype=np.int64)
        assert days.size == 0 or (
            0 <= days.min() and days.max() < 1 << 24 and ck.max() < 1 << 39
        )
        comp = (ck << 24) | days
        cs = np.concatenate(([0], np.cumsum(s["cents"].to_numpy())))
        # clamp at day 0: a negative (days - W) would corrupt the OR-pack
        lo_day = np.maximum(days - window_days, 0)
        lo = np.searchsorted(comp, (ck << 24) | lo_day, side="left")
        hi = np.searchsorted(comp, comp, side="right")  # incl. peers
        return pd.DataFrame(
            {
                "o_orderkey": s["o_orderkey"].to_numpy(),
                "o_custkey": ck,
                "trailing_cents": cs[hi] - cs[lo],
                "n_in_window": (hi - lo).astype(np.int64),
            }
        )

    from open_parse_ray.stages.analysis import _splitmix63

    return salted_groupby(
        rows,
        lambda t: np.abs(_splitmix63(np.asarray(t["o_custkey"], np.int64))),
        per_cust,
    )


def orders_trailing_revenue_sql(window_days: int = 90) -> str:
    return f"""
        SELECT o_orderkey, o_custkey,
               CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) OVER (
                 PARTITION BY o_custkey ORDER BY o_orderdate
                 RANGE BETWEEN INTERVAL {window_days} DAYS PRECEDING
                       AND CURRENT ROW
               ) AS BIGINT) AS trailing_cents,
               CAST(count(*) OVER (
                 PARTITION BY o_custkey ORDER BY o_orderdate
                 RANGE BETWEEN INTERVAL {window_days} DAYS PRECEDING
                       AND CURRENT ROW
               ) AS BIGINT) AS n_in_window
        FROM orders
    """


def events_stream_first_seen(sf_dir: str, n_queues: int = 16):
    """Exactly-once INGEST semantics over the replay stream — the
    stream-dedup primitive: under the same deterministic multi-queue
    arrival order as events_watermark_lateness (queue = event_id %
    n_queues drained queue-by-queue), flag each event as the FIRST
    arrival of its (user_id, event_type) pair or a duplicate. An
    at-least-once delivery pipeline keys its idempotence store exactly
    this way. Returns (event_id, user_id, event_type, is_first).

    Scale shape: first-arrival is the ARG-MIN of the arrival key per
    (user, type) — no prefix scan needed: one (user,type)-salted
    exchange co-locates each pair, the flag is a vectorized min-compare
    inside the partition, and the idempotence state never exists as a
    table (it IS the group min)."""
    import ray.data as rd

    from open_parse_ray.stages.analysis import _splitmix63
    from open_parse_ray.stages.dedup import salt_of_key, salted_groupby

    ds = rd.read_parquet(
        table_path(sf_dir, "events"),
        columns=["event_id", "user_id", "event_type"],
    )

    def per_pair(g: pd.DataFrame) -> pd.DataFrame:
        ids = g["event_id"].to_numpy(dtype=np.int64)
        # arrival key: (queue, id) packed — enforce the 2^40 id bound
        # (the _composite convention): overflow would leak id bits into
        # the queue field and silently flip first-arrival flags
        if len(ids) and int(ids.max()) >= 1 << 40:
            raise ValueError("event_id exceeds 2^40; widen the packing")
        ak = (ids % n_queues) * (1 << 40) + ids
        key = pd.DataFrame(
            {
                "user_id": g["user_id"].to_numpy(dtype=np.int64),
                "event_type": g["event_type"].to_numpy(dtype=object),
            }
        )
        first_ak = (
            pd.Series(ak)
            .groupby([key["user_id"], key["event_type"]])
            .transform("min")
            .to_numpy()
        )
        return pd.DataFrame(
            {
                "event_id": ids,
                "user_id": key["user_id"],
                "event_type": key["event_type"],
                "is_first": (ak == first_ak).astype(np.int64),
            }
        )

    def salt(t: "pa.Table") -> np.ndarray:
        u = _splitmix63(np.asarray(t["user_id"], np.int64))
        return np.abs(u ^ salt_of_key(t, "event_type"))

    return salted_groupby(ds, salt, per_pair)


def events_stream_first_seen_sql(n_queues: int = 16) -> str:
    return f"""
        SELECT event_id, user_id, event_type,
               CAST(CASE WHEN row_number() OVER (
                      PARTITION BY user_id, event_type
                      ORDER BY event_id % {n_queues}, event_id
                    ) = 1 THEN 1 ELSE 0 END AS BIGINT) AS is_first
        FROM events
    """
