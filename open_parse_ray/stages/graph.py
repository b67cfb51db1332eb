"""Link-graph analysis: integer-exact distributed PageRank.

Web-corpus curation ranks hosts/domains by centrality of the link graph
(Common Crawl publishes exactly this as its host-level ranking) and
feeds the score into crawl frontier and quality decisions. No reference
counterpart (the reference is single-document); this is a scale-layer
operator in the labelprop_clusters tradition.

Determinism: the iteration is specified in PURE INTEGER arithmetic
(fixed-point ranks scaled by ``one``), so every path — driver numpy,
distributed edge-scan, and the unrolled-CTE DuckDB oracle — produces
bit-identical int64 ranks:

    n  = number of nodes (ids 0..n-1)
    r0[v]   = one // n
    tp      = (15 * (one // n)) // 100                  # teleport, d=0.85
    contrib(u→v, w) = (85 * ((r[u] // wout[u]) * w)) // 100
    dang    = (85 * (sum(r[u] : wout[u]=0) // n)) // 100
    r'[v]   = tp + dang + Σ contrib into v

(The per-unit share ``r[u] // wout[u]`` floors BEFORE multiplying by the
edge weight, which keeps every intermediate ≤ 85·one — no int64
overflow for any weight distribution.) Integer sums are
order-independent → bit-reproducible at any block structure.

Scale shape: the PARTITIONING ASSUMPTION is the host-graph one — the
node-id space fits a worker's memory (10^8 hosts × 8 B = 0.8 GB rank
vector) while the EDGE set is unbounded and only ever streamed:
per iteration, ranks broadcast once via ray.put and each edge block
emits a bounded nonzero-bincount partial (folded tree-style); the
driver touches arrays of size n, never edges. Small edge sets take a
driver fast path (same integers; equality pytest-gated), mirroring
neardup_clusters' threshold switch. For graphs whose NODE table
exceeds worker memory, :func:`pagerank_partitioned` keeps the rank
table itself a Dataset (per-iteration co-partitioned joins — the
labelprop exchange shape) and is equality-gated bit-for-bit against
the other two paths.
"""

from __future__ import annotations

from typing import Tuple, Optional

import numpy as np
import pandas as pd

from open_parse_ray.sources.tables import table_path

ONE = 10**12


def _pagerank_local(
    src: np.ndarray,
    dst: np.ndarray,
    w: np.ndarray,
    n_nodes: int,
    n_iter: int,
    one: int,
) -> np.ndarray:
    wout = np.zeros(n_nodes, dtype=np.int64)
    np.add.at(wout, src, w.astype(np.int64))
    rank = np.full(n_nodes, one // n_nodes, dtype=np.int64)
    tp = (15 * (one // n_nodes)) // 100
    dangling = wout == 0
    for _ in range(n_iter):
        share = np.zeros(n_nodes, dtype=np.int64)
        nz = wout > 0
        share[nz] = rank[nz] // wout[nz]
        contrib = (85 * (share[src] * w)) // 100
        acc = np.zeros(n_nodes, dtype=np.int64)
        np.add.at(acc, dst, contrib)
        dang = (85 * (int(rank[dangling].sum()) // n_nodes)) // 100
        rank = tp + dang + acc
    return rank


def pagerank(
    edges,
    n_nodes: int,
    n_iter: int = 20,
    one: int = ONE,
    max_driver_edges: int = 1_000_000,
    force_distributed: bool = False,
    ckpt_dir: str | None = None,
):
    """Fixed-point PageRank over an edge Dataset (src:int64, dst:int64,
    w:int64), node ids dense in [0, n_nodes). Returns a Dataset
    (node:int64, rank_fp:int64). ≤ ``max_driver_edges`` edges run on
    the driver; larger graphs stream edge blocks per iteration with the
    rank vector broadcast (see module docstring for the exact shared
    integer spec and the partitioning assumption)."""
    import ray
    import ray.data as rd

    from open_parse_ray.stages.relational import two_phase_agg

    edges = edges.materialize()
    n_edges = edges.count()
    if n_edges <= max_driver_edges and not force_distributed:
        df = edges.to_pandas()
        rank = _pagerank_local(
            df["src"].to_numpy(dtype=np.int64),
            df["dst"].to_numpy(dtype=np.int64),
            df["w"].to_numpy(dtype=np.int64),
            n_nodes,
            n_iter,
            one,
        )
        return rd.from_pandas(
            pd.DataFrame(
                {"node": np.arange(n_nodes, dtype=np.int64), "rank_fp": rank}
            )
        )

    # distributed path: out-weight vector once, then n_iter edge scans
    def wout_partial(b: pd.DataFrame) -> pd.DataFrame:
        acc = np.zeros(n_nodes, dtype=np.int64)
        np.add.at(acc, b["src"].to_numpy(dtype=np.int64), b["w"].to_numpy(dtype=np.int64))
        nz = np.nonzero(acc)[0]
        return pd.DataFrame({"node": nz.astype(np.int64), "s": acc[nz]})

    def _collect_vec(partials) -> np.ndarray:
        got = two_phase_agg(partials, ["node"], {"s": "sum"}).to_pandas()
        vec = np.zeros(n_nodes, dtype=np.int64)
        vec[got["node"].to_numpy(dtype=np.int64)] = got["s"].to_numpy(dtype=np.int64)
        return vec

    wout = _collect_vec(
        edges.map_batches(wout_partial, batch_format="pandas", batch_size=65536)
    )
    dangling = wout == 0
    rank = np.full(n_nodes, one // n_nodes, dtype=np.int64)
    tp = (15 * (one // n_nodes)) // 100
    wout_ref = ray.put(wout)

    # Iteration-level checkpointing for long iterate jobs: the rank
    # vector (the ENTIRE loop state — everything else is recomputed
    # from the edge Dataset) is saved atomically per iteration; a
    # restart loads the highest complete iteration ≤ n_iter and
    # continues, bit-identically (resume gate in test_graph.py). The
    # extraction job checkpoints per PARTITION (state/lineage.py);
    # iterate jobs checkpoint per ITERATION — same os.replace contract.
    start = 0
    if ckpt_dir is not None:
        import os as _os

        _os.makedirs(ckpt_dir, exist_ok=True)
        for k in range(n_iter, 0, -1):
            f = _os.path.join(ckpt_dir, f"rank_iter{k:04d}.npy")
            if _os.path.exists(f):
                rank = np.load(f)
                assert rank.shape == (n_nodes,) and rank.dtype == np.int64
                start = k
                break

    for _it in range(start, n_iter):
        rank_ref = ray.put(rank)

        def contrib_partial(b: pd.DataFrame) -> pd.DataFrame:
            r = ray.get(rank_ref)
            wo = ray.get(wout_ref)
            s = b["src"].to_numpy(dtype=np.int64)
            d = b["dst"].to_numpy(dtype=np.int64)
            ww = b["w"].to_numpy(dtype=np.int64)
            share = np.where(wo[s] > 0, r[s] // np.maximum(wo[s], 1), 0)
            contrib = (85 * (share * ww)) // 100
            acc = np.zeros(n_nodes, dtype=np.int64)
            np.add.at(acc, d, contrib)
            nz = np.nonzero(acc)[0]
            return pd.DataFrame({"node": nz.astype(np.int64), "s": acc[nz]})

        acc = _collect_vec(
            edges.map_batches(contrib_partial, batch_format="pandas", batch_size=65536)
        )
        dang = (85 * (int(rank[dangling].sum()) // n_nodes)) // 100
        rank = tp + dang + acc
        if ckpt_dir is not None:
            import os as _os

            f = _os.path.join(ckpt_dir, f"rank_iter{_it + 1:04d}.npy")
            tmp = f + f".tmp.{_os.getpid()}.npy"
            np.save(tmp, rank)
            _os.replace(tmp, f)

    return rd.from_pandas(
        pd.DataFrame({"node": np.arange(n_nodes, dtype=np.int64), "rank_fp": rank})
    )


def transition_edges(sf_dir: str):
    """Event-type transition multigraph: per user, consecutive events
    (ordered by ts, event_id) contribute one (src_t → dst_t) edge;
    weights are transition counts. One salted user exchange; pair
    extraction and counting are vectorized per partition; per-partition
    partial counts (bounded: |types|² rows) fold to the final edge
    table. Returns (src_t, dst_t, w)."""
    import ray.data as rd

    from open_parse_ray.stages.dedup import salted_groupby
    from open_parse_ray.stages.relational import two_phase_agg

    ds = rd.read_parquet(
        table_path(sf_dir, "events"),
        columns=["user_id", "ts", "event_id", "event_type"],
    )

    def pairs(part: pd.DataFrame) -> pd.DataFrame:
        g = part.sort_values(["user_id", "ts", "event_id"])
        same = g["user_id"].eq(g["user_id"].shift(-1))
        d = pd.DataFrame(
            {"src_t": g["event_type"][same], "dst_t": g["event_type"].shift(-1)[same]}
        )
        out = d.groupby(["src_t", "dst_t"], as_index=False).size()
        return out.rename(columns={"size": "w"}).astype({"w": "int64"})

    partials = salted_groupby(ds, "user_id", pairs)
    return two_phase_agg(partials, ["src_t", "dst_t"], {"w": "sum"})


def events_type_pagerank(sf_dir: str, n_iter: int = 20, **kw):
    """Corpus query: PageRank of event types over the per-user
    transition graph — Markov-chain centrality of the event vocabulary
    (the host-graph ranking pattern exercised end-to-end: distributed
    transition counting → integer-exact PageRank). Node set = ALL
    distinct event types (a type with no transitions is a dangling
    node). Returns (event_type, rank_fp) — bit-equal to the unrolled
    20-iteration DuckDB oracle."""
    import ray.data as rd

    from open_parse_ray.stages.relational import two_phase_agg

    edges_t = transition_edges(sf_dir).materialize()

    # node vocabulary from the events table (not just the edge list)
    ds = rd.read_parquet(table_path(sf_dir, "events"), columns=["event_type"])

    def type_partial(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"event_type": b["event_type"].unique(), "one": np.int64(1)})

    types = sorted(
        two_phase_agg(
            ds.map_batches(type_partial, batch_format="pandas", batch_size=65536),
            ["event_type"],
            {"one": "sum"},
        )
        .to_pandas()["event_type"]
        .tolist()
    )
    tid = {t: i for i, t in enumerate(types)}

    def to_ids(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "src": b["src_t"].map(tid).to_numpy(dtype=np.int64),
                "dst": b["dst_t"].map(tid).to_numpy(dtype=np.int64),
                "w": b["w"].astype("int64"),
            }
        )

    ranks = pagerank(
        edges_t.map_batches(to_ids, batch_format="pandas", batch_size=65536),
        n_nodes=len(types),
        n_iter=n_iter,
        **kw,
    ).to_pandas()
    out = pd.DataFrame(
        {
            "event_type": [types[i] for i in ranks["node"]],
            "rank_fp": ranks["rank_fp"].astype("int64"),
        }
    ).sort_values("event_type").reset_index(drop=True)
    return rd.from_pandas(out)


def events_type_pagerank_oracle_sql(n_iter: int = 20, one: int = ONE) -> str:
    """The unrolled-CTE DuckDB mirror of events_type_pagerank: one CTE
    pair (contributions, dangling mass) per iteration, same integer
    spec — an iterative graph algorithm pinned by a FULL SQL oracle."""
    parts = [
        f"""
        WITH seq AS (
          SELECT user_id, event_type AS src_t,
                 lead(event_type) OVER (
                   PARTITION BY user_id ORDER BY ts, event_id
                 ) AS dst_t
          FROM events
        ),
        e AS MATERIALIZED (
          SELECT src_t, dst_t, CAST(count(*) AS BIGINT) AS w
          FROM seq WHERE dst_t IS NOT NULL GROUP BY src_t, dst_t
        ),
        nodes AS MATERIALIZED (SELECT DISTINCT event_type AS node FROM events),
        outw AS MATERIALIZED (SELECT src_t AS node, sum(w) AS wout FROM e GROUP BY src_t),
        nn AS MATERIALIZED (SELECT count(*) AS n FROM nodes),
        r0 AS MATERIALIZED (SELECT node, {one} // (SELECT n FROM nn) AS rank FROM nodes)"""
    ]
    for k in range(1, n_iter + 1):
        parts.append(
            f""",
        c{k} AS MATERIALIZED (
          SELECT ed.dst_t AS node,
                 sum((85 * ((r.rank // o.wout) * ed.w)) // 100) AS s
          FROM e ed
          JOIN r{k - 1} r ON r.node = ed.src_t
          JOIN outw o ON o.node = ed.src_t
          GROUP BY ed.dst_t
        ),
        d{k} AS MATERIALIZED (
          SELECT (85 * (coalesce(sum(r.rank), 0) // (SELECT n FROM nn))) // 100 AS t
          FROM r{k - 1} r LEFT JOIN outw o ON o.node = r.node
          WHERE o.node IS NULL
        ),
        r{k} AS MATERIALIZED (
          SELECT n.node,
                 (15 * ({one} // (SELECT n FROM nn))) // 100
                   + (SELECT t FROM d{k})
                   + coalesce(c.s, 0) AS rank
          FROM nodes n LEFT JOIN c{k} c ON c.node = n.node
        )"""
        )
    parts.append(
        f"""
        SELECT node AS event_type, CAST(rank AS BIGINT) AS rank_fp
        FROM r{n_iter} ORDER BY event_type"""
    )
    return "".join(parts)


def pagerank_partitioned(
    edges, n_nodes: int, n_iter: int = 20, one: int = ONE, num_parts: Optional[int] = None
):
    """The 10^12-NODE PageRank shape: the rank table itself stays a
    Dataset — the driver never holds a rank vector, only two scalars
    per iteration (teleport base + dangling mass). Same pure-integer
    spec as :func:`pagerank`, so outputs are bit-identical
    (equality-gated).

    Per iteration, two salted co-partitioned exchanges (the Pregel
    shape, as in dedup.labelprop_clusters):

    1. contributions — tagged union of rank rows and edge rows salted
       on src; inside each partition the rank maps onto its edges
       vectorized → (dst, contrib) rows;
    2. re-rank — tagged union of the node table and contributions
       salted on node; per-node integer sum + broadcast (tp + dang).

    Node metadata (out-weight) is attached to the node table ONCE at
    start; dangling mass is a per-batch partial sum (bounded) each
    iteration. Every exchanged row is ≤ 32 B. Cost: 2 exchanges of
    edge-sized data × n_iter — the unavoidable Pregel price when the
    node table exceeds worker memory; prefer :func:`pagerank`'s
    broadcast path whenever it fits (10^8-host graphs)."""
    import pyarrow as pa
    import ray
    import ray.data as rd

    from open_parse_ray.stages.dedup import salted_groupby
    from open_parse_ray.stages.relational import two_phase_agg

    edges = edges.materialize()

    # node table with out-weight, built once (one salted exchange over
    # edges + a union with the full id range so isolated nodes exist)
    def wout_partial(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby("src", as_index=False).agg(wout=("w", "sum"))
        return pd.DataFrame(
            {"node": g["src"].astype("int64"), "wout": g["wout"].astype("int64")}
        )

    wout_tbl = two_phase_agg(
        edges.map_batches(wout_partial, batch_format="pandas", batch_size=65536),
        ["node"],
        {"wout": "sum"},
    )
    all_nodes = rd.range(n_nodes).map_batches(
        lambda t: pa.table(
            {"node": t["id"].cast(pa.int64()), "wout": np.zeros(t.num_rows, np.int64)}
        ),
        batch_format="pyarrow",
        batch_size=65536,
    )

    def merge_nodes(part: pd.DataFrame) -> pd.DataFrame:
        g = part.groupby("node", as_index=False).agg(wout=("wout", "max"))
        return g.astype({"node": "int64", "wout": "int64"})

    nodes = salted_groupby(
        wout_tbl.union(all_nodes),
        "node",
        merge_nodes,
        num_parts=num_parts,
    ).materialize()

    tp = (15 * (one // n_nodes)) // 100
    init = one // n_nodes
    ranks = nodes.map_batches(
        lambda b: pd.DataFrame(
            {
                "node": b["node"].astype("int64"),
                "rank": np.full(len(b), init, dtype=np.int64),
                "wout": b["wout"].astype("int64"),
            }
        ),
        batch_format="pandas",
        batch_size=65536,
    ).materialize()

    def dangling_sum(r) -> int:
        def part(b: pd.DataFrame) -> pd.DataFrame:
            m = b["wout"].to_numpy(dtype=np.int64) == 0
            return pd.DataFrame(
                {"k": np.zeros(1, dtype=np.int64),
                 "s": np.array([b["rank"].to_numpy(dtype=np.int64)[m].sum()],
                               dtype=np.int64)}
            )

        got = two_phase_agg(
            r.map_batches(part, batch_format="pandas", batch_size=65536),
            ["k"],
            {"s": "sum"},
        ).to_pandas()
        return int(got["s"].sum())

    for _ in range(n_iter):
        dang = (85 * (dangling_sum(ranks) // n_nodes)) // 100

        # exchange 1: ranks ⋈ edges on src → contributions
        rank_side = ranks.map_batches(
            lambda b: pd.DataFrame(
                {
                    "key": b["node"].astype("int64"),
                    "dst": np.int64(-1),
                    "w": b["rank"].astype("int64"),   # rank rides in w
                    "wout": b["wout"].astype("int64"),
                    "tag": np.int64(0),
                }
            ),
            batch_format="pandas",
            batch_size=65536,
        )
        edge_side = edges.map_batches(
            lambda b: pd.DataFrame(
                {
                    "key": b["src"].astype("int64"),
                    "dst": b["dst"].astype("int64"),
                    "w": b["w"].astype("int64"),
                    "wout": np.int64(0),
                    "tag": np.int64(1),
                }
            ),
            batch_format="pandas",
            batch_size=65536,
        )

        def contribs(part: pd.DataFrame) -> pd.DataFrame:
            r = part[part["tag"] == 0]
            e = part[part["tag"] == 1]
            if len(e) == 0 or len(r) == 0:
                return pd.DataFrame(
                    {"node": pd.Series([], dtype="int64"),
                     "contrib": pd.Series([], dtype="int64")}
                )
            share = pd.Series(
                np.where(
                    r["wout"].to_numpy(dtype=np.int64) > 0,
                    r["w"].to_numpy(dtype=np.int64)
                    // np.maximum(r["wout"].to_numpy(dtype=np.int64), 1),
                    0,
                ),
                index=r["key"].to_numpy(dtype=np.int64),
            )
            sh = e["key"].map(share).to_numpy(dtype=np.int64)
            c = (85 * (sh * e["w"].to_numpy(dtype=np.int64))) // 100
            out = pd.DataFrame({"node": e["dst"].astype("int64"), "contrib": c})
            return out.groupby("node", as_index=False).agg(contrib=("contrib", "sum"))

        contrib_rows = salted_groupby(
            rank_side.union(edge_side),
            "key",
            contribs,
            num_parts=num_parts,
        )

        # exchange 2: node table ⋈ contributions on node → new ranks
        node_side = ranks.map_batches(
            lambda b: pd.DataFrame(
                {
                    "node": b["node"].astype("int64"),
                    "contrib": np.int64(0),
                    "wout": b["wout"].astype("int64"),
                    "tag": np.int64(0),
                }
            ),
            batch_format="pandas",
            batch_size=65536,
        )
        c_side = contrib_rows.map_batches(
            lambda b: pd.DataFrame(
                {
                    "node": b["node"].astype("int64"),
                    "contrib": b["contrib"].astype("int64"),
                    "wout": np.int64(0),
                    "tag": np.int64(1),
                }
            ),
            batch_format="pandas",
            batch_size=65536,
        )
        base = tp + dang

        def rerank(part: pd.DataFrame) -> pd.DataFrame:
            g = part.groupby("node", as_index=False).agg(
                contrib=("contrib", "sum"), wout=("wout", "max"),
                n_node_rows=("tag", lambda t: int((t == 0).sum())),
            )
            g = g[g["n_node_rows"] > 0]  # contributions to unknown ids drop
            return pd.DataFrame(
                {
                    "node": g["node"].astype("int64"),
                    "rank": (base + g["contrib"]).astype("int64"),
                    "wout": g["wout"].astype("int64"),
                }
            )

        ranks = salted_groupby(
            node_side.union(c_side),
            "node",
            rerank,
            num_parts=num_parts,
        ).materialize()

    return ranks.map_batches(
        lambda b: pd.DataFrame(
            {"node": b["node"].astype("int64"), "rank_fp": b["rank"].astype("int64")}
        ),
        batch_format="pandas",
        batch_size=65536,
    )


# ---------------------------------------------------------------------------
# Distributed triangle counting (degree-ordered orientation + wedge join)
# ---------------------------------------------------------------------------

_OKEY_BASE = 1 << 24  # orientation key = deg * BASE + node; node < BASE


def _grouped_pairs(starts: np.ndarray, sizes: np.ndarray, budget: int = 1 << 22):
    """Yield (left_idx, right_idx) index arrays enumerating every
    within-group ordered pair (i < j in the group's sort order) over a
    group layout given by ``starts``/``sizes`` into one sorted array.
    Fully vectorized per chunk; chunks are whole groups whose cumulative
    pair count stays near ``budget`` (a single group larger than the
    budget is emitted alone), so peak memory is bounded regardless of
    the partition's total pair count."""
    gp = (sizes.astype(np.int64) * (sizes - 1)) // 2
    cum = np.cumsum(gp)
    total = int(cum[-1]) if len(cum) else 0
    if total == 0:
        return
    bounds = np.searchsorted(cum, np.arange(budget, total + budget, budget), side="left")
    bounds = np.unique(np.append(bounds, len(gp) - 1))
    g0 = 0
    for gend in bounds:
        g1 = int(gend) + 1
        st, sz = starts[g0:g1], sizes[g0:g1]
        loc_sz = sz  # local positions 0..sz-1 per group
        n = int(loc_sz.sum())
        idx = np.arange(n, dtype=np.int64) - np.repeat(
            np.cumsum(loc_sz) - loc_sz, loc_sz
        )  # local position within group
        gidx = np.repeat(st, loc_sz) + idx  # global sorted index of each element
        # each element at local pos j is the RIGHT of j pairs
        seg = idx  # pair count contributed by each element
        P = int(seg.sum())
        if P:
            rights = np.repeat(gidx, seg)
            seg_off = np.cumsum(seg) - seg
            lefts = (
                np.arange(P, dtype=np.int64)
                - np.repeat(seg_off, seg)
                + np.repeat(gidx - idx, seg)
            )
            yield lefts, rights
        g0 = g1


def _group_layout(sorted_keys: np.ndarray):
    """(starts, sizes) of equal-key runs in an already-sorted array."""
    if len(sorted_keys) == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    change = np.nonzero(np.diff(sorted_keys))[0] + 1
    starts = np.concatenate(([0], change)).astype(np.int64)
    sizes = np.diff(np.append(starts, len(sorted_keys))).astype(np.int64)
    return starts, sizes


def triangle_counts(
    edges,
    n_nodes: int,
    num_parts: Optional[int] = None,
    max_broadcast_edges: int = 5_000_000,
):
    """Exact distributed triangle / wedge / edge counts over an
    undirected simple graph given as a Dataset of DISTINCT edges
    (u:int64, v:int64, u < v). Returns a one-row Dataset
    (n_nodes, n_edges, n_wedges, n_triangles) — n_nodes counts nodes
    with degree >= 1, n_wedges is sum_v C(deg(v), 2) over the
    undirected graph (so 3*n_triangles/n_wedges is the global
    clustering coefficient).

    Algorithm (the MapReduce-classic degree-ordered orientation): each
    edge is directed from its lower (deg, id) endpoint to the higher,
    which bounds every out-degree by O(sqrt(m)); each node's
    out-neighborhood generates wedges (x, y) ordered by the SAME
    (deg, id) key, so a wedge closes iff the oriented edge (x, y)
    exists. Each triangle is counted exactly once, at its minimum-key
    apex.

    Scale shape: the NODE-bounded degree vector folds from per-batch
    bincount partials and broadcasts once (the pagerank partitioning
    assumption: node table fits a worker; edges only stream). Wedge
    generation is one salted exchange on the wedge apex with
    per-partition pre-aggregated (u, v, cnt) partials emitted in
    memory-bounded chunks (_grouped_pairs); the closing-edge probe is
    a second salted exchange co-partitioning wedge partials with the
    edge set on hash(u, v) — no all-pairs stage, no driver-resident
    edge or wedge set. Only num_parts counter rows reach the driver.

    Threshold switch (the semdedup_keep/union-find pattern): when the
    DISTINCT edge count is <= max_broadcast_edges, the wedge exchange
    (whose volume is sum C(outdeg, 2) — often tens of times the edge
    count on dense graphs) is replaced by a broadcast oriented-CSR and
    ONE streaming pass: triangles through oriented edge (a, b) are
    |N+(a) ∩ N+(b)|, and each triangle is counted exactly once at its
    two lowest-key endpoints' edge. Both paths are bit-identical
    (equality gate in tests/test_graph.py)."""
    import ray
    import ray.data as rd

    from open_parse_ray.stages.dedup import salted_groupby
    from open_parse_ray.stages.relational import two_phase_agg

    if n_nodes >= _OKEY_BASE:
        raise ValueError("node id space exceeds orientation-key base")
    edges = edges.materialize()

    def deg_partial(b: pd.DataFrame) -> pd.DataFrame:
        acc = np.zeros(n_nodes, dtype=np.int64)
        if len(b):
            np.add.at(acc, b["u"].to_numpy(dtype=np.int64), 1)
            np.add.at(acc, b["v"].to_numpy(dtype=np.int64), 1)
        nz = np.nonzero(acc)[0]
        return pd.DataFrame({"node": nz.astype(np.int64), "s": acc[nz]})

    got = two_phase_agg(
        edges.map_batches(deg_partial, batch_format="pandas", batch_size=65536),
        ["node"],
        {"s": "sum"},
    ).to_pandas()
    deg = np.zeros(n_nodes, dtype=np.int64)
    deg[got["node"].to_numpy(dtype=np.int64)] = got["s"].to_numpy(dtype=np.int64)
    n_graph_nodes = int((deg > 0).sum())
    n_edges = int(deg.sum()) // 2
    n_wedges = int((deg * (deg - 1) // 2).sum())
    okey_ref = ray.put(deg * _OKEY_BASE + np.arange(n_nodes, dtype=np.int64))

    def orient(b: pd.DataFrame) -> pd.DataFrame:
        ok = ray.get(okey_ref)
        u = b["u"].to_numpy(dtype=np.int64)
        v = b["v"].to_numpy(dtype=np.int64)
        low = ok[u] < ok[v]
        return pd.DataFrame(
            {"a": np.where(low, u, v), "b": np.where(low, v, u)}
        ).astype("int64")

    oriented = edges.map_batches(orient, batch_format="pandas", batch_size=65536)

    if n_edges <= max_broadcast_edges:
        # broadcast path: oriented adjacency as CSR (edge-bounded:
        # 16 B/edge), one streaming intersection pass over the edges
        ep = oriented.to_pandas()
        a_all = ep["a"].to_numpy(dtype=np.int64)
        b_all = ep["b"].to_numpy(dtype=np.int64)
        order = np.lexsort((b_all, a_all))
        a_s, b_s = a_all[order], b_all[order]
        indptr = np.zeros(n_nodes + 1, dtype=np.int64)
        np.add.at(indptr, a_s + 1, 1)
        np.cumsum(indptr, out=indptr)
        csr_ref = ray.put((indptr, b_s))

        def tri_partial(b: pd.DataFrame) -> pd.DataFrame:
            indptr_, nbr = ray.get(csr_ref)
            aa = b["a"].to_numpy(dtype=np.int64)
            bb = b["b"].to_numpy(dtype=np.int64)
            tot = 0
            for x, y in zip(aa, bb):
                A = nbr[indptr_[x] : indptr_[x + 1]]
                B = nbr[indptr_[y] : indptr_[y + 1]]
                if len(A) and len(B):
                    tot += int(
                        np.intersect1d(A, B, assume_unique=True).size
                    )
            return pd.DataFrame({"tri": [np.int64(tot)]})

        tri_df = oriented.map_batches(
            tri_partial, batch_format="pandas", batch_size=65536
        ).to_pandas()
        return rd.from_pandas(
            pd.DataFrame(
                {
                    "n_nodes": [n_graph_nodes],
                    "n_edges": [n_edges],
                    "n_wedges": [n_wedges],
                    "n_triangles": [int(tri_df["tri"].sum())],
                }
            ).astype("int64")
        )

    def wedge_partial(part: pd.DataFrame) -> pd.DataFrame:
        ok = ray.get(okey_ref)
        a = part["a"].to_numpy(dtype=np.int64)
        b = part["b"].to_numpy(dtype=np.int64)
        order = np.lexsort((ok[b], a))
        a, b = a[order], b[order]
        starts, sizes = _group_layout(a)
        keys_chunks = []
        for lf, rt in _grouped_pairs(starts, sizes):
            # b[lf] has the lower okey: the closing oriented edge is (b[lf], b[rt])
            keys_chunks.append(b[lf] * _OKEY_BASE + b[rt])
        if not keys_chunks:
            return pd.DataFrame({"u": [], "v": [], "cnt": []}).astype("int64")
        uniq, cnt = np.unique(np.concatenate(keys_chunks), return_counts=True)
        return pd.DataFrame(
            {
                "u": uniq // _OKEY_BASE,
                "v": uniq % _OKEY_BASE,
                "cnt": cnt.astype(np.int64),
            }
        ).astype("int64")

    wedges = salted_groupby(oriented, "a", wedge_partial, num_parts=num_parts)

    w_tag = wedges.map_batches(
        lambda b: b.assign(is_edge=np.int64(0)), batch_format="pandas", batch_size=65536
    )
    e_tag = oriented.map_batches(
        lambda b: pd.DataFrame(
            {
                "u": b["a"].astype("int64"),
                "v": b["b"].astype("int64"),
                "cnt": np.zeros(len(b), dtype=np.int64),
                "is_edge": np.ones(len(b), dtype=np.int64),
            }
        ),
        batch_format="pandas",
        batch_size=65536,
    )

    def close_probe(part: pd.DataFrame) -> pd.DataFrame:
        key = part["u"].to_numpy(dtype=np.int64) * _OKEY_BASE + part["v"].to_numpy(
            dtype=np.int64
        )
        is_e = part["is_edge"].to_numpy(dtype=np.int64) == 1
        ekeys = np.sort(key[is_e])
        pos = np.searchsorted(ekeys, key[~is_e])
        pos = np.minimum(pos, max(len(ekeys) - 1, 0))
        hit = (
            (ekeys[pos] == key[~is_e])
            if len(ekeys)
            else np.zeros((~is_e).sum(), dtype=bool)
        )
        tri = int(part["cnt"].to_numpy(dtype=np.int64)[~is_e][hit].sum())
        return pd.DataFrame({"tri": [np.int64(tri)]})

    tri_parts = salted_groupby(
        w_tag.union(e_tag),
        lambda t: t["u"].to_numpy() * _OKEY_BASE + t["v"].to_numpy(),
        close_probe,
        num_parts=num_parts,
    ).to_pandas()
    n_triangles = int(tri_parts["tri"].sum())
    return rd.from_pandas(
        pd.DataFrame(
            {
                "n_nodes": [n_graph_nodes],
                "n_edges": [n_edges],
                "n_wedges": [n_wedges],
                "n_triangles": [n_triangles],
            }
        ).astype("int64")
    )


def copurchase_edges(sf_dir: str, num_parts: Optional[int] = None):
    """DISTINCT part co-purchase edges (u < v: two parts appearing in
    the same order) from lineitem. Two salted exchanges: order-salted
    pair generation (every row of one order co-locates; per-order pair
    fan-out is bounded by the order's line count, so the memory-bounded
    _grouped_pairs chunking applies), then an edge-hash-salted distinct.
    Only (u, v) int64 pairs ever travel — never lineitem payload."""
    import ray.data as rd

    from open_parse_ray.sources.tables import table_path
    from open_parse_ray.stages.dedup import salted_groupby

    ds = rd.read_parquet(
        table_path(sf_dir, "lineitem"), columns=["l_orderkey", "l_partkey"]
    )

    def order_pairs(part: pd.DataFrame) -> pd.DataFrame:
        o = part["l_orderkey"].to_numpy(dtype=np.int64)
        p = part["l_partkey"].to_numpy(dtype=np.int64)
        key = o * _OKEY_BASE + p  # dedup (order, part) repeats first
        key = np.unique(key)
        o, p = key // _OKEY_BASE, key % _OKEY_BASE
        starts, sizes = _group_layout(o)
        chunks = []
        for lf, rt in _grouped_pairs(starts, sizes):
            chunks.append(p[lf] * _OKEY_BASE + p[rt])  # p sorted within order: u < v
        if not chunks:
            return pd.DataFrame({"u": [], "v": []}).astype("int64")
        uniq = np.unique(np.concatenate(chunks))
        return pd.DataFrame(
            {"u": uniq // _OKEY_BASE, "v": uniq % _OKEY_BASE}
        ).astype("int64")

    pairs = salted_groupby(ds, "l_orderkey", order_pairs, num_parts=num_parts)

    def distinct(part: pd.DataFrame) -> pd.DataFrame:
        key = np.unique(
            part["u"].to_numpy(dtype=np.int64) * _OKEY_BASE
            + part["v"].to_numpy(dtype=np.int64)
        )
        return pd.DataFrame(
            {"u": key // _OKEY_BASE, "v": key % _OKEY_BASE}
        ).astype("int64")

    return salted_groupby(
        pairs,
        lambda t: t["u"].to_numpy() * _OKEY_BASE + t["v"].to_numpy(),
        distinct,
        num_parts=num_parts,
    )


def copurchase_triangles(sf_dir: str):
    """Triangle census of the part co-purchase graph (nodes = parts,
    edge iff two parts share an order) — the canonical 'related items'
    graph statistic; one row (n_nodes, n_edges, n_wedges, n_triangles).
    No reference counterpart (single-document scope); scale-layer
    operator in the pagerank/labelprop tradition. Exact SQL oracle:
    DISTINCT-pair CTE + triple self-join."""
    import pyarrow.parquet as pq

    maxp = pq.read_table(
        table_path(sf_dir, "part"), columns=["p_partkey"]
    )["p_partkey"]
    import pyarrow.compute as pc

    n_nodes = int(pc.max(maxp).as_py()) + 1
    return triangle_counts(copurchase_edges(sf_dir), n_nodes)


def copurchase_lift_pairs(
    sf_dir: str,
    min_ab: int = 2,
    lift_num: int = 2,
    lift_den: int = 1,
    num_parts: Optional[int] = None,
):
    """Market-basket association mining over the co-purchase graph:
    every part pair co-occurring in >= min_ab orders whose LIFT
    N·c_ab / (c_a·c_b) is >= lift_num/lift_den — the 'customers who
    bought X also bought Y' statistic. The lift test is a pure integer
    cross-multiplication (lift_den·N·c_ab >= lift_num·c_a·c_b), exact
    on both sides of the SQL oracle.

    Scale shape: all rows of one order co-locate in the order-salted
    exchange (the copurchase_edges invariant), so per-order DISTINCT
    (order, part) and pair generation are partition-local, and the
    same partition emits (a) per-pair count partials in memory-bounded
    chunks and (b) per-part order-frequency partials plus an exact
    order count. Pair partials finish in a pair-salted exchange; the
    part-frequency table is NODE-bounded (one row per part — the
    degree-vector broadcast of triangle_counts) and c_a/c_b attach via
    that broadcast, never a join. min_ab prunes the pair tail before
    the lift test. Returns (part_a, part_b, n_ab, n_a, n_b)."""
    import ray
    import ray.data as rd

    from open_parse_ray.sources.tables import table_path
    from open_parse_ray.stages.dedup import salted_groupby
    from open_parse_ray.stages.relational import two_phase_agg

    ds = rd.read_parquet(
        table_path(sf_dir, "lineitem"), columns=["l_orderkey", "l_partkey"]
    )

    def fused_partial(part: pd.DataFrame) -> pd.DataFrame:
        # ONE order-salted pass emits BOTH partial kinds from one
        # distinct-pair layout (the pair rows and the part-frequency /
        # order-count rows previously cost two identical exchanges and
        # two np.unique passes over the same lineitem scan): freq rows
        # are tagged pa = -1 (pb = part, n_ab = count) and the exact
        # order count rides as pa = -1, pb = -1.
        o = part["l_orderkey"].to_numpy(dtype=np.int64)
        p = part["l_partkey"].to_numpy(dtype=np.int64)
        key = np.unique(o * _OKEY_BASE + p)
        o, p = key // _OKEY_BASE, key % _OKEY_BASE
        starts, sizes = _group_layout(o)
        chunks = []
        for lf, rt in _grouped_pairs(starts, sizes):
            chunks.append(p[lf] * _OKEY_BASE + p[rt])
        if chunks:
            uniq, cnt = np.unique(np.concatenate(chunks), return_counts=True)
        else:
            uniq = cnt = np.array([], dtype=np.int64)
        pk, c = np.unique(p, return_counts=True)
        n_orders = len(starts)
        return pd.DataFrame(
            {
                "pa": np.concatenate(
                    [uniq // _OKEY_BASE, np.full(len(pk) + 1, -1, dtype=np.int64)]
                ),
                "pb": np.concatenate([uniq % _OKEY_BASE, pk, [-1]]),
                "n_ab": np.concatenate([cnt, c, [n_orders]]),
            }
        ).astype("int64")

    tagged = salted_groupby(
        ds, "l_orderkey", fused_partial, num_parts=num_parts
    ).materialize()

    def take_freq(b: pd.DataFrame) -> pd.DataFrame:
        f = b[b["pa"] == -1]
        return pd.DataFrame(
            {
                "part": f["pb"].to_numpy(dtype=np.int64),
                "c": f["n_ab"].to_numpy(dtype=np.int64),
            }
        )

    def take_pairs(b: pd.DataFrame) -> pd.DataFrame:
        return b[b["pa"] >= 0]

    pair_partials = tagged.map_batches(
        take_pairs, batch_format="pandas", batch_size=65536
    )
    freq = two_phase_agg(
        tagged.map_batches(take_freq, batch_format="pandas", batch_size=65536),
        ["part"],
        {"c": "sum"},
    ).to_pandas()
    n_orders = int(freq.loc[freq["part"] == -1, "c"].iloc[0])
    pf = freq[freq["part"] >= 0]
    maxp = int(pf["part"].max()) + 1
    cvec = np.zeros(maxp, dtype=np.int64)
    cvec[pf["part"].to_numpy(dtype=np.int64)] = pf["c"].to_numpy(dtype=np.int64)
    cref = ray.put(cvec)

    def finish(part: pd.DataFrame) -> pd.DataFrame:
        g = part.groupby(["pa", "pb"], as_index=False).agg(n_ab=("n_ab", "sum"))
        g = g[g["n_ab"] >= min_ab]
        if not len(g):
            return pd.DataFrame(
                {
                    "part_a": pd.Series(dtype="int64"),
                    "part_b": pd.Series(dtype="int64"),
                    "n_ab": pd.Series(dtype="int64"),
                    "n_a": pd.Series(dtype="int64"),
                    "n_b": pd.Series(dtype="int64"),
                }
            )
        c = ray.get(cref)
        pa = g["pa"].to_numpy(dtype=np.int64)
        pb = g["pb"].to_numpy(dtype=np.int64)
        nab = g["n_ab"].to_numpy(dtype=np.int64)
        na, nb = c[pa], c[pb]
        keep = lift_den * n_orders * nab >= lift_num * na * nb
        return pd.DataFrame(
            {
                "part_a": pa[keep],
                "part_b": pb[keep],
                "n_ab": nab[keep],
                "n_a": na[keep],
                "n_b": nb[keep],
            }
        )

    return salted_groupby(
        pair_partials,
        lambda t: t["pa"].to_numpy() * _OKEY_BASE + t["pb"].to_numpy(),
        finish,
        num_parts=num_parts,
    )


def copurchase_distances(sf_dir: str, max_hops: int = 4, num_parts: Optional[int] = None):
    """Unweighted single-source shortest paths (BFS layers) over the
    part co-purchase graph, from the smallest part id that has an edge
    — the graph-traversal member of the pagerank/labelprop/triangle
    family. Returns (part, dist) for every part within ``max_hops``.

    Scale shape (the pagerank partitioning assumption): the dist vector
    is NODE-bounded and lives on the driver; each BFS layer broadcasts
    the current frontier as a boolean vector (ray.put) and streams the
    EDGE set once, emitting per-batch nonzero 'reached' partials — no
    frontier queue ever ships, no edge is held on the driver. Layer
    count is the hop bound; a diameter-unbounded variant would switch
    to the labelprop exchange shape. The SQL oracle unrolls the layers
    as MATERIALIZED CTEs (the pagerank oracle lesson: plain CTEs inline
    exponentially)."""
    import ray
    import ray.data as rd

    from open_parse_ray.stages.relational import two_phase_agg

    import pyarrow.parquet as pq

    maxp = pq.read_table(table_path(sf_dir, "part"), columns=["p_partkey"])[
        "p_partkey"
    ]
    import pyarrow.compute as pc

    n_nodes = int(pc.max(maxp).as_py()) + 1
    edges = copurchase_edges(sf_dir, num_parts=num_parts).materialize()

    def deg_partial(b: pd.DataFrame) -> pd.DataFrame:
        acc = np.zeros(n_nodes, dtype=np.int64)
        if len(b):
            np.add.at(acc, b["u"].to_numpy(dtype=np.int64), 1)
            np.add.at(acc, b["v"].to_numpy(dtype=np.int64), 1)
        nz = np.nonzero(acc)[0]
        return pd.DataFrame({"node": nz.astype(np.int64), "s": acc[nz]})

    got = two_phase_agg(
        edges.map_batches(deg_partial, batch_format="pandas", batch_size=65536),
        ["node"],
        {"s": "sum"},
    ).to_pandas()
    deg = np.zeros(n_nodes, dtype=np.int64)
    deg[got["node"].to_numpy(dtype=np.int64)] = got["s"].to_numpy(dtype=np.int64)
    src = int(np.flatnonzero(deg > 0)[0])

    dist = np.full(n_nodes, -1, dtype=np.int64)
    dist[src] = 0
    frontier = np.zeros(n_nodes, dtype=bool)
    frontier[src] = True

    for hop in range(1, max_hops + 1):
        f_ref = ray.put(frontier)

        def reach_partial(b: pd.DataFrame) -> pd.DataFrame:
            f = ray.get(f_ref)
            u = b["u"].to_numpy(dtype=np.int64)
            v = b["v"].to_numpy(dtype=np.int64)
            hit = np.zeros(n_nodes, dtype=np.int64)
            hit[v[f[u]]] = 1
            hit[u[f[v]]] = 1
            nz = np.nonzero(hit)[0]
            return pd.DataFrame({"node": nz.astype(np.int64), "s": hit[nz]})

        reached = two_phase_agg(
            edges.map_batches(
                reach_partial, batch_format="pandas", batch_size=65536
            ),
            ["node"],
            {"s": "sum"},
        ).to_pandas()
        nodes = reached["node"].to_numpy(dtype=np.int64)
        new = nodes[dist[nodes] < 0]
        if not len(new):
            break
        dist[new] = hop
        frontier = np.zeros(n_nodes, dtype=bool)
        frontier[new] = True

    found = np.flatnonzero(dist >= 0)
    return rd.from_pandas(
        pd.DataFrame({"part": found.astype(np.int64), "dist": dist[found]})
    )


def related_parts_topk(sf_dir: str, k: int = 3, num_parts: Optional[int] = None):
    """The item-to-item recommendation TABLE: for every part, its top-k
    co-purchased parts ranked by (co-order count DESC, part id ASC) —
    copurchase_lift_pairs thresholds the pair set; this ranks it per
    item. Returns (part, rank, other, n_ab).

    Scale shape: per-order distinct pair counts mirrored to BOTH
    directions at the partial level (one order-salted exchange, the
    copurchase_edges invariant), then a part-salted exchange finishes
    the sums (all of a part's directed partials co-locate) and ranks
    within each part via one vectorized sort + cumcount (the
    top_orders_per_customer shape — hot parts never hit map_groups).
    TWO exchanges total; the standalone pair-salted finish was fused
    into the ranking exchange in round 4."""
    import ray.data as rd

    from open_parse_ray.sources.tables import table_path
    from open_parse_ray.stages.dedup import salted_groupby

    ds = rd.read_parquet(
        table_path(sf_dir, "lineitem"), columns=["l_orderkey", "l_partkey"]
    )

    def order_pair_counts(part: pd.DataFrame) -> pd.DataFrame:
        o = part["l_orderkey"].to_numpy(dtype=np.int64)
        p = part["l_partkey"].to_numpy(dtype=np.int64)
        key = np.unique(o * _OKEY_BASE + p)
        o, p = key // _OKEY_BASE, key % _OKEY_BASE
        starts, sizes = _group_layout(o)
        chunks = []
        for lf, rt in _grouped_pairs(starts, sizes):
            chunks.append(p[lf] * _OKEY_BASE + p[rt])
        if chunks:
            uniq, cnt = np.unique(np.concatenate(chunks), return_counts=True)
            pa, pb = uniq // _OKEY_BASE, uniq % _OKEY_BASE
            cnt = cnt.astype(np.int64)
        else:
            pa = pb = cnt = np.array([], dtype=np.int64)
        # mirror at the partial level: the next (part-salted) exchange
        # sees every directed partial for a part and finishes the sums
        return pd.DataFrame(
            {
                "part": np.concatenate([pa, pb]),
                "other": np.concatenate([pb, pa]),
                "n_ab": np.tile(cnt, 2),
            }
        )

    directed_partials = salted_groupby(
        ds, "l_orderkey", order_pair_counts, num_parts=num_parts
    )

    def finish_topk(g: pd.DataFrame) -> pd.DataFrame:
        key = g["part"].to_numpy(np.int64) * _OKEY_BASE + g["other"].to_numpy(
            np.int64
        )
        uniq, inv = np.unique(key, return_inverse=True)
        s = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(s, inv, g["n_ab"].to_numpy(np.int64))
        part, other = uniq // _OKEY_BASE, uniq % _OKEY_BASE
        order = np.lexsort((other, -s, part))
        part, other, s = part[order], other[order], s[order]
        run = np.ones(len(part), dtype=bool)
        run[1:] = part[1:] != part[:-1]
        idx = np.arange(len(part), dtype=np.int64)
        rank = idx - np.maximum.accumulate(np.where(run, idx, 0)) + 1
        m = rank <= k
        return pd.DataFrame(
            {"part": part[m], "rank": rank[m], "other": other[m], "n_ab": s[m]}
        )

    return salted_groupby(directed_partials, "part", finish_topk, num_parts=num_parts)


def recommend_parts_topk(
    sf_dir: str, k: int = 3, neighbor_cap: int = 16, num_parts: Optional[int] = None
):
    """User-level collaborative filtering ('customers who bought what
    you bought also bought...'): for every customer, the top-k parts
    they have NOT bought, scored by the summed co-purchase counts
    between each candidate and the customer's owned parts, where each
    owned part contributes only its ``neighbor_cap`` STRONGEST
    co-purchase neighbors (count DESC, part ASC) — the standard
    truncated item-neighborhood that every production item-based CF
    system uses, and the scale bound: without it the score table on a
    dense co-purchase graph is customers x parts (measured 230 s at
    sf0.1; truncated: seconds). The truncation is part of the
    operator's SPEC — the SQL oracle applies the identical row_number
    cutoff, so results stay exact. Returns
    (c_custkey, rank, part, score), ties broken (score DESC, part ASC).

    THREE slim exchanges, payloads never wider than three int64s (the
    round-4 fusion: lineitem used to cross twice — once for ownership,
    once for pair counts — and ownership dedupe/truncation each had
    their own exchange; all of that now rides two salts):
    (1) orderkey-salted tagged union co-locates lineitem's distinct
        (order, part) rows with orders' (order, cust) ONCE and emits
        both partition-deduped (cust, part) ownership rows AND
        mirror-directed co-purchase count partials (q, p, n);
    (2) part(q)-salted exchange finishes the directed counts (all of
        q's partials co-locate), truncates each q's neighborhood to
        its strongest neighbor_cap partners, makes ownership globally
        DISTINCT (every (cust, part=q) duplicate lands here), scores
        own x neighbors with composite-key partial sums, and forwards
        the deduped ownership rows for the anti-filter;
    (3) cust-salted finish sums scores, anti-filters candidates the
        customer already owns, and ranks with one vectorized sort +
        cumcount."""
    import ray.data as rd

    from open_parse_ray.sources.tables import table_path
    from open_parse_ray.stages.dedup import salted_groupby

    li = rd.read_parquet(
        table_path(sf_dir, "lineitem"), columns=["l_orderkey", "l_partkey"]
    )
    orders = rd.read_parquet(
        table_path(sf_dir, "orders"), columns=["o_orderkey", "o_custkey"]
    )

    # --- (1) ownership rows: co-partition lineitem with orders on orderkey
    def tag_li(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "okey": b["l_orderkey"].astype("int64"),
                "val": b["l_partkey"].astype("int64"),
                "side": np.int64(0),
            }
        )

    def tag_orders(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "okey": b["o_orderkey"].astype("int64"),
                "val": b["o_custkey"].astype("int64"),
                "side": np.int64(1),
            }
        )

    tagged = li.map_batches(tag_li, batch_format="pandas", batch_size=65536).union(
        orders.map_batches(tag_orders, batch_format="pandas", batch_size=65536)
    )

    def own_and_pairs(part: pd.DataFrame) -> pd.DataFrame:
        """One okey partition → partition-deduped ownership rows
        (side 0: q=part, a=cust) PLUS mirror-directed pair-count
        partials (side 1: q, a=neighbor, b=count). Pairing runs over
        per-order DISTINCT parts via the bounded-chunk triangle
        enumerator; mirroring at the partial level is what lets the
        next exchange finish sums per direction with one composite."""
        l_side = part[part["side"] == 0]
        o_side = part[part["side"] == 1][["okey", "val"]].rename(
            columns={"val": "cust"}
        )
        key = np.unique(
            l_side["okey"].to_numpy(dtype=np.int64) * _OKEY_BASE
            + l_side["val"].to_numpy(dtype=np.int64)
        )
        o, p = key // _OKEY_BASE, key % _OKEY_BASE
        own = (
            pd.DataFrame({"okey": o, "part": p})
            .merge(o_side, on="okey")[["cust", "part"]]
            .drop_duplicates()
        )
        starts, sizes = _group_layout(o)
        chunks = []
        for lf, rt in _grouped_pairs(starts, sizes):
            chunks.append(p[lf] * _OKEY_BASE + p[rt])
        if chunks:
            uniq, cnt = np.unique(np.concatenate(chunks), return_counts=True)
            pa, pb = uniq // _OKEY_BASE, uniq % _OKEY_BASE
            cnt = cnt.astype(np.int64)
        else:
            pa = pb = cnt = np.array([], dtype=np.int64)
        n_own, n_pr = len(own), len(pa)
        return pd.DataFrame(
            {
                "q": np.concatenate([own["part"].to_numpy(np.int64), pa, pb]),
                "a": np.concatenate([own["cust"].to_numpy(np.int64), pb, pa]),
                "b": np.concatenate([np.full(n_own, -1, dtype=np.int64), cnt, cnt]),
                "side": np.concatenate(
                    [
                        np.zeros(n_own, dtype=np.int64),
                        np.ones(2 * n_pr, dtype=np.int64),
                    ]
                ),
            }
        )

    mixed = salted_groupby(tagged, "okey", own_and_pairs, num_parts=num_parts)

    # --- (2) q-salted: finish counts, truncate, dedupe ownership, score
    def score_partial(part: pd.DataFrame) -> pd.DataFrame:
        own = part[part["side"] == 0][["q", "a"]].drop_duplicates()
        cn = part[part["side"] == 1]
        key = cn["q"].to_numpy(np.int64) * _OKEY_BASE + cn["a"].to_numpy(np.int64)
        uniq, inv = np.unique(key, return_inverse=True)
        s = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(s, inv, cn["b"].to_numpy(np.int64))
        q, p = uniq // _OKEY_BASE, uniq % _OKEY_BASE
        # truncate per q to the strongest neighbor_cap (n DESC, p ASC):
        # one lexsort + run-relative index, no Python loop
        order = np.lexsort((p, -s, q))
        q, p, s = q[order], p[order], s[order]
        run = np.ones(len(q), dtype=bool)
        run[1:] = q[1:] != q[:-1]
        idx = np.arange(len(q), dtype=np.int64)
        base = np.maximum.accumulate(np.where(run, idx, 0))
        keep = (idx - base) < neighbor_cap
        nbrs = pd.DataFrame({"q": q[keep], "p": p[keep], "n": s[keep]})
        ownr = own.rename(columns={"a": "cust"})
        j = ownr.merge(nbrs, on="q")
        key2 = j["cust"].to_numpy(np.int64) * _OKEY_BASE + j["p"].to_numpy(np.int64)
        uq, inv2 = np.unique(key2, return_inverse=True)
        sc = np.zeros(len(uq), dtype=np.int64)
        np.add.at(sc, inv2, j["n"].to_numpy(np.int64))
        n_sc, n_own = len(uq), len(ownr)
        return pd.DataFrame(
            {
                "cust": np.concatenate(
                    [uq // _OKEY_BASE, ownr["cust"].to_numpy(np.int64)]
                ),
                "p": np.concatenate([uq % _OKEY_BASE, ownr["q"].to_numpy(np.int64)]),
                "score": np.concatenate([sc, np.full(n_own, -1, dtype=np.int64)]),
                "side": np.concatenate(
                    [np.zeros(n_sc, dtype=np.int64), np.ones(n_own, dtype=np.int64)]
                ),
            }
        )

    final_in = salted_groupby(mixed, "q", score_partial, num_parts=num_parts)

    # --- (3) cust-salted finish: sum, anti-filter owned, rank
    def finish(part: pd.DataFrame) -> pd.DataFrame:
        sc = part[part["side"] == 0]
        key = sc["cust"].to_numpy(np.int64) * _OKEY_BASE + sc["p"].to_numpy(
            np.int64
        )
        uniq, inv = np.unique(key, return_inverse=True)
        s = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(s, inv, sc["score"].to_numpy(np.int64))
        ow = part[part["side"] == 1]
        owned_keys = np.unique(
            ow["cust"].to_numpy(np.int64) * _OKEY_BASE
            + ow["p"].to_numpy(np.int64)
        )
        keep = ~np.isin(uniq, owned_keys, assume_unique=True)
        cust, p, s = uniq[keep] // _OKEY_BASE, uniq[keep] % _OKEY_BASE, s[keep]
        order = np.lexsort((p, -s, cust))
        cust, p, s = cust[order], p[order], s[order]
        starts = np.ones(len(cust), dtype=bool)
        starts[1:] = cust[1:] != cust[:-1]
        idx = np.arange(len(cust), dtype=np.int64)
        base = np.maximum.accumulate(np.where(starts, idx, 0))
        rank = idx - base + 1
        m = rank <= k
        return pd.DataFrame(
            {
                "c_custkey": cust[m],
                "rank": rank[m],
                "part": p[m],
                "score": s[m],
            }
        )

    return salted_groupby(final_in, "cust", finish, num_parts=num_parts)


def copurchase_cheapest_paths(sf_dir: str, n_rounds: int = 4, num_parts: Optional[int] = None):
    """Weighted single-source shortest paths (Bellman-Ford, min-plus
    semiring) over the co-purchase graph: edge weight
    w = 1000 // co_count + 1 (stronger ties are cheaper), source = the
    smallest part with an edge; returns every part's cheapest path cost
    reachable within ``n_rounds`` relaxation rounds. Complements
    copurchase_distances (hop-count BFS) with the WEIGHTED traversal —
    the same node-bounded broadcast-vector shape, but the per-round
    combine is MIN, not sum (the min-plus member of the iterate family).

    Scale shape: the dist vector broadcasts per round (pagerank's node
    assumption); each edge block emits per-batch per-node MIN partials;
    edges only stream. The SQL oracle unrolls the rounds as
    MATERIALIZED CTEs with a min-combine per level.
    Returns (part, cost)."""
    import ray
    import ray.data as rd

    from open_parse_ray.stages.relational import two_phase_agg
    from open_parse_ray.stages.dedup import salted_groupby

    import pyarrow.parquet as pq
    import pyarrow.compute as pc

    maxp = pq.read_table(table_path(sf_dir, "part"), columns=["p_partkey"])[
        "p_partkey"
    ]
    n_nodes = int(pc.max(maxp).as_py()) + 1

    li = rd.read_parquet(
        table_path(sf_dir, "lineitem"), columns=["l_orderkey", "l_partkey"]
    )

    def order_pair_counts(part: pd.DataFrame) -> pd.DataFrame:
        o = part["l_orderkey"].to_numpy(dtype=np.int64)
        p = part["l_partkey"].to_numpy(dtype=np.int64)
        key = np.unique(o * _OKEY_BASE + p)
        o, p = key // _OKEY_BASE, key % _OKEY_BASE
        starts, sizes = _group_layout(o)
        chunks = []
        for lf, rt in _grouped_pairs(starts, sizes):
            chunks.append(p[lf] * _OKEY_BASE + p[rt])
        if chunks:
            uniq, cnt = np.unique(np.concatenate(chunks), return_counts=True)
        else:
            uniq = cnt = np.array([], dtype=np.int64)
        return pd.DataFrame(
            {
                "pa": uniq // _OKEY_BASE,
                "pb": uniq % _OKEY_BASE,
                "n": cnt.astype(np.int64),
            }
        ).astype("int64")

    def weighted_mirror(part: pd.DataFrame) -> pd.DataFrame:
        g = part.groupby(["pa", "pb"], as_index=False).agg(n=("n", "sum"))
        w = 1000 // g["n"].to_numpy(np.int64) + 1
        return pd.DataFrame(
            {
                "u": np.concatenate(
                    [g["pa"].to_numpy(np.int64), g["pb"].to_numpy(np.int64)]
                ),
                "v": np.concatenate(
                    [g["pb"].to_numpy(np.int64), g["pa"].to_numpy(np.int64)]
                ),
                "w": np.tile(w, 2),
            }
        )

    edges = salted_groupby(
        salted_groupby(li, "l_orderkey", order_pair_counts, num_parts=num_parts),
        lambda t: t["pa"].to_numpy() * _OKEY_BASE + t["pb"].to_numpy(),
        weighted_mirror,
        num_parts=num_parts,
    ).materialize()

    INF = np.int64(1 << 60)

    def min_partial(b: pd.DataFrame, dist_ref) -> pd.DataFrame:
        d = ray.get(dist_ref)
        u = b["u"].to_numpy(dtype=np.int64)
        v = b["v"].to_numpy(dtype=np.int64)
        w = b["w"].to_numpy(dtype=np.int64)
        fin = d[u] < INF
        if not fin.any():
            return pd.DataFrame(
                {"node": pd.Series(dtype="int64"), "s": pd.Series(dtype="int64")}
            )
        cand = np.full(n_nodes, INF, dtype=np.int64)
        np.minimum.at(cand, v[fin], d[u[fin]] + w[fin])
        nz = np.flatnonzero(cand < INF)
        return pd.DataFrame({"node": nz.astype(np.int64), "s": cand[nz]})

    # source = smallest node with an edge (exact: min over edge endpoints)
    src_df = two_phase_agg(
        edges.map_batches(
            lambda b: pd.DataFrame({"m": [np.int64(min(b["u"].min(), b["v"].min()))]})
            if len(b)
            else pd.DataFrame({"m": pd.Series(dtype="int64")}),
            batch_format="pandas",
            batch_size=65536,
        ).map_batches(
            lambda b: b.assign(k=np.int64(0)), batch_format="pandas", batch_size=None
        ),
        ["k"],
        {"m": "min"},
    ).to_pandas()
    src = int(src_df["m"].iloc[0])

    dist = np.full(n_nodes, INF, dtype=np.int64)
    dist[src] = 0

    for _ in range(n_rounds):
        dist_ref = ray.put(dist)
        got = two_phase_agg(
            edges.map_batches(
                min_partial,
                fn_kwargs={"dist_ref": dist_ref},
                batch_format="pandas",
                batch_size=65536,
            ),
            ["node"],
            {"s": "min"},
        ).to_pandas()
        if len(got):
            nodes = got["node"].to_numpy(dtype=np.int64)
            np.minimum.at(dist, nodes, got["s"].to_numpy(dtype=np.int64))

    found = np.flatnonzero(dist < INF)
    return rd.from_pandas(
        pd.DataFrame({"part": found.astype(np.int64), "cost": dist[found]})
    )


def copurchase_kcore(sf_dir: str, k: int = 68, rounds: int = 8, num_parts: Optional[int] = None):
    """k-core decomposition slice of the part co-purchase graph:
    survivors of ``rounds`` peel iterations (drop every node whose
    degree among CURRENT survivors is < k), with each survivor's final
    in-core degree — the dense-community extractor of the iterate
    family (pagerank sums, BFS reaches, Bellman-Ford mins, k-core
    FILTERS). Peeling is idempotent at the fixpoint, so 'exactly R
    rounds' is a well-defined spec that equals the true k-core whenever
    the graph converges within R (asserted by the sf-corpus fixpoint
    gate); the SQL oracle unrolls the same R filters as MATERIALIZED
    CTEs. Scale shape: the alive bitmap is NODE-bounded and broadcast
    per round (ray.put); every round streams the EDGE set once with
    per-batch alive-masked degree partials — no adjacency ever sits on
    the driver, no edge crosses an exchange after the initial distinct.
    Returns (part, core_deg) for surviving nodes."""
    import ray
    import ray.data as rd

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from open_parse_ray.stages.relational import two_phase_agg

    maxp = pq.read_table(table_path(sf_dir, "part"), columns=["p_partkey"])[
        "p_partkey"
    ]
    n_nodes = int(pc.max(maxp).as_py()) + 1
    edges = copurchase_edges(sf_dir, num_parts=num_parts).materialize()

    alive = np.ones(n_nodes, dtype=bool)
    deg = np.zeros(n_nodes, dtype=np.int64)
    converged = False
    for _ in range(rounds):
        a_ref = ray.put(alive)

        def deg_partial(b: pd.DataFrame) -> pd.DataFrame:
            a = ray.get(a_ref)
            u = b["u"].to_numpy(dtype=np.int64)
            v = b["v"].to_numpy(dtype=np.int64)
            m = a[u] & a[v]
            acc = np.zeros(n_nodes, dtype=np.int64)
            np.add.at(acc, u[m], 1)
            np.add.at(acc, v[m], 1)
            nz = np.nonzero(acc)[0]
            return pd.DataFrame({"node": nz.astype(np.int64), "s": acc[nz]})

        got = two_phase_agg(
            edges.map_batches(
                deg_partial, batch_format="pandas", batch_size=65536
            ),
            ["node"],
            {"s": "sum"},
        ).to_pandas()
        deg = np.zeros(n_nodes, dtype=np.int64)
        if len(got):
            deg[got["node"].to_numpy(dtype=np.int64)] = got["s"].to_numpy(
                dtype=np.int64
            )
        new = alive & (deg >= k)
        if np.array_equal(new, alive):
            converged = True
            break
        alive = new
        if not alive.any():
            converged = True
            break
    # after an early fixpoint break, `deg` already reflects `alive`;
    # if rounds ran out first the spec is the R-round slice and deg is
    # one filter behind — recount once for the reported in-core degree
    if not converged:
        a_ref = ray.put(alive)
        got = two_phase_agg(
            edges.map_batches(
                deg_partial, batch_format="pandas", batch_size=65536
            ),
            ["node"],
            {"s": "sum"},
        ).to_pandas()
        deg = np.zeros(n_nodes, dtype=np.int64)
        if len(got):
            deg[got["node"].to_numpy(dtype=np.int64)] = got["s"].to_numpy(
                dtype=np.int64
            )
    found = np.flatnonzero(alive)
    import pyarrow as pa

    # from_arrow (not from_pandas): an empty pandas frame loses its
    # column schema through the block conversion; Arrow keeps it
    return rd.from_arrow(
        pa.table(
            {
                "part": pa.array(found.astype(np.int64), pa.int64()),
                "core_deg": pa.array(deg[found], pa.int64()),
            }
        )
    )


def copurchase_strong_edges(sf_dir: str, min_ab: int = 3, num_parts: Optional[int] = None):
    """DISTINCT strong co-purchase edges: part pairs appearing together
    in ≥ ``min_ab`` distinct orders (u < v). Same two-exchange shape as
    :func:`copurchase_edges`, but the order-salted stage emits per-
    partition PAIR COUNTS (np.unique with counts — per-order distinct
    pairs, so counts are order-multiplicities) and the pair-salted stage
    finishes the sums and applies the threshold, so only qualifying
    (u, v) int64 rows survive the second exchange. ``min_ab`` is the
    scale bound: it prunes the quadratic pair tail exactly like
    copurchase_lift_pairs' min_ab."""
    import ray.data as rd

    from open_parse_ray.sources.tables import table_path
    from open_parse_ray.stages.dedup import salted_groupby

    ds = rd.read_parquet(
        table_path(sf_dir, "lineitem"), columns=["l_orderkey", "l_partkey"]
    )

    def order_pair_counts(part: pd.DataFrame) -> pd.DataFrame:
        o = part["l_orderkey"].to_numpy(dtype=np.int64)
        p = part["l_partkey"].to_numpy(dtype=np.int64)
        key = np.unique(o * _OKEY_BASE + p)
        o, p = key // _OKEY_BASE, key % _OKEY_BASE
        starts, sizes = _group_layout(o)
        chunks = []
        for lf, rt in _grouped_pairs(starts, sizes):
            chunks.append(p[lf] * _OKEY_BASE + p[rt])
        if chunks:
            uniq, cnt = np.unique(np.concatenate(chunks), return_counts=True)
        else:
            uniq = cnt = np.array([], dtype=np.int64)
        return pd.DataFrame(
            {"key": uniq, "n_ab": cnt.astype(np.int64)}
        ).astype("int64")

    partials = salted_groupby(ds, "l_orderkey", order_pair_counts, num_parts=num_parts)

    def threshold(part: pd.DataFrame) -> pd.DataFrame:
        if len(part) == 0:
            return pd.DataFrame({"u": [], "v": []}).astype("int64")
        tot = part.groupby("key", as_index=False)["n_ab"].sum()
        key = tot.loc[tot["n_ab"] >= min_ab, "key"].to_numpy(dtype=np.int64)
        return pd.DataFrame(
            {"u": key // _OKEY_BASE, "v": key % _OKEY_BASE}
        ).astype("int64")

    return salted_groupby(partials, "key", threshold, num_parts=num_parts)


def copurchase_components(
    sf_dir: str, min_ab: int = 3, rounds: int = 8, num_parts: Optional[int] = None
):
    """Connected components of the STRONG co-purchase graph (edges =
    pairs co-purchased in ≥ ``min_ab`` distinct orders) by ``rounds``
    of min-label propagation — the MIN-combine member of the iterate
    family (pagerank sums, BFS reaches, Bellman-Ford path mins, k-core
    filters). The spec is "label after R rounds": idempotent at the
    fixpoint (extra rounds are no-ops), and R bounds the label distance
    exactly like max_hops bounds BFS, so the SQL oracle can unroll the
    rounds as MATERIALIZED CTEs. Per round the node-bounded label
    vector broadcasts once (ray.put) and the edge set streams with
    per-batch np.minimum.at partials — no adjacency on the driver, no
    frontier ever ships. Returns (part, component) for every part with
    a strong edge; component ids are the component-minimum part id once
    converged."""
    import ray
    import ray.data as rd

    from open_parse_ray.stages.relational import two_phase_agg

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    maxp = pq.read_table(table_path(sf_dir, "part"), columns=["p_partkey"])[
        "p_partkey"
    ]
    n_nodes = int(pc.max(maxp).as_py()) + 1
    edges = copurchase_strong_edges(
        sf_dir, min_ab=min_ab, num_parts=num_parts
    ).materialize()

    def touch_partial(b: pd.DataFrame) -> pd.DataFrame:
        hit = np.zeros(n_nodes, dtype=np.int64)
        if len(b):
            hit[b["u"].to_numpy(dtype=np.int64)] = 1
            hit[b["v"].to_numpy(dtype=np.int64)] = 1
        nz = np.nonzero(hit)[0]
        return pd.DataFrame({"node": nz.astype(np.int64), "s": hit[nz]})

    got = two_phase_agg(
        edges.map_batches(touch_partial, batch_format="pandas", batch_size=65536),
        ["node"],
        {"s": "sum"},
    ).to_pandas()
    present = got["node"].to_numpy(dtype=np.int64)

    NO = np.iinfo(np.int64).max
    lbl = np.full(n_nodes, NO, dtype=np.int64)
    lbl[present] = present

    for _ in range(rounds):
        l_ref = ray.put(lbl)

        def min_partial(b: pd.DataFrame) -> pd.DataFrame:
            lv = ray.get(l_ref)
            u = b["u"].to_numpy(dtype=np.int64)
            v = b["v"].to_numpy(dtype=np.int64)
            cand = np.full(n_nodes, NO, dtype=np.int64)
            np.minimum.at(cand, v, lv[u])
            np.minimum.at(cand, u, lv[v])
            better = np.flatnonzero(cand < lv)
            return pd.DataFrame(
                {"node": better.astype(np.int64), "s": cand[better]}
            )

        upd = two_phase_agg(
            edges.map_batches(
                min_partial, batch_format="pandas", batch_size=65536
            ),
            ["node"],
            {"s": "min"},
        ).to_pandas()
        if len(upd) == 0:
            break
        nodes = upd["node"].to_numpy(dtype=np.int64)
        vals = upd["s"].to_numpy(dtype=np.int64)
        m = vals < lbl[nodes]
        if not m.any():
            break
        lbl[nodes[m]] = vals[m]

    return rd.from_pandas(
        pd.DataFrame(
            {"part": present.astype(np.int64), "component": lbl[present]}
        )
    )


HITS_SCALE = 10**6


def _hits_local(
    src: np.ndarray,
    dst: np.ndarray,
    w: np.ndarray,
    n_nodes: int,
    n_iter: int,
    scale: int,
):
    """Integer fixed-point HITS — the max-normalized member of the
    iterate family (pagerank = sum-combine, components = min-combine,
    kcore = peel, BFS/Bellman-Ford = relax; HITS alternates two vectors
    with a NORMALIZE step, which is where float HITS loses
    determinism). Spec: a' = Σ_src w·h over in-edges, then
    a = (a'·scale) // max(a', 1); symmetric for h over out-edges.
    Pure integers, order-free sums → bit-identical at any parallelism.
    Overflow: a' ≤ in_weight·scale; asserted < 2^62."""
    h = np.full(n_nodes, scale, dtype=np.int64)
    a = np.full(n_nodes, scale, dtype=np.int64)
    win = np.zeros(n_nodes, dtype=np.int64)
    np.add.at(win, dst, w)
    wout = np.zeros(n_nodes, dtype=np.int64)
    np.add.at(wout, src, w)
    assert int(max(win.max(initial=0), wout.max(initial=0))) * scale < 2**62
    for _ in range(n_iter):
        ap = np.zeros(n_nodes, dtype=np.int64)
        np.add.at(ap, dst, w * h[src])
        a = (ap * scale) // max(int(ap.max(initial=0)), 1)
        hp = np.zeros(n_nodes, dtype=np.int64)
        np.add.at(hp, src, w * a[dst])
        h = (hp * scale) // max(int(hp.max(initial=0)), 1)
    return h, a


def hits(
    edges,
    n_nodes: int,
    n_iter: int = 10,
    scale: int = HITS_SCALE,
    max_driver_edges: int = 1_000_000,
    force_distributed: bool = False,
):
    """HITS hubs/authorities over an edge Dataset (src, dst, w), node
    ids dense in [0, n_nodes). Returns (node, hub_fp, auth_fp). Same
    threshold-switch shape as :func:`pagerank`: ≤ max_driver_edges runs
    on the driver; larger graphs stream TWO edge scans per iteration
    (a-step then h-step) with the opposite vector broadcast via
    ray.put — the driver holds only node-sized arrays and the two
    normalization scalars, never edges. Both paths share the integer
    spec above and are equality-gated bit-for-bit."""
    import ray
    import ray.data as rd

    from open_parse_ray.stages.relational import two_phase_agg

    edges = edges.materialize()
    n_edges = edges.count()
    if n_edges <= max_driver_edges and not force_distributed:
        df = edges.to_pandas()
        h, a = _hits_local(
            df["src"].to_numpy(dtype=np.int64),
            df["dst"].to_numpy(dtype=np.int64),
            df["w"].to_numpy(dtype=np.int64),
            n_nodes,
            n_iter,
            scale,
        )
        return rd.from_pandas(
            pd.DataFrame(
                {
                    "node": np.arange(n_nodes, dtype=np.int64),
                    "hub_fp": h,
                    "auth_fp": a,
                }
            )
        )

    def _collect_vec(partials) -> np.ndarray:
        got = two_phase_agg(partials, ["node"], {"s": "sum"}).to_pandas()
        vec = np.zeros(n_nodes, dtype=np.int64)
        vec[got["node"].to_numpy(dtype=np.int64)] = got["s"].to_numpy(dtype=np.int64)
        return vec

    def _sweep(vec_ref, gather_from: str, emit_to: str):
        def partial(b: pd.DataFrame) -> pd.DataFrame:
            v = ray.get(vec_ref)
            s = b["src"].to_numpy(dtype=np.int64)
            d = b["dst"].to_numpy(dtype=np.int64)
            ww = b["w"].to_numpy(dtype=np.int64)
            gather = s if gather_from == "src" else d
            emit = d if emit_to == "dst" else s
            acc = np.zeros(n_nodes, dtype=np.int64)
            np.add.at(acc, emit, ww * v[gather])
            nz = np.nonzero(acc)[0]
            return pd.DataFrame({"node": nz.astype(np.int64), "s": acc[nz]})

        return _collect_vec(
            edges.map_batches(partial, batch_format="pandas", batch_size=65536)
        )

    h = np.full(n_nodes, scale, dtype=np.int64)
    for _ in range(n_iter):
        ap = _sweep(ray.put(h), "src", "dst")
        a = (ap * scale) // max(int(ap.max(initial=0)), 1)
        hp = _sweep(ray.put(a), "dst", "src")
        h = (hp * scale) // max(int(hp.max(initial=0)), 1)

    return rd.from_pandas(
        pd.DataFrame(
            {"node": np.arange(n_nodes, dtype=np.int64), "hub_fp": h, "auth_fp": a}
        )
    )


def events_type_hits(sf_dir: str, n_iter: int = 10, **kw):
    """Corpus query: HITS hubs/authorities of event types over the
    per-user transition graph — "which types lead into the hot types"
    (hub) vs "which types get led into" (authority), the directed
    complement to events_type_pagerank on the SAME edge table. Node
    set = all distinct event types (isolated types keep score 0 after
    the first normalize — no in/out evidence). Returns
    (event_type, hub_fp, auth_fp), bit-equal to the unrolled DuckDB
    oracle."""
    import ray.data as rd

    from open_parse_ray.stages.relational import two_phase_agg

    edges_t = transition_edges(sf_dir).materialize()

    ds = rd.read_parquet(table_path(sf_dir, "events"), columns=["event_type"])

    def type_partial(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"event_type": b["event_type"].unique(), "one": np.int64(1)})

    types = sorted(
        two_phase_agg(
            ds.map_batches(type_partial, batch_format="pandas", batch_size=65536),
            ["event_type"],
            {"one": "sum"},
        )
        .to_pandas()["event_type"]
        .tolist()
    )
    tid = {t: i for i, t in enumerate(types)}

    def to_ids(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "src": b["src_t"].map(tid).to_numpy(dtype=np.int64),
                "dst": b["dst_t"].map(tid).to_numpy(dtype=np.int64),
                "w": b["w"].astype("int64"),
            }
        )

    scores = hits(
        edges_t.map_batches(to_ids, batch_format="pandas", batch_size=65536),
        n_nodes=len(types),
        n_iter=n_iter,
        **kw,
    ).to_pandas()
    out = pd.DataFrame(
        {
            "event_type": [types[i] for i in scores["node"]],
            "hub_fp": scores["hub_fp"].astype("int64"),
            "auth_fp": scores["auth_fp"].astype("int64"),
        }
    ).sort_values("event_type").reset_index(drop=True)
    return rd.from_pandas(out)


def events_type_hits_oracle_sql(n_iter: int = 10, scale: int = HITS_SCALE) -> str:
    """Unrolled-CTE DuckDB mirror of events_type_hits: per iteration an
    (a-sum, a-max, a-norm, h-sum, h-max, h-norm) CTE block with the
    same integer // arithmetic. MATERIALIZED throughout (plain CTEs
    inline exponentially — the pagerank lesson)."""
    parts = [
        f"""
        WITH seq AS (
          SELECT user_id, event_type AS src_t,
                 lead(event_type) OVER (
                   PARTITION BY user_id ORDER BY ts, event_id
                 ) AS dst_t
          FROM events
        ),
        e AS MATERIALIZED (
          SELECT src_t, dst_t, CAST(count(*) AS BIGINT) AS w
          FROM seq WHERE dst_t IS NOT NULL GROUP BY src_t, dst_t
        ),
        nodes AS MATERIALIZED (SELECT DISTINCT event_type AS node FROM events),
        h0 AS MATERIALIZED (SELECT node, CAST({scale} AS BIGINT) AS v FROM nodes)"""
    ]
    for k in range(1, n_iter + 1):
        parts.append(
            f""",
        ap{k} AS MATERIALIZED (
          SELECT n.node, coalesce(s.s, 0) AS v
          FROM nodes n LEFT JOIN (
            SELECT ed.dst_t AS node, sum(ed.w * h.v) AS s
            FROM e ed JOIN h{k - 1} h ON h.node = ed.src_t
            GROUP BY ed.dst_t) s ON s.node = n.node
        ),
        a{k} AS MATERIALIZED (
          SELECT node,
                 (v * {scale}) // greatest((SELECT max(v) FROM ap{k}), 1) AS v
          FROM ap{k}
        ),
        hp{k} AS MATERIALIZED (
          SELECT n.node, coalesce(s.s, 0) AS v
          FROM nodes n LEFT JOIN (
            SELECT ed.src_t AS node, sum(ed.w * a.v) AS s
            FROM e ed JOIN a{k} a ON a.node = ed.dst_t
            GROUP BY ed.src_t) s ON s.node = n.node
        ),
        h{k} AS MATERIALIZED (
          SELECT node,
                 (v * {scale}) // greatest((SELECT max(v) FROM hp{k}), 1) AS v
          FROM hp{k}
        )"""
        )
    parts.append(
        f"""
        SELECT n.node AS event_type,
               CAST(h.v AS BIGINT) AS hub_fp,
               CAST(a.v AS BIGINT) AS auth_fp
        FROM nodes n
        JOIN h{n_iter} h ON h.node = n.node
        JOIN a{n_iter} a ON a.node = n.node
        ORDER BY event_type"""
    )
    return "".join(parts)
