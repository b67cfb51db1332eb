"""Tests for the round-1 extension operators: multi-way join (TPC-H
Q5-style), distributed count-distinct, exact histogram quantiles,
interval (band) join, term frequency / document frequency, and
deterministic hash sampling. Hand-built boundary cases plus DuckDB
cross-checks on the sf0.001 tables."""

import hashlib

import duckdb
import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


def _df(res) -> pd.DataFrame:
    return res.to_pandas()


def _sorted(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _duck(sql: str, **tables) -> pd.DataFrame:
    con = duckdb.connect()
    for name, obj in tables.items():
        if isinstance(obj, str):
            con.execute(f"CREATE VIEW {name} AS SELECT * FROM '{obj}'")
        else:
            con.register(name, obj)
    return con.sql(sql).df()


def test_events_followup_boundaries(ray_session, tmp_path):
    """Band-join semantics at the window edges: strictly-after start,
    inclusive end, same-user-only, clicks-only."""
    from open_parse_ray.stages.relational import events_followup

    t0 = pd.Timestamp("2024-01-01 00:00:00")
    rows = [
        # view by user 1 at t0
        (1, t0, 1, "view", 1.0, ""),
        (2, t0, 1, "click", 1.0, ""),  # ts == view ts -> NOT counted (strict >)
        (3, t0 + pd.Timedelta(microseconds=1), 1, "click", 1.0, ""),  # counted
        (4, t0 + pd.Timedelta(minutes=30), 1, "click", 1.0, ""),  # inclusive end
        (5, t0 + pd.Timedelta(minutes=30, microseconds=1), 1, "click", 1.0, ""),  # out
        (6, t0 + pd.Timedelta(minutes=5), 2, "click", 1.0, ""),  # other user
        (7, t0 + pd.Timedelta(minutes=5), 1, "purchase", 1.0, ""),  # not a click
        # view by user 3 with no clicks at all
        (8, t0, 3, "view", 1.0, ""),
    ]
    ev = pd.DataFrame(
        rows, columns=["event_id", "ts", "user_id", "event_type", "value", "props"]
    )
    ev.to_parquet(tmp_path / "events.parquet")
    out = _df(events_followup(str(tmp_path))).set_index("event_id")
    assert out.loc[1, "n_followups"] == 2  # events 3 and 4
    assert out.loc[8, "n_followups"] == 0
    assert len(out) == 2  # only view events emitted


def test_events_quantiles_hand_case(ray_session, tmp_path):
    """Discrete quantile = smallest v with cum_count >= ceil(n*p/100)."""
    from open_parse_ray.stages.relational import events_quantiles

    vals = [0.01 * v for v in range(1, 101)]  # cents 1..100, one each
    ev = pd.DataFrame(
        {
            "event_id": range(100),
            "ts": pd.Timestamp("2024-01-01"),
            "user_id": 1,
            "event_type": "view",
            "value": vals,
            "props": "",
        }
    )
    ev.to_parquet(tmp_path / "events.parquet")
    out = _df(events_quantiles(str(tmp_path))).set_index("p_pct")
    # n=100: ceil(100*p/100) = p -> quantile value == p cents exactly
    for p in (25, 50, 75, 90, 99):
        assert out.loc[p, "v_cents"] == p


def test_distinct_users_by_type_hand_case(ray_session, tmp_path):
    from open_parse_ray.stages.relational import distinct_users_by_type

    ev = pd.DataFrame(
        {
            "event_id": range(6),
            "ts": pd.Timestamp("2024-01-01"),
            "user_id": [1, 1, 2, 7, 7, 7],
            "event_type": ["a", "a", "a", "b", "b", "a"],
            "value": 0.0,
            "props": "",
        }
    )
    ev.to_parquet(tmp_path / "events.parquet")
    out = _df(distinct_users_by_type(str(tmp_path))).set_index("event_type")
    assert out.loc["a", "n_users"] == 3  # users 1, 2, 7
    assert out.loc["b", "n_users"] == 1  # user 7


def test_local_supplier_revenue_matches_duckdb(ray_session):
    from open_parse_ray.stages.relational import local_supplier_revenue

    got = _sorted(_df(local_supplier_revenue(SF)))
    want = _sorted(
        _duck(
            """
            SELECT n.n_name AS n_name,
                   CAST(sum(CAST(round(l.l_extendedprice * (1 - l.l_discount) * 100) AS BIGINT)) AS BIGINT)
                       AS revenue_cents,
                   count(*) AS n_items
            FROM lineitem l
            JOIN orders o ON l.l_orderkey = o.o_orderkey
            JOIN customer c ON o.o_custkey = c.c_custkey
            JOIN supplier s ON l.l_suppkey = s.s_suppkey
            JOIN nation n ON c.c_nationkey = n.n_nationkey
            WHERE c.c_nationkey = s.s_nationkey
            GROUP BY n.n_name
            """,
            lineitem=f"{SF}/lineitem.parquet",
            orders=f"{SF}/orders.parquet",
            customer=f"{SF}/customer.parquet",
            supplier=f"{SF}/supplier.parquet",
            nation=f"{SF}/nation.parquet",
        )
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_top_terms_and_doc_freq_match_duckdb(ray_session):
    from open_parse_ray.stages.analysis import term_doc_freq, top_terms

    got = _df(top_terms(SF))
    want = _duck(
        """
        WITH w AS (
          SELECT unnest(regexp_split_to_array(trim(text), '\\s+')) AS term
          FROM documents WHERE trim(text) <> ''
        ), c AS (SELECT term, count(*) AS n FROM w GROUP BY term)
        SELECT CAST(row_number() OVER (ORDER BY n DESC, term) AS BIGINT) AS rank,
               term, n
        FROM c ORDER BY n DESC, term LIMIT 20
        """,
        documents=f"{SF}/documents.parquet",
    )
    pd.testing.assert_frame_equal(
        _sorted(got), _sorted(want), check_dtype=False
    )

    got_df = _sorted(_df(term_doc_freq(SF)))
    want_df = _sorted(
        _duck(
            """
            WITH w AS (
              SELECT doc_id,
                     unnest(list_distinct(regexp_split_to_array(trim(text), '\\s+'))) AS term
              FROM documents WHERE trim(text) <> ''
            )
            SELECT term, count(*) AS df FROM w GROUP BY term
            """,
            documents=f"{SF}/documents.parquet",
        )
    )
    pd.testing.assert_frame_equal(got_df, want_df, check_dtype=False)


def test_sample_documents_deterministic_md5_rule(ray_session):
    from open_parse_ray.stages.analysis import sample_documents

    got = _df(sample_documents(SF))
    assert len(got) > 0
    for d in got["doc_id"]:
        assert hashlib.md5(str(int(d)).encode()).hexdigest() < "2"
    # deterministic: second run identical
    again = _df(sample_documents(SF))
    pd.testing.assert_frame_equal(
        _sorted(got), _sorted(again), check_dtype=False
    )


def test_events_followup_matches_duckdb(ray_session):
    from open_parse_ray.stages.relational import events_followup

    got = _sorted(_df(events_followup(SF)))
    want = _sorted(
        _duck(
            """
            SELECT a.event_id,
                   CAST(count(b.event_id) AS BIGINT) AS n_followups
            FROM events a
            LEFT JOIN events b
              ON b.user_id = a.user_id AND b.event_type = 'click'
             AND b.ts > a.ts AND b.ts <= a.ts + INTERVAL 30 MINUTE
            WHERE a.event_type = 'view'
            GROUP BY a.event_id
            """,
            events=f"{SF}/events.parquet",
        )
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_anti_join_hand_case(ray_session, tmp_path):
    """Customers 1,2; only customer 1 has an URGENT order."""
    from open_parse_ray.stages.relational import customers_no_urgent_orders

    pd.DataFrame(
        {
            "c_custkey": [1, 2],
            "c_name": ["a", "b"],
            "c_nationkey": [0, 0],
            "c_acctbal": [10.0, 20.5],
            "c_mktsegment": ["X", "X"],
        }
    ).to_parquet(tmp_path / "customer.parquet")
    pd.DataFrame(
        {
            "o_orderkey": [100, 101],
            "o_custkey": [1, 2],
            "o_orderstatus": ["O", "O"],
            "o_totalprice": [1.0, 2.0],
            "o_orderdate": pd.Timestamp("2024-01-01"),
            "o_orderpriority": ["1-URGENT", "3-MEDIUM"],
        }
    ).to_parquet(tmp_path / "orders.parquet")
    out = _df(customers_no_urgent_orders(str(tmp_path)))
    assert list(out["c_custkey"]) == [2]
    assert list(out["acctbal_cents"]) == [2050]


def test_grouped_topk_hand_case(ray_session, tmp_path):
    from open_parse_ray.stages.relational import top_orders_per_customer

    pd.DataFrame(
        {
            "o_orderkey": [1, 2, 3, 4, 5, 6],
            "o_custkey": [7, 7, 7, 7, 8, 8],
            "o_orderstatus": "O",
            "o_totalprice": [5.0, 9.0, 9.0, 1.0, 3.0, 2.0],
            "o_orderdate": pd.Timestamp("2024-01-01"),
            "o_orderpriority": "3-MEDIUM",
        }
    ).to_parquet(tmp_path / "orders.parquet")
    out = _df(top_orders_per_customer(str(tmp_path), k=3))
    c7 = out[out["o_custkey"] == 7].sort_values("rank")
    # price ties (9.0, 9.0) break by orderkey ascending
    assert list(c7["o_orderkey"]) == [2, 3, 1]
    assert list(c7["rank"]) == [1, 2, 3]
    c8 = out[out["o_custkey"] == 8].sort_values("rank")
    assert list(c8["o_orderkey"]) == [5, 6]


def test_hll_accuracy_vs_exact(ray_session, tmp_path):
    """HLL estimate within 5% of the exact distinct count (4096
    registers -> ~1.6% std error), across cardinalities spanning the
    linear-counting and raw-estimate regimes."""
    from open_parse_ray.stages.relational import approx_distinct_users

    rows = []
    eid = 0
    for et, n_users in [("tiny", 17), ("mid", 900), ("big", 20000)]:
        for u in range(n_users):
            rows.append((eid, pd.Timestamp("2024-01-01"), u * 31 + 7, et, 0.0, ""))
            eid += 1
    ev = pd.DataFrame(
        rows, columns=["event_id", "ts", "user_id", "event_type", "value", "props"]
    )
    ev.to_parquet(tmp_path / "events.parquet")
    out = _df(approx_distinct_users(str(tmp_path))).set_index("event_type")
    for et, n_users in [("tiny", 17), ("mid", 900), ("big", 20000)]:
        est = out.loc[et, "approx_users"]
        assert abs(est - n_users) / n_users < 0.05, (et, est, n_users)


def test_hll_merge_associativity():
    """Register-level merge (elementwise max) equals single-pass build —
    the property that makes the sketch retry/partition-order safe."""
    import numpy as np

    from open_parse_ray.stages.relational import _hll_registers

    rng = np.random.RandomState(7)
    h = rng.randint(0, 2**63, size=10000).astype(np.uint64)
    whole = _hll_registers(h)
    merged = np.maximum.reduce(
        [_hll_registers(part) for part in np.array_split(h, 7)]
    )
    assert (whole == merged).all()


def test_doc_embeddings_deterministic_and_normalized(ray_session):
    from open_parse_ray.stages.analysis import doc_embeddings

    a = _df(doc_embeddings(SF)).sort_values("doc_id").reset_index(drop=True)
    b = _df(doc_embeddings(SF)).sort_values("doc_id").reset_index(drop=True)
    assert len(a) == 500
    for va, vb in zip(a["embedding"], b["embedding"]):
        assert np.allclose(va, vb)  # parallelism/run invariant
        n = np.linalg.norm(va)
        assert n == 0 or abs(n - 1.0) < 1e-5  # L2-normalized (or empty text)


def test_events_props_stats_malformed_json(ray_session, tmp_path):
    """Malformed / missing-key props rows are skipped, not fatal."""
    from open_parse_ray.stages.relational import events_props_stats

    ev = pd.DataFrame(
        {
            "event_id": range(6),
            "ts": pd.Timestamp("2024-01-01"),
            "user_id": 1,
            "event_type": ["a"] * 6,
            "value": 0.0,
            "props": ['{"k": 5}', '{"k": -2}', "not json", '{"other": 1}', "", '{"k": 7}'],
        }
    )
    ev.to_parquet(tmp_path / "events.parquet")
    out = _df(events_props_stats(str(tmp_path))).set_index("event_type")
    assert out.loc["a", "n_with_k"] == 3
    assert out.loc["a", "sum_k"] == 10
    assert out.loc["a", "min_k"] == -2
    assert out.loc["a", "max_k"] == 7


def test_stratified_sample_exact_and_balanced(ray_session):
    """Exactly per_group docs per language, deterministic md5 order."""
    from open_parse_ray.stages.analysis import stratified_sample

    out = _df(stratified_sample(SF, per_group=5))
    counts = out.groupby("lang").size()
    assert (counts == 5).all()
    for lang, g in out.groupby("lang"):
        g = g.sort_values("rank")
        hashes = [hashlib.md5(str(int(d)).encode()).hexdigest() for d in g["doc_id"]]
        assert hashes == sorted(hashes)  # md5-ordered selection
    again = _df(stratified_sample(SF, per_group=5))
    pd.testing.assert_frame_equal(_sorted(out), _sorted(again))


def test_events_user_rolling_boundaries(ray_session):
    """First rows of each user sum only the rows that exist (ROWS
    frame semantics), and a frame larger than a user's history equals
    the user's running total."""
    import pandas as pd

    from open_parse_ray.stages.relational import events_user_rolling

    sf = "/root/testdata/sf0.001"
    out = events_user_rolling(sf, frame=10**6).to_pandas()
    import duckdb

    exp = duckdb.sql(
        f"""SELECT event_id,
               CAST(SUM(CAST(round(value * 100) AS BIGINT)) OVER (
                 PARTITION BY user_id ORDER BY ts, event_id) AS BIGINT) AS run
        FROM read_parquet('{sf}/events.parquet')"""
    ).df()
    m = out.merge(exp, on="event_id")
    assert (m["roll_cents"] == m["run"]).all()  # huge frame == running total


def test_compression_ratios_properties(ray_session):
    import zlib

    from open_parse_ray.stages.analysis import compression_ratios

    sf = "/root/testdata/sf0.001"
    out = compression_ratios(sf).to_pandas()
    assert (out["n_gz_bytes"] > 0).all()
    assert (out["n_gz_bytes"] <= out["n_bytes"] + 64).all()  # zlib overhead bound
    # determinism + direct-kernel equality on a sample row
    import pyarrow.parquet as pq

    doc = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id", "text"]).to_pylist()[5]
    row = out[out["doc_id"] == doc["doc_id"]].iloc[0]
    assert row["n_gz_bytes"] == len(zlib.compress(doc["text"].encode(), 6))
    # repetitive text compresses much better than high-entropy text
    rep = ("spam " * 500).encode()
    import numpy as _np

    rnd = bytes(_np.random.RandomState(0).randint(0, 256, len(rep), dtype=_np.uint8))
    assert len(zlib.compress(rep, 6)) * 10 < len(zlib.compress(rnd, 6))


def test_dsir_weights_reference_and_sanity(ray_session):
    """DSIR log-weights equal a local numpy reference bitwise, and the
    target slice (en) scores strictly higher on average than the rest."""
    import hashlib

    import numpy as np
    import pyarrow.parquet as pq

    from open_parse_ray.stages.analysis import _DSIR_BUCKETS, dsir_weights

    sf = "/root/testdata/sf0.001"
    got = dsir_weights(sf).to_pandas().sort_values("doc_id").reset_index(drop=True)
    docs = pq.read_table(
        f"{sf}/documents.parquet", columns=["doc_id", "text", "lang"]
    ).to_pandas()

    def feats(t):
        w = t.split()
        return np.asarray(
            [
                int(hashlib.md5((w[i] + " " + w[i + 1]).encode()).hexdigest()[:16], 16)
                % _DSIR_BUCKETS
                for i in range(len(w) - 1)
            ],
            dtype=np.int64,
        )

    corpus = np.zeros(_DSIR_BUCKETS, np.int64)
    target = np.zeros(_DSIR_BUCKETS, np.int64)
    for t, l in zip(docs["text"], docs["lang"]):
        f = feats(t)
        if len(f) == 0:
            continue
        c = np.bincount(f, minlength=_DSIR_BUCKETS)
        corpus += c
        if l == "en":
            target += c
    lr = np.log((target + 1.0) / (target.sum() + _DSIR_BUCKETS)) - np.log(
        (corpus + 1.0) / (corpus.sum() + _DSIR_BUCKETS)
    )
    exp = np.asarray(
        [
            float(np.bincount(feats(t), minlength=_DSIR_BUCKETS) @ lr)
            if len(feats(t))
            else 0.0
            for t in docs["text"]
        ]
    )
    order = np.argsort(docs["doc_id"].to_numpy())
    assert np.array_equal(got["dsir_logw"].to_numpy(), exp[order])
    m = got.merge(docs[["doc_id", "lang"]], on="doc_id")
    assert (
        m[m["lang"] == "en"]["dsir_logw"].mean()
        > m[m["lang"] != "en"]["dsir_logw"].mean()
    )


def test_mg_compress_guarantee_and_exact_heavy_hitters(ray_session, tmp_path):
    """Misra-Gries machinery: (a) compression preserves the >N/(k+1)
    survival guarantee under an arbitrary merge tree on a synthetic
    skewed stream with vocab >> sketch size; (b) the full sketch+verify
    operator returns EXACTLY the terms with count > N // k, matching a
    local exact count."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from open_parse_ray.stages.analysis import heavy_hitter_terms, mg_compress

    # (a) pure-function guarantee: 3 heavy terms in a sea of 2000 rares
    rng = np.random.default_rng(7)
    stream = (
        ["alpha"] * 500 + ["beta"] * 300 + ["gamma"] * 200
        + [f"rare{i}" for i in rng.integers(0, 2000, size=1000)]
    )
    rng.shuffle(stream)
    k = 8
    # merge in chunks through MG compression (binary-ish tree)
    from collections import Counter

    summaries = []
    for i in range(0, len(stream), 100):
        summaries.append(mg_compress(dict(Counter(stream[i : i + 100])), k))
    while len(summaries) > 1:
        merged = Counter(summaries[0])
        merged.update(summaries[1])
        summaries = [mg_compress(dict(merged), k)] + summaries[2:]
    final = summaries[0]
    assert len(final) <= k
    n = len(stream)
    exact = Counter(stream)
    for term, c in exact.items():
        if c > n // (k + 1):
            assert term in final, term
        # MG never over-counts
        if term in final:
            assert final[term] <= c

    # (b) end-to-end operator on a synthetic skewed corpus
    docs = []
    for d in range(60):
        words = ["hot"] * 10 + [f"w{d}_{j}" for j in range(20)]
        docs.append((d, " ".join(words)))
    p = tmp_path / "documents.parquet"
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([d for d, _ in docs], pa.int64()),
                "text": [t for _, t in docs],
                "lang": ["en"] * len(docs),
                "source": ["s"] * len(docs),
                "n_chars": pa.array([len(t) for _, t in docs], pa.int64()),
            }
        ),
        p,
    )
    out = heavy_hitter_terms(str(tmp_path), k=30).to_pandas()
    total = sum(len(t.split()) for _, t in docs)
    cnt = Counter()
    for _, t in docs:
        cnt.update(t.split())
    want = sorted(
        [(t, c) for t, c in cnt.items() if c > total // 30],
        key=lambda x: (-x[1], x[0]),
    )
    got = list(zip(out["term"], out["n"]))
    assert got == want
    assert list(out["rank"]) == list(range(1, len(want) + 1))
    # 'hot' (600 occurrences of 1800) is the only term above total//30=60
    assert want == [("hot", 600)]


def test_lang_mix_rebalance_quota_semantics(ray_session):
    """Uniform-language rebalance on sf0.001: every language capped at
    total // n_langs; under-represented languages keep everything; the
    kept set is exactly the md5-first quota docs per language."""
    from open_parse_ray.stages.analysis import lang_mix_rebalance

    docs = pd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "lang"])
    total, n_langs = len(docs), docs["lang"].nunique()
    quota = total // n_langs
    out = lang_mix_rebalance(SF).to_pandas()
    sizes = out.groupby("lang")["doc_id"].size()
    for lang, c in docs.groupby("lang")["doc_id"].size().items():
        assert sizes.get(lang, 0) == min(int(c), quota)
    # content-addressed choice: md5-ascending prefix per language
    docs = docs.assign(
        h=[hashlib.md5(str(int(d)).encode()).hexdigest() for d in docs["doc_id"]]
    )
    for lang, grp in docs.groupby("lang"):
        want = set(
            grp.sort_values(["h", "doc_id"]).head(min(len(grp), quota))["doc_id"]
        )
        assert set(out[out["lang"] == lang]["doc_id"]) == want


def test_c4_line_filter_semantics(ray_session):
    """C4 badlines rules on the synthesized page lines: javascript
    boilerplate never survives, every kept line ends in terminal
    punctuation with >= 5 words, lorem/curly docs are dropped whole,
    and counts are consistent."""
    from open_parse_ray.stages.lines import (
        c4_keep_line,
        c4_line_filter,
        synth_page_lines,
    )

    out = c4_line_filter(SF).to_pandas()
    docs = pd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    by_id = dict(zip(docs["doc_id"], docs["text"]))
    # page-level drops happened (residue classes are populated)
    dropped = set(by_id) - set(out["doc_id"])
    assert any(d % 31 == 0 or d % 37 == 0 for d in dropped)
    for d in by_id:
        if d % 31 == 0 or d % 37 == 0:
            assert d not in set(out["doc_id"]), d
    for _, row in out.iterrows():
        kept = row["text"].split("\n")
        assert row["n_kept"] == len(kept)
        assert row["n_lines"] >= row["n_kept"] >= 3
        for ln in kept:
            assert ln[-1] in '.!?"'
            assert sum(1 for w in ln.split(" ") if w) >= 5
            assert "javascript" not in ln.lower()
        # kept set == local recompute
        want = [
            ln for ln in synth_page_lines(int(row["doc_id"]), by_id[row["doc_id"]])
            if c4_keep_line(ln)
        ]
        assert kept == want


def test_paragraph_dedup_removes_cross_doc_boilerplate(ray_session):
    """Corpus-level paragraph dedup: every injected boilerplate line
    (present in many docs) is removed from every doc; doc-unique chunk
    lines survive; counts are consistent with a local recompute."""
    from collections import Counter

    from open_parse_ray.stages.lines import BOILERPLATE, paragraph_dedup, synth_page_lines

    docs = pd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    pages = {int(d): synth_page_lines(int(d), t) for d, t in zip(docs["doc_id"], docs["text"])}
    nd: Counter = Counter()
    for lns in pages.values():
        nd.update(set(lns))
    dups = {ln for ln, c in nd.items() if c >= 2}
    assert set(BOILERPLATE) <= dups  # the injected signal is present

    out = paragraph_dedup(SF).to_pandas()
    assert set(out["doc_id"]) == set(pages)
    for _, row in out.iterrows():
        lns = pages[int(row["doc_id"])]
        want = [ln for ln in lns if ln not in dups]
        got = row["text"].split("\n") if row["text"] else []
        assert got == want
        assert row["n_paras"] == len(lns)
        assert row["n_removed"] == len(lns) - len(want)
        for b in BOILERPLATE:
            assert b not in got


def test_paragraph_dedup_distributed_equals_driver_path(ray_session):
    """Scale-safe switch gate (the semdedup_keep pattern): forcing the
    fully-distributed flag-join pass 2 (max_driver_lines=-1) yields a
    table identical to the default driver-broadcast path — same docs,
    same counts, same rebuilt text, byte for byte."""
    from open_parse_ray.stages.lines import paragraph_dedup

    drv = (
        paragraph_dedup(SF)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    dist = (
        paragraph_dedup(SF, max_driver_lines=-1)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(drv, dist[drv.columns])


def test_dsir_select_topn_matches_weights(ray_session):
    """dsir_select == top-n of the (bit-reproducible) dsir_weights
    table under (logw DESC, doc_id ASC), with 1-based ranks."""
    from open_parse_ray.stages.analysis import dsir_select, dsir_weights

    sf = "/root/testdata/sf0.001"
    w = dsir_weights(sf).to_pandas()
    want = (
        w.sort_values(["dsir_logw", "doc_id"], ascending=[False, True])
        .head(100)
        .reset_index(drop=True)
    )
    got = dsir_select(sf, n=100).to_pandas().sort_values("rank").reset_index(drop=True)
    assert list(got["doc_id"]) == list(want["doc_id"])
    assert np.array_equal(got["dsir_logw"].to_numpy(), want["dsir_logw"].to_numpy())
    assert list(got["rank"]) == list(range(1, 101))


def test_ccnet_perplexity_buckets_match_local_reference(ray_session):
    """ccnet_perplexity_buckets == a single-process numpy reference
    (same hashed-bigram add-one LM per lang trained on the doc_id%7==0
    slice, same nearest-rank tercile cutoffs, same value-threshold
    assignment), and is invariant to block structure."""
    import numpy as np
    import pandas as pd
    import pyarrow.parquet as pq

    from open_parse_ray.stages.analysis import (
        _DSIR_BUCKETS,
        _dsir_features,
        ccnet_perplexity_buckets,
    )
    from open_parse_ray.stages.quantiles import rank_of_percent

    sf = "/root/testdata/sf0.001"
    got = (
        ccnet_perplexity_buckets(sf).to_pandas().sort_values("doc_id").reset_index(drop=True)
    )

    df = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id", "text", "lang"]).to_pandas()
    langs = sorted(df["lang"].unique())
    logp = {}
    for lang in langs:
        c = np.zeros(_DSIR_BUCKETS, np.int64)
        for _, r in df[(df.lang == lang) & (df.doc_id % 7 == 0)].iterrows():
            f = _dsir_features(r["text"])
            if len(f):
                c += np.bincount(f, minlength=_DSIR_BUCKETS)
        logp[lang] = np.log((c + 1.0) / (c.sum() + _DSIR_BUCKETS))
    nll = []
    for _, r in df.iterrows():
        f = _dsir_features(r["text"])
        nll.append(
            float(-(np.bincount(f, minlength=_DSIR_BUCKETS) @ logp[r["lang"]]) / len(f))
            if len(f)
            else np.inf
        )
    df["nll"] = nll
    frames = []
    for lang in langs:
        sub = df[df.lang == lang]
        s = np.sort(sub["nll"].to_numpy())
        c33, c66 = s[rank_of_percent(33, len(s)) - 1], s[rank_of_percent(66, len(s)) - 1]
        frames.append(
            pd.DataFrame(
                {
                    "doc_id": sub["doc_id"],
                    "bucket_want": np.where(
                        sub["nll"] <= c33, "head",
                        np.where(sub["nll"] <= c66, "middle", "tail"),
                    ),
                    "nll_want": sub["nll"],
                }
            )
        )
    want = pd.concat(frames).sort_values("doc_id").reset_index(drop=True)
    m = got.merge(want, on="doc_id")
    assert (m["nll"] == m["nll_want"]).all()
    assert (m["bucket"] == m["bucket_want"]).all()
    # tercile balance up to ties
    sizes = got.groupby(["lang", "bucket"]).size()
    for lang in langs:
        n = int((got["lang"] == lang).sum())
        for b in ("head", "middle", "tail"):
            assert abs(int(sizes[(lang, b)]) - n / 3) <= 2


def test_learned_bpe_merges_match_local_trainer(ray_session):
    """Distributed BPE merge learning == the single-process reference
    trainer over the same word counts (same (count DESC, pair ASC)
    tie-break), and is invariant to vocab block structure."""
    import pandas as pd

    from open_parse_ray.stages.bpe import (
        learned_bpe_merges,
        train_bpe_local,
        word_counts,
    )

    sf = "/root/testdata/sf0.001"
    got = learned_bpe_merges(sf, n_merges=12).to_pandas()
    wc = word_counts(sf).to_pandas()
    ref = train_bpe_local(dict(zip(wc["word"], wc["n"])), 12)
    want = pd.DataFrame(
        {
            "rank": range(1, len(ref) + 1),
            "left": [m[0] for m in ref],
            "right": [m[1] for m in ref],
            "n": [m[2] for m in ref],
        }
    ).astype({"rank": "int64", "n": "int64"})
    pd.testing.assert_frame_equal(got, want)
    # merged tokens grow: later merges may reference earlier outputs
    toks = set()
    for _, r in got.iterrows():
        toks.add(r["left"] + r["right"])
    assert any(len(t) > 2 for t in toks)


def test_bpe_apply_merges_segments_deterministically():
    from open_parse_ray.stages.bpe import apply_merges

    ranks = {("l", "o"): 0, ("lo", "w"): 1, ("e", "r"): 2}
    assert apply_merges(tuple("lower"), ranks) == ("low", "er")
    assert apply_merges(tuple("low"), ranks) == ("low",)
    assert apply_merges(tuple("xyz"), ranks) == ("x", "y", "z")
    # lowest-rank-first, all occurrences in one pass
    assert apply_merges(tuple("lolo"), {("l", "o"): 0}) == ("lo", "lo")


def test_unicode_normalize_inverts_perturbations():
    """normalize ∘ synth_denormalized == identity on NFC-clean text:
    NFD expansion recomposed, CRLF folded, zero-width/control noise
    stripped; genuinely dirty inputs are repaired, clean ones are
    untouched."""
    import unicodedata

    from open_parse_ray.stages.analysis import (
        normalize_unicode_text,
        synth_denormalized,
    )

    texts = [
        "Héllo wörld\nsecond line with café and naïve ümlauts",
        "plain ascii only\nwith two lines",
        "",
        "tab\tand newline\nsurvive; ünïcödé stays",
    ]
    for t in texts:
        assert unicodedata.is_normalized("NFC", t)
        for d in range(14):
            dirty = synth_denormalized(t, d)
            assert normalize_unicode_text(dirty) == t
            if t:
                assert dirty != t  # the perturbation is real
    # normalization is idempotent and actually strips noise
    noisy = "a​b﻿c\x07d\r\ne"
    assert normalize_unicode_text(noisy) == "abcd\ne"
    assert normalize_unicode_text(normalize_unicode_text(noisy)) == "abcd\ne"


def test_doc_rollup_stats_levels_are_mutually_consistent(ray_session):
    """Every rollup level re-sums exactly to the grand total, and the
    fine level matches a direct pandas crosstab."""
    import pyarrow.parquet as pq

    from open_parse_ray.stages.analysis import doc_rollup_stats

    sf = "/root/testdata/sf0.001"
    out = doc_rollup_stats(sf).to_pandas()
    fine = out[(out.source != "ALL") & (out.lang != "ALL")]
    by_src = out[(out.source != "ALL") & (out.lang == "ALL")]
    by_lang = out[(out.source == "ALL") & (out.lang != "ALL")]
    total = out[(out.source == "ALL") & (out.lang == "ALL")]
    assert len(total) == 1
    for part in (fine, by_src, by_lang):
        assert part["n_docs"].sum() == total["n_docs"].iloc[0]
        assert part["total_chars"].sum() == total["total_chars"].iloc[0]

    df = pq.read_table(f"{sf}/documents.parquet", columns=["source", "lang", "n_chars"]).to_pandas()
    want = df.groupby(["source", "lang"], as_index=False).agg(
        n_docs=("n_chars", "size"), total_chars=("n_chars", "sum")
    )
    got = fine.sort_values(["source", "lang"]).reset_index(drop=True)
    want = want.sort_values(["source", "lang"]).reset_index(drop=True).astype(
        {"n_docs": "int64", "total_chars": "int64"}
    )
    import pandas as pd

    pd.testing.assert_frame_equal(got[["source", "lang", "n_docs", "total_chars"]], want)


def test_bpe_tokenize_counts_match_local_apply(ray_session):
    """Corpus re-tokenization with the learned merges == a local apply
    over the same merge table; merged tokens strictly shorten docs."""
    import pyarrow.parquet as pq

    from open_parse_ray.stages.bpe import (
        apply_merges,
        bpe_tokenize_counts,
        learned_bpe_merges,
    )

    sf = "/root/testdata/sf0.001"
    got = bpe_tokenize_counts(sf, n_merges=12).to_pandas().sort_values("doc_id").reset_index(drop=True)
    merges = learned_bpe_merges(sf, n_merges=12).to_pandas()
    ro = {(l, r): i for i, (l, r) in enumerate(zip(merges["left"], merges["right"]))}
    df = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id", "text"]).to_pandas()
    for _, r in df.sample(40, random_state=7).iterrows():
        words = r["text"].split()
        want = sum(len(apply_merges(tuple(w), ro)) for w in words)
        row = got[got.doc_id == r["doc_id"]].iloc[0]
        assert row["n_tokens_bpe"] == want
        assert row["n_words"] == len(words)
        if words:
            assert row["n_tokens_bpe"] <= sum(len(w) for w in words)


def test_mixture_manifest_budget_fill_semantics(ray_session):
    """Per source: kept docs are a prefix of the md5 order; the running
    total before each kept doc is under budget; the first dropped doc
    (if any) would have started at or past the budget."""
    import hashlib

    import pyarrow.parquet as pq

    from open_parse_ray.stages.analysis import (
        mixture_manifest,
        n_tokens_sql_semantics,
    )

    sf = "/root/testdata/sf0.001"
    budget = 600
    got = mixture_manifest(sf, budget_tokens=budget).to_pandas()
    df = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id", "source", "text"]).to_pandas()
    df["n_tokens"] = [n_tokens_sql_semantics(t) for t in df["text"]]
    df["h"] = [hashlib.md5(str(d).encode()).hexdigest() for d in df["doc_id"]]
    for src, sub in df.groupby("source"):
        sub = sub.sort_values(["h", "doc_id"]).reset_index(drop=True)
        cum = sub["n_tokens"].cumsum()
        want_keep = (cum - sub["n_tokens"]) < budget
        want_ids = list(sub["doc_id"][want_keep])
        got_ids = list(
            got[got.source == src].sort_values("cum_tokens")["doc_id"]
        )
        assert got_ids == want_ids, src
        # budget actually binds somewhere (the corpus exceeds it)
        assert (~want_keep).any()


def test_dup_span_excise_matches_local_reference(ray_session):
    """Excision == a single-process reference with identical window
    hashing: duplicated word positions cut, survivors rebuilt; docs
    without cross-doc grams pass through as their word join."""
    import hashlib

    import pyarrow.parquet as pq

    from open_parse_ray.stages.dedup import _SHINGLE_MIX, _hash_words, dup_span_excise

    sf = "/root/testdata/sf0.001"
    window, stride = 16, 8
    got = dup_span_excise(sf).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert (got["n_removed_words"] > 0).any()  # the signal is real

    df = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id", "text"]).to_pandas()
    gram_docs, grams_of = {}, {}
    for _, r in df.iterrows():
        words = r["text"].split()
        n = len(words)
        if n < window:
            grams_of[r["doc_id"]] = []
            continue
        wh = _hash_words(words)
        count = 1 + (n - window) // stride
        acc = np.zeros(count, dtype=np.uint64)
        starts = np.arange(count) * stride
        for j in range(window):
            acc = acc * _SHINGLE_MIX + wh[starts + j]
        hs = acc.view(np.int64)
        grams_of[r["doc_id"]] = list(zip(hs.tolist(), starts.tolist()))
        for h in set(hs.tolist()):
            gram_docs.setdefault(h, set()).add(r["doc_id"])
    for _, r in df.iterrows():
        words = r["text"].split()
        keep = np.ones(len(words), dtype=bool)
        for h, p in grams_of[r["doc_id"]]:
            if len(gram_docs.get(h, ())) >= 2:
                keep[p : p + window] = False
        kept = [w for w, k in zip(words, keep) if k]
        row = got[got.doc_id == r["doc_id"]].iloc[0]
        assert row["text_md5"] == hashlib.md5(" ".join(kept).encode()).hexdigest()
        assert row["n_removed_words"] == int((~keep).sum())
        assert row["n_words"] == len(words)


def test_corpus_report_single_fused_pass_consistency(ray_session):
    """The one-row data card agrees with independently-computed stats
    and is invariant to block structure."""
    import ray.data

    import pyarrow.parquet as pq

    from open_parse_ray.stages.analysis import corpus_report, n_tokens_sql_semantics

    sf = "/root/testdata/sf0.001"
    got = corpus_report(sf).to_pandas().iloc[0]
    df = pq.read_table(f"{sf}/documents.parquet").to_pandas()
    toks = [n_tokens_sql_semantics(t) for t in df["text"]]
    assert got["n_docs"] == len(df)
    assert got["total_chars"] == df["n_chars"].sum()
    assert got["total_tokens"] == sum(toks)
    assert got["n_blank"] == sum(1 for t in toks if t == 0)
    assert got["max_chars"] == df["n_chars"].max()
    assert got["min_chars"] == df["n_chars"].min()
    assert got["langs"] == ",".join(sorted(df["lang"].unique()))
    assert got["n_sources"] == df["source"].nunique()

    ctx = ray.data.DataContext.get_current()
    old = ctx.target_max_block_size
    try:
        ctx.target_max_block_size = 64 * 1024
        again = corpus_report(sf).to_pandas().iloc[0]
        assert (again == got).all()
    finally:
        ctx.target_max_block_size = old


def test_events_prior_window_counts_boundaries_and_parts(ray_session, tmp_path):
    """Pure time-range join (no equi-key): half-open [t-W, t) window at
    exact microsecond boundaries, zero-count rows kept, plus num_parts
    invariance on the corpus (the bucket exchange shape cannot depend
    on partition count)."""
    from open_parse_ray.stages.relational import events_prior_window_counts

    W = 600
    t0 = pd.Timestamp("2024-01-01 01:00:05")  # not bucket-aligned
    us = pd.Timedelta(microseconds=1)
    rows = pd.DataFrame(
        {
            "event_id": [1, 2, 3, 4, 5, 6, 7],
            "ts": [
                t0,  # the purchase under test
                t0 - pd.Timedelta(seconds=W),  # exactly t-W -> IN
                t0 - pd.Timedelta(seconds=W) - us,  # just before t-W -> OUT
                t0 - us,  # just before t -> IN
                t0,  # exactly t -> OUT (half-open)
                t0 + pd.Timedelta(seconds=5 * W),  # far future -> OUT
                pd.Timestamp("2024-01-01 00:00:00"),  # lonely purchase
            ],
            "user_id": np.int64(1),
            "event_type": [
                "purchase", "click", "click", "click", "click", "click",
                "purchase",
            ],
            "value": 1.0,
            "props": "{}",
        }
    )
    rows.to_parquet(tmp_path / "events.parquet")
    out = _df(events_prior_window_counts(str(tmp_path))).set_index("event_id")
    assert out.loc[1, "n_prior"] == 2  # events 2 and 4 only
    assert out.loc[7, "n_prior"] == 0  # zero-count purchases still emit
    assert len(out) == 2

    a = _sorted(_df(events_prior_window_counts(SF, num_parts=3)))
    b = _sorted(_df(events_prior_window_counts(SF, num_parts=32)))
    pd.testing.assert_frame_equal(a, b)


def test_orders_returned_semijoin_counts_order_once(ray_session, tmp_path):
    """Semi-join semantics: an order with MANY returned lines counts
    once; an order with no returned line does not count."""
    from open_parse_ray.stages.relational import orders_returned_semijoin

    pd.DataFrame(
        {
            "o_orderkey": [1, 2, 3],
            "o_custkey": [9, 9, 9],
            "o_orderstatus": "O",
            "o_totalprice": 1.0,
            "o_orderdate": pd.Timestamp("2024-01-01"),
            "o_orderpriority": ["1-URGENT", "1-URGENT", "5-LOW"],
        }
    ).to_parquet(tmp_path / "orders.parquet")
    pd.DataFrame(
        {
            "l_orderkey": [1, 1, 1, 2, 3],
            "l_partkey": 0,
            "l_suppkey": 0,
            "l_linenumber": np.arange(5, dtype=np.int32),
            "l_quantity": 1.0,
            "l_extendedprice": 1.0,
            "l_discount": 0.0,
            "l_tax": 0.0,
            "l_returnflag": ["R", "R", "R", "N", "R"],
            "l_linestatus": "O",
            "l_shipdate": pd.Timestamp("2024-01-01"),
        }
    ).to_parquet(tmp_path / "lineitem.parquet")
    out = (
        _df(orders_returned_semijoin(str(tmp_path)))
        .set_index("o_orderpriority")["n_orders"]
    )
    assert out["1-URGENT"] == 1  # order 1 once (3 R lines), order 2 excluded
    assert out["5-LOW"] == 1
    assert len(out) == 2


def test_apply_changelog_last_writer_wins(ray_session, tmp_path):
    """CDC merge hand-case: base-only doc keeps base fp; %5 doc takes
    rev1; %7 doc is deleted; %35 doc is deleted THEN resurrected by the
    higher-seq rev2 upsert (win-by-seq across op kinds)."""
    import hashlib

    from open_parse_ray.stages.incremental import apply_changelog

    pd.DataFrame(
        {"doc_id": [1, 5, 7, 35], "text": ["a", "b", "c", "d"]}
    ).to_parquet(tmp_path / "documents.parquet")
    out = _df(apply_changelog(str(tmp_path))).set_index("doc_id")["fp"]
    md5 = lambda s: hashlib.md5(s.encode()).hexdigest()
    assert out[1] == md5("a")
    assert out[5] == md5("b rev1")
    assert 7 not in out.index
    assert out[35] == md5("d rev2")
    assert len(out) == 3


def test_events_robust_stats_hand_case(ray_session, tmp_path):
    """Median/MAD at the discrete ceil-rank rule on a known vector:
    values [1,2,3,4,100] -> median 3 (rank ceil(5*50/100)=3), deviations
    [2,1,0,1,97] -> MAD 1."""
    from open_parse_ray.stages.relational import events_robust_stats

    pd.DataFrame(
        {
            "event_id": np.arange(5, dtype=np.int64),
            "ts": pd.Timestamp("2024-01-01"),
            "user_id": np.int64(1),
            "event_type": "click",
            "value": [0.01, 0.02, 0.03, 0.04, 1.00],
            "props": "{}",
        }
    ).to_parquet(tmp_path / "events.parquet")
    out = _df(events_robust_stats(str(tmp_path)))
    assert out.loc[0, "median_cents"] == 3
    assert out.loc[0, "mad_cents"] == 1


def test_frequent_term_pairs_apriori_pruning(ray_session, tmp_path):
    """A pair that meets min_pair but contains an infrequent term must
    NOT appear (a-priori semantics: both terms individually frequent),
    while a fully-frequent pair survives."""
    from open_parse_ray.stages.analysis import frequent_term_pairs

    pd.DataFrame(
        {
            "doc_id": np.arange(3, dtype=np.int64),
            "text": ["x y z", "x y z", "x y"],
            "lang": "en",
            "source": "s",
            "n_chars": 5,
        }
    ).to_parquet(tmp_path / "documents.parquet")
    out = _df(frequent_term_pairs(str(tmp_path), min_df=3, min_pair=2))
    got = set(zip(out["term_a"], out["term_b"]))
    # z has df=2 < 3: (x,z) and (y,z) pruned despite co-occurring twice
    assert got == {("x", "y")}
    assert out.set_index(["term_a", "term_b"]).loc[("x", "y"), "n_docs"] == 3


def test_events_session_ids_boundaries_and_consistency(ray_session, tmp_path):
    """Row-level sessionization: a gap of EXACTLY 30 min stays in the
    session (strict >), one microsecond more starts a new one; per-user
    max session_idx equals sessions_per_user's n_sessions on the
    corpus."""
    from open_parse_ray.stages.relational import (
        events_session_ids,
        sessions_per_user,
    )

    t0 = pd.Timestamp("2024-01-01 00:00:00")
    us = pd.Timedelta(microseconds=1)
    half_hour = pd.Timedelta(minutes=30)
    pd.DataFrame(
        {
            "event_id": [1, 2, 3, 4],
            "ts": [t0, t0 + half_hour, t0 + 2 * half_hour + us, t0],
            "user_id": np.asarray([7, 7, 7, 8], dtype=np.int64),
            "event_type": "click",
            "value": 1.0,
            "props": "{}",
        }
    ).to_parquet(tmp_path / "events.parquet")
    out = (
        _df(events_session_ids(str(tmp_path)))
        .set_index("event_id")["session_idx"]
    )
    assert out[1] == 1 and out[2] == 1  # exactly 30 min -> same session
    assert out[3] == 2  # 30 min + 1 us -> new session
    assert out[4] == 1  # other user restarts at 1

    ids = _df(events_session_ids(SF))
    per_user = ids.groupby("user_id")["session_idx"].max().sort_index()
    spu = (
        _df(sessions_per_user(SF)).set_index("user_id")["n_sessions"].sort_index()
    )
    assert (per_user == spu).all()


def test_fk_audit_detects_orphans(ray_session, tmp_path):
    """Orphan counting is per child ROW (a key appearing many times
    counts each row), and a clean relation reports zero."""
    from open_parse_ray.stages.relational import fk_audit

    pd.DataFrame({"c_custkey": [1, 2], "c_nationkey": [0, 0]}).to_parquet(
        tmp_path / "customer.parquet"
    )
    pd.DataFrame(
        {"o_orderkey": [10, 11, 12], "o_custkey": [1, 9, 9]}
    ).to_parquet(tmp_path / "orders.parquet")
    pd.DataFrame(
        {"l_orderkey": [10, 10, 99], "l_partkey": [5, 5, 5]}
    ).to_parquet(tmp_path / "lineitem.parquet")
    pd.DataFrame({"p_partkey": [5]}).to_parquet(tmp_path / "part.parquet")
    pd.DataFrame({"n_nationkey": [0]}).to_parquet(tmp_path / "nation.parquet")

    out = _df(fk_audit(str(tmp_path))).set_index("relation")
    assert out.loc["orders.o_custkey->customer", "n_orphans"] == 2
    assert out.loc["lineitem.l_orderkey->orders", "n_orphans"] == 1
    assert out.loc["lineitem.l_partkey->part", "n_orphans"] == 0
    assert out.loc["customer.c_nationkey->nation", "n_orphans"] == 0
    assert out["n_child"].tolist() == [3, 3, 3, 2]


def test_events_user_streaks_islands(ray_session, tmp_path):
    """Gaps-and-islands semantics: multiple events in one day count
    once; midnight boundaries split days; a 1-day gap breaks the
    streak but both islands count toward active days."""
    from open_parse_ray.stages.relational import events_user_streaks

    ts = [
        # user 1: days 0,1,2 (streak 3), then day 4 (gap) -> max 3, active 4
        "2024-01-01 09:00", "2024-01-01 23:59", "2024-01-02 00:00",
        "2024-01-03 12:00", "2024-01-05 01:00",
        # user 2: one day only
        "2024-02-10 10:00",
    ]
    pd.DataFrame(
        {
            "event_id": np.arange(len(ts), dtype=np.int64),
            "ts": pd.to_datetime(ts),
            "user_id": np.asarray([1, 1, 1, 1, 1, 2], dtype=np.int64),
            "event_type": "click",
            "value": 1.0,
            "props": "{}",
        }
    ).to_parquet(tmp_path / "events.parquet")
    out = _df(events_user_streaks(str(tmp_path))).set_index("user_id")
    assert out.loc[1, "max_streak_days"] == 3
    assert out.loc[1, "n_active_days"] == 4
    assert out.loc[2, "max_streak_days"] == 1
    assert out.loc[2, "n_active_days"] == 1


def test_events_max_concurrency_boundaries(ray_session, tmp_path):
    """Half-open interval semantics: an interval ending exactly when
    another starts does NOT overlap it; carry-in across time buckets
    is exercised by a pile-up spanning a bucket boundary."""
    from open_parse_ray.stages.relational import events_max_concurrency

    t0 = pd.Timestamp("2024-01-01 00:00:00")
    ts = [
        t0,                                   # [0, 300)
        t0 + pd.Timedelta(seconds=300),       # [300, 600) — no overlap with #1
        # pile-up straddling the 1h bucket boundary: three intervals
        # open at 3599.9s..3600.1s
        t0 + pd.Timedelta(seconds=3500),
        t0 + pd.Timedelta(seconds=3550),
        t0 + pd.Timedelta(seconds=3599),
    ]
    pd.DataFrame(
        {
            "event_id": np.arange(len(ts), dtype=np.int64),
            "ts": ts,
            "user_id": np.int64(1),
            "event_type": "click",
            "value": 1.0,
            "props": "{}",
        }
    ).to_parquet(tmp_path / "events.parquet")
    out = _df(events_max_concurrency(str(tmp_path)))
    assert out.loc[0, "max_concurrent"] == 3

    # num_parts invariance on the corpus
    a = _df(events_max_concurrency(SF, num_parts=3))
    b = _df(events_max_concurrency(SF, num_parts=32))
    assert a.equals(b)


def test_events_hourly_trend_known_slope(ray_session, tmp_path):
    """Hand case with a known exact slope: hourly totals 100, 200, 300
    cents at hours 0,1,2 -> slope exactly 100 cents/hour
    (num/den = 600/6); a flat type yields slope_num == 0."""
    from open_parse_ray.stages.relational import events_hourly_trend

    t0 = pd.Timestamp("2024-01-01 00:00:00")
    rows = []
    for h, cents in [(0, 100), (1, 200), (2, 300)]:
        rows.append(("up", t0 + pd.Timedelta(hours=h), cents / 100))
    for h in (0, 1, 2):
        rows.append(("flat", t0 + pd.Timedelta(hours=h), 0.50))
    df = pd.DataFrame(rows, columns=["event_type", "ts", "value"])
    df["event_id"] = np.arange(len(df), dtype=np.int64)
    df["user_id"] = np.int64(1)
    df["props"] = "{}"
    df.to_parquet(tmp_path / "events.parquet")

    out = (
        _df(events_hourly_trend(str(tmp_path))).set_index("event_type")
    )
    up = out.loc["up"]
    assert up["slope_num"] * 1 == 100 * up["slope_den"]  # slope == 100
    assert up["n_hours"] == 3
    assert out.loc["flat", "slope_num"] == 0


def test_events_grouping_sets_levels_consistent(ray_session):
    """All four levels derive from one finest table: per-type rows sum
    to the type marginal, marginals sum to the grand total, on both
    n and v_cents."""
    from open_parse_ray.stages.relational import events_grouping_sets

    out = _df(events_grouping_sets(SF))
    fine = out[(out["event_type"] != "*") & (out["hour_of_day"] >= 0)]
    by_t = out[(out["event_type"] != "*") & (out["hour_of_day"] == -1)]
    by_h = out[(out["event_type"] == "*") & (out["hour_of_day"] >= 0)]
    total = out[(out["event_type"] == "*") & (out["hour_of_day"] == -1)]
    for col in ("n", "v_cents"):
        agg = fine.groupby("event_type")[col].sum().sort_index()
        assert (agg == by_t.set_index("event_type")[col].sort_index()).all()
        agg_h = fine.groupby("hour_of_day")[col].sum().sort_index()
        assert (agg_h == by_h.set_index("hour_of_day")[col].sort_index()).all()
        assert total[col].iloc[0] == fine[col].sum()


def test_customer_rfm_segments_properties(ray_session):
    """Tercile sanity on the corpus: segments are 1..3 per dimension,
    roughly balanced (each tercile holds >= 15% of customers for F and
    M), and segment ordering is monotone in the underlying value."""
    from open_parse_ray.stages.relational import customer_rfm_segments

    out = _df(customer_rfm_segments(SF))
    assert len(out) == out["c_custkey"].nunique()
    for col in ("r_seg", "f_seg", "m_seg"):
        assert set(out[col]).issubset({1, 2, 3})
    for vcol, scol in (("r_days", "r_seg"), ("n_orders", "f_seg"),
                       ("m_cents", "m_seg")):
        g = out.groupby(scol)[vcol]
        mins, maxs = g.min(), g.max()
        for lo in sorted(mins.index)[:-1]:
            assert maxs[lo] <= mins[lo + 1] or maxs[lo] <= maxs[lo + 1]
    # monetary terciles are real terciles on this corpus
    share = out["m_seg"].value_counts(normalize=True)
    assert share.min() > 0.15


def test_customer_order_distribution_zero_class(ray_session, tmp_path):
    """The zero class comes from scalar arithmetic (|customer| minus the
    histogram's own mass), never a customer-side join: customers with no
    orders must appear as the n_orders=0 bucket, and the histogram must
    conserve both customers and orders."""
    from open_parse_ray.stages.relational import customer_order_distribution

    pd.DataFrame(
        {
            "c_custkey": [1, 2, 3, 4, 5],
            "c_name": ["a", "b", "c", "d", "e"],
            "c_nationkey": [0] * 5,
            "c_acctbal": [0.0] * 5,
            "c_mktsegment": ["X"] * 5,
        }
    ).to_parquet(tmp_path / "customer.parquet")
    pd.DataFrame(
        {
            "o_orderkey": [10, 11, 12],
            "o_custkey": [1, 1, 3],
            "o_orderstatus": ["O"] * 3,
            "o_totalprice": [1.0] * 3,
            "o_orderdate": pd.to_datetime(["2024-01-01"] * 3),
            "o_orderpriority": ["1-URGENT"] * 3,
        }
    ).to_parquet(tmp_path / "orders.parquet")
    out = _df(customer_order_distribution(str(tmp_path))).set_index("n_orders")
    # custs 2,4,5 have zero orders; cust 1 has two; cust 3 has one
    assert out.loc[0, "n_customers"] == 3
    assert out.loc[1, "n_customers"] == 1
    assert out.loc[2, "n_customers"] == 1
    assert out["n_customers"].sum() == 5
    assert (out.index * out["n_customers"]).sum() == 3


def test_dormant_balance_report_boundaries(ray_session, tmp_path):
    """Q22-shape boundaries: strictly-above-average (a customer AT the
    positive-balance average is excluded), negative balances excluded
    from both the average and the candidates, recent order excludes,
    old order does not."""
    from open_parse_ray.stages.relational import dormant_balance_report

    pd.DataFrame(
        {
            "c_custkey": [1, 2, 3, 4, 5, 6],
            "c_name": list("abcdef"),
            "c_nationkey": [0] * 6,
            # positive cents: 100,200,300,400,250 → n=5 tot=1250 avg=250
            "c_acctbal": [1.0, 2.0, 3.0, 4.0, -1.0, 2.5],
            "c_mktsegment": ["S1", "S1", "S2", "S3", "S2", "S2"],
        }
    ).to_parquet(tmp_path / "customer.parquet")
    pd.DataFrame(
        {
            "o_orderkey": [10, 11],
            "o_custkey": [4, 3],  # cust4 recent → excluded; cust3 old → kept
            "o_orderstatus": ["O", "O"],
            "o_totalprice": [1.0, 1.0],
            "o_orderdate": pd.to_datetime(["2000-06-01", "1999-01-01"]),
            "o_orderpriority": ["1-URGENT"] * 2,
        }
    ).to_parquet(tmp_path / "orders.parquet")
    out = _df(dormant_balance_report(str(tmp_path)))
    # only cust3 (bal 300 > avg 250, no recent order) survives;
    # cust6 sits exactly AT the average (250) and must be excluded
    assert len(out) == 1
    assert out.iloc[0]["c_mktsegment"] == "S2"
    assert out.iloc[0]["n_cust"] == 1
    assert out.iloc[0]["bal_cents"] == 300


def test_large_volume_orders_threshold_boundary(ray_session, tmp_path):
    """HAVING boundary: an order summing EXACTLY to the threshold is
    excluded (strict >), one unit above qualifies; quantities sum across
    lineitems of the same order."""
    from open_parse_ray.stages.relational import large_volume_orders

    pd.DataFrame(
        {
            "l_orderkey": [1, 1, 2, 2, 3],
            "l_partkey": [0] * 5,
            "l_suppkey": [0] * 5,
            "l_linenumber": [1, 2, 1, 2, 1],
            "l_quantity": [100.0, 150.0, 100.0, 151.0, 10.0],
            "l_extendedprice": [0.0] * 5,
            "l_discount": [0.0] * 5,
            "l_tax": [0.0] * 5,
            "l_returnflag": ["N"] * 5,
            "l_linestatus": ["O"] * 5,
            "l_shipdate": pd.to_datetime(["2000-01-01"] * 5),
        }
    ).to_parquet(tmp_path / "lineitem.parquet")
    pd.DataFrame(
        {
            "o_orderkey": [1, 2, 3],
            "o_custkey": [7, 8, 9],
            "o_orderstatus": ["O"] * 3,
            "o_totalprice": [10.0, 20.005, 30.0],
            "o_orderdate": pd.to_datetime(["2000-01-01"] * 3),
            "o_orderpriority": ["1-URGENT"] * 3,
        }
    ).to_parquet(tmp_path / "orders.parquet")
    pd.DataFrame(
        {
            "c_custkey": [7, 8, 9],
            "c_name": ["Customer7", "Customer8", "Customer9"],
            "c_nationkey": [0] * 3,
            "c_acctbal": [0.0] * 3,
            "c_mktsegment": ["X"] * 3,
        }
    ).to_parquet(tmp_path / "customer.parquet")
    out = _df(large_volume_orders(str(tmp_path)))
    # order 1 sums to exactly 250 → excluded; order 2 sums to 251 → kept
    assert out["o_orderkey"].tolist() == [2]
    row = out.iloc[0]
    assert row["total_qty"] == 251
    assert row["c_name"] == "Customer8"
    assert row["price_cents"] == 2001  # round-half-away on 20.005


def test_inverted_index_sharding_and_order(ray_session, tmp_path):
    """Postings are ascending within each doc-range shard, duplicate
    terms inside a doc count once, and a doc id on the shard boundary
    (128) lands in the next shard."""
    from open_parse_ray.stages.analysis import inverted_index

    pd.DataFrame(
        {
            "doc_id": [128, 1, 127, 2],
            "text": ["apple", "apple apple banana", "apple", "  "],
            "lang": ["en"] * 4,
            "source": ["s"] * 4,
            "n_chars": [5, 18, 5, 2],
        }
    ).to_parquet(tmp_path / "documents.parquet")
    out = (
        _df(inverted_index(str(tmp_path)))
        .set_index(["term", "shard"])
        .sort_index()
    )
    assert out.loc[("apple", 0), "postings"] == "1,127"
    assert out.loc[("apple", 0), "df"] == 2
    assert out.loc[("apple", 1), "postings"] == "128"
    assert out.loc[("banana", 0), "df"] == 1
    # blank doc contributes nothing
    assert len(out) == 3


def test_distinctive_terms_by_lang_hand_case(ray_session, tmp_path):
    """Known 2x2 tables: a term exclusive to one language scores
    a*d-b*c > 0 there and is absent (c*b dominance → negative score,
    pruned) elsewhere; a uniformly-distributed term scores zero and is
    pruned everywhere."""
    from open_parse_ray.stages.analysis import distinctive_terms_by_lang

    # 4 en docs all contain 'foo' and 'common'; 4 de docs contain only
    # 'common' → for ('en','foo'): a=4,b=0,c=0,d=4 → score 16;
    # ('en'|'de','common'): a=4,b=0,c=4,d=0 → score 0 (pruned)
    pd.DataFrame(
        {
            "doc_id": range(8),
            "text": ["foo common"] * 4 + ["common"] * 4,
            "lang": ["en"] * 4 + ["de"] * 4,
            "source": ["s"] * 8,
            "n_chars": [10] * 8,
        }
    ).to_parquet(tmp_path / "documents.parquet")
    out = _df(distinctive_terms_by_lang(str(tmp_path)))
    assert len(out) == 1
    row = out.iloc[0]
    assert (row["lang"], row["term"], row["rank"], row["score"]) == (
        "en",
        "foo",
        1,
        16,
    )


def test_user_journeys_truncation_and_tie_order(ray_session, tmp_path):
    """The cap truncates the journey but not n_events; simultaneous
    events order by event_id."""
    from open_parse_ray.stages.relational import user_journeys

    t0 = pd.Timestamp("2024-01-01")
    pd.DataFrame(
        {
            "event_id": [3, 1, 2, 10, 11],
            # user 1: events at t0 (ids 1,2 simultaneous) then t0+1h
            "ts": [t0 + pd.Timedelta(hours=1), t0, t0, t0, t0],
            "user_id": [1, 1, 1, 2, 2],
            "event_type": ["c", "a", "b", "x", "x"],
            "value": [0.0] * 5,
            "props": ["{}"] * 5,
        }
    ).to_parquet(tmp_path / "events.parquet")
    out = _df(user_journeys(str(tmp_path), max_len=2)).set_index("user_id")
    assert out.loc[1, "journey"] == "a>b"  # tie by event_id, capped at 2
    assert out.loc[1, "n_events"] == 3  # count is NOT truncated
    assert out.loc[2, "n_events"] == 2


def test_events_gap_histogram_buckets(ray_session, tmp_path):
    """Known gaps land in exact log2 buckets: 0s → -1, 1s → 1, 2s → 2,
    3s → 2, 4s → 3 (bit_length); gaps never cross users or types."""
    from open_parse_ray.stages.relational import events_gap_histogram

    t0 = pd.Timestamp("2024-01-01")
    s = pd.Timedelta(seconds=1)
    pd.DataFrame(
        {
            "event_id": range(8),
            # user 1 'a': 0s,1s,3s,7s,11s → gaps 1,2,4,4
            # user 1 'b' at 5s and user 2 'a' at 6s: no gaps (singletons)
            # user 2 'b': 0s,0.5s → sub-second gap → bucket -1
            "ts": [t0, t0 + s, t0 + 3 * s, t0 + 7 * s, t0 + 11 * s,
                   t0 + 5 * s, t0, t0 + pd.Timedelta(milliseconds=500)],
            "user_id": [1, 1, 1, 1, 1, 1, 2, 2],
            "event_type": ["a", "a", "a", "a", "a", "b", "b", "b"],
            "value": [0.0] * 8,
            "props": ["{}"] * 8,
        }
    ).to_parquet(tmp_path / "events.parquet")
    out = (
        _df(events_gap_histogram(str(tmp_path)))
        .set_index(["event_type", "bucket"])
        .sort_index()
    )
    # 'a' gaps: 1 (bucket 1), 2 (bucket 2), 4+4 (bucket 3)
    assert out.loc[("a", 1), "n"] == 1 and out.loc[("a", 1), "total_gap_s"] == 1
    assert out.loc[("a", 2), "n"] == 1 and out.loc[("a", 2), "total_gap_s"] == 2
    assert out.loc[("a", 3), "n"] == 2 and out.loc[("a", 3), "total_gap_s"] == 8
    # 'b' sub-second gap
    assert out.loc[("b", -1), "n"] == 1 and out.loc[("b", -1), "total_gap_s"] == 0
    assert len(out) == 4


def _write_lineitem(path, **cols):
    n = max(len(v) for v in cols.values() if hasattr(v, "__len__"))
    base = {
        "l_orderkey": [1] * n,
        "l_partkey": [0] * n,
        "l_suppkey": [0] * n,
        "l_linenumber": np.arange(n, dtype=np.int32),
        "l_quantity": [1.0] * n,
        "l_extendedprice": [1.0] * n,
        "l_discount": [0.0] * n,
        "l_tax": [0.0] * n,
        "l_returnflag": ["N"] * n,
        "l_linestatus": ["O"] * n,
        "l_shipdate": [pd.Timestamp("1996-06-01")] * n,
    }
    base.update(cols)
    pd.DataFrame(base).to_parquet(path / "lineitem.parquet")


def _write_orders(path, **cols):
    n = max(len(v) for v in cols.values() if hasattr(v, "__len__"))
    base = {
        "o_orderkey": np.arange(1, n + 1, dtype=np.int64),
        "o_custkey": [1] * n,
        "o_orderstatus": ["O"] * n,
        "o_totalprice": [1.0] * n,
        "o_orderdate": [pd.Timestamp("1996-01-01")] * n,
        "o_orderpriority": ["1-URGENT"] * n,
    }
    base.update(cols)
    pd.DataFrame(base).to_parquet(path / "orders.parquet")


def test_shipping_priority_hand_case(ray_session, tmp_path):
    """Q3 semantics: only BUILDING customers, only orders placed before
    the cutoff, and only revenue from lines shipping AFTER the cutoff
    (order 1 has one pre-cutoff line that must not count)."""
    from open_parse_ray.stages.relational import shipping_priority_top10

    pd.DataFrame(
        {
            "c_custkey": [1, 2],
            "c_name": ["a", "b"],
            "c_nationkey": [0, 0],
            "c_acctbal": [0.0, 0.0],
            "c_mktsegment": ["BUILDING", "AUTOMOBILE"],
        }
    ).to_parquet(tmp_path / "customer.parquet")
    _write_orders(
        tmp_path,
        o_orderkey=np.array([1, 2, 3], dtype=np.int64),
        o_custkey=[1, 2, 1],
        o_orderdate=[
            pd.Timestamp("1997-06-01"),
            pd.Timestamp("1997-06-01"),
            pd.Timestamp("1998-06-01"),  # placed after cutoff → excluded
        ],
        o_orderpriority=["1-URGENT", "2-HIGH", "3-MEDIUM"],
    )
    _write_lineitem(
        tmp_path,
        l_orderkey=[1, 1, 2, 3],
        l_extendedprice=[100.0, 40.0, 100.0, 100.0],
        l_shipdate=[
            pd.Timestamp("1998-02-01"),
            pd.Timestamp("1997-12-01"),  # shipped pre-cutoff → not revenue
            pd.Timestamp("1998-02-01"),
            pd.Timestamp("1998-07-01"),
        ],
    )
    out = _df(shipping_priority_top10(str(tmp_path)))
    assert out["l_orderkey"].tolist() == [1]
    assert out["revenue_cents"].tolist() == [10000]
    assert out["o_orderpriority"].tolist() == ["1-URGENT"]


def test_promo_revenue_share_bit_boundaries(ray_session, tmp_path):
    """The packbits partkey bitmap must be exact across byte boundaries:
    promo flags on keys 7, 8, 16 (bit 7 of byte 0, bit 0 of bytes 1 and
    2) and non-promo neighbors must not bleed."""
    from open_parse_ray.stages.relational import promo_revenue_share

    keys = np.arange(1, 18, dtype=np.int64)
    pd.DataFrame(
        {
            "p_partkey": keys,
            "p_name": "p",
            "p_brand": "Brand#1",
            "p_type": ["PROMO" if k in (7, 8, 16) else "STANDARD" for k in keys],
            "p_size": 1,
            "p_retailprice": 1.0,
        }
    ).to_parquet(tmp_path / "part.parquet")
    _write_lineitem(
        tmp_path,
        l_orderkey=[1] * 17,
        l_partkey=keys,
        l_extendedprice=[10.0] * 17,
        l_shipdate=[pd.Timestamp("1996-03-15")] * 17,
    )
    out = _df(promo_revenue_share(str(tmp_path)))
    assert len(out) == 1
    row = out.iloc[0]
    assert row["ship_month"] == (1996 - 1970) * 12 + 2
    assert row["promo_cents"] == 3000 and row["total_cents"] == 17000
    assert row["n_items"] == 17


def test_small_qty_order_revenue_threshold_boundary(ray_session, tmp_path):
    """5*qty*cnt < sum is strict: part 1 (qty 1,9 → 5*1*2 == 10 == sum)
    sits exactly AT 20% of avg and must NOT qualify; part 2 (qty 1,99)
    qualifies with only the small line's revenue; part 3 is the wrong
    brand and is invisible even though its small line would pass."""
    from open_parse_ray.stages.relational import small_qty_order_revenue

    pd.DataFrame(
        {
            "p_partkey": [1, 2, 3],
            "p_name": "p",
            "p_brand": ["Brand#13", "Brand#13", "Brand#9"],
            "p_type": "STANDARD",
            "p_size": 1,
            "p_retailprice": 1.0,
        }
    ).to_parquet(tmp_path / "part.parquet")
    _write_lineitem(
        tmp_path,
        l_orderkey=[1] * 6,
        l_partkey=[1, 1, 2, 2, 3, 3],
        l_quantity=[1.0, 9.0, 1.0, 99.0, 1.0, 99.0],
        l_extendedprice=[5.0, 5.0, 7.5, 5.0, 5.0, 5.0],
    )
    out = _df(small_qty_order_revenue(str(tmp_path)))
    assert len(out) == 1
    assert out.iloc[0]["n_lineitems"] == 1
    assert out.iloc[0]["revenue_cents"] == 750


def test_top_supplier_revenue_ties_and_window(ray_session, tmp_path):
    """Both tied maxima come back (suppliers 1 and 2 at 100.00 inside
    the 1996 window); supplier 3's larger 1997 shipment is outside the
    window and must not win."""
    from open_parse_ray.stages.relational import top_supplier_revenue

    pd.DataFrame(
        {
            "s_suppkey": [1, 2, 3],
            "s_name": ["s1", "s2", "s3"],
            "s_nationkey": [0, 0, 0],
            "s_acctbal": [0.0] * 3,
        }
    ).to_parquet(tmp_path / "supplier.parquet")
    _write_lineitem(
        tmp_path,
        l_orderkey=[1, 1, 1, 1],
        l_suppkey=[1, 2, 3, 3],
        l_extendedprice=[100.0, 100.0, 40.0, 500.0],
        l_shipdate=[
            pd.Timestamp("1996-06-01"),
            pd.Timestamp("1996-06-01"),
            pd.Timestamp("1996-06-01"),
            pd.Timestamp("1997-06-01"),
        ],
    )
    out = _df(top_supplier_revenue(str(tmp_path)))
    assert out["s_suppkey"].tolist() == [1, 2]
    assert out["s_name"].tolist() == ["s1", "s2"]
    assert set(out["total_revenue_cents"]) == {10000}


def test_nation_volume_shipping_hand_case(ray_session, tmp_path):
    """Same-nation flows are excluded; years split; revenue lands on the
    (supplier nation, customer nation) pair in the right direction."""
    from open_parse_ray.stages.relational import nation_volume_shipping

    pd.DataFrame(
        {"n_nationkey": [0, 1], "n_name": ["NA0", "NA1"], "n_regionkey": [0, 0]}
    ).to_parquet(tmp_path / "nation.parquet")
    pd.DataFrame(
        {
            "s_suppkey": [1, 2],
            "s_name": ["s1", "s2"],
            "s_nationkey": [0, 1],
            "s_acctbal": [0.0, 0.0],
        }
    ).to_parquet(tmp_path / "supplier.parquet")
    pd.DataFrame(
        {
            "c_custkey": [1],
            "c_name": ["c"],
            "c_nationkey": [1],
            "c_acctbal": [0.0],
            "c_mktsegment": ["BUILDING"],
        }
    ).to_parquet(tmp_path / "customer.parquet")
    _write_orders(tmp_path, o_orderkey=np.array([1], dtype=np.int64), o_custkey=[1])
    _write_lineitem(
        tmp_path,
        l_orderkey=[1, 1, 1],
        l_suppkey=[1, 1, 2],
        l_extendedprice=[100.0, 50.0, 70.0],
        l_shipdate=[
            pd.Timestamp("1996-06-01"),
            pd.Timestamp("1997-06-01"),  # second year, same pair
            pd.Timestamp("1996-06-01"),  # supp nation == cust nation → drop
        ],
    )
    out = _df(nation_volume_shipping(str(tmp_path))).sort_values("l_year")
    assert out["supp_nation"].tolist() == ["NA0", "NA0"]
    assert out["cust_nation"].tolist() == ["NA1", "NA1"]
    assert out["l_year"].tolist() == [1996, 1997]
    assert out["revenue_cents"].tolist() == [10000, 5000]


def test_returned_item_top_customers_tie_and_cut(ray_session, tmp_path):
    """Only R lines in the order window count; revenue ties rank by
    smaller custkey; k cuts after the merge of per-partition top-ks."""
    from open_parse_ray.stages.relational import returned_item_top_customers

    pd.DataFrame(
        {
            "c_custkey": [1, 2, 3],
            "c_name": ["c1", "c2", "c3"],
            "c_nationkey": [0, 0, 0],
            "c_acctbal": [5.0, 6.0, 7.0],
            "c_mktsegment": ["BUILDING"] * 3,
        }
    ).to_parquet(tmp_path / "customer.parquet")
    pd.DataFrame(
        {"n_nationkey": [0], "n_name": ["NA0"], "n_regionkey": [0]}
    ).to_parquet(tmp_path / "nation.parquet")
    _write_orders(
        tmp_path,
        o_orderkey=np.array([1, 2, 3, 4], dtype=np.int64),
        o_custkey=[3, 2, 1, 1],
        o_orderdate=[
            pd.Timestamp("1996-02-01"),
            pd.Timestamp("1996-02-01"),
            pd.Timestamp("1996-02-01"),
            pd.Timestamp("1996-09-01"),  # outside the order window
        ],
    )
    _write_lineitem(
        tmp_path,
        l_orderkey=[1, 2, 3, 3, 4],
        l_extendedprice=[100.0, 100.0, 100.0, 30.0, 999.0],
        l_returnflag=["R", "R", "R", "N", "R"],
    )
    out = _df(returned_item_top_customers(str(tmp_path), k=2))
    # all three customers tie at 10000; tie order is custkey ASC, k=2
    # keeps customers 1 and 2 (order 4's R line is outside the window)
    assert out["c_custkey"].tolist() == [1, 2]
    assert out["revenue_cents"].tolist() == [10000, 10000]
    assert out["acctbal_cents"].tolist() == [500, 600]
    assert out["n_name"].tolist() == ["NA0", "NA0"]


def test_order_fulfillment_span_hand_case(ray_session, tmp_path):
    """First/last lags from a multi-line order; a lineitem-less order
    contributes nothing (inner-join semantics)."""
    from open_parse_ray.stages.relational import order_fulfillment_span

    _write_orders(
        tmp_path,
        o_orderkey=np.array([1, 2], dtype=np.int64),
        o_orderdate=[pd.Timestamp("1996-01-01")] * 2,
        o_orderpriority=["1-URGENT", "5-LOW"],
    )
    _write_lineitem(
        tmp_path,
        l_orderkey=[1, 1, 1],
        l_shipdate=[
            pd.Timestamp("1996-01-04"),
            pd.Timestamp("1996-01-02"),
            pd.Timestamp("1996-01-31"),
        ],
    )
    out = _df(order_fulfillment_span(str(tmp_path)))
    assert len(out) == 1
    row = out.iloc[0]
    assert row["o_orderpriority"] == "1-URGENT"
    assert row["n_orders"] == 1
    assert row["total_first_lag_days"] == 1
    assert row["total_last_lag_days"] == 30


def test_largest_doc_by_group_tie_rule(ray_session, tmp_path):
    """Equal n_chars → smallest doc_id wins (the monotone composite's
    tie direction), independently per (lang, source) group."""
    from open_parse_ray.stages.relational import largest_doc_by_group

    pd.DataFrame(
        {
            "doc_id": np.array([10, 3, 7, 20], dtype=np.int64),
            "text": ["aaaa", "bbbb", "cc", "ddddd"],
            "lang": ["en", "en", "en", "fr"],
            "source": ["s", "s", "s", "s"],
            "n_chars": np.array([4, 4, 2, 5], dtype=np.int64),
        }
    ).to_parquet(tmp_path / "documents.parquet")
    out = _df(largest_doc_by_group(str(tmp_path))).sort_values("lang")
    assert out["doc_id"].tolist() == [3, 20]
    assert out["n_chars"].tolist() == [4, 5]


def test_forecast_revenue_change_band_boundaries(ray_session, tmp_path):
    """Discount band is integer-percent inclusive [5,7]: 4% and 8% are
    out, 5% and 7% are in; qty 24 is out (strict <); date window is
    half-open on both operators' sides."""
    from open_parse_ray.stages.relational import forecast_revenue_change

    _write_lineitem(
        tmp_path,
        l_orderkey=[1] * 7,
        l_quantity=[1.0, 1.0, 1.0, 1.0, 24.0, 1.0, 1.0],
        l_extendedprice=[100.0] * 7,
        l_discount=[0.04, 0.05, 0.07, 0.08, 0.05, 0.05, 0.05],
        l_shipdate=[pd.Timestamp("1996-06-01")] * 5
        + [pd.Timestamp("1995-12-31"), pd.Timestamp("1997-01-01")],
    )
    out = _df(forecast_revenue_change(str(tmp_path)))
    assert out.iloc[0]["n_lineitems"] == 2
    assert out.iloc[0]["forecast_cents"] == 500 + 700


def test_banded_brand_revenue_arm_bands(ray_session, tmp_path):
    """Each arm applies ITS OWN quantity band: qty 12 passes arm 2 but
    not arm 1; an uninteresting brand never appears; inclusive ends."""
    from open_parse_ray.stages.relational import banded_brand_revenue

    pd.DataFrame(
        {
            "p_partkey": [1, 2, 3, 4],
            "p_name": "p",
            "p_brand": ["Brand#1", "Brand#2", "Brand#3", "Brand#9"],
            "p_type": "STANDARD",
            "p_size": 1,
            "p_retailprice": 1.0,
        }
    ).to_parquet(tmp_path / "part.parquet")
    _write_lineitem(
        tmp_path,
        l_orderkey=[1] * 7,
        l_partkey=[1, 1, 2, 2, 3, 3, 4],
        l_quantity=[11.0, 12.0, 12.0, 9.0, 20.0, 31.0, 5.0],
        l_extendedprice=[10.0] * 7,
    )
    out = _df(banded_brand_revenue(str(tmp_path))).set_index("arm")
    assert out.loc[1, "n_lineitems"] == 1 and out.loc[1, "revenue_cents"] == 1000
    assert out.loc[2, "n_lineitems"] == 1
    assert out.loc[3, "n_lineitems"] == 1
    assert len(out) == 3


def test_copurchase_components_hand_case(ray_session, tmp_path):
    """A 5-node chain of strong edges (each pair in 3 orders) collapses
    to its minimum id across multiple propagation rounds; a 2-order
    (weak) bridge must NOT merge the second component; the isolated
    strong pair keeps its own min label."""
    from open_parse_ray.stages.graph import copurchase_components

    orders, parts = [], []

    def add_orders(pair, n, start):
        for i in range(n):
            orders.extend([start + i, start + i])
            parts.extend(pair)

    add_orders((1, 2), 3, 100)
    add_orders((2, 3), 3, 200)
    add_orders((3, 4), 3, 300)
    add_orders((4, 5), 3, 400)
    add_orders((5, 10), 2, 500)   # weak: below min_ab=3
    add_orders((10, 11), 3, 600)
    _write_lineitem(tmp_path, l_orderkey=orders, l_partkey=parts)
    pd.DataFrame(
        {
            "p_partkey": [1, 2, 3, 4, 5, 10, 11],
            "p_name": "p",
            "p_brand": "Brand#1",
            "p_type": "STANDARD",
            "p_size": 1,
            "p_retailprice": 1.0,
        }
    ).to_parquet(tmp_path / "part.parquet")
    out = _df(copurchase_components(str(tmp_path))).sort_values("part")
    assert out["part"].tolist() == [1, 2, 3, 4, 5, 10, 11]
    assert out["component"].tolist() == [1, 1, 1, 1, 1, 10, 10]


def test_customer_cohort_revenue_hand_case(ray_session, tmp_path):
    """The cohort is the customer's FIRST order month: customer 1's
    March order reports under the January cohort; customer 2's single
    March order forms its own March cohort row."""
    from open_parse_ray.stages.relational import customer_cohort_revenue

    _write_orders(
        tmp_path,
        o_orderkey=np.array([1, 2, 3], dtype=np.int64),
        o_custkey=[1, 1, 2],
        o_totalprice=[10.0, 20.0, 40.0],
        o_orderdate=[
            pd.Timestamp("1996-01-15"),
            pd.Timestamp("1996-03-02"),
            pd.Timestamp("1996-03-20"),
        ],
    )
    jan = (1996 - 1970) * 12 + 0
    mar = jan + 2
    out = (
        _df(customer_cohort_revenue(str(tmp_path)))
        .sort_values(["cohort_month", "order_month"])
        .reset_index(drop=True)
    )
    assert out.values.tolist() == [
        [jan, jan, 1, 1000],
        [jan, mar, 1, 2000],
        [mar, mar, 1, 4000],
    ]


def test_argmax_composite_idiom_matches_pandas(ray_session):
    """Property gate for the monotone-composite argmax (the
    largest_doc_by_group idiom): on seeded random (group, value, id)
    triples with heavy ties, decoding max(value*2^40 + (2^40-1-id))
    equals pandas sort_values + first per group."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 3),        # group
                st.integers(0, 5),        # value (ties likely)
                st.integers(0, 1 << 39),  # id
            ),
            min_size=1,
            max_size=60,
        )
    )
    def run(rows):
        df = pd.DataFrame(rows, columns=["g", "v", "i"]).drop_duplicates(
            ["g", "i"]
        )
        space = np.int64(1) << 40
        comp = df["v"].to_numpy(np.int64) * space + (
            space - 1 - df["i"].to_numpy(np.int64)
        )
        got = (
            pd.DataFrame({"g": df["g"], "comp": comp})
            .groupby("g")["comp"]
            .max()
        )
        dec = pd.DataFrame(
            {"v": got // space, "i": space - 1 - (got % space)}
        )
        want = (
            df.sort_values(["g", "v", "i"], ascending=[True, False, True])
            .groupby("g")
            .first()
        )
        assert dec["v"].tolist() == want["v"].tolist()
        assert dec["i"].tolist() == want["i"].tolist()

    run()


def test_order_value_quantiles_by_segment_exact_ranks(ray_session, tmp_path):
    """With 5 known values per segment the rank rule 1+(p*(n-1))//100
    picks exact elements: p25→rank 2, p50→rank 3, p75→rank 4; a
    second segment's values must not bleed in."""
    from open_parse_ray.stages.quantiles import order_value_quantiles_by_segment

    pd.DataFrame(
        {
            "c_custkey": [1, 2],
            "c_name": ["a", "b"],
            "c_nationkey": [0, 0],
            "c_acctbal": [0.0, 0.0],
            "c_mktsegment": ["AUTO", "HOUSE"],
        }
    ).to_parquet(tmp_path / "customer.parquet")
    _write_orders(
        tmp_path,
        o_orderkey=np.arange(1, 11, dtype=np.int64),
        o_custkey=[1] * 5 + [2] * 5,
        o_totalprice=[5.0, 1.0, 4.0, 2.0, 3.0, 50.0, 10.0, 40.0, 20.0, 30.0],
    )
    out = _df(order_value_quantiles_by_segment(str(tmp_path))).set_index(
        ["c_mktsegment", "p"]
    )["value_cents"]
    assert out[("AUTO", 25)] == 200 and out[("AUTO", 50)] == 300
    assert out[("AUTO", 75)] == 400
    assert out[("HOUSE", 25)] == 2000 and out[("HOUSE", 50)] == 3000
    assert out[("HOUSE", 75)] == 4000


def test_loyal_customers_division_boundary(ray_session, tmp_path):
    """Distinct-quarter semantics: three orders in ONE quarter don't
    qualify; three distinct quarters do (>= min_quarters=3); the window
    excludes a 1995 order that would otherwise add a quarter."""
    from open_parse_ray.stages.relational import loyal_customers

    _write_orders(
        tmp_path,
        o_orderkey=np.arange(1, 8, dtype=np.int64),
        o_custkey=[1, 1, 1, 2, 2, 2, 2],
        o_totalprice=[10.0] * 7,
        o_orderdate=[
            pd.Timestamp("1996-01-05"),
            pd.Timestamp("1996-02-05"),
            pd.Timestamp("1996-03-05"),  # cust 1: all Q1 → 1 quarter
            pd.Timestamp("1996-01-05"),
            pd.Timestamp("1996-05-05"),
            pd.Timestamp("1996-10-05"),  # cust 2: Q1,Q2,Q4 → 3 quarters
            pd.Timestamp("1995-07-05"),  # outside window
        ],
    )
    out = _df(loyal_customers(str(tmp_path)))
    assert out["c_custkey"].tolist() == [2]
    assert out.iloc[0]["n_quarters"] == 3
    assert out.iloc[0]["n_orders"] == 3
    assert out.iloc[0]["total_cents"] == 3000


def test_late_order_priority_threshold(ray_session, tmp_path):
    """Q4 late rule is STRICTLY more than 60 whole days: +60 days is on
    time, +61 is late; the max-collapse means one late line suffices
    and extra on-time lines don't double-count; the date window
    excludes an otherwise-late 1995 order."""
    from open_parse_ray.stages.relational import late_order_priority_counts

    _write_orders(
        tmp_path,
        o_orderkey=np.arange(1, 5, dtype=np.int64),
        o_orderdate=[
            pd.Timestamp("1996-08-01"),  # +60 exactly -> on time
            pd.Timestamp("1996-08-01"),  # +61 -> late
            pd.Timestamp("1996-08-01"),  # two lines, one late -> 1 order
            pd.Timestamp("1995-08-01"),  # outside window, late line
        ],
        o_orderpriority=["1-URGENT", "1-URGENT", "2-HIGH", "1-URGENT"],
    )
    _write_lineitem(
        tmp_path,
        l_orderkey=[1, 2, 3, 3, 4],
        l_shipdate=[
            pd.Timestamp("1996-08-01") + pd.Timedelta(days=60),
            pd.Timestamp("1996-08-01") + pd.Timedelta(days=61),
            pd.Timestamp("1996-08-02"),
            pd.Timestamp("1996-08-01") + pd.Timedelta(days=200),
            pd.Timestamp("1995-08-01") + pd.Timedelta(days=200),
        ],
    )
    out = _df(late_order_priority_counts(str(tmp_path))).set_index(
        "o_orderpriority"
    )
    assert out["n_late_orders"].to_dict() == {"1-URGENT": 1, "2-HIGH": 1}


def test_sole_delay_suppliers_rules(ray_session, tmp_path):
    """Q21 gate: a wait needs (multi-supplier order) AND (exactly one
    late supplier) AND (status 'F'). Order 1 qualifies for supplier 1;
    order 2 has two late suppliers -> nobody; order 3 is single-supplier
    -> nobody; order 4 would qualify but is status 'O'."""
    from open_parse_ray.stages.relational import sole_delay_suppliers

    _write_orders(
        tmp_path,
        o_orderkey=np.arange(1, 5, dtype=np.int64),
        o_orderstatus=["F", "F", "F", "O"],
        o_orderdate=[pd.Timestamp("1996-01-01")] * 4,
    )
    late = pd.Timestamp("1996-01-01") + pd.Timedelta(days=100)
    ok = pd.Timestamp("1996-01-10")
    _write_lineitem(
        tmp_path,
        l_orderkey=[1, 1, 2, 2, 3, 4, 4],
        l_suppkey=[1, 2, 1, 2, 1, 1, 2],
        l_shipdate=[late, ok, late, late, late, late, ok],
    )
    pd.DataFrame(
        {
            "s_suppkey": np.array([1, 2], dtype=np.int64),
            "s_name": ["S1", "S2"],
            "s_nationkey": np.array([0, 0], dtype=np.int32),
            "s_acctbal": [0.0, 0.0],
        }
    ).to_parquet(tmp_path / "supplier.parquet")
    out = _df(sole_delay_suppliers(str(tmp_path)))
    assert out["s_suppkey"].tolist() == [1]
    assert out["s_name"].tolist() == ["S1"]
    assert out["n_orders_sole_late"].tolist() == [1]


def test_user_modal_event_tie_rule(ray_session, tmp_path):
    """Ties go to the lexicographically smallest event_type (user 1 has
    2x'b' and 2x'a' -> 'a'); a strict majority wins regardless of
    order (user 2)."""
    from open_parse_ray.stages.relational import user_modal_event

    rows = [
        (1, pd.Timestamp("2024-01-01"), 1, "b", 1.0, ""),
        (2, pd.Timestamp("2024-01-02"), 1, "b", 1.0, ""),
        (3, pd.Timestamp("2024-01-03"), 1, "a", 1.0, ""),
        (4, pd.Timestamp("2024-01-04"), 1, "a", 1.0, ""),
        (5, pd.Timestamp("2024-01-01"), 2, "c", 1.0, ""),
        (6, pd.Timestamp("2024-01-02"), 2, "c", 1.0, ""),
        (7, pd.Timestamp("2024-01-03"), 2, "a", 1.0, ""),
    ]
    pd.DataFrame(
        rows, columns=["event_id", "ts", "user_id", "event_type", "value", "props"]
    ).to_parquet(tmp_path / "events.parquet")
    out = _df(user_modal_event(str(tmp_path))).set_index("user_id")
    assert out.loc[1, "event_type"] == "a"
    assert out.loc[1, "n_events"] == 2
    assert out.loc[2, "event_type"] == "c"
    assert out.loc[2, "n_events"] == 2


def test_parts_never_shipped_window_boundary(ray_session, tmp_path):
    """Half-open 1997 window: a Dec-31-1996 shipment and a Jan-1-1998
    shipment both leave their part 'never shipped in 1997'; a
    Jan-1-1997 00:00 shipment (inclusive lower bound) disqualifies."""
    from open_parse_ray.stages.relational import parts_never_shipped

    pd.DataFrame(
        {
            "p_partkey": np.array([1, 2, 3], dtype=np.int64),
            "p_name": ["pa", "pb", "pc"],
            "p_brand": ["B1", "B2", "B3"],
            "p_type": ["T"] * 3,
            "p_size": np.array([1, 1, 1], dtype=np.int32),
            "p_retailprice": [1.0] * 3,
        }
    ).to_parquet(tmp_path / "part.parquet")
    _write_lineitem(
        tmp_path,
        l_partkey=[1, 2, 3],
        l_shipdate=[
            pd.Timestamp("1996-12-31 23:59:59"),
            pd.Timestamp("1997-01-01 00:00:00"),
            pd.Timestamp("1998-01-01 00:00:00"),
        ],
    )
    out = _df(parts_never_shipped(str(tmp_path))).sort_values("p_partkey")
    assert out["p_partkey"].tolist() == [1, 3]
    assert out["p_name"].tolist() == ["pa", "pc"]


def test_customer_order_recency_outer_defaults(ray_session, tmp_path):
    """LEFT OUTER semantics: customer 2 has no order since 2000-01-01
    (one older order must not count) and keeps a (0, -1) row; customer
    1's last_order_day is the MAX over two in-window orders; the
    inclusive lower bound admits a 2000-01-01 00:00 order (customer 3)."""
    from open_parse_ray.stages.relational import customer_order_recency

    pd.DataFrame(
        {
            "c_custkey": np.array([1, 2, 3], dtype=np.int64),
            "c_name": ["a", "b", "c"],
            "c_nationkey": np.zeros(3, dtype=np.int32),
            "c_acctbal": [0.0] * 3,
            "c_mktsegment": ["BUILDING"] * 3,
        }
    ).to_parquet(tmp_path / "customer.parquet")
    _write_orders(
        tmp_path,
        o_orderkey=np.arange(1, 5, dtype=np.int64),
        o_custkey=[1, 1, 2, 3],
        o_orderdate=[
            pd.Timestamp("2000-03-01"),
            pd.Timestamp("2000-06-01"),
            pd.Timestamp("1999-12-31 23:59:59"),
            pd.Timestamp("2000-01-01 00:00:00"),
        ],
    )
    out = _df(customer_order_recency(str(tmp_path))).set_index("c_custkey")
    assert out.loc[1, "n_orders"] == 2
    assert out.loc[1, "last_order_day"] == (
        pd.Timestamp("2000-06-01") - pd.Timestamp("1970-01-01")
    ).days
    assert out.loc[2, "n_orders"] == 0
    assert out.loc[2, "last_order_day"] == -1
    assert out.loc[3, "n_orders"] == 1


def test_market_share_hand_case(ray_session, tmp_path):
    """Q8 semantics: only the region's customers, only the part type,
    only the order-date window count toward the denominator; the
    numerator is the target SUPPLIER nation's slice (the supplier
    nation need not be in the customer region)."""
    from open_parse_ray.stages.relational import market_share

    pd.DataFrame(
        {"r_regionkey": np.array([0, 1], dtype=np.int32),
         "r_name": ["AMERICA", "OTHER"]}
    ).to_parquet(tmp_path / "region.parquet")
    pd.DataFrame(
        {
            "n_nationkey": np.array([0, 1, 2], dtype=np.int32),
            "n_name": ["NA0", "NA1", "NA2"],
            "n_regionkey": np.array([0, 0, 1], dtype=np.int32),
        }
    ).to_parquet(tmp_path / "nation.parquet")
    pd.DataFrame(
        {
            "s_suppkey": [1, 2],
            "s_name": ["s1", "s2"],
            "s_nationkey": np.array([0, 1], dtype=np.int32),
            "s_acctbal": [0.0, 0.0],
        }
    ).to_parquet(tmp_path / "supplier.parquet")
    pd.DataFrame(
        {
            "c_custkey": [1, 2],
            "c_name": ["c1", "c2"],
            "c_nationkey": np.array([0, 2], dtype=np.int32),
            "c_acctbal": [0.0, 0.0],
            "c_mktsegment": ["BUILDING"] * 2,
        }
    ).to_parquet(tmp_path / "customer.parquet")
    pd.DataFrame(
        {
            "p_partkey": [1, 2],
            "p_name": ["p1", "p2"],
            "p_brand": ["B"] * 2,
            "p_type": ["ECONOMY", "PROMO"],
            "p_size": np.array([1, 1], dtype=np.int32),
            "p_retailprice": [1.0, 1.0],
        }
    ).to_parquet(tmp_path / "part.parquet")
    _write_orders(
        tmp_path,
        o_orderkey=np.array([1, 2, 3], dtype=np.int64),
        o_custkey=[1, 1, 2],
        o_orderdate=[
            pd.Timestamp("1996-06-01"),
            pd.Timestamp("1998-06-01"),  # out of window
            pd.Timestamp("1996-06-01"),  # customer outside region
        ],
    )
    _write_lineitem(
        tmp_path,
        l_orderkey=[1, 1, 1, 2, 3],
        l_partkey=[1, 1, 2, 1, 1],
        l_suppkey=[1, 2, 1, 1, 1],
        l_extendedprice=[100.0, 50.0, 70.0, 70.0, 70.0],
    )
    out = _df(market_share(str(tmp_path), nation="NA0"))
    assert len(out) == 1
    row = out.iloc[0]
    assert row["o_year"] == 1996
    assert row["nation_rev_cents"] == 10000
    assert row["total_rev_cents"] == 15000


def test_pareto_frontier_hand_case(ray_session, tmp_path):
    """Skyline tie semantics: exact (price, size) duplicates both
    survive; equal size at a higher price is dominated (strict in
    price, >= in size); smaller size at the same price is dominated;
    a bigger size always survives regardless of price."""
    from open_parse_ray.stages.relational import pareto_frontier_parts

    pd.DataFrame(
        {
            "p_partkey": [1, 2, 3, 4, 5, 6],
            "p_name": "p",
            "p_brand": "B",
            "p_type": "STANDARD",
            "p_size": np.array([5, 5, 5, 6, 3, 4], dtype=np.int32),
            "p_retailprice": [9.0, 9.0, 10.0, 10.0, 8.0, 9.5],
        }
    ).to_parquet(tmp_path / "part.parquet")
    out = _df(pareto_frontier_parts(str(tmp_path)))
    assert sorted(out["p_partkey"].tolist()) == [1, 2, 4, 5]


def test_dominant_part_suppliers_threshold(ray_session, tmp_path):
    """Share test is the STRICT integer cross-multiply 100*q > 15*total
    (a supplier at exactly 15% is out); single-supplier parts are
    excluded however large the share."""
    from open_parse_ray.stages.relational import dominant_part_suppliers

    pd.DataFrame(
        {
            "s_suppkey": [1, 2, 3],
            "s_name": ["s1", "s2", "s3"],
            "s_nationkey": np.array([0, 0, 0], dtype=np.int32),
            "s_acctbal": [0.0] * 3,
        }
    ).to_parquet(tmp_path / "supplier.parquet")
    _write_lineitem(
        tmp_path,
        l_orderkey=[1] * 5,
        l_partkey=[1, 1, 2, 3, 3],
        l_suppkey=[1, 2, 2, 1, 3],
        l_quantity=[15.0, 85.0, 50.0, 16.0, 84.0],
    )
    out = _df(dominant_part_suppliers(str(tmp_path))).set_index("s_suppkey")
    # part 1: s1 at exactly 15% -> out; s2 at 85% -> in
    # part 2: single supplier -> excluded entirely
    # part 3: s1 at 16% -> in; s3 at 84% -> in
    assert out.loc[1, "n_dominant_parts"] == 1
    assert out.loc[2, "n_dominant_parts"] == 1
    assert out.loc[3, "n_dominant_parts"] == 1
    assert out.loc[1, "s_name"] == "s1"
    assert len(out) == 3


def test_scd2_history_hand_case(ray_session, tmp_path):
    """Validity intervals per changelog path: base-only docs stay open
    from seq 0; an upsert closes the previous version at ITS seq; a
    delete closes the interval without emitting a row; a post-delete
    upsert reopens (resurrection). Current rows (valid_to == -1) must
    equal apply_changelog's merged state exactly — the two operators
    describe the same stream by construction."""
    from open_parse_ray.stages.incremental import apply_changelog, scd2_history

    docs = pd.DataFrame(
        {
            "doc_id": np.array([3, 5, 7, 35], dtype=np.int64),
            "text": ["t3", "t5", "t7", "t35"],
            "lang": ["en"] * 4,
            "source": ["s"] * 4,
            "n_chars": np.array([2, 2, 2, 3], dtype=np.int64),
        }
    )
    docs.to_parquet(tmp_path / "documents.parquet")
    out = _df(scd2_history(str(tmp_path))).sort_values(
        ["doc_id", "valid_from"]
    ).reset_index(drop=True)
    ivals = list(
        zip(out["doc_id"].tolist(), out["valid_from"].tolist(), out["valid_to"].tolist())
    )
    assert ivals == [
        (3, 0, -1),           # base only, still current
        (5, 0, 1), (5, 1, -1),  # rev1 closes base, stays current
        (7, 0, 2),            # delete closes base; nothing current
        (35, 0, 1), (35, 1, 2), (35, 3, -1),  # resurrection reopens
    ]
    assert out.loc[2, "fp"] == hashlib.md5(b"t5 rev1").hexdigest()
    cur = out[out["valid_to"] == -1][["doc_id", "fp"]].reset_index(drop=True)
    ac = _df(apply_changelog(str(tmp_path))).sort_values("doc_id").reset_index(drop=True)
    assert cur.equals(ac)


def test_rank_fusion_borda_ties(ray_session, tmp_path):
    """Borda arithmetic and the (borda, doc_id) tie rule: opposite
    rankings produce equal borda sums; the fused order then falls back
    to doc_id."""
    from open_parse_ray.stages.ranking import rank_fusion_docs

    pd.DataFrame(
        {
            "doc_id": np.array([1, 2, 3], dtype=np.int64),
            # chars order: 3 < 2 < 1 ; token order: 1 < 2 < 3
            "text": ["w " * 1, "w " * 2, "w " * 3],
            "lang": ["en"] * 3,
            "source": ["s"] * 3,
            "n_chars": np.array([30, 20, 10], dtype=np.int64),
        }
    ).to_parquet(tmp_path / "documents.parquet")
    out = _df(rank_fusion_docs(str(tmp_path))).set_index("doc_id")
    assert out.loc[1, "rank_chars"] == 3 and out.loc[1, "rank_tokens"] == 1
    assert out.loc[3, "rank_chars"] == 1 and out.loc[3, "rank_tokens"] == 3
    assert (out["borda"] == 4).all()          # perfectly opposed signals
    assert out["fused_rank"].tolist() == [1, 2, 3]  # tie -> doc_id order


def test_greedy_cover_tie_and_saturation(ray_session, tmp_path):
    """Round-1 gain tie (two docs each covering 2 new bigrams) goes to
    the smaller doc_id; a fully-covered doc is never selected; the loop
    stops when no positive marginal gain remains (2 rows, not k)."""
    from open_parse_ray.stages.analysis import greedy_cover_docs

    pd.DataFrame(
        {
            "doc_id": np.array([1, 2, 3], dtype=np.int64),
            "text": ["a b c", "a b", "b c d"],
            "lang": ["en"] * 3,
            "source": ["s"] * 3,
            "n_chars": np.array([5, 3, 5], dtype=np.int64),
        }
    ).to_parquet(tmp_path / "documents.parquet")
    out = _df(greedy_cover_docs(str(tmp_path), k=3))
    assert out["doc_id"].tolist() == [1, 3]
    assert out["gain"].tolist() == [2, 1]
    assert out["covered_total"].tolist() == [2, 3]


def test_events_disorder_hand_case(ray_session, tmp_path):
    """Known sequences: strictly increasing -> 0; strictly decreasing
    of length 4 -> 6; equal values are concordant (no inversion); ts
    ties break by event_id; single-event users emit (1, 0)."""
    from open_parse_ray.stages.relational import events_disorder_stats

    ts0 = pd.Timestamp("2024-01-01")
    rows = []
    # user 1: values 4,3,2,1 -> 6 inversions
    for i, v in enumerate([4.0, 3.0, 2.0, 1.0]):
        rows.append((i, ts0 + pd.Timedelta(seconds=i), 1, "click", v))
    # user 2: increasing -> 0
    for i, v in enumerate([1.0, 2.0, 3.0]):
        rows.append((10 + i, ts0 + pd.Timedelta(seconds=i), 2, "click", v))
    # user 3: equal ts, event_id order decides: ids 20,21 values 5,1 -> 1
    rows.append((20, ts0, 3, "click", 5.0))
    rows.append((21, ts0, 3, "click", 1.0))
    # user 4: all equal values -> 0
    rows.append((30, ts0, 4, "click", 2.0))
    rows.append((31, ts0 + pd.Timedelta(seconds=1), 4, "click", 2.0))
    # user 5: single event
    rows.append((40, ts0, 5, "click", 9.0))
    pd.DataFrame(
        rows, columns=["event_id", "ts", "user_id", "event_type", "value"]
    ).assign(props="{}").to_parquet(tmp_path / "events.parquet")
    out = _df(events_disorder_stats(str(tmp_path))).set_index("user_id")
    assert out.loc[1, "inversions"] == 6
    assert out.loc[2, "inversions"] == 0
    assert out.loc[3, "inversions"] == 1
    assert out.loc[4, "inversions"] == 0
    assert out.loc[5, "n_events"] == 1 and out.loc[5, "inversions"] == 0


def test_inversion_kernel_matches_brute_force():
    """Chunked histogram counter == O(n^2) brute force over random
    sequences at several chunk sizes and value domains (incl. chunk=1,
    the pure-histogram path, and domains with heavy ties)."""
    from open_parse_ray.stages.relational import _inversions_chunked

    rng = np.random.default_rng(7)

    def brute(v):
        return int(np.triu(v[:, None] > v[None, :], k=1).sum())

    for n in [0, 1, 2, 3, 17, 256, 1500]:
        for dom in [2, 7, 500]:
            v = rng.integers(-dom, dom, n).astype(np.int64)
            want = brute(v)
            for c in [1, 3, 64, 1024]:
                assert _inversions_chunked(v, chunk=c) == want


def test_events_drift_cusum_step_series(ray_session, tmp_path):
    """A clean step (3 quiet hours, then 3 busy hours) peaks |D_k| at
    the step boundary k=3; a perfectly uniform type peaks at 0 deviation
    with the tie resolving to k=1; zero-filled grid hours count."""
    from open_parse_ray.stages.relational import events_drift_cusum

    ts0 = pd.Timestamp("2024-01-01")
    rows = []
    eid = 0
    # 'step': hours 0,1,2 -> 1 event each; hours 3,4,5 -> 3 events each
    for h in range(6):
        for _ in range(1 if h < 3 else 3):
            rows.append((eid, ts0 + pd.Timedelta(hours=h, minutes=1), 1, "step", 1.0))
            eid += 1
    # 'flat': 2 events in every hour 0..5
    for h in range(6):
        for _ in range(2):
            rows.append((eid, ts0 + pd.Timedelta(hours=h, minutes=2), 2, "flat", 1.0))
            eid += 1
    pd.DataFrame(
        rows, columns=["event_id", "ts", "user_id", "event_type", "value"]
    ).assign(props="{}").to_parquet(tmp_path / "events.parquet")
    out = _df(events_drift_cusum(str(tmp_path))).set_index("event_type")
    # step: H=6, T=12; S_3=3 -> |6*3 - 3*12| = 18, the unique peak
    assert out.loc["step", "k_at_max"] == 3
    assert out.loc["step", "max_dev"] == 18
    assert out.loc["flat", "max_dev"] == 0
    assert out.loc["flat", "k_at_max"] == 1


def test_corpus_merkle_perturbation_path(ray_session, tmp_path):
    """Changing ONE document flips exactly its leaf bucket, that
    bucket's level-1 parent, and the root — every other level-0 hash is
    untouched (the O(changed-subtree) audit property)."""
    import hashlib as _hl

    from open_parse_ray.stages.incremental import corpus_merkle

    def write(docs_text):
        pd.DataFrame(
            {
                "doc_id": np.arange(len(docs_text), dtype=np.int64) * 40,
                "text": docs_text,
                "lang": ["en"] * len(docs_text),
                "source": ["s"] * len(docs_text),
                "n_chars": np.array([len(t) for t in docs_text], dtype=np.int64),
            }
        ).to_parquet(tmp_path / "documents.parquet")

    texts = [f"doc {i}" for i in range(8)]  # ids 0..280 -> buckets 0..4
    write(texts)
    a = _df(corpus_merkle(str(tmp_path))).set_index(["level", "bucket"])
    texts2 = list(texts)
    texts2[5] = "doc 5 CHANGED"  # id 200 -> bucket 3
    write(texts2)
    b = _df(corpus_merkle(str(tmp_path))).set_index(["level", "bucket"])
    changed = [(lv, bk) for (lv, bk) in a.index if a.loc[(lv, bk), "h"] != b.loc[(lv, bk), "h"]]
    assert sorted(changed) == [(0, 3), (1, 0), (2, 0)]
    # leaf hash is the md5 of concatenated doc fps in id order
    # (bucket 3 = ids 192..255 -> docs 200 and 240, in that order)
    fp5 = _hl.md5("doc 5 CHANGED".encode()).hexdigest()
    fp6 = _hl.md5("doc 6".encode()).hexdigest()
    assert b.loc[(0, 3), "h"] == _hl.md5((fp5 + fp6).encode()).hexdigest()


def test_bucketed_layout_and_join(ray_session, tmp_path):
    """The bucketed-storage contract: (1) every row lands in the bucket
    bucket_of assigns (the co-location guarantee both sides rely on),
    (2) re-staging is idempotent (content-addressed filenames — a
    retried write converges on the identical file set), (3) the
    shuffle-free bucketed join is bitwise-equal to the salted-exchange
    join on the same input."""
    import os

    import pyarrow.parquet as pq
    import ray.data as rd

    from open_parse_ray.sources.bucketed import (
        bucket_of,
        bucketed_join_orders,
        write_bucketed,
    )
    from open_parse_ray.stages.relational import orders_customer_join

    n = 500
    rng = np.random.default_rng(3)
    orders = pd.DataFrame(
        {
            "o_orderkey": np.arange(n, dtype=np.int64),
            "o_custkey": rng.integers(0, 60, n),
            "o_orderstatus": "O",
            "o_totalprice": rng.uniform(1, 9, n).round(2),
            "o_orderdate": pd.Timestamp("1996-01-01"),
            "o_orderpriority": "1-URGENT",
        }
    )
    orders.to_parquet(tmp_path / "orders.parquet")
    pd.DataFrame(
        {
            "c_custkey": np.arange(60, dtype=np.int64),
            "c_name": "c",
            "c_nationkey": np.arange(60, dtype=np.int32) % 7,
            "c_acctbal": 0.0,
            "c_mktsegment": "BUILDING",
        }
    ).to_parquet(tmp_path / "customer.parquet")

    # (1) routing: stage manually and check every file's keys
    out = str(tmp_path / "bucketed_orders")
    write_bucketed(
        rd.from_pandas(orders[["o_orderkey", "o_custkey"]]).repartition(5),
        out, "o_custkey", n_buckets=8,
    )
    seen = 0
    for b in range(8):
        d = os.path.join(out, f"bucket={b}")
        for f in sorted(os.listdir(d)):
            t = pq.read_table(os.path.join(d, f)).to_pandas()
            seen += len(t)
            assert (bucket_of(t["o_custkey"].to_numpy(np.int64), 8) == b).all()
    assert seen == n

    # (2) idempotence: a second write adds no files and changes none
    def snapshot():
        return {
            (b, f): os.path.getsize(os.path.join(out, f"bucket={b}", f))
            for b in range(8)
            for f in os.listdir(os.path.join(out, f"bucket={b}"))
        }

    before = snapshot()
    write_bucketed(
        rd.from_pandas(orders[["o_orderkey", "o_custkey"]]).repartition(5),
        out, "o_custkey", n_buckets=8,
    )
    assert snapshot() == before

    # (3) join equality vs the exchange path
    a = (
        bucketed_join_orders(str(tmp_path), n_buckets=8)
        .to_pandas()
        .sort_values("o_orderkey")
        .reset_index(drop=True)
    )
    b = (
        orders_customer_join(str(tmp_path))
        .to_pandas()
        .sort_values("o_orderkey")
        .reset_index(drop=True)
    )
    assert a.equals(b)


def test_label_centroid_sums_hand_case(ray_session, tmp_path):
    """Two labels, hand vectors: sums are exact fixed-point integers
    (round-half-away at 1e-6), counts ride as dim -1."""
    from open_parse_ray.stages.similarity import label_centroid_sums

    pd.DataFrame(
        {
            "vec_id": np.array([0, 1, 2], dtype=np.int64),
            "embedding": [
                np.array([0.25, -0.5], dtype=np.float32),
                np.array([0.75, 0.5], dtype=np.float32),
                np.array([1.0, 0.0000005], dtype=np.float32),
            ],
            "label": np.array([1, 1, 2], dtype=np.int32),
        }
    ).to_parquet(tmp_path / "embeddings.parquet")
    out = _df(label_centroid_sums(str(tmp_path))).set_index(["label", "dim"])
    assert out.loc[(1, 0), "sum_fp"] == 1_000_000   # 0.25 + 0.75
    assert out.loc[(1, 1), "sum_fp"] == 0           # -0.5 + 0.5
    assert out.loc[(1, -1), "sum_fp"] == 2
    assert out.loc[(2, 0), "sum_fp"] == 1_000_000
    # float32(5e-7)*1e6 rounds half-away to 1 on both sides
    assert out.loc[(2, 1), "sum_fp"] == out.loc[(2, 1), "sum_fp"]  # defined
    assert out.loc[(2, -1), "sum_fp"] == 1


def test_stats_after_changelog_ivm_equality(ray_session, tmp_path):
    """The IVM statement: base ⊕ delta == recompute over the merged
    corpus (built here by applying the changelog rules directly)."""
    from open_parse_ray.stages.incremental import stats_after_changelog

    ids = np.arange(1, 80, dtype=np.int64)
    texts = [f"text of doc {i} " + "w" * (i % 13) for i in ids]
    langs = [["en", "de", "fr"][i % 3] for i in ids]
    pd.DataFrame(
        {"doc_id": ids, "text": texts, "lang": langs, "source": "s",
         "n_chars": [len(t) for t in texts]}
    ).to_parquet(tmp_path / "documents.parquet")
    out = _df(stats_after_changelog(str(tmp_path))).set_index("lang")

    # recompute from the merged corpus, straight from the rules
    rows = []
    for i, t, lg in zip(ids, texts, langs):
        i = int(i)
        if i % 35 == 0:
            rows.append((lg, t + " rev2"))
        elif i % 7 == 0:
            continue
        elif i % 5 == 0:
            rows.append((lg, t + " rev1"))
        else:
            rows.append((lg, t))
    want = (
        pd.DataFrame(rows, columns=["lang", "t"])
        .groupby("lang")
        .agg(n_docs=("t", "size"), total_chars=("t", lambda s: sum(len(x) for x in s)))
    )
    assert out["n_docs"].to_dict() == want["n_docs"].to_dict()
    assert out["total_chars"].to_dict() == want["total_chars"].to_dict()


def test_events_periodicity_daily_rhythm(ray_session, tmp_path):
    """A strictly 24h-periodic signal (one event at hour 0 of each of
    5 days) has dot_24 = 4 (perfect daily alignment) and dot_1 = 0;
    lag 168 emits nothing (grid shorter than a week)."""
    from open_parse_ray.stages.relational import events_periodicity

    ts0 = pd.Timestamp("2024-01-01")
    rows = [
        (i, ts0 + pd.Timedelta(days=i, minutes=5), 1, "daily", 1.0)
        for i in range(5)
    ]
    pd.DataFrame(
        rows, columns=["event_id", "ts", "user_id", "event_type", "value"]
    ).assign(props="{}").to_parquet(tmp_path / "events.parquet")
    out = _df(events_periodicity(str(tmp_path))).set_index("lag")
    assert out.loc[1, "dot"] == 0
    assert out.loc[24, "dot"] == 4
    assert 168 not in out.index  # grid is 97 hours
    assert out.loc[24, "n_terms"] == 97 - 24


def test_domain_concentration_boundary(ray_session, tmp_path):
    """Exact-threshold boundary: with chars 50/30/20, p=50 is covered
    by ONE domain (100*50 >= 50*100 exactly — >= not >); p=80 needs
    two; domain-name ASC breaks char ties deterministically."""
    from open_parse_ray.stages.web import domain_concentration

    # url synth derives domain from `source`; three sources
    rows = []
    did = 0
    for src, total, n in [("a", 50, 1), ("b", 30, 1), ("c", 20, 1)]:
        rows.append((did, "x" * total, "en", src, total))
        did += 1
    pd.DataFrame(
        rows, columns=["doc_id", "text", "lang", "source", "n_chars"]
    ).to_parquet(tmp_path / "documents.parquet")
    out = _df(domain_concentration(str(tmp_path))).set_index("pct")
    assert out.loc[50, "n_domains"] == 1 and out.loc[50, "covered_chars"] == 50
    assert out.loc[80, "n_domains"] == 2 and out.loc[80, "covered_chars"] == 80
    assert out.loc[90, "n_domains"] == 3


def test_clustered_point_lookup_prunes_row_groups(ray_session, tmp_path):
    """The clustered layout's footer stats ARE the index: 5 point keys
    against a 25-row-group table read ≤5 groups (each id hits exactly
    one disjoint range), and the looked-up rows equal a full-scan
    filter."""
    from open_parse_ray.sources.clustered import ensure_clustered_table, lookup_rows

    n = 200_000
    rng = np.random.default_rng(2)
    perm = rng.permutation(n).astype(np.int64)  # deliberately unclustered
    pd.DataFrame(
        {
            "o_orderkey": perm,
            "o_custkey": (perm * 7) % 1000,
            "o_orderstatus": "O",
            "o_totalprice": (perm % 977).astype(np.float64),
            "o_orderdate": pd.Timestamp("1996-01-01"),
            "o_orderpriority": "1-URGENT",
        }
    ).to_parquet(tmp_path / "orders.parquet")
    path = ensure_clustered_table(str(tmp_path), "orders", "o_orderkey")
    ids = np.array([3, 77_777, 123_456, 199_999, 50_000], dtype=np.int64)
    t, ng, nt = lookup_rows(path, "o_orderkey", ids)
    assert nt >= 20
    assert ng <= len(ids)
    got = t.to_pandas().sort_values("o_orderkey").reset_index(drop=True)
    assert got["o_orderkey"].tolist() == sorted(ids.tolist())
    assert (got["o_custkey"].to_numpy() == (np.sort(ids) * 7) % 1000).all()
    # missing keys read nothing extra and return empty
    t2, ng2, _ = lookup_rows(path, "o_orderkey", np.array([10**9], dtype=np.int64))
    assert t2.num_rows == 0 and ng2 == 0


def test_weighted_priority_sample_brute_force(ray_session):
    """The distributed local-top-k merge equals an INDEPENDENT
    pure-Python-int brute force (splitmix64 reimplemented from the
    published constants, not imported from the operator): k globally
    smallest (h63 // (n_chars+1), h63, doc_id). Also pins the
    weighting direction: the sampled docs' mean weight exceeds the
    corpus mean (heavy docs win proportionally more often)."""
    from open_parse_ray.stages.analysis import weighted_priority_sample

    k = 50
    got = _df(weighted_priority_sample(SF, k=k))
    docs = pd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "n_chars"])

    m = (1 << 64) - 1

    def sm63(x: int) -> int:
        z = (x + 0x9E3779B97F4A7C15) & m
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & m
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & m
        return (z ^ (z >> 31)) >> 1

    rows = []
    for d, nc in zip(docs["doc_id"], docs["n_chars"]):
        h, w = sm63(int(d)), int(nc) + 1
        rows.append((h // w, h, int(d), w))
    rows.sort()
    want = pd.DataFrame(
        {
            "doc_id": [r[2] for r in rows[:k]],
            "priority": [r[0] for r in rows[:k]],
            "w": [r[3] for r in rows[:k]],
        }
    )
    assert _sorted(got).equals(_sorted(want))
    assert got["w"].mean() > docs["n_chars"].add(1).mean()


def test_weighted_priority_sample_weight_extremes(ray_session, tmp_path):
    """Degenerate weights behave per spec: a doc with a HUGE weight has
    priority ~0 and is always sampled; w = n_chars + 1 keeps empty docs
    (n_chars=0) legal (divisor 1, never a crash)."""
    from open_parse_ray.stages.analysis import weighted_priority_sample

    n = 500
    df = pd.DataFrame(
        {
            "doc_id": np.arange(n, dtype=np.int64),
            "text": [""] * n,
            "lang": ["en"] * n,
            "source": ["s"] * n,
            "n_chars": np.zeros(n, dtype=np.int64),
        }
    )
    df.loc[7, "n_chars"] = np.int64(1) << 62  # whale doc
    df.to_parquet(tmp_path / "documents.parquet")
    got = _df(weighted_priority_sample(str(tmp_path), k=10))
    assert 7 in set(got["doc_id"])
    assert int(got.loc[got["doc_id"] == 7, "priority"].iloc[0]) == 0


def test_bloom_semijoin_paths_and_fp_storm(ray_session):
    """The Bloom-pruned join equals the exact-key-set twin bitwise, and
    stays exact under a deliberately tiny bitmap (m=64 → nearly every
    probe passes, the in-partition join must remove all false
    positives). Oracle shape cross-checked against DuckDB."""
    from open_parse_ray.stages.relational import bloom_semijoin_orders

    a = _sorted(_df(bloom_semijoin_orders(SF)))
    b = _sorted(_df(bloom_semijoin_orders(SF, use_bloom=False)))
    c = _sorted(_df(bloom_semijoin_orders(SF, m_bits=64, k_hashes=2)))
    assert a.equals(b) and c.equals(b)
    o = _duck(
        """SELECT o_orderkey, o_custkey,
                  CAST(c_nationkey AS BIGINT) AS c_nationkey,
                  CAST(round(o_totalprice*100) AS BIGINT) AS price_cents
           FROM orders o JOIN customer c ON o_custkey = c_custkey
           WHERE c_mktsegment = 'BUILDING'""",
        orders=f"{SF}/orders.parquet",
        customer=f"{SF}/customer.parquet",
    )
    assert a.equals(_sorted(o))


def test_bloom_semijoin_prunes(ray_session):
    """The reduction is real: the survives() bitmap test rejects the
    non-qualifying majority. Direct kernel check — build the filter the
    operator builds, probe with custkeys of NON-segment customers, and
    require the false-positive rate to be under 5% at the default
    (m=2^17, k=4) sizing for this corpus."""
    from open_parse_ray.stages.relational import _bloom_hashes

    cust = pd.read_parquet(f"{SF}/customer.parquet")
    m_bits, k = 1 << 17, 4
    good = cust.loc[cust["c_mktsegment"] == "BUILDING", "c_custkey"].to_numpy(
        dtype=np.int64
    )
    bad = cust.loc[cust["c_mktsegment"] != "BUILDING", "c_custkey"].to_numpy(
        dtype=np.int64
    )
    bm = np.zeros(m_bits // 8, dtype=np.uint8)
    pos = _bloom_hashes(good, m_bits, k).ravel()
    np.bitwise_or.at(bm, pos >> 3, (1 << (7 - (pos & 7))).astype(np.uint8))
    probe = _bloom_hashes(bad, m_bits, k)
    ok = np.ones(len(bad), dtype=bool)
    for i in range(k):
        p = probe[i]
        ok &= ((bm[p >> 3] >> (7 - (p & 7))) & 1).astype(bool)
    assert ok.mean() < 0.05


def test_zorder_box_scan_exact_and_prunes(ray_session, tmp_path):
    """Z-order layout: (1) a box scan equals the brute-force filter
    bitwise, for boxes crossing bucket boundaries and off-grid bounds;
    (2) the layout PRUNES — a 1/16-area box reads far fewer row groups
    than a single-column-sorted layout, whose stripes ignore the second
    dimension; (3) an empty box reads zero groups."""
    from open_parse_ray.sources.clustered import ensure_clustered_table
    from open_parse_ray.sources.zorder import box_scan, ensure_zorder_table

    n = 800_000
    rng = np.random.default_rng(7)
    x = rng.integers(0, 1 << 20, n, dtype=np.int64)
    y = rng.integers(0, 1 << 20, n, dtype=np.int64)
    df = pd.DataFrame(
        {
            "o_orderkey": np.arange(n, dtype=np.int64),
            "o_custkey": x,
            "o_orderstatus": "O",
            "o_totalprice": y.astype(np.float64),
            "o_orderdate": pd.Timestamp("1996-01-01"),
            "o_orderpriority": "1-URGENT",
        }
    )
    df.to_parquet(tmp_path / "orders.parquet")
    zp = ensure_zorder_table(str(tmp_path), "orders", "o_custkey", "o_totalprice")
    # quarter of each dimension → 1/16 of the area (kept inside one
    # top-level quadrant: a box straddling the domain midpoint touches
    # all four Morton quadrants — the curve's known worst case)
    a_lo, a_hi = (1 << 20) * 1 // 16, (1 << 20) * 5 // 16
    b_lo, b_hi = (1 << 20) * 1 // 16, (1 << 20) * 5 // 16
    t, zr, zt = box_scan(zp, "o_custkey", a_lo, a_hi, "o_totalprice", b_lo, b_hi)
    want = df[(x >= a_lo) & (x <= a_hi) & (y >= b_lo) & (y <= b_hi)]
    got = t.to_pandas().sort_values("o_orderkey").reset_index(drop=True)
    assert got["o_orderkey"].tolist() == sorted(want["o_orderkey"].tolist())
    # single-column clustering reads the full x-stripe (~1/4 of groups);
    # the Morton layout localizes both dimensions
    cp = ensure_clustered_table(str(tmp_path), "orders", "o_custkey")
    _, cr, ct = box_scan(cp, "o_custkey", a_lo, a_hi, "o_totalprice", b_lo, b_hi)
    assert zt == ct and zt >= 80
    assert zr < cr, (zr, cr)
    assert zr <= zt // 6  # ~1/16 area + perimeter, generous bound
    # empty box → zero groups read
    _, er, _ = box_scan(zp, "o_custkey", 1 << 21, 1 << 22, "o_totalprice", 0, 10)
    assert er == 0


def test_fuzzy_decontamination_brute_force(ray_session):
    """The zero-exchange broadcast-probe pipeline equals a local brute
    force over ALL (train × bench) pairs: candidate iff >= 1 shared LSH
    band, flagged iff >= min_eq equal signature components — exact
    (n_bench_matches, max_eq) per flagged doc, and the corpus actually
    exercises it (>= 1 flagged doc at sf0.001)."""
    from open_parse_ray.stages.dedup import (
        FastMinHasher,
        _band_buckets,
        fuzzy_decontamination,
        minhash_signatures,
    )

    got = _df(fuzzy_decontamination(SF))
    docs = pd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    h = FastMinHasher(128)
    d = docs[docs["text"].str.split().str.len() >= 3]
    sig = minhash_signatures(d, h, 3)
    mat = np.frombuffer(b"".join(sig["sig"]), dtype=np.uint16).reshape(len(sig), 128)
    ids = sig["doc_id"].to_numpy(np.int64)
    bb = _band_buckets(mat, 16)
    bidx = np.flatnonzero(ids % 97 == 0)
    exp = {}
    for t in np.flatnonzero(ids % 97 != 0):
        cand = bidx[(bb[bidx] == bb[t]).any(axis=1)]
        if len(cand) == 0:
            continue
        eq = (mat[cand] == mat[t]).sum(axis=1)
        eq = eq[eq >= 64]
        if len(eq):
            exp[int(ids[t])] = (len(eq), int(eq.max()))
    gm = {
        int(r.doc_id): (int(r.n_bench_matches), int(r.max_eq))
        for r in got.itertuples()
    }
    assert gm == exp
    assert len(gm) >= 1  # the gate is non-vacuous on this corpus


def test_fuzzy_decontamination_planted(ray_session, tmp_path):
    """Planted leaks behave per spec: a light edit of a benchmark doc
    (one word appended — exact k-gram decontamination already misses
    heavier paraphrase) IS flagged with near-full signature agreement; an
    unrelated doc is NOT; a doc under shingle_k words never crashes or
    flags."""
    from open_parse_ray.stages.dedup import fuzzy_decontamination

    bench_text = " ".join(f"tok{i}" for i in range(60))
    rows = [
        (0, bench_text),                       # benchmark (0 % 97 == 0)
        (1, bench_text + " extra"),            # planted near-copy
        (2, " ".join(f"other{i}" for i in range(60))),  # unrelated
        (3, "tiny doc"),                       # < shingle_k words
    ]
    pd.DataFrame(
        {
            "doc_id": np.array([r[0] for r in rows], dtype=np.int64),
            "text": [r[1] for r in rows],
            "lang": "en",
            "source": "s",
            "n_chars": np.array([len(r[1]) for r in rows], dtype=np.int64),
        }
    ).to_parquet(tmp_path / "documents.parquet")
    got = _df(fuzzy_decontamination(str(tmp_path)))
    assert set(got["doc_id"]) == {1}
    assert int(got["max_eq"].iloc[0]) >= 100  # near-identical signatures


def test_write_sorted_global_order_and_resume(ray_session, tmp_path):
    """Distributed sorted write: (1) concatenating the pid-ordered part
    files yields a strictly increasing (n_chars, doc_id) composite —
    partition ranges are disjoint by construction; (2) the multiset of
    rows equals the input exactly; (3) a re-run is idempotent (content-
    addressed names, identical manifest — the resume contract); (4) a
    manifest+footer-pruned range scan equals the brute filter and reads
    a strict subset of row groups."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from open_parse_ray.sources.sorted_sink import range_scan_sorted, write_sorted

    SFD = "/root/testdata/sf0.001"
    out = str(tmp_path / "sorted")
    cols = ["doc_id", "n_chars", "lang"]
    man = write_sorted(rd.read_parquet(f"{SFD}/documents.parquet", columns=cols), out)
    frames = [pq.read_table(p).to_pandas() for p in man["path"]]
    cat = pd.concat(frames, ignore_index=True)
    k = cat["n_chars"].to_numpy() * np.int64(2**40) + cat["doc_id"].to_numpy()
    assert (np.diff(k) > 0).all()
    src = pd.read_parquet(f"{SFD}/documents.parquet", columns=cols)
    assert (
        cat.sort_values("doc_id")
        .reset_index(drop=True)
        .equals(src.sort_values("doc_id").reset_index(drop=True))
    )
    man2 = write_sorted(
        rd.read_parquet(f"{SFD}/documents.parquet", columns=cols), out
    )
    assert man.equals(man2)
    lo = int(src["n_chars"].quantile(0.4))
    hi = int(src["n_chars"].quantile(0.6))
    t, nread, ntot = range_scan_sorted(out, lo, hi)
    want = src[(src["n_chars"] >= lo) & (src["n_chars"] <= hi)]
    got = t.to_pandas()
    assert sorted(got["doc_id"]) == sorted(want["doc_id"])
    assert 0 < nread < ntot
    # empty range reads nothing
    _, zr, _ = range_scan_sorted(out, int(src["n_chars"].max()) + 10, 10**9)
    assert zr == 0


def test_orders_at_time_segment_boundaries(ray_session, tmp_path):
    """As-of join version-boundary semantics: an order ON the change day
    takes the NEW version (vf <= day); one day earlier takes the prior
    version; a %9 customer walks base → UPGRADED → VIP across its three
    orders; a customer with no changes keeps the base segment
    everywhere."""
    from open_parse_ray.stages.relational import orders_at_time_segment

    # date range [day0, day0+100] → d1 = +40, d2 = +70
    day0 = pd.Timestamp("1995-01-01")
    orders = []
    oid = 0
    for ck, offs in [(9, [0, 39, 40, 69, 70, 100]), (3, [39, 40]), (1, [40, 70])]:
        for d in offs:
            orders.append((oid, ck, day0 + pd.Timedelta(days=d)))
            oid += 1
    pd.DataFrame(
        {
            "o_orderkey": np.array([o[0] for o in orders], dtype=np.int64),
            "o_custkey": np.array([o[1] for o in orders], dtype=np.int64),
            "o_orderstatus": "O",
            "o_totalprice": 100.0,
            "o_orderdate": [o[2] for o in orders],
            "o_orderpriority": "1-URGENT",
        }
    ).to_parquet(tmp_path / "orders.parquet")
    pd.DataFrame(
        {
            "c_custkey": np.array([1, 3, 9], dtype=np.int64),
            "c_name": "c",
            "c_nationkey": np.int32(0),
            "c_acctbal": 0.0,
            "c_mktsegment": ["BUILDING", "MACHINERY", "FURNITURE"],
        }
    ).to_parquet(tmp_path / "customer.parquet")
    got = (
        _df(orders_at_time_segment(str(tmp_path)))
        .sort_values("o_orderkey")
        .reset_index(drop=True)
    )
    assert got["segment"].tolist() == [
        "FURNITURE",   # ck 9, day 0: base
        "FURNITURE",   # ck 9, day 39: one before d1
        "UPGRADED",    # ck 9, day 40: ON d1 → new version
        "UPGRADED",    # ck 9, day 69: one before d2
        "VIP",         # ck 9, day 70: ON d2
        "VIP",         # ck 9, day 100
        "MACHINERY",   # ck 3, day 39
        "UPGRADED",    # ck 3, day 40 (never VIP: 3 % 9 != 0)
        "BUILDING",    # ck 1: no versions ever
        "BUILDING",
    ]


def _sketch_rank_err(vals: np.ndarray, sk) -> int:
    """Worst distance from each percentile's target rank to the
    estimate's true rank interval (ties give an interval)."""
    v = np.sort(vals)
    n = len(v)
    worst = 0
    for p in (1, 5, 25, 50, 75, 95, 99):
        est = sk.quantile(p)
        target = 1 + (p * (n - 1)) // 100
        hi = int(np.searchsorted(v, est, side="right"))
        lo = int(np.searchsorted(v, est, side="left")) + 1
        if not (lo <= target <= hi):
            worst = max(worst, min(abs(hi - target), abs(lo - target)))
    return worst


def test_quantile_sketch_self_certified_bound(ray_session):
    """The compactor sketch's carried err_budget is a VALID rank-error
    bound on every distribution tried (uniform / sorted / reverse /
    constant / heavy-tail), under blockwise insert + merge; the budget
    itself stays ≪ n (k=256 → under 1%); serialization round-trips
    bit-exactly."""
    from open_parse_ray.stages.sketches import MergeQuantileSketch

    rng = np.random.default_rng(0)
    cases = [
        rng.integers(0, 10**9, 200_000),
        np.arange(150_000),
        np.arange(150_000)[::-1].copy(),
        np.zeros(100_000, dtype=np.int64),
        (1.0 / rng.pareto(1.2, 150_000) * 1e6).astype(np.int64),
    ]
    for vals in cases:
        acc = MergeQuantileSketch(256)
        for c in np.array_split(vals, max(1, len(vals) // 7000)):
            s = MergeQuantileSketch(256)
            s.insert(c)
            acc.merge(s)
        assert _sketch_rank_err(vals, acc) <= acc.err_budget
        assert acc.err_budget <= len(vals) // 100
    s = MergeQuantileSketch(64)
    s.insert(rng.integers(0, 1000, 5000))
    s2 = MergeQuantileSketch.from_bytes(s.to_bytes())
    assert s2.n == s.n and s2.err_budget == s.err_budget
    assert all((a == b).all() for a, b in zip(s.levels, s2.levels))


def test_events_value_sketch_quantiles_corpus(ray_session):
    """The distributed one-pass sketch over events.value self-certifies
    on the real corpus: every estimate's true rank lies within
    err_budget of its target, and the estimates agree with exact
    percentiles to within budget ranks."""
    from open_parse_ray.stages.relational import _cents
    from open_parse_ray.stages.sketches import events_value_sketch_quantiles

    got = _df(events_value_sketch_quantiles(SF))
    vals = _cents(
        pd.read_parquet(f"{SF}/events.parquet", columns=["value"])["value"]
    )
    v = np.sort(vals)
    n = len(v)
    assert (got["n"] == n).all()
    budget = int(got["err_budget"].iloc[0])
    assert 0 < budget <= max(1, n // 50)
    for r in got.itertuples():
        target = 1 + (int(r.p) * (n - 1)) // 100
        hi = int(np.searchsorted(v, int(r.est_cents), side="right"))
        lo = int(np.searchsorted(v, int(r.est_cents), side="left")) + 1
        if not (lo <= target <= hi):
            assert min(abs(hi - target), abs(lo - target)) <= budget


def test_linestatus_priority_counts_hand_case(ray_session, tmp_path):
    """High = URGENT/HIGH only; out-of-window ships never count; both
    grid cells split high/low independently."""
    from open_parse_ray.stages.relational import linestatus_priority_counts

    _write_orders(
        tmp_path, o_orderpriority=["1-URGENT", "5-LOW", "2-HIGH"]
    )  # orderkeys 1, 2, 3
    _write_lineitem(
        tmp_path,
        l_orderkey=[1, 1, 2, 2, 3, 3],
        l_returnflag=["A", "A", "A", "N", "N", "N"],
        l_linestatus=["F", "F", "F", "O", "O", "O"],
        l_shipdate=[
            pd.Timestamp("1996-06-01"),
            pd.Timestamp("1995-06-01"),  # before the window: dropped
            pd.Timestamp("1996-06-01"),
            pd.Timestamp("1997-12-31"),  # last in-window day
            pd.Timestamp("1996-06-01"),
            pd.Timestamp("1998-01-01"),  # first out-of-window day
        ],
    )
    out = _df(linestatus_priority_counts(str(tmp_path))).set_index(
        ["l_returnflag", "l_linestatus"]
    )
    assert out.loc[("A", "F"), "high_lines"] == 1  # ok1 in-window line
    assert out.loc[("A", "F"), "low_lines"] == 1  # ok2 (5-LOW)
    assert out.loc[("N", "O"), "high_lines"] == 1  # ok3 (2-HIGH), one in-window
    assert out.loc[("N", "O"), "low_lines"] == 1  # ok2
    assert len(out) == 2


def test_event_type_overlap_matrix_hand_case(ray_session, tmp_path):
    """Diagonal = distinct users per type; repeats of the same (user,
    type) never double-count; disjoint type pairs are absent."""
    from open_parse_ray.stages.relational import event_type_overlap_matrix

    pd.DataFrame(
        {
            "event_id": range(7),
            "ts": [pd.Timestamp("2024-01-01")] * 7,
            # u1: {click, view}; u2: {click} (twice); u3: {view, purchase}
            "user_id": [1, 1, 2, 2, 3, 3, 3],
            "event_type": [
                "click", "view", "click", "click", "view", "purchase", "view",
            ],
            "value": [0.0] * 7,
            "props": ["{}"] * 7,
        }
    ).to_parquet(tmp_path / "events.parquet")
    out = (
        _df(event_type_overlap_matrix(str(tmp_path)))
        .set_index(["type_a", "type_b"])
        .sort_index()
    )
    assert out.loc[("click", "click"), "n_users"] == 2
    assert out.loc[("click", "view"), "n_users"] == 1
    assert out.loc[("view", "view"), "n_users"] == 2
    assert out.loc[("purchase", "purchase"), "n_users"] == 1
    assert out.loc[("purchase", "view"), "n_users"] == 1
    assert ("click", "purchase") not in out.index
    assert len(out) == 5


def test_orders_priority_pivot_hand_case(ray_session, tmp_path):
    """Missing cells are explicit zeros; cents use round-half-away per
    row; each year is one wide row."""
    from open_parse_ray.stages.relational import orders_priority_pivot

    _write_orders(
        tmp_path,
        o_orderpriority=["1-URGENT", "1-URGENT", "5-LOW", "3-MEDIUM"],
        o_totalprice=[10.005, 1.0, 2.5, 3.0],
        o_orderdate=[
            pd.Timestamp("1996-03-01"),
            pd.Timestamp("1996-09-01"),
            pd.Timestamp("1996-01-01"),
            pd.Timestamp("1997-01-01"),
        ],
    )
    out = _df(orders_priority_pivot(str(tmp_path))).set_index("o_year")
    assert out.loc[1996, "n_urgent"] == 2
    # 10.005 * 100 = 1000.5 → half-away → 1001; + 100
    assert out.loc[1996, "cents_urgent"] == 1101
    assert out.loc[1996, "n_low"] == 1 and out.loc[1996, "cents_low"] == 250
    assert out.loc[1996, "n_medium"] == 0 and out.loc[1996, "cents_medium"] == 0
    assert out.loc[1997, "n_medium"] == 1 and out.loc[1997, "cents_medium"] == 300
    assert out.loc[1997, "n_urgent"] == 0
    assert len(out) == 2


def test_important_parts_share_threshold_boundary(ray_session, tmp_path):
    """The gate is cents >= (3*total)//(2*nparts) + 1, i.e. strictly
    above 1.5x average: a part EXACTLY at 1.5x average fails, epsilon
    above passes."""
    from open_parse_ray.stages.relational import important_parts_share

    # four parts: cents 100, 100, 100, 300 -> total 600, avg 150,
    # 1.5x avg = 225; threshold = 1800//8 + 1 = 226. Only part 4 (300).
    _write_lineitem(
        tmp_path,
        l_partkey=[1, 2, 3, 4],
        l_extendedprice=[1.0, 1.0, 1.0, 3.0],
    )
    out = _df(important_parts_share(str(tmp_path)))
    assert out["p_partkey"].tolist() == [4]
    assert out["revenue_cents"].tolist() == [300]

    # exactly at 1.5x: parts 100, 100, 100, 100, 200 -> total 600,
    # nparts 5, threshold = 1800//10 + 1 = 181; 200 passes. But make
    # one EXACTLY equal to the 1.5x point: cents 100,100,150 ->
    # total 350? use 100,100,100,100 (all equal): nobody passes.
    for f in (tmp_path / "lineitem.parquet",):
        f.unlink()
    _write_lineitem(tmp_path, l_partkey=[1, 2, 3, 4])
    out = _df(important_parts_share(str(tmp_path)))
    assert len(out) == 0


def test_important_parts_share_exact_at_threshold(ray_session, tmp_path):
    """A part at EXACTLY 1.5x the average is excluded (strict >)."""
    from open_parse_ray.stages.relational import important_parts_share

    # parts cents: 60, 60, 60, 90, 90, 90 over 6 parts? avg=75,
    # 1.5*avg=112.5 -> none. Construct exact: cents 50,50,50,50,100,
    # total=300, nparts=5, avg=60, 1.5x=90 -> 100 passes, none at 90.
    # Exact-at: cents 30,30,30,30,30,30,90,90 ... simplest: 2 parts
    # (60, 90): total 150, nparts 2, 1.5x avg = 112.5 -> floor form
    # (3*150)//(2*2)+1 = 113 -> 90 fails. 3 parts (10,20,90):
    # total 120, 1.5x avg = 60; part at exactly 60: (10,50,60):
    # total 120, nparts 3, threshold (360)//6+1 = 61 -> 60 FAILS.
    _write_lineitem(
        tmp_path,
        l_partkey=[1, 2, 3],
        l_extendedprice=[0.10, 0.50, 0.60],
    )
    out = _df(important_parts_share(str(tmp_path)))
    assert len(out) == 0  # 60 == 1.5x avg exactly -> strict, excluded


def test_supplier_diversity_exclusion_hand_case(ray_session, tmp_path):
    """Distinct suppliers per brand; repeats don't double-count;
    negative-balance suppliers are excluded everywhere."""
    from open_parse_ray.stages.relational import supplier_diversity

    pd.DataFrame(
        {
            "p_partkey": [1, 2, 3],
            "p_name": ["a", "b", "c"],
            "p_brand": ["B1", "B1", "B2"],
            "p_type": ["t"] * 3,
            "p_size": np.array([1, 1, 1], dtype=np.int32),
            "p_retailprice": [1.0] * 3,
        }
    ).to_parquet(tmp_path / "part.parquet")
    pd.DataFrame(
        {
            "s_suppkey": [10, 11, 12],
            "s_name": ["x", "y", "z"],
            "s_nationkey": np.array([0, 0, 0], dtype=np.int32),
            "s_acctbal": [5.0, -1.0, 5.0],  # 11 excluded
        }
    ).to_parquet(tmp_path / "supplier.parquet")
    _write_lineitem(
        tmp_path,
        # B1 gets suppliers {10, 10, 11(excluded), 12}; B2 gets {11(ex)}
        l_partkey=[1, 2, 1, 2, 3],
        l_suppkey=[10, 10, 11, 12, 11],
    )
    out = _df(supplier_diversity(str(tmp_path))).set_index("p_brand")
    assert out.loc["B1", "n_suppliers"] == 2  # 10 and 12
    assert "B2" not in out.index  # only excluded supplier shipped it
    assert len(out) == 1


def test_orders_priority_unpivot_roundtrip(ray_session, tmp_path):
    """Unpivot of the pivot equals the explicit long grid — zero cells
    present, values identical to the narrow aggregation."""
    from open_parse_ray.stages.relational import orders_priority_unpivot

    _write_orders(
        tmp_path,
        o_orderpriority=["1-URGENT", "5-LOW", "3-MEDIUM"],
        o_totalprice=[1.0, 2.5, 3.0],
        o_orderdate=[
            pd.Timestamp("1996-03-01"),
            pd.Timestamp("1996-01-01"),
            pd.Timestamp("1997-01-01"),
        ],
    )
    out = _df(orders_priority_unpivot(str(tmp_path))).set_index(
        ["o_year", "prio"]
    )
    assert len(out) == 10  # 2 years x 5 classes, zeros explicit
    assert out.loc[(1996, "1-URGENT"), "n"] == 1
    assert out.loc[(1996, "1-URGENT"), "cents"] == 100
    assert out.loc[(1996, "5-LOW"), "cents"] == 250
    assert out.loc[(1996, "3-MEDIUM"), "n"] == 0
    assert out.loc[(1996, "3-MEDIUM"), "cents"] == 0
    assert out.loc[(1997, "3-MEDIUM"), "cents"] == 300
    assert out.loc[(1997, "2-HIGH"), "n"] == 0


def _write_nations_regions(path):
    pd.DataFrame(
        {
            "n_nationkey": np.array([0, 1], dtype=np.int32),
            "n_name": ["NATION_A", "NATION_B"],
            "n_regionkey": np.array([0, 1], dtype=np.int32),
        }
    ).to_parquet(path / "nation.parquet")
    pd.DataFrame(
        {
            "r_regionkey": np.array([0, 1], dtype=np.int32),
            "r_name": ["EUROPE", "ELSEWHERE"],
        }
    ).to_parquet(path / "region.parquet")


def test_nation_year_profit_hand_case(ray_session, tmp_path):
    """Q9 semantics: the name predicate gates parts, profit subtracts
    qty x closed-form cost, and rows group on (supplier nation, order
    YEAR) — not ship year."""
    from open_parse_ray.stages.relational import nation_year_profit

    _write_nations_regions(tmp_path)
    pd.DataFrame(
        {
            "s_suppkey": [10, 11],
            "s_name": ["x", "y"],
            "s_nationkey": np.array([0, 1], dtype=np.int32),
            "s_acctbal": [5.0, 5.0],
        }
    ).to_parquet(tmp_path / "supplier.parquet")
    pd.DataFrame(
        {
            "p_partkey": [1, 2],
            "p_name": ["red widget", "blue bolt"],  # only part 1 matches
            "p_brand": ["B1", "B2"],
            "p_type": ["t", "t"],
            "p_size": np.array([1, 1], dtype=np.int32),
            # cost = round(20.00*100)//2 = 1000 cents
            "p_retailprice": [20.0, 20.0],
        }
    ).to_parquet(tmp_path / "part.parquet")
    _write_orders(
        tmp_path,
        o_orderkey=np.array([1, 2], dtype=np.int64),
        o_orderdate=[pd.Timestamp("1996-06-01"), pd.Timestamp("1997-06-01")],
    )
    _write_lineitem(
        tmp_path,
        l_orderkey=[1, 1, 2],
        l_partkey=[1, 2, 1],  # middle line is the non-matching part
        l_suppkey=[10, 10, 11],
        l_quantity=[2.0, 7.0, 3.0],
        l_extendedprice=[100.0, 999.0, 50.0],
        l_discount=[0.1, 0.0, 0.0],
        # 1996 ship date on a 1997 ORDER: grouping must use order year
        l_shipdate=[pd.Timestamp("1996-07-01")] * 3,
    )
    out = _df(nation_year_profit(str(tmp_path))).set_index(["n_name", "o_year"])
    # line 1: round(100*0.9*100)=9000 - 2*1000 = 7000
    assert out.loc[("NATION_A", 1996), "profit_cents"] == 7000
    # line 3: 5000 - 3*1000 = 2000, grouped under ORDER year 1997
    assert out.loc[("NATION_B", 1997), "profit_cents"] == 2000
    assert len(out) == 2  # part 2's line never appears


def test_min_cost_supplier_ties_region_and_size(ray_session, tmp_path):
    """Q2 semantics: ties on the per-part min are all kept, a CHEAPER
    out-of-region supplier cannot win (or set the min), and oversized
    parts are excluded entirely."""
    from open_parse_ray.stages.relational import min_cost_supplier

    _write_nations_regions(tmp_path)
    pd.DataFrame(
        {
            "s_suppkey": [10, 11, 12],
            "s_name": ["in_a", "in_b", "out"],
            "s_nationkey": np.array([0, 0, 1], dtype=np.int32),  # 12 not EUROPE
            "s_acctbal": [7.5, -2.25, 1.0],
        }
    ).to_parquet(tmp_path / "supplier.parquet")
    pd.DataFrame(
        {
            "p_partkey": [1, 2],
            "p_name": ["a", "b"],
            "p_brand": ["B1", "B2"],
            "p_type": ["t", "t"],
            "p_size": np.array([3, 9], dtype=np.int32),  # part 2 > max_size
            "p_retailprice": [1.0, 1.0],
        }
    ).to_parquet(tmp_path / "part.parquet")
    _write_lineitem(
        tmp_path,
        l_partkey=[1, 1, 1, 1, 2],
        l_suppkey=[10, 10, 11, 12, 10],
        # 10: 3+4=7; 11: 7 (tie); 12 (out of region): 1 — must not win
        l_extendedprice=[3.0, 4.0, 7.0, 1.0, 2.0],
    )
    out = _df(min_cost_supplier(str(tmp_path), max_size=5)).sort_values(
        "s_name"
    )
    assert list(out["s_name"]) == ["in_a", "in_b"]  # tie kept, 'out' absent
    assert list(out["cost_cents"]) == [700, 700]
    assert list(out["p_partkey"]) == [1, 1]  # part 2 oversized
    assert list(out["s_acctbal_cents"]) == [750, -225]
    assert set(out["n_name"]) == {"NATION_A"}


def test_events_type_correlation_moments_hand_case(ray_session, tmp_path):
    """Known 3-hour grids: A=[2,3,0], B=[0,1,2] (zero cells from the
    corpus-wide [min,max] hour span) — every moment checked, the
    derived Pearson sign is the expected negative, and a
    never-co-occurring pair still appears with dot_ab=0."""
    from open_parse_ray.stages.relational import (
        events_type_correlation_moments,
    )

    t0 = pd.Timestamp("2024-01-01 00:00:00")
    hr = pd.Timedelta(hours=1)
    rows = []
    eid = 0
    for h, k in [(0, 2), (1, 3)]:       # A: hours 0,1
        for _ in range(k):
            eid += 1
            rows.append((eid, t0 + h * hr, 1, "A", 1.0, ""))
    for h, k in [(1, 1), (2, 2)]:       # B: hours 1,2
        for _ in range(k):
            eid += 1
            rows.append((eid, t0 + h * hr, 1, "B", 1.0, ""))
    eid += 1
    rows.append((eid, t0, 1, "C", 1.0, ""))  # C: hour 0 only — never with B
    pd.DataFrame(
        rows, columns=["event_id", "ts", "user_id", "event_type", "value", "props"]
    ).to_parquet(tmp_path / "events.parquet")

    out = _df(events_type_correlation_moments(str(tmp_path))).set_index(
        ["type_a", "type_b"]
    )
    ab = out.loc[("A", "B")]
    assert ab["n_hours"] == 3
    assert ab["sum_a"] == 5 and ab["sum_b"] == 3
    assert ab["dot_ab"] == 3          # 2*0 + 3*1 + 0*2
    assert ab["sumsq_a"] == 13 and ab["sumsq_b"] == 5
    # Pearson numerator H*dot - sa*sb = 9 - 15 < 0: anti-correlated
    assert ab["n_hours"] * ab["dot_ab"] - ab["sum_a"] * ab["sum_b"] < 0
    bc = out.loc[("B", "C")]
    assert bc["dot_ab"] == 0          # disjoint hours still emit a row
    assert len(out) == 3              # all unordered pairs of {A,B,C}


def test_bitlen_u64_exact_and_float_log2_regression():
    """The six-step shift ladder must agree with Python int.bit_length
    everywhere — including 2^63-1, where float64 log2 rounds UP to 63
    (the bug the ladder replaces: a hash just below a power of two got
    rank 1 instead of 2 and could leave a register looking untouched)."""
    from open_parse_ray.stages.relational import _bitlen_u64

    edge = [0, 1, 2, 3, (1 << 52) - 1, 1 << 52, (1 << 63) - 1, 1 << 63,
            (1 << 64) - 1, (1 << 63) - 512, (1 << 40) - 1, 12345678901234567]
    rng = np.random.default_rng(7)
    rand = rng.integers(0, 1 << 63, size=500, dtype=np.int64).astype(np.uint64)
    xs = np.concatenate([np.array(edge, dtype=np.uint64), rand])
    got = _bitlen_u64(xs)
    want = [int(x).bit_length() for x in xs.tolist()]
    assert got.tolist() == want
    # the regression itself: float path overstates 2^63-1
    assert int(np.floor(np.log2(np.float64((1 << 63) - 1)))) == 63  # wrong
    assert int((1 << 63) - 1).bit_length() - 1 == 62                # right


def test_hll_user_registers_hand_case(ray_session, tmp_path):
    """Known ids → registers computed independently with Python ints
    (avalanche, top-12-bit index, leading-zero rank of the low 52 bits),
    duplicates collapse under max, types keep separate sketches."""
    from open_parse_ray.stages.relational import hll_user_registers

    def py_reg(uid):
        M = (1 << 64) - 1
        h = uid & M
        h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & M
        h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & M
        h = h ^ (h >> 31)
        idx = h >> 52
        rest = (h << 12) & M
        rank = 53 if rest == 0 else 64 - rest.bit_length() + 1
        return idx, rank

    t0 = pd.Timestamp("2024-01-01")
    rows = []
    for i, (uid, et) in enumerate(
        [(7, "A"), (7, "A"), (8, "A"), (7, "B"), (999999, "B")]
    ):
        rows.append((i, t0, uid, et, 1.0, ""))
    pd.DataFrame(
        rows, columns=["event_id", "ts", "user_id", "event_type", "value", "props"]
    ).to_parquet(tmp_path / "events.parquet")

    out = _df(hll_user_registers(str(tmp_path)))
    got = {
        (r.event_type, int(r.reg_id)): int(r.reg_max)
        for r in out.itertuples()
    }
    want = {}
    for uid, et in [(7, "A"), (8, "A"), (7, "B"), (999999, "B")]:
        idx, rank = py_reg(uid)
        k = (et, idx)
        want[k] = max(want.get(k, 0), rank)
    assert got == want


def test_doc_ngram_novelty_hand_case(ray_session, tmp_path):
    """Tiny corpus with known trigram overlap: doc 0 and doc 1 share
    exactly one trigram ('a b c'), doc 2 is too short for any trigram,
    doc 3 is whitespace-only. Unique = distinct trigrams with corpus
    df == 1; intra-doc repeats of a trigram count once."""
    from open_parse_ray.stages.analysis import doc_ngram_novelty

    pd.DataFrame(
        {
            "doc_id": [0, 1, 2, 3],
            "text": [
                "a b c d",        # tris: 'a b c', 'b c d'
                "x a b c a b c",  # tris: 'x a b','a b c','b c a','c a b'
                "one two",        # no trigram
                "   ",            # empty after strip
            ],
            "lang": ["en"] * 4,
            "source": ["s"] * 4,
            "n_chars": [7, 13, 7, 3],
        }
    ).to_parquet(tmp_path / "documents.parquet")

    out = (
        _df(doc_ngram_novelty(str(tmp_path)))
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert out["doc_id"].tolist() == [0, 1, 2, 3]
    assert out["n_trigrams"].tolist() == [2, 4, 0, 0]
    # 'a b c' has df 2 → not unique for either doc
    assert out["n_unique"].tolist() == [1, 3, 0, 0]


def test_table_profile_orders_nulls_and_minmax(ray_session, tmp_path):
    """Profile over a hand table WITH nulls (the corpus has none):
    null counts per column, exact distinct EXCLUDES nulls (DuckDB
    count(DISTINCT) semantics), cents/epoch-µs canonical min/max, and
    binary string ordering ('Z' < 'a')."""
    from open_parse_ray.stages.relational import table_profile_orders

    t0 = pd.Timestamp("2020-01-02 03:04:05")
    pd.DataFrame(
        {
            "o_orderkey": [1, 2, 3, 4],
            "o_custkey": pd.array([7, None, 7, 9], dtype="Int64"),
            "o_orderstatus": ["a", "Z", None, "a"],
            "o_totalprice": [1.005, 2.0, 2.0, None],
            "o_orderdate": [t0, None, t0, t0 + pd.Timedelta(days=1)],
            "o_orderpriority": ["p", "p", "p", "p"],
        }
    ).to_parquet(tmp_path / "orders.parquet")

    out = (
        table_profile_orders(str(tmp_path))
        .to_pandas()
        .set_index("col")
    )
    assert out.loc["o_custkey", "n_nulls"] == 1
    assert out.loc["o_custkey", "n_distinct"] == 2
    assert out.loc["o_orderstatus", "min_s"] == "Z"  # binary collation
    assert out.loc["o_orderstatus", "max_s"] == "a"
    # float64(1.005)*100 = 100.4999... — rounds to 100 on BOTH sides
    assert out.loc["o_totalprice", "min_s"] == "100"
    assert out.loc["o_totalprice", "n_distinct"] == 2
    assert out.loc["o_orderdate", "min_s"] == str(
        t0.value // 1000
    )
    assert (out["n_rows"] == 4).all()
    assert out.loc["o_orderpriority", "n_distinct"] == 1


def test_events_watermark_lateness_boundaries(ray_session, tmp_path):
    """Hand stream over 2 queues (event_id % 16 ∈ {0, 1}): the global
    first arrival is never late; an event exactly delay behind the
    watermark is ON TIME (strict <); one microsecond more is late; a
    later queue's early-time events are late against the watermark the
    first queue advanced."""
    from open_parse_ray.stages.relational import events_watermark_lateness

    h = 3_600_000_000  # 1h in µs
    t0 = pd.Timestamp("2024-01-01")

    def ts(us):
        return t0 + pd.Timedelta(microseconds=us)

    rows = [
        # queue 0 (ids 0,16,32): times 10h, 11h, 12h — all on time
        (0, ts(10 * h)), (16, ts(11 * h)), (32, ts(12 * h)),
        # queue 1 (ids 1,17,33,49): watermark is now 12h
        (1, ts(10 * h)),          # 12h-10h = 2h behind = delay → ON TIME
        (17, ts(10 * h - 1)),     # 2h + 1µs behind → LATE
        (33, ts(13 * h)),         # advances the watermark, on time
        (49, ts(10 * h)),         # 3h behind the new 13h watermark → LATE
    ]
    pd.DataFrame(
        {
            "event_id": [r[0] for r in rows],
            "ts": [r[1] for r in rows],
            "user_id": 1,
            "event_type": "A",
            "value": 1.0,
            "props": "",
        }
    ).to_parquet(tmp_path / "events.parquet")

    out = _df(events_watermark_lateness(str(tmp_path), delay_hours=2))
    agg = out.groupby("event_type")[["on_time", "late"]].sum()
    assert int(agg.loc["A", "on_time"]) == 5
    assert int(agg.loc["A", "late"]) == 2
    # the 10h-1µs late event lands in the EPOCH hour just before t0+10h
    base = t0.value // 1000  # epoch µs
    w9 = out[out["window_hour"] == (base + 10 * h - 1) // h]
    assert int(w9["late"].sum()) == 1


def test_orders_trailing_revenue_range_frame_semantics(ray_session, tmp_path):
    """RANGE-frame hand cases: the window is inclusive at BOTH ends
    (d-90 exactly is in; d-91 is out) and closes over same-day peers —
    two orders on one day each see BOTH (the ROWS-frame answer would
    differ), mirroring SQL RANGE ... PRECEDING AND CURRENT ROW."""
    from open_parse_ray.stages.relational import orders_trailing_revenue

    d0 = pd.Timestamp("2023-01-01")

    def day(k):
        return d0 + pd.Timedelta(days=k)

    rows = [
        # cust 1: days 0, 90 (in window of each other), 180, 271
        (1, 1, day(0), 10.0),
        (2, 1, day(90), 5.0),    # 90 back reaches day 0 → includes both
        (3, 1, day(180), 2.0),   # 180-90=90: day-90 order ON the edge → in
        (6, 1, day(271), 4.0),   # 271-90=181 > 180 → nothing prior in range
        # cust 2: same-day peers
        (4, 2, day(10), 1.0),
        (5, 2, day(10), 3.0),
    ]
    pd.DataFrame(
        rows, columns=["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"]
    ).assign(o_orderstatus="F", o_orderpriority="1-URGENT").to_parquet(
        tmp_path / "orders.parquet"
    )

    out = _df(orders_trailing_revenue(str(tmp_path))).set_index("o_orderkey")
    assert int(out.loc[1, "trailing_cents"]) == 1000
    assert int(out.loc[2, "trailing_cents"]) == 1500  # day-0 still inside
    assert int(out.loc[2, "n_in_window"]) == 2
    assert int(out.loc[3, "trailing_cents"]) == 700   # day 90 in, day 0 out
    assert int(out.loc[6, "trailing_cents"]) == 400   # exclusive beyond 90d
    # same-day peers both see the full day total
    assert int(out.loc[4, "trailing_cents"]) == 400
    assert int(out.loc[5, "trailing_cents"]) == 400
    assert int(out.loc[4, "n_in_window"]) == 2


def test_table_profile_all_null_column_is_sql_null(ray_session, tmp_path):
    """A column that is NULL corpus-wide must profile to min_s/max_s =
    NULL (SQL min over all NULLs), never '' — and n_distinct 0."""
    from open_parse_ray.stages.relational import table_profile_orders

    pd.DataFrame(
        {
            "o_orderkey": [1, 2],
            "o_custkey": pd.array([None, None], dtype="Int64"),
            "o_orderstatus": ["a", "b"],
            "o_totalprice": [1.0, 2.0],
            "o_orderdate": [pd.Timestamp("2020-01-01")] * 2,
            "o_orderpriority": ["p", "p"],
        }
    ).to_parquet(tmp_path / "orders.parquet")

    out = table_profile_orders(str(tmp_path)).to_pandas().set_index("col")
    ck = out.loc["o_custkey"]
    assert ck["n_nulls"] == 2 and ck["n_distinct"] == 0
    assert ck["min_s"] is None or pd.isna(ck["min_s"])
    assert ck["max_s"] is None or pd.isna(ck["max_s"])


def test_irls_partial_overflow_guard_raises():
    """A single pathological doc (one ~100k-char word → f2 ≈ 10^5) must
    RAISE in the partial, not wrap the int64 batch sum: the per-row
    bound is min(2^53, 2^62 / batch_rows) checked BEFORE summation."""
    import pytest as _pt

    from open_parse_ray.stages.quality_model import _irls_partial_arrays

    X = np.array([[1.0, 0.0, 1.0e5, 0.0, 0.0]])
    y = np.array([0.0])
    w = np.zeros(5)
    with _pt.raises(AssertionError):
        _irls_partial_arrays(X, y, w)
    # a sane row still passes and returns exact integers
    n, gq, hq = _irls_partial_arrays(
        np.array([[1.0, 0.5, -0.25, 0.0, 1.0]]), y, w
    )
    assert int(n) == 1 and gq.dtype == np.int64 and hq.shape == (5, 5)


def test_host_of_ipv6_strips_port():
    from open_parse_ray.functions.urlref import host_of

    assert host_of("https://[2001:db8::1]:8080/x") == "[2001:db8::1]"
    assert host_of("https://[2001:DB8::1]/x") == "[2001:db8::1]"


def test_csv_writer_rejects_empty_string_lang():
    """lang == '' is not representable in the CSV container (it would
    silently round-trip to null); the writer's lang encoder must raise
    loudly, and null must pass through as the empty field."""
    import pytest as _pt

    from open_parse_ray.sources.csvpages import _encode_lang

    assert _encode_lang(None, "u") == ""
    assert _encode_lang("en", "u") == "en"
    with _pt.raises(ValueError, match="empty-string lang"):
        _encode_lang("", "https://x/1")


def test_events_stream_first_seen_arrival_order(ray_session, tmp_path):
    """The first arrival is decided by the REPLAY order (queue, id),
    not timestamp: for a (user, type) pair with events in queues 1 and
    0, the queue-0 event wins even with a LATER ts and a LARGER id."""
    from open_parse_ray.stages.relational import events_stream_first_seen

    t0 = pd.Timestamp("2024-01-01")
    rows = [
        # user 1 type A: id 17 (queue 1, earliest ts) vs id 32 (queue 0)
        (17, t0, 1, "A"),
        (32, t0 + pd.Timedelta(hours=5), 1, "A"),
        # user 1 type B: single event
        (33, t0, 1, "B"),
        # user 2 type A: two events in the SAME queue → smaller id wins
        (16, t0 + pd.Timedelta(hours=9), 2, "A"),
        (48, t0, 2, "A"),
    ]
    pd.DataFrame(
        {
            "event_id": [r[0] for r in rows],
            "ts": [r[1] for r in rows],
            "user_id": [r[2] for r in rows],
            "event_type": [r[3] for r in rows],
            "value": 1.0,
            "props": "",
        }
    ).to_parquet(tmp_path / "events.parquet")

    out = _df(events_stream_first_seen(str(tmp_path))).set_index("event_id")
    assert int(out.loc[32, "is_first"]) == 1  # queue 0 beats queue 1
    assert int(out.loc[17, "is_first"]) == 0
    assert int(out.loc[33, "is_first"]) == 1
    assert int(out.loc[16, "is_first"]) == 1  # same queue: smaller id
    assert int(out.loc[48, "is_first"]) == 0


def test_merge_sorted_runs_order_multiset_idempotent(ray_session, tmp_path):
    """Compaction merge: strict global composite order over the
    concatenated parts, exact multiset vs the two inputs, B rows ABOVE
    run A's global max land in the last partition, and a re-run writes
    byte-identical files (same content-md5 names, nothing replaced)."""
    import os

    import pyarrow.parquet as pq
    import ray.data as rd

    from open_parse_ray.sources.sorted_sink import (
        _read_manifest,
        merge_sorted_runs,
        write_sorted,
    )

    rng = np.random.default_rng(11)
    a = pd.DataFrame(
        {
            "doc_id": np.arange(0, 300, dtype=np.int64),
            "n_chars": rng.integers(10, 200, 300).astype(np.int64),
            "lang": ["en"] * 300,
        }
    )
    b = pd.DataFrame(
        {
            # ids disjoint; includes values ABOVE a's max (500..520)
            "doc_id": np.arange(1000, 1200, dtype=np.int64),
            "n_chars": np.concatenate(
                [rng.integers(10, 200, 180), rng.integers(500, 521, 20)]
            ).astype(np.int64),
            "lang": ["de"] * 200,
        }
    )
    da, db, dm = str(tmp_path / "a"), str(tmp_path / "b"), str(tmp_path / "m")
    write_sorted(rd.from_pandas(a), da, num_parts=5)
    write_sorted(rd.from_pandas(b), db, num_parts=3)
    man = merge_sorted_runs(da, db, dm)

    allr = pd.concat(
        [pq.read_table(p).to_pandas() for p in man["path"]], ignore_index=True
    )
    comp = (allr["n_chars"].to_numpy(np.uint64) << np.uint64(40)) | allr[
        "doc_id"
    ].to_numpy(np.uint64)
    assert (np.diff(comp.astype(np.int64)) > 0).all()
    both = pd.concat([a, b], ignore_index=True)
    assert sorted(allr["doc_id"]) == sorted(both["doc_id"])
    # overflow rows (n_chars >= 500) are all in the LAST pid's file
    last = pq.read_table(man["path"].iloc[-1]).to_pandas()
    assert (allr[allr["n_chars"] >= 500]["doc_id"].sort_values().tolist()
            == last[last["n_chars"] >= 500]["doc_id"].sort_values().tolist())

    files_before = sorted(os.listdir(dm))
    merge_sorted_runs(da, db, dm)  # idempotent re-run
    assert sorted(os.listdir(dm)) == files_before


def test_merge_sorted_runs_empty_side(ray_session, tmp_path):
    """Merging against an empty run degrades to the non-empty run's
    content (order + multiset preserved)."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from open_parse_ray.sources.sorted_sink import (
        merge_sorted_runs,
        write_sorted,
    )

    a = pd.DataFrame(
        {
            "doc_id": np.arange(50, dtype=np.int64),
            "n_chars": np.arange(50, dtype=np.int64) * 3 + 7,
            "lang": ["en"] * 50,
        }
    )
    empty = a.iloc[0:0]
    da, de, dm = str(tmp_path / "a"), str(tmp_path / "e"), str(tmp_path / "m")
    write_sorted(rd.from_pandas(a), da, num_parts=4)
    write_sorted(rd.from_pandas(empty), de, num_parts=4)
    man = merge_sorted_runs(da, de, dm)
    allr = pd.concat(
        [pq.read_table(p).to_pandas() for p in man["path"]], ignore_index=True
    )
    assert sorted(allr["doc_id"]) == sorted(a["doc_id"])
    assert (np.diff(allr["n_chars"].to_numpy()) > 0).all()


def test_merge_sorted_runs_uint64_composites(ray_session, tmp_path):
    """n_chars in [2^23, 2^24) puts composites above 2^63: the merge's
    window test must stay uint64 (an int64 cast sign-wraps and silently
    DROPS those B rows — the reviewed bug). Multiset + order must hold
    with every row in that range."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from open_parse_ray.sources.sorted_sink import (
        merge_sorted_runs,
        write_sorted,
    )

    big = (1 << 23) + 5
    a = pd.DataFrame(
        {
            "doc_id": np.arange(0, 40, dtype=np.int64),
            "n_chars": np.int64(big) + np.arange(40, dtype=np.int64) * 2,
            "lang": ["en"] * 40,
        }
    )
    b = pd.DataFrame(
        {
            "doc_id": np.arange(100, 140, dtype=np.int64),
            "n_chars": np.int64(big) + 1 + np.arange(40, dtype=np.int64) * 2,
            "lang": ["de"] * 40,
        }
    )
    da, db, dm = str(tmp_path / "a"), str(tmp_path / "b"), str(tmp_path / "m")
    write_sorted(rd.from_pandas(a), da, num_parts=4)
    write_sorted(rd.from_pandas(b), db, num_parts=4)
    man = merge_sorted_runs(da, db, dm)
    allr = pd.concat(
        [pq.read_table(p).to_pandas() for p in man["path"]], ignore_index=True
    )
    assert sorted(allr["doc_id"]) == sorted(
        pd.concat([a, b])["doc_id"]
    )  # nothing dropped
    comp = (allr["n_chars"].to_numpy(np.uint64) << np.uint64(40)) | allr[
        "doc_id"
    ].to_numpy(np.uint64)
    assert (np.diff(comp.astype(np.float64)) > 0).all() or (
        comp[1:] > comp[:-1]
    ).all()


def test_composite_value_bound_raises():
    """_composite must raise (never wrap) when the value exceeds 2^24 —
    a wrapped composite silently corrupts every derived rank/boundary."""
    import pytest as _pt

    from open_parse_ray.stages.ranking import _composite

    ok = _composite(np.array([(1 << 24) - 1]), np.array([7]))
    assert int(ok[0]) == (((1 << 24) - 1) << 40) | 7
    with _pt.raises(ValueError, match="value exceeds"):
        _composite(np.array([1 << 24]), np.array([0]))


def test_csv_record_length_mismatch_rejected():
    """pages_from_csv_bytes rejects records whose field count differs
    from the header in BOTH directions — a LONG record (unescaped
    delimiter upstream) must not pass just because the four named
    columns still parse (round-5 advice fix)."""
    import base64

    import pytest

    from open_parse_ray.sources.csvpages import pages_from_csv_bytes

    h64 = base64.b64encode(b"<p>x</p>").decode()
    header = "url,warc_ts_us,html_b64,lang\n"
    good = f"http://a/,1,{h64},en\n"
    ok = pages_from_csv_bytes((header + good).encode())
    assert len(ok) == 1 and ok[0]["url"] == "http://a/"
    long_rec = f"http://a/,1,{h64},en,EXTRA\n"
    with pytest.raises(ValueError, match="mismatch"):
        pages_from_csv_bytes((header + long_rec).encode())
    short_rec = f"http://a/,1,{h64}\n"
    with pytest.raises(ValueError, match="mismatch"):
        pages_from_csv_bytes((header + short_rec).encode())


def test_merge_sorted_runs_legacy_empty_run_rejected(ray_session, tmp_path):
    """A pre-layout empty run (manifest with ZERO rows, no
    schema-bearing part file) must raise a clear error from
    merge_sorted_runs, not IndexError (round-5 advice fix)."""
    import pytest
    import ray.data as rd

    from open_parse_ray.sources.sorted_sink import (
        merge_sorted_runs,
        write_sorted,
    )

    legacy_a = tmp_path / "legacy_a"
    legacy_a.mkdir()
    pd.DataFrame(
        {
            "pid": pd.Series(dtype="int64"),
            "path": pd.Series(dtype="object"),
            "n_rows": pd.Series(dtype="int64"),
            "v_lo": pd.Series(dtype="int64"),
            "v_hi": pd.Series(dtype="int64"),
            "md5": pd.Series(dtype="object"),
        }
    ).to_parquet(legacy_a / "_manifest.parquet")
    empty = pd.DataFrame(
        {
            "doc_id": pd.Series(dtype="int64"),
            "n_chars": pd.Series(dtype="int64"),
            "lang": pd.Series(dtype="object"),
        }
    )
    db = str(tmp_path / "b")
    write_sorted(rd.from_pandas(empty), db, num_parts=2)
    with pytest.raises(ValueError, match="legacy empty run"):
        merge_sorted_runs(str(legacy_a), db, str(tmp_path / "m"))


def test_supplier_diversity_fk_violation_raises(ray_session, tmp_path):
    """A lineitem l_partkey absent from part fails loudly (the -1
    sentinel idiom) instead of silently counting under brand code 0
    (round-5 advice fix)."""
    import pytest
    import ray.exceptions

    from open_parse_ray.stages.relational import supplier_diversity

    pd.DataFrame(
        {
            "p_partkey": [1, 3],  # gap: partkey 2 exists in lineitem only
            "p_name": ["a", "c"],
            "p_brand": ["B1", "B2"],
            "p_type": ["t"] * 2,
            "p_size": np.array([1, 1], dtype=np.int32),
            "p_retailprice": [1.0] * 2,
        }
    ).to_parquet(tmp_path / "part.parquet")
    pd.DataFrame(
        {
            "s_suppkey": [10],
            "s_name": ["x"],
            "s_nationkey": np.array([0], dtype=np.int32),
            "s_acctbal": [5.0],
        }
    ).to_parquet(tmp_path / "supplier.parquet")
    _write_lineitem(tmp_path, l_partkey=[1, 2], l_suppkey=[10, 10])
    with pytest.raises(
        (ray.exceptions.RayTaskError, ValueError), match="absent from part"
    ):
        supplier_diversity(str(tmp_path)).materialize()


def _read_run_rows(man):
    import pyarrow.parquet as pq

    live = man.sort_values("pid")
    return pd.concat(
        [pq.read_table(p).to_pandas() for p in live["path"]], ignore_index=True
    )


def test_merge_sorted_runs_k_equals_iterated_two_way(ray_session, tmp_path):
    """The k-way merge's global row SEQUENCE (order included) is
    identical to iterated two-run merges over the same runs, including
    tie rows (equal (n_chars, doc_id) composites across runs) and an
    empty run in the middle; and the k-way output is sorted with the
    multiset of the union."""
    import ray.data as rd

    from open_parse_ray.sources.sorted_sink import (
        merge_sorted_runs,
        merge_sorted_runs_k,
        write_sorted,
    )

    rng = np.random.RandomState(7)
    frames = []
    for r in range(4):
        n = [40, 25, 0, 33][r]
        frames.append(
            pd.DataFrame(
                {
                    # overlapping doc_id/n_chars across runs -> composite ties
                    "doc_id": rng.randint(0, 30, n).astype(np.int64),
                    "n_chars": rng.randint(0, 12, n).astype(np.int64),
                    "lang": [f"r{r}"] * n,
                }
            )
        )
    dirs = []
    for r, f in enumerate(frames):
        d = str(tmp_path / f"run{r}")
        write_sorted(rd.from_pandas(f), d, num_parts=3)
        dirs.append(d)

    man_k = merge_sorted_runs_k(dirs, str(tmp_path / "kway"))
    rows_k = _read_run_rows(man_k)

    cur = dirs[0]
    for i, d in enumerate(dirs[1:], 1):
        nxt = str(tmp_path / f"it{i}")
        merge_sorted_runs(cur, d, nxt)
        cur = nxt
    rows_it = _read_run_rows(pd.read_parquet(f"{cur}/_manifest.parquet"))

    pd.testing.assert_frame_equal(rows_k, rows_it)
    comp = rows_k["n_chars"].to_numpy(np.uint64) * np.uint64(1 << 40) + rows_k[
        "doc_id"
    ].to_numpy(np.uint64)
    assert (np.diff(comp.astype(object)) >= 0).all()
    union = pd.concat(frames, ignore_index=True)
    assert sorted(map(tuple, rows_k.values.tolist())) == sorted(
        map(tuple, union.values.tolist())
    )
    # idempotent re-run
    man_k2 = merge_sorted_runs_k(dirs, str(tmp_path / "kway"))
    pd.testing.assert_frame_equal(man_k, man_k2)


def test_merge_sorted_runs_k_tie_precedence_and_empty(ray_session, tmp_path):
    """On an exact composite tie the LATER run's row places first
    (merge2's B-first rule applied left-to-right); all-empty runs
    propagate a schema-bearing empty part; a legacy zero-row manifest
    raises."""
    import pytest
    import ray.data as rd

    from open_parse_ray.sources.sorted_sink import (
        merge_sorted_runs_k,
        range_scan_sorted,
        write_sorted,
    )

    dirs = []
    for r in range(3):
        d = str(tmp_path / f"t{r}")
        write_sorted(
            rd.from_pandas(
                pd.DataFrame(
                    {
                        "doc_id": np.array([5], dtype=np.int64),
                        "n_chars": np.array([9], dtype=np.int64),
                        "lang": [f"r{r}"],
                    }
                )
            ),
            d,
            num_parts=2,
        )
        dirs.append(d)
    man = merge_sorted_runs_k(dirs, str(tmp_path / "tm"))
    rows = _read_run_rows(man)
    assert rows["lang"].tolist() == ["r2", "r1", "r0"]

    empty = pd.DataFrame(
        {
            "doc_id": pd.Series(dtype="int64"),
            "n_chars": pd.Series(dtype="int64"),
            "lang": pd.Series(dtype="object"),
        }
    )
    edirs = []
    for r in range(3):
        d = str(tmp_path / f"e{r}")
        write_sorted(rd.from_pandas(empty), d, num_parts=2)
        edirs.append(d)
    eman = merge_sorted_runs_k(edirs, str(tmp_path / "em"))
    assert int(eman["n_rows"].sum()) == 0
    t, _, _ = range_scan_sorted(str(tmp_path / "em"), 0, 100)
    assert t.num_rows == 0 and set(t.schema.names) == {
        "doc_id",
        "n_chars",
        "lang",
    }

    legacy = tmp_path / "legacy"
    legacy.mkdir()
    pd.DataFrame(
        {
            "pid": pd.Series(dtype="int64"),
            "path": pd.Series(dtype="object"),
            "n_rows": pd.Series(dtype="int64"),
            "v_lo": pd.Series(dtype="int64"),
            "v_hi": pd.Series(dtype="int64"),
            "md5": pd.Series(dtype="object"),
        }
    ).to_parquet(legacy / "_manifest.parquet")
    with pytest.raises(ValueError, match="legacy empty run"):
        merge_sorted_runs_k([str(legacy), edirs[0]], str(tmp_path / "lm"))


def _planted_span_corpus(tmp_path):
    """Doc pairs sharing a planted duplicated word run of length L at
    prefix offsets (aA, aB) for every (aA, aB) in {0..7}^2 and L in a
    ladder of lengths; all filler words are globally unique, run words
    are unique to the pair. Returns (dir, meta rows)."""
    Ls = [8, 15, 16, 19, 23, 24, 40, 64]
    ids, texts, meta = [], [], []
    did = 0
    for li, L in enumerate(Ls):
        for aA in range(8):
            for aB in range(8):
                pid = li * 64 + aA * 8 + aB
                run = [f"r{pid}w{k}" for k in range(L)]
                for side, a in (("A", aA), ("B", aB)):
                    words = (
                        [f"f{did}p{j}" for j in range(a)]
                        + run
                        + [f"f{did}s{j}" for j in range(24)]
                    )
                    ids.append(did)
                    texts.append(" ".join(words))
                    did += 1
                meta.append((pid, L, aA, aB, run))
    pd.DataFrame(
        {
            "doc_id": np.asarray(ids, dtype=np.int64),
            "text": texts,
            "lang": ["en"] * len(ids),
            "source": ["s"] * len(ids),
            "n_chars": np.asarray([len(t) for t in texts], dtype=np.int64),
        }
    ).to_parquet(tmp_path / "documents.parquet")
    return str(tmp_path), meta


def test_dup_span_flags_window_boundary_characterization(
    ray_session, tmp_path
):
    """r4-verdict worklist #5: the strided (window=16, stride=8)
    approximation's miss profile vs TRUE arbitrary-length substring
    dedup, measured and pinned EXACTLY on a planted corpus (every
    alignment pair mod 8 x lengths 8..64): a pair is detected iff the
    two copies share their offset mod stride AND the run admits a full
    aligned window (((-a) mod 8) + 16 <= L). Consequences asserted:
    cross-aligned duplicates are missed at EVERY length (7/8 of random
    alignments), and same-aligned runs shorter than 16 + offset-penalty
    are missed; for L >= 23 the same-aligned side always detects. This
    is the documented fidelity bound of the stride approximation; the
    CDC variant below repairs the alignment hole at equal cost."""
    from open_parse_ray.stages.dedup import dup_span_flags

    d, meta = _planted_span_corpus(tmp_path)
    out = _df(dup_span_flags(d)).set_index("doc_id")
    det = out["n_dup_windows"] > 0
    n_long, n_long_det = 0, 0
    for pid, L, aA, aB, _run in meta:
        expect = (aA % 8 == aB % 8) and ((-aA) % 8) + 16 <= L
        got_a = bool(det.get(2 * pid, False))
        got_b = bool(det.get(2 * pid + 1, False))
        assert got_a == expect and got_b == expect, (pid, L, aA, aB)
        if L == 64:
            n_long += 1
            n_long_det += int(got_a)
    # headline miss rate: at L=64 (trivially caught by true substring
    # dedup) the strided kernel detects exactly the 8/64 same-aligned
    # combos — a hard 1/8 ceiling under random alignment
    assert n_long == 64 and n_long_det == 8


def test_dup_span_flags_cdc_alignment_invariant(ray_session, tmp_path):
    """The content-defined-anchor variant detects a planted pair iff
    the run's first L-15 words contain an anchor word (first md5 hex
    char in {0,1}) — INDEPENDENT of either copy's alignment; measured
    detection at L=64 covers every alignment combo (vs 1/8 above)."""
    import hashlib as _hl

    from open_parse_ray.stages.dedup import dup_span_flags_cdc

    d, meta = _planted_span_corpus(tmp_path)
    out = _df(dup_span_flags_cdc(d)).set_index("doc_id")
    det = out["n_dup_windows"] > 0
    n_long, n_long_det = 0, 0
    for pid, L, aA, aB, run in meta:
        if L < 16:
            expect = False
        else:
            expect = any(
                _hl.md5(w.encode()).hexdigest()[0] in "01"
                for w in run[: L - 15]
            )
        got_a = bool(det.get(2 * pid, False))
        got_b = bool(det.get(2 * pid + 1, False))
        assert got_a == expect and got_b == expect, (pid, L, aA, aB)
        if L == 64:
            n_long += 1
            n_long_det += int(got_a)
    # at L=64 detection is content-gated only (49 chances at 1/8 each,
    # ~99.9% per pair); on this deterministic corpus every pair anchors
    assert n_long == 64 and n_long_det == 64


def test_dup_span_flags_exact_full_fidelity(ray_session, tmp_path):
    """The stride-1 variant closes the family: a planted pair is
    detected iff L >= window — at EVERY alignment combo, with the dup
    window count pinned exactly at L-15 per side (no probabilistic
    residue, unlike CDC) — and the bloom prefilter (default 2^22 bits
    AND a hostile 4096-bit stress bitmap full of collisions) returns a
    frame IDENTICAL to bloom_m=0 (the no-false-negative argument)."""
    from open_parse_ray.stages.dedup import dup_span_flags_exact

    d, meta = _planted_span_corpus(tmp_path)
    base = (
        _df(dup_span_flags_exact(d, bloom_m=0))
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    det = base.set_index("doc_id")
    for pid, L, aA, aB, _run in meta:
        expect = L - 15 if L >= 16 else 0
        assert int(det.loc[2 * pid, "n_dup_windows"]) == expect, (pid, L, aA, aB)
        assert int(det.loc[2 * pid + 1, "n_dup_windows"]) == expect, (pid, L, aA, aB)
    for m in (1 << 22, 4096):
        got = (
            _df(dup_span_flags_exact(d, bloom_m=m))
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, base)


def test_dup_span_excise_exact_closed_form(ray_session, tmp_path):
    """stride=1 excision on the planted corpus has a CLOSED-FORM answer:
    for L >= 16 the dup windows tile the whole run ([a, a+L) is cut
    exactly — every position of the run and nothing else), so the
    rebuilt text is the unique fillers and n_removed_words == L; for
    L < 16 nothing is cut. Pins full-fidelity excision at every
    alignment without a reference implementation."""
    import hashlib as _hl

    from open_parse_ray.stages.dedup import dup_span_excise

    d, meta = _planted_span_corpus(tmp_path)
    out = (
        _df(dup_span_excise(d, stride=1))
        .set_index("doc_id")
        .sort_index()
    )
    for pid, L, aA, aB, _run in meta:
        for side, a in (("A", aA), ("B", aB)):
            did = 2 * pid + (0 if side == "A" else 1)
            row = out.loc[did]
            n_words = a + L + 24
            assert int(row["n_words"]) == n_words
            if L >= 16:
                kept = [f"f{did}p{j}" for j in range(a)] + [
                    f"f{did}s{j}" for j in range(24)
                ]
                assert int(row["n_removed_words"]) == L, (pid, L, a)
            else:
                kept = (
                    [f"f{did}p{j}" for j in range(a)]
                    + [f"r{pid}w{k}" for k in range(L)]
                    + [f"f{did}s{j}" for j in range(24)]
                )
                assert int(row["n_removed_words"]) == 0, (pid, L, a)
            assert (
                row["text_md5"]
                == _hl.md5(" ".join(kept).encode()).hexdigest()
            ), (pid, L, a)
