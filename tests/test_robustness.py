"""Scale-robustness gates: poison-document isolation (one bad row must
never fail a block at 10^12 rows) and salted-groupby partition-count
invariance (results must not depend on num_parts)."""

import pyarrow as pa
import pandas as pd

from open_parse_ray.pipelines.extraction import ExtractDocs
from open_parse_ray.sources.pages import PAGES_SCHEMA


def _pages_table(rows):
    return pa.Table.from_pylist(rows, schema=PAGES_SCHEMA)


def test_poison_doc_isolated():
    class Boom:
        pass

    good = {
        "url": "https://x.test/ok",
        "warc_ts": 0,
        "html": b"<html><body><p>" + b"word " * 100 + b"</p></body></html>",
        "text": "",
        "lang": "en",
    }
    # undecodable garbage + absurd nesting stress the parser but must not
    # raise out of the kernel
    poison = dict(good, url="https://x.test/poison", html=b"\xff\xfe" + b"<div>" * 5)
    out = ExtractDocs("basic")(_pages_table([good, poison, good | {"url": "https://x.test/ok2"}]))
    df = out.to_pandas()
    assert len(df) == 3
    ok = df[df["url"] != "https://x.test/poison"]
    assert (ok["status"] == "ok").all()
    # the poison row produced a row (ok or error), never an exception
    assert set(df["status"]) <= {"ok", "error"}


def test_extract_kernel_exception_becomes_error_row(monkeypatch):
    import open_parse_ray.pipelines.extraction as ex

    orig = ex.parse_page

    def flaky(html, pipeline=None):
        if b"BOOM" in (html if isinstance(html, bytes) else html.encode()):
            raise ValueError("synthetic parser crash")
        return orig(html, pipeline)

    monkeypatch.setattr(ex, "parse_page", flaky)
    rows = [
        {"url": "https://x.test/a", "warc_ts": 0, "html": b"<p>fine</p>",
         "text": "", "lang": "en"},
        {"url": "https://x.test/b", "warc_ts": 0, "html": b"<p>BOOM</p>",
         "text": "", "lang": "en"},
    ]
    df = ex.ExtractDocs("basic")(_pages_table(rows)).to_pandas()
    assert list(df["status"]) == ["ok", "error"]
    assert "synthetic parser crash" in df["error"].iloc[1]
    assert df["n_nodes"].iloc[1] == 0


def test_all_three_output_modes_emit_counted_error_rows(monkeypatch):
    """ExtractDocs, ExtractNodes, ExtractLinkedNodes must all account
    for poison documents with a status='error' row — a silent `continue`
    is an unauditable row drop at corpus scale."""
    import open_parse_ray.pipelines.extraction as ex

    orig = ex.parse_page

    def flaky(html, pipeline=None):
        if b"BOOM" in (html if isinstance(html, bytes) else html.encode()):
            raise ValueError("synthetic parser crash")
        return orig(html, pipeline)

    monkeypatch.setattr(ex, "parse_page", flaky)
    rows = [
        {"url": "https://x.test/a", "warc_ts": 0,
         "html": b"<p>" + b"word " * 100 + b"</p>", "text": "", "lang": "en"},
        {"url": "https://x.test/b", "warc_ts": 0, "html": b"<p>BOOM</p>",
         "text": "", "lang": "en"},
    ]
    t = _pages_table(rows)
    for cls in (ex.ExtractDocs, ex.ExtractNodes, ex.ExtractLinkedNodes):
        df = cls("basic")(t).to_pandas()
        err = df[df["status"] == "error"]
        assert len(err) == 1, cls.__name__
        assert err["url"].iloc[0] == "https://x.test/b"
        assert "synthetic parser crash" in err["error"].iloc[0]
        assert (df[df["url"] == "https://x.test/a"]["status"] == "ok").all()
        if "node_idx" in df.columns:
            assert err["node_idx"].iloc[0] == -1


def test_salted_groupby_num_parts_invariance(ray_session, tmp_path):
    import numpy as np
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    from open_parse_ray.stages.dedup import default_num_parts, salted_groupby

    def rows(ids):
        k = (ids * 7919) % 97
        return pd.DataFrame(
            {"k": k, "ks": [f"key-{x:02d}" for x in k], "k2": ids % 3, "v": ids}
        )

    src = rd.range(2000).map_batches(lambda b: rows(b["id"]), batch_format="numpy")
    ids = np.arange(2000, dtype=np.int64)
    # the same rows behind a Parquet read, so the default width runs the
    # byte estimate; ~1 KiB of padding per row puts it at ~2 MiB
    pq.write_table(
        pa.Table.from_pandas(rows(ids).assign(pad=[f"{i:08d}" * 128 for i in ids])),
        tmp_path / "kv.parquet",
    )

    def run(ds, key, parts):
        cols = [key] if isinstance(key, str) else key

        def per_key(part: pd.DataFrame) -> pd.DataFrame:
            return part.groupby(cols, as_index=False).agg(
                n=("v", "size"), s=("v", "sum"), mn=("v", "min")
            )

        return (
            salted_groupby(ds, key, per_key, num_parts=parts)
            .to_pandas()
            .sort_values(cols)
            .reset_index(drop=True)
        )

    # an integer key (salt = value), a string key and a two-column key
    # (salt = hash of the columns), with their group counts
    keys = [("k", 97), ("ks", 97), (["ks", "k2"], 97 * 3)]
    results = [[run(src, key, parts) for parts in (1, 7, 32)] for key, _ in keys]
    for (key, _), res in zip(keys, results):
        res.append(run(rd.read_parquet(str(tmp_path / "kv.parquet")), key, None))
    ctx = ray.data.DataContext.get_current()
    old = ctx.target_max_block_size
    try:
        # lowered block target: the bytes term wins over 4 x CPUs
        ctx.target_max_block_size = 64 * 1024
        pq_src = rd.read_parquet(str(tmp_path / "kv.parquet"))
        cpus = int(ray.cluster_resources()["CPU"])
        width = default_num_parts(pq_src)
        assert width > 4 * cpus
        for (key, _), res in zip(keys, results):
            res.append(run(pq_src, key, None))
        # and the default call runs at that width: one fn call per salt
        groups = salted_groupby(
            pq_src, "k", lambda g: pd.DataFrame({"n": [len(g)]})
        )
        assert groups.count() == len({k % width for k in range(97)})
    finally:
        ctx.target_max_block_size = old
    for (key, n), res in zip(keys, results):
        for other in res[1:]:
            assert res[0].equals(other), key
        assert len(res[0]) == n


def test_salted_groupby_over_pandas_and_arrow_union(ray_session):
    """A union of a pandas-built side and an Arrow-built side goes through
    the exchange: Ray Data cannot put a pandas block and an Arrow block in
    one batch, so the salt stage must take one block per batch."""
    import ray.data as rd

    from open_parse_ray.stages.dedup import salted_groupby

    pandas_side = rd.from_items([{"k": i % 5, "v": i} for i in range(40)]).map_batches(
        lambda b: b.assign(v=b["v"] * 10), batch_format="pandas"
    )
    arrow_side = rd.from_arrow(pa.table({"k": [i % 5 for i in range(30)], "v": list(range(30))}))

    def per_key(part: pd.DataFrame) -> pd.DataFrame:
        return part.groupby("k", as_index=False).agg(n=("v", "size"), s=("v", "sum"))

    got = (
        salted_groupby(pandas_side.union(arrow_side), "k", per_key, num_parts=3)
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    rows = [(i % 5, i * 10) for i in range(40)] + [(i % 5, i) for i in range(30)]
    want = (
        pd.DataFrame(rows, columns=["k", "v"])
        .groupby("k", as_index=False)
        .agg(n=("v", "size"), s=("v", "sum"))
    )
    assert got.equals(want)


def test_salt_key_rule_matches_parent_formulas():
    """The exchange key rule reproduces, value for value, the two salt
    formulas call sites used to write by hand against a pandas batch:
    an integer column is its own salt, and a string/binary column or a
    list of columns salts on ``pd.util.hash_pandas_object(b[key],
    index=False).astype("int64")``."""
    import numpy as np

    from open_parse_ray.stages.dedup import salt_of_key

    frame = pd.DataFrame(
        {
            "i": np.array([5, -3, 2**40, 0, 5, 97], dtype=np.int64),
            "s": ["a", "", "h\u00e9llo", "a", "zz", "a"],
            "y": [b"\x00\xff", b"", b"abc", b"\x00\xff", b"q", b"a"],
        }
    )
    # a pandas-built block read back as Arrow, in one and in two chunks
    one = pa.Table.from_pandas(frame, preserve_index=False)
    two = pa.concat_tables([one.slice(0, 2), one.slice(2)])
    empty = pa.Table.from_pandas(frame.iloc[:0], preserve_index=False)
    for t in (one, two, empty):
        b = t.to_pandas()  # the batch a pandas salt stage was handed
        got = salt_of_key(t, "i")
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, b["i"].to_numpy())
        for key in ("s", "y", ["s", "i"], ["y", "s"]):
            want = pd.util.hash_pandas_object(b[key], index=False).astype("int64")
            got = salt_of_key(t, key)
            assert got.dtype == np.int64, key
            np.testing.assert_array_equal(got, want.to_numpy(), err_msg=str(key))
    # a one-name list is a frame hash, not the column's own salt
    assert not np.array_equal(salt_of_key(one, ["i"]), salt_of_key(one, "i"))
    # a callable salt is passed the table and used as is
    np.testing.assert_array_equal(
        salt_of_key(one, lambda t: t["i"].to_numpy() * 3), frame["i"].to_numpy() * 3
    )


def test_one_exchange_primitive():
    """The engine has one exchange: ``.map_groups(`` is called only in
    stages/dedup.py::salted_groupby, no Ray ``.aggregate(`` call is
    left (bounded groups go through the two-phase aggregate), and the
    retired ``salted_groupby_arrow`` twin is gone."""
    import ast
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[1] / "open_parse_ray"
    exchange, stray = [], []
    for path in sorted(root.rglob("*.py")):
        src = path.read_text()
        assert "salted_groupby_arrow" not in src, path
        for top in ast.parse(src).body:
            owner = (str(path.relative_to(root)), getattr(top, "name", None))
            for node in ast.walk(top):
                if not (
                    isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                ):
                    continue
                where = f"{owner[0]}::{owner[1]}:{node.lineno}"
                if node.func.attr == "aggregate":
                    stray.append(where)
                elif node.func.attr == "map_groups":
                    if owner == ("stages/dedup.py", "salted_groupby"):
                        exchange.append(where)
                    else:
                        stray.append(where)
    assert len(exchange) == 1, exchange
    assert stray == [], stray


def test_one_two_phase_aggregate():
    """The engine has one combine: ``_combine_partials`` and ranking's
    ``_fold`` are neither defined nor called under open_parse_ray/, and
    no ``.repartition(`` or ``.map_batches(`` is chained on a
    ``two_phase_agg(...)`` result, directly or through a name bound from
    one (a finish belongs in ``finalize``, which runs in the combine's
    own one-block call)."""
    import ast
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[1] / "open_parse_ray"
    retired = {"_combine_partials", "_fold"}

    def is_agg(node):
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "two_phase_agg"
        )

    bad = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text())
        bound = {
            t.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign) and is_agg(node.value)
            for t in node.targets
            if isinstance(t, ast.Name)
        }
        for node in ast.walk(tree):
            where = f"{path.relative_to(root)}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in retired:
                bad.append(f"{where} defines {node.name}")
            elif isinstance(node, ast.Name) and node.id in retired:
                bad.append(f"{where} uses {node.id}")
            elif isinstance(node, ast.alias) and node.name in retired:
                bad.append(f"{where} imports {node.name}")
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("repartition", "map_batches")
            ):
                on = node.func.value
                if is_agg(on) or (isinstance(on, ast.Name) and on.id in bound):
                    bad.append(f"{where} {node.func.attr} on a two_phase_agg result")
    assert bad == [], bad


def test_two_phase_agg_kernel_equals_pandas_groupby():
    """The fold/combine kernel of ``two_phase_agg`` equals
    ``DataFrame.groupby(keys, sort=True).agg(...)`` row for row (order
    included) on int64 / string / binary / dictionary keys, one to three
    of them, in one chunk, in several chunks and empty, for sum and for
    int64 and uint64 min/max; a null key and a float sum raise."""
    import numpy as np
    import pytest

    from open_parse_ray.stages.relational import _regroup

    rng = np.random.default_rng(7)
    n = 3000
    words = np.array(["b", "a", "ab", "é", "Z", "", "zz", "a b"], dtype=object)
    cols = {
        "i": rng.integers(-50, 50, n).astype(np.int64),
        "s": words[rng.integers(0, len(words), n)],
        "y": np.array([w.encode() + b"\x00\xff"[: k % 3] for w, k in
                       zip(words[rng.integers(0, len(words), n)], range(n))], dtype=object),
        "d": words[rng.integers(0, 4, n)],
        # beyond 2**53: a sum taken through float64 loses low bits
        "v": rng.integers(-(1 << 54), 1 << 54, n).astype(np.int64),
        "u": rng.integers(0, np.iinfo(np.uint64).max, n, dtype=np.uint64, endpoint=True),
    }
    full = pa.table(
        {
            "i": pa.array(cols["i"]),
            "s": pa.array(cols["s"], pa.string()),
            "y": pa.array(cols["y"], pa.binary()),
            "d": pa.array(cols["d"], pa.string()).dictionary_encode(),
            "v": pa.array(cols["v"]),
            "u": pa.array(cols["u"]),
        }
    )
    chunked = pa.concat_tables(
        [full.slice(a, b - a) for a, b in ((0, 1), (1, 700), (700, 701), (701, n))]
    )
    assert chunked.column("s").num_chunks > 1
    aggs = {"v": "sum", "u": "max", "w": "min", "x": "max", "z": "min"}

    def with_vals(t):
        return (
            t.append_column("w", t.column("v"))
            .append_column("x", t.column("v"))
            .append_column("z", t.column("u"))
        )

    def reference(t, keys):
        plain = {
            c: (t.column(c).cast(pa.string()) if c == "d" else t.column(c)).to_pandas()
            for c in t.column_names
        }
        df = pd.DataFrame(plain)
        return (
            df.groupby(keys, sort=True)
            .agg(**{c: (c, how) for c, how in aggs.items()})
            .reset_index()
        )

    for keys in (["i"], ["s"], ["y"], ["d"], ["s", "i"], ["y", "d"], ["d", "s", "i"]):
        for t in (full, chunked, full.slice(0, 0)):
            t = with_vals(t)
            got = _regroup(t, keys, aggs).to_pandas()
            want = reference(t, keys)
            assert list(got.columns) == list(want.columns), keys
            assert len(got) == len(want), (keys, t.num_rows)
            for c in want.columns:
                g, w = got[c].tolist(), want[c].tolist()
                assert g == w, (keys, t.num_rows, c)
            if t.num_rows:
                assert got["u"].dtype == np.uint64 and got["z"].dtype == np.uint64
                assert got["v"].dtype == np.int64

    nulls = full.set_column(1, "s", pa.array(list(cols["s"][:-1]) + [None], pa.string()))
    with pytest.raises(ValueError, match="null key"):
        _regroup(nulls, ["s"], {"v": "sum"})
    floats = full.append_column("f", pa.array(cols["v"].astype(np.float64) + 0.5))
    with pytest.raises(ValueError, match="integer column"):
        _regroup(floats, ["i"], {"f": "sum"})


def test_default_num_parts_rule(ray_session, tmp_path, monkeypatch):
    """Salt width = max(4 x cluster CPUs, ceil(input bytes / block
    target)); a leaf of unknown size counts the input as 0 bytes."""
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd
    from ray.data.block import BlockMetadata
    from ray.data.datasource import Datasource, ReadTask

    from open_parse_ray.stages import dedup

    class UnsizedSource(Datasource):
        def estimate_inmemory_data_size(self):
            return None

        def get_read_tasks(self, parallelism, **kwargs):
            meta = BlockMetadata(
                num_rows=None, size_bytes=None, input_files=None, exec_stats=None
            )
            return [ReadTask(lambda: [pa.table({"k": [1]})], meta)]

    pq.write_table(pa.table({"k": list(range(1000))}), tmp_path / "k.parquet")
    small = rd.read_parquet(str(tmp_path / "k.parquet"))
    assert 0 < dedup._input_bytes(small) < 1 << 20
    unsized = rd.read_datasource(UnsizedSource()).union(small)
    assert dedup._input_bytes(unsized) == 0
    unsized.context.target_max_block_size = 1  # known bytes alone: > 4 x CPUs
    for cpus, want in ((1, 4), (16, 64), (32, 128)):
        monkeypatch.setattr(ray, "cluster_resources", lambda c=cpus: {"CPU": float(c)})
        assert dedup.default_num_parts() == want
        assert dedup.default_num_parts(small) == want
        assert dedup.default_num_parts(rd.from_items([{"k": 1}])) == want
        assert dedup.default_num_parts(unsized) == want

    # bytes term: 20 GiB at a 128 MiB block target on 1 CPU
    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": 1.0})
    monkeypatch.setattr(dedup, "_input_bytes", lambda ds: 20 * 1024**3)
    small.context.target_max_block_size = 128 * 1024**2
    assert dedup.default_num_parts(small) == 160


def test_fast_tokenizer_fallback_documents_extract():
    """Documents the fast tokenizer bails on (stray '<', unterminated
    script) still extract via the stdlib fallback, and produce the SAME
    elements the stdlib path produces."""
    from html.parser import HTMLParser

    from open_parse_ray.functions import html as H

    body = "word " * 80
    cases = [
        f"<html><body><p>a < b and {body}</p></body></html>",      # stray '<'
        f"<html><body><p>{body}</p><script>var x=1;</body></html>",  # unterminated
        f"<html><body><p>{body}</p>" + "<div>" * 200 + "</body></html>",  # nesting
    ]
    for h in cases:
        via_default = H.html_to_elements(h)

        # force the stdlib path and compare
        slow = H._Extractor()
        slow.feed(h)
        slow.close()
        layout = H._Layout()
        for block in slow.blocks:
            if block.kind == "pagebreak":
                layout.new_page()
            elif block.kind == "table":
                layout.place_table_block(block)
            elif block.kind == "image":
                layout.place_image_block(block)
            else:
                layout.place_text_block(block)
        assert [e.text for e in via_default] == [e.text for e in layout.elements]


def test_new_queries_block_structure_invariance(ray_session):
    """Round-2 operators must produce identical results regardless of
    block structure (the determinism-at-any-parallelism contract the
    extraction path already pins)."""
    import ray.data

    from open_parse_ray.stages import analysis, dedup, relational

    sf = "/root/testdata/sf0.001"
    from open_parse_ray.stages.packing import pack_offsets

    checks = [
        (analysis.gopher_quality_flags, ["doc_id"]),
        (relational.events_asof_prev_click, ["event_id"]),
        (dedup.decontamination_flags, ["doc_id"]),
        (dedup.dup_span_flags, ["doc_id"]),
        (dedup.dup_span_flags_exact, ["doc_id"]),
        (pack_offsets, ["doc_id"]),
    ]

    def norm(ds, keys):
        return ds.to_pandas().sort_values(keys).reset_index(drop=True)

    ctx = ray.data.DataContext.get_current()
    old = ctx.target_max_block_size
    try:
        base = [norm(fn(sf), k) for fn, k in checks]
        ctx.target_max_block_size = 64 * 1024  # force many small blocks
        for (fn, k), want in zip(checks, base):
            assert norm(fn(sf), k).equals(want), fn.__name__
    finally:
        ctx.target_max_block_size = old


def test_round3_queries_block_structure_invariance(ray_session):
    """Round-3 operators (tier ranking, URL ops, tfidf, bloom dedup,
    snapshot diff, PII) are identical at any block structure."""
    import ray.data

    from open_parse_ray.stages import analysis, dedup, incremental, pii, ranking, web

    sf = "/root/testdata/sf0.001"
    checks = [
        (ranking.doc_tiers, ["doc_id"]),
        (web.url_canonical_dedup, ["canonical_url"]),
        (web.url_domain_stats, ["domain"]),
        (analysis.tfidf_top_terms, ["doc_id", "rank"]),
        (dedup.bloom_dup_groups, ["canonical_url"]),
        (incremental.snapshot_diff, ["doc_id"]),
        (pii.pii_scan, ["doc_id"]),
    ]
    from open_parse_ray.stages.curation import prepare_curated_corpus
    from open_parse_ray.stages.relational import events_user_rolling

    checks.append((prepare_curated_corpus, ["doc_id"]))
    checks.append((events_user_rolling, ["event_id"]))
    checks.append((ranking.grouped_rank_events, ["event_id"]))
    checks.append((analysis.heavy_hitter_terms, ["rank"]))
    checks.append((analysis.lang_mix_rebalance, ["lang", "rank"]))
    from open_parse_ray.stages.lines import c4_line_filter, paragraph_dedup

    checks.append((c4_line_filter, ["doc_id"]))
    checks.append((paragraph_dedup, ["doc_id"]))
    from open_parse_ray.stages.quantiles import ratio_quantiles_by_lang

    checks.append((ratio_quantiles_by_lang, ["lang", "p"]))
    checks.append((analysis.ccnet_perplexity_buckets, ["doc_id"]))
    from open_parse_ray.stages.graph import events_type_pagerank

    checks.append((events_type_pagerank, ["event_type"]))
    checks.append((ranking.epoch_shuffle, ["doc_id"]))
    from open_parse_ray.stages.relational import (
        events_funnel,
        events_sliding_distinct,
        events_winsorized_stats,
    )

    checks.append((analysis.bm25_lite_topk, ["rank"]))
    checks.append((analysis.source_ngram_overlap, ["source_a", "source_b"]))
    checks.append((events_funnel, ["user_id"]))
    checks.append((events_sliding_distinct, ["event_type", "window_start"]))
    checks.append((events_winsorized_stats, ["event_type"]))
    checks.append((dedup.keep_best_dedup, ["doc_id"]))
    checks.append((web.leakage_safe_splits, ["doc_id"]))
    from open_parse_ray.stages.relational import (
        events_outlier_flags,
        user_retention_cohorts,
    )

    checks.append((user_retention_cohorts, ["cohort_week", "week_offset"]))
    checks.append((events_outlier_flags, ["event_id"]))
    from open_parse_ray.stages.relational import events_hourly_top_users

    checks.append((events_hourly_top_users, ["hour_epoch", "rank"]))
    from open_parse_ray.stages.graph import copurchase_triangles

    checks.append((copurchase_triangles, ["n_nodes"]))
    from open_parse_ray.stages.relational import events_prior_window_counts

    checks.append((events_prior_window_counts, ["event_id"]))
    from open_parse_ray.stages.incremental import apply_changelog
    from open_parse_ray.stages.relational import (
        events_robust_stats,
        orders_returned_semijoin,
    )

    checks.append((orders_returned_semijoin, ["o_orderpriority"]))
    checks.append((apply_changelog, ["doc_id"]))
    checks.append((events_robust_stats, ["event_type"]))
    checks.append((analysis.frequent_term_pairs, ["term_a", "term_b"]))
    checks.append((dedup.jaccard_selfjoin, ["doc_a", "doc_b"]))
    from open_parse_ray.stages.graph import copurchase_lift_pairs

    checks.append((copurchase_lift_pairs, ["part_a", "part_b"]))
    checks.append((web.url_editdist_pairs, ["url_a", "url_b"]))
    from open_parse_ray.stages.relational import events_session_ids

    checks.append((events_session_ids, ["event_id"]))
    from open_parse_ray.stages.relational import fk_audit

    checks.append((fk_audit, ["relation"]))
    from open_parse_ray.stages.relational import events_user_streaks

    checks.append((events_user_streaks, ["user_id"]))
    from open_parse_ray.stages.relational import events_max_concurrency

    checks.append((events_max_concurrency, ["max_concurrent"]))
    from open_parse_ray.stages.graph import copurchase_distances

    checks.append((copurchase_distances, ["part"]))
    from open_parse_ray.stages.relational import events_hourly_trend

    checks.append((events_hourly_trend, ["event_type"]))
    from open_parse_ray.stages.graph import related_parts_topk

    checks.append((related_parts_topk, ["part", "rank"]))
    from open_parse_ray.stages.graph import recommend_parts_topk

    checks.append((recommend_parts_topk, ["c_custkey", "rank"]))
    from open_parse_ray.stages.relational import events_grouping_sets

    checks.append((events_grouping_sets, ["event_type", "hour_of_day"]))
    from open_parse_ray.stages.relational import customer_rfm_segments

    checks.append((customer_rfm_segments, ["c_custkey"]))
    from open_parse_ray.stages.graph import copurchase_cheapest_paths

    checks.append((copurchase_cheapest_paths, ["part"]))
    from open_parse_ray.stages.relational import customer_order_distribution

    checks.append((customer_order_distribution, ["n_orders"]))
    from open_parse_ray.stages.relational import dormant_balance_report

    checks.append((dormant_balance_report, ["c_mktsegment"]))
    from open_parse_ray.stages.relational import large_volume_orders

    checks.append((large_volume_orders, ["o_orderkey"]))
    checks.append((analysis.inverted_index, ["term", "shard"]))
    checks.append((analysis.distinctive_terms_by_lang, ["lang", "rank"]))
    from open_parse_ray.stages.relational import user_journeys

    checks.append((user_journeys, ["user_id"]))
    from open_parse_ray.stages.relational import events_gap_histogram

    checks.append((events_gap_histogram, ["event_type", "bucket"]))
    from open_parse_ray.stages.graph import copurchase_kcore

    checks.append((copurchase_kcore, ["part"]))
    from open_parse_ray.stages.relational import shipping_priority_top10

    checks.append((shipping_priority_top10, ["l_orderkey"]))
    from open_parse_ray.stages.relational import (
        promo_revenue_share,
        small_qty_order_revenue,
    )

    checks.append((promo_revenue_share, ["ship_month"]))
    checks.append((small_qty_order_revenue, ["n_lineitems"]))
    from open_parse_ray.stages.relational import (
        nation_volume_shipping,
        returned_item_top_customers,
        top_supplier_revenue,
    )

    checks.append((top_supplier_revenue, ["s_suppkey"]))
    checks.append((nation_volume_shipping, ["supp_nation", "cust_nation", "l_year"]))
    checks.append((returned_item_top_customers, ["c_custkey"]))
    from open_parse_ray.stages.relational import (
        largest_doc_by_group,
        order_fulfillment_span,
    )

    checks.append((order_fulfillment_span, ["o_orderpriority"]))
    checks.append((largest_doc_by_group, ["lang", "source"]))
    from open_parse_ray.stages.relational import (
        banded_brand_revenue,
        forecast_revenue_change,
    )

    checks.append((forecast_revenue_change, ["n_lineitems"]))
    checks.append((banded_brand_revenue, ["arm"]))
    from open_parse_ray.stages.graph import copurchase_components

    checks.append((copurchase_components, ["part"]))
    from open_parse_ray.stages.relational import customer_cohort_revenue

    checks.append((customer_cohort_revenue, ["cohort_month", "order_month"]))
    from open_parse_ray.stages.quantiles import order_value_quantiles_by_segment

    checks.append((order_value_quantiles_by_segment, ["c_mktsegment", "p"]))
    from open_parse_ray.stages.relational import loyal_customers

    checks.append((loyal_customers, ["c_custkey"]))
    from open_parse_ray.stages.relational import (
        late_order_priority_counts,
        parts_never_shipped,
        sole_delay_suppliers,
        user_modal_event,
    )

    checks.append((late_order_priority_counts, ["o_orderpriority"]))
    checks.append((sole_delay_suppliers, ["s_suppkey"]))
    checks.append((user_modal_event, ["user_id"]))
    checks.append((parts_never_shipped, ["p_partkey"]))
    from open_parse_ray.stages.relational import customer_order_recency

    checks.append((customer_order_recency, ["c_custkey"]))
    from open_parse_ray.stages.relational import (
        dominant_part_suppliers,
        market_share,
        pareto_frontier_parts,
    )

    checks.append((market_share, ["o_year"]))
    checks.append((pareto_frontier_parts, ["p_partkey"]))
    checks.append((dominant_part_suppliers, ["s_suppkey"]))
    from open_parse_ray.stages.incremental import scd2_history

    checks.append((scd2_history, ["doc_id", "valid_from"]))
    from open_parse_ray.stages.graph import events_type_hits

    checks.append((events_type_hits, ["event_type"]))
    from open_parse_ray.stages.ranking import rank_fusion_docs

    checks.append((rank_fusion_docs, ["doc_id"]))
    checks.append((analysis.greedy_cover_docs, ["round"]))
    from open_parse_ray.stages.relational import events_disorder_stats

    checks.append((events_disorder_stats, ["user_id"]))
    from open_parse_ray.stages.relational import events_drift_cusum

    checks.append((events_drift_cusum, ["event_type"]))
    from open_parse_ray.stages.incremental import corpus_merkle

    checks.append((corpus_merkle, ["level", "bucket"]))
    from open_parse_ray.sources.bucketed import bucketed_join_orders

    checks.append((bucketed_join_orders, ["o_orderkey"]))
    from open_parse_ray.stages.similarity import label_centroid_sums

    checks.append((label_centroid_sums, ["label", "dim"]))
    from open_parse_ray.stages.incremental import stats_after_changelog

    checks.append((stats_after_changelog, ["lang"]))
    from open_parse_ray.stages.relational import events_periodicity

    checks.append((events_periodicity, ["event_type", "lag"]))
    checks.append((web.domain_concentration, ["pct"]))
    from open_parse_ray.sources.clustered import point_lookup_orders

    checks.append((point_lookup_orders, ["o_orderkey"]))
    from open_parse_ray.stages.graph import transition_edges

    checks.append((transition_edges, ["src_t", "dst_t"]))
    from open_parse_ray.stages.relational import user_activity_histogram

    checks.append((user_activity_histogram, ["n_events"]))
    from open_parse_ray.stages.analysis import weighted_priority_sample

    checks.append((weighted_priority_sample, ["doc_id"]))
    from open_parse_ray.stages.relational import bloom_semijoin_orders

    checks.append((bloom_semijoin_orders, ["o_orderkey"]))
    from open_parse_ray.sources.zorder import zorder_box_orders

    checks.append((zorder_box_orders, ["o_orderkey"]))
    from open_parse_ray.stages.dedup import fuzzy_decontamination

    checks.append((fuzzy_decontamination, ["doc_id"]))
    from open_parse_ray.sources.sorted_sink import sorted_range_docs

    checks.append((sorted_range_docs, ["doc_id"]))
    from open_parse_ray.stages.relational import orders_at_time_segment

    checks.append((orders_at_time_segment, ["o_orderkey"]))
    from open_parse_ray.stages.relational import linestatus_priority_counts

    checks.append((linestatus_priority_counts, ["l_returnflag", "l_linestatus"]))
    from open_parse_ray.stages.relational import event_type_overlap_matrix

    checks.append((event_type_overlap_matrix, ["type_a", "type_b"]))
    from open_parse_ray.stages.relational import orders_priority_pivot

    checks.append((orders_priority_pivot, ["o_year"]))
    from open_parse_ray.stages.relational import important_parts_share

    checks.append((important_parts_share, ["p_partkey"]))
    from open_parse_ray.stages.relational import supplier_diversity

    checks.append((supplier_diversity, ["p_brand"]))
    from open_parse_ray.stages.relational import orders_priority_unpivot

    checks.append((orders_priority_unpivot, ["o_year", "prio"]))
    from open_parse_ray.stages.web import charset_decode_docs

    checks.append((charset_decode_docs, ["doc_id"]))
    from open_parse_ray.stages.relational import nation_year_profit

    checks.append((nation_year_profit, ["n_name", "o_year"]))
    from open_parse_ray.stages.relational import min_cost_supplier

    checks.append((min_cost_supplier, ["p_partkey", "s_name"]))
    from open_parse_ray.stages.relational import (
        events_type_correlation_moments,
    )

    checks.append((events_type_correlation_moments, ["type_a", "type_b"]))
    from open_parse_ray.stages.web import robots_filter_docs

    checks.append((robots_filter_docs, ["doc_id"]))
    from open_parse_ray.stages.multimodal import image_dhash_dupes

    checks.append((image_dhash_dupes, ["dhash"]))
    from open_parse_ray.stages.relational import hll_user_registers

    checks.append((hll_user_registers, ["event_type", "reg_id"]))
    from open_parse_ray.stages.web import extract_outlinks, outlink_host_counts

    checks.append((extract_outlinks, ["doc_id", "link_idx"]))
    checks.append((outlink_host_counts, ["host"]))
    from open_parse_ray.stages.analysis import doc_ngram_novelty

    checks.append((doc_ngram_novelty, ["doc_id"]))
    from open_parse_ray.stages.quality_model import quality_logreg_scores

    checks.append((quality_logreg_scores, ["doc_id"]))
    from open_parse_ray.stages.relational import table_profile_orders

    checks.append((table_profile_orders, ["col"]))
    from open_parse_ray.stages.relational import events_watermark_lateness

    checks.append((events_watermark_lateness, ["event_type", "window_hour"]))
    from open_parse_ray.stages.web import anchor_text_index

    checks.append((anchor_text_index, ["url"]))
    from open_parse_ray.stages.relational import orders_trailing_revenue

    checks.append((orders_trailing_revenue, ["o_orderkey"]))
    from open_parse_ray.stages.web import frontier_next_urls

    checks.append((frontier_next_urls, ["host", "rank"]))
    from open_parse_ray.stages.relational import events_stream_first_seen

    checks.append((events_stream_first_seen, ["event_id"]))
    # merged_run_range_docs is NOT listed: its /tmp layout cache makes a
    # second invocation skip the merge, so the check would be vacuous —
    # the merge's block-structure behavior is pinned by its dedicated
    # gates in test_new_ops (fresh tmp_path runs)

    def norm(ds, keys):
        return ds.to_pandas().sort_values(keys).reset_index(drop=True)

    ctx = ray.data.DataContext.get_current()
    old = ctx.target_max_block_size
    try:
        base = [norm(fn(sf), k) for fn, k in checks]
        ctx.target_max_block_size = 64 * 1024
        for (fn, k), want in zip(checks, base):
            assert norm(fn(sf), k).equals(want), fn.__name__
    finally:
        ctx.target_max_block_size = old


def test_salted_ops_under_extreme_skew(ray_session, tmp_path):
    """Skew stress: hot keys carrying 30-50% of all rows (one user with
    30k of 35k events, one order with 10k lineitems, one customer
    owning half the orders, one part on a third of all lines) must not
    change ANY answer — every salted exchange co-locates by key, so a
    hot key concentrates work, never splits it. Each operator is
    cross-checked against its own oracle_sql() on the same skewed
    tables (exactly the driver's comparison, hostile distribution)."""
    import duckdb
    import numpy as np
    import pandas as pd

    import __ray_entry__ as E

    rng = np.random.default_rng(0)
    sf = str(tmp_path)

    # --- events: user 1 is 30k of 35k rows -------------------------------
    n_hot, n_cold = 30_000, 5_000
    user = np.concatenate(
        [np.ones(n_hot, dtype=np.int64), rng.integers(2, 52, n_cold)]
    )
    ts0 = pd.Timestamp("2024-01-01").value // 1000
    ts = ts0 + np.sort(rng.integers(0, 90 * 86_400_000_000, n_hot + n_cold))
    pd.DataFrame(
        {
            "event_id": np.arange(n_hot + n_cold, dtype=np.int64),
            "ts": pd.to_datetime(ts, unit="us"),
            "user_id": user,
            # varied so rolling sums, journeys and modal types differ per row
            "event_type": rng.choice(["click", "view", "purchase"], n_hot + n_cold),
            "value": rng.integers(1, 500, n_hot + n_cold) / 100.0,
            "props": "{}",
        }
    ).to_parquet(tmp_path / "events.parquet")

    # --- orders: customer 1 owns half; dates spread over 1996-1997 -------
    n_orders = 4_000
    ck = np.where(
        rng.random(n_orders) < 0.5, 1, rng.integers(2, 101, n_orders)
    ).astype(np.int64)
    odate = pd.to_datetime(
        pd.Timestamp("1996-01-01").value // 1000
        + rng.integers(0, 720 * 86_400_000_000, n_orders),
        unit="us",
    )
    pd.DataFrame(
        {
            "o_orderkey": np.arange(1, n_orders + 1, dtype=np.int64),
            "o_custkey": ck,
            "o_orderstatus": "O",
            "o_totalprice": np.round(rng.uniform(10, 1000, n_orders), 2),
            "o_orderdate": odate,
            "o_orderpriority": "1-URGENT",
        }
    ).to_parquet(tmp_path / "orders.parquet")

    # --- lineitem: order 1 has 10k lines; part 7 is a third of lines -----
    n_tail = 20_000
    okey = np.concatenate(
        [np.ones(10_000, dtype=np.int64), rng.integers(2, n_orders + 1, n_tail)]
    )
    n_li = len(okey)
    pk = np.where(rng.random(n_li) < 0.33, 7, rng.integers(1, 21, n_li)).astype(
        np.int64
    )
    pd.DataFrame(
        {
            "l_orderkey": okey,
            "l_partkey": pk,
            "l_suppkey": rng.integers(1, 11, n_li),
            "l_linenumber": np.arange(n_li, dtype=np.int32),
            "l_quantity": rng.integers(1, 51, n_li).astype(np.float64),
            "l_extendedprice": np.round(rng.uniform(10, 2000, n_li), 2),
            "l_discount": rng.integers(0, 11, n_li) / 100.0,
            "l_tax": 0.0,
            "l_returnflag": rng.choice(["N", "R"], n_li),
            "l_linestatus": "O",
            "l_shipdate": pd.to_datetime(
                pd.Timestamp("1996-01-01").value // 1000
                + rng.integers(0, 900 * 86_400_000_000, n_li),
                unit="us",
            ),
        }
    ).to_parquet(tmp_path / "lineitem.parquet")

    pd.DataFrame(
        {
            "p_partkey": np.arange(1, 21, dtype=np.int64),
            "p_name": "p",
            "p_brand": ["Brand#13" if k % 3 == 1 else "Brand#1" for k in range(1, 21)],
            "p_type": [
                "PROMO" if k % 4 == 0
                else ("ECONOMY" if k % 3 == 1 else "STANDARD")
                for k in range(1, 21)
            ],
            "p_size": 1,
            "p_retailprice": 1.0,
        }
    ).to_parquet(tmp_path / "part.parquet")
    pd.DataFrame(
        {
            "c_custkey": np.arange(1, 101, dtype=np.int64),
            "c_name": [f"c{i}" for i in range(1, 101)],
            "c_nationkey": np.zeros(100, dtype=np.int64),
            "c_acctbal": np.round(rng.uniform(-100, 1000, 100), 2),
            "c_mktsegment": "BUILDING",
        }
    ).to_parquet(tmp_path / "customer.parquet")
    pd.DataFrame(
        {"n_nationkey": [0], "n_name": ["NATION_19"], "n_regionkey": [0]}
    ).to_parquet(tmp_path / "nation.parquet")
    pd.DataFrame(
        {"r_regionkey": [0], "r_name": ["AMERICA"]}
    ).to_parquet(tmp_path / "region.parquet")
    pd.DataFrame(
        {
            "s_suppkey": np.arange(1, 11, dtype=np.int64),
            "s_name": [f"s{i}" for i in range(1, 11)],
            "s_nationkey": np.zeros(10, dtype=np.int32),
            "s_acctbal": np.zeros(10),
        }
    ).to_parquet(tmp_path / "supplier.parquet")

    queries = E.queries()
    oracles = E.oracle_sql()
    con = duckdb.connect()
    for t in ["events", "orders", "lineitem", "part", "customer", "nation",
              "region", "supplier"]:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{sf}/{t}.parquet'")

    for name in [
        # the user-salted event operators: the hot user's 30k events all
        # land in one partition and must still match row for row
        "events_session_ids",
        "events_user_rolling",
        "user_journeys",
        "order_fulfillment_span",
        "loyal_customers",
        "small_qty_order_revenue",
        "shipping_priority_top10",
        "promo_revenue_share",
        "late_order_priority_counts",
        "user_modal_event",
        # third-continuation ops: the hot part (7, a third of all lines,
        # type ECONOMY) hits the Q8 bitmap + the correlated >15% share;
        # the hot customer (1, half the orders) hits Q8's second
        # exchange; the three-type event stream hits the CUSUM grid
        "market_share",
        "dominant_part_suppliers",
        "events_drift_cusum",
        # round-4 continuation ops: customer 1 (half the orders, all
        # BUILDING) drives the bloom filter to a near-full-pass bitmap
        # and piles half the as-of-join facts into one partition; the
        # custkey-heavy layout stresses zorder's bucketization
        "bloom_semijoin_orders",
        "orders_at_time_segment",
        "zorder_box_orders",
    ]:
        got = queries[name](sf).to_pandas()
        want = con.sql(oracles[name]).df()
        got = got[sorted(got.columns)].sort_values(sorted(got.columns))
        want = want[sorted(want.columns)].sort_values(sorted(want.columns))
        got = got.reset_index(drop=True)
        want = want.reset_index(drop=True)
        assert len(got) == len(want), name
        for c in got.columns:
            assert np.array_equal(
                got[c].to_numpy(), want[c].to_numpy()
            ), f"{name}.{c}"

    # events_disorder_stats under skew: the 30k-event hot user exercises
    # the chunked inversion counter at depth (its O(n^2) SQL oracle is
    # too slow at 9e8 pairs, so compare against the local kernel on the
    # same totally-ordered sequence — the kernel itself is pinned by the
    # brute-force property sweep at smaller n)
    from open_parse_ray.stages.relational import (
        _cents,
        _inversions_chunked,
        events_disorder_stats,
    )

    got = (
        events_disorder_stats(sf)
        .to_pandas()
        .set_index("user_id")
        .sort_index()
    )
    ev = pd.read_parquet(tmp_path / "events.parquet").sort_values(
        ["user_id", "ts", "event_id"]
    )
    for uid, g in ev.groupby("user_id"):
        assert got.loc[uid, "n_events"] == len(g)
        assert got.loc[uid, "inversions"] == _inversions_chunked(
            _cents(g["value"])
        ), uid


# ---------------------------------------------------------------------------
# Exactness of the Arrow text kernels (text_fp, term_counts) against the
# per-row Python formulas they replaced, and of the ANN bucket kernel
# against the row order of its partition. Ray-free.
# ---------------------------------------------------------------------------


def _hostile_strings(n=200_000, seed=0):
    """Random strings over an alphabet where Python and Arrow/RE2 text
    semantics can part: Unicode whitespace that str.split/str.strip know
    but ASCII classes do not, U+0130 and capital sigma (str.lower vs
    utf8_lower), CRLF and double spaces; plus "" and all-whitespace."""
    import random

    alphabet = [
        "a", "b", "ab", "A", "Σ", "İ", " ", "  ", "\t", "\n", "\r", "\r\n",
        "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "　",
    ]
    ws = [" ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "　"]
    rng = random.Random(seed)
    out = ["", " ", "\xa0", "　 \x85"]
    out += ["".join(rng.choices(ws, k=rng.randint(1, 6))) for _ in range(1000)]
    while len(out) < n:
        out.append("".join(rng.choices(alphabet, k=rng.randint(0, 12))))
    return out


def test_text_fp_equals_python_formula():
    import hashlib
    import re

    from open_parse_ray.stages.dedup import text_fp

    texts = _hostile_strings()
    col = pa.chunked_array([texts[:70_000], texts[70_000:]], pa.string())

    ws = re.compile(r"[ \t\n\r]+")
    want = [hashlib.md5(ws.sub(" ", s).strip().lower().encode()).hexdigest() for s in texts]
    fp, salt = text_fp(col, normalize=True)
    assert fp.type == pa.binary(16) and salt.type == pa.int64()
    assert [d.hex() for d in fp.to_pylist()] == want
    assert salt.to_pylist() == [int(h[:8], 16) for h in want]

    raw = [hashlib.md5(s.encode()).hexdigest() for s in texts]
    fp, salt = text_fp(col)
    assert [d.hex() for d in fp.to_pylist()] == raw
    assert salt.to_pylist() == [int(h[:8], 16) for h in raw]

    fp, salt = text_fp(pa.array([], pa.string()), normalize=True)
    assert len(fp) == 0 and len(salt) == 0


def test_term_counts_equal_python_counter():
    import re
    from collections import Counter

    from open_parse_ray.stages.analysis import term_counts

    texts = _hostile_strings(seed=1)
    col = pa.chunked_array([texts[:90_000], texts[90_000:]], pa.string())

    split = re.compile(r"\s+")
    tf: Counter = Counter()
    df: Counter = Counter()
    for t in texts:
        t = t.strip()
        if t:
            tf.update(split.split(t))
            df.update(set(split.split(t)))

    for per_doc, want in ((False, tf), (True, df)):
        got = term_counts(col, per_doc=per_doc)
        assert got.column_names == ["term", "n"]
        assert got.column("n").type == pa.int64()
        terms = got.column("term").to_pylist()
        assert len(set(terms)) == len(terms)
        assert dict(zip(terms, got.column("n").to_pylist())) == dict(want)


def test_utf8_split_whitespace_matches_str_split():
    """Every code point is whitespace to ``pc.utf8_split_whitespace``
    exactly when it is to ``str.split`` — the premise of term_counts,
    which depends on the pyarrow build and its Unicode database."""
    import pyarrow.compute as pc

    strs = [
        "a" + chr(c) + "b"
        for c in range(0x110000)
        if not 0xD800 <= c <= 0xDFFF
    ]
    got = pc.utf8_split_whitespace(pa.array(strs, pa.string()))
    want = [s.split() for s in strs]
    assert pc.list_value_length(got).to_pylist() == [len(w) for w in want]
    assert pc.list_flatten(got).to_pylist() == [x for w in want for x in w]


def test_bucket_topk_partials_independent_of_row_order():
    import numpy as np

    from open_parse_ray.stages.similarity import _bucket_topk_partials

    rng = np.random.default_rng(0)
    rows = []
    for b in range(6):
        for side, n in ((0, int(rng.integers(1, 6))), (1, int(rng.integers(5, 60)))):
            for i in range(n):
                v = rng.standard_normal(64).astype(np.float32).astype(np.float64)
                rows.append({"bucket": b, "id": 1000 * b + i, "side": side, "vec": v.tobytes()})
    part = pd.DataFrame(rows)
    want = _bucket_topk_partials(part, 10)
    assert len(want)
    for seed in range(8):
        got = _bucket_topk_partials(part.sample(frac=1, random_state=seed), 10)
        pd.testing.assert_frame_equal(got, want, check_exact=True)


def _per_word_wrap(runs, max_width):
    """The word-by-word wrap the layout used before lines became run
    slices: one (word, font, size, width) item per word and per " ",
    widths summed one item at a time. Returns (items, width, max_size,
    uni) per line."""
    import re

    from open_parse_ray.functions.html import _char_width, _fontname

    lines, cur, cur_w = [], [], 0.0

    def flush_line():
        nonlocal cur, cur_w
        if cur:
            f0, s0 = cur[0][1], cur[0][2]
            width, msize, uni = 0.0, s0, True
            for t, f, s, w in cur:
                width += w
                if s > msize:
                    msize = s
                if f != f0 or s != s0 or (t != " " and re.search(r"\s", t)):
                    uni = False
            lines.append((cur, width, msize, (f0, s0) if uni else None))
        cur, cur_w = [], 0.0

    for text, bold, italic, size in runs:
        font = _fontname(bold, italic)
        cw = _char_width(size)
        for piece in re.split(r"(\n)", text):
            if piece == "\n":
                flush_line()
                continue
            for word in re.split(r"( )", piece):
                if word == " ":
                    if not cur:
                        continue  # no leading spaces on wrapped lines
                    cur.append((word, font, size, cw))
                    cur_w += cw
                elif word:
                    w = len(word) * cw
                    if cur and cur_w + w > max_width:
                        # drop a trailing space before wrapping
                        while cur and cur[-1][0] == " ":
                            cur.pop()
                        flush_line()
                    cur.append((word, font, size, w))
                    cur_w += w
    flush_line()
    return lines


def test_wrap_equals_per_word_wrap():
    """The slice wrap (a whole line per step while every width is exact)
    equals the per-word wrap on seeded hostile blocks: line text, width
    (bitwise), max size, uniform marker, and the spans of every line and
    of a full-page block against a char-by-char grouping."""
    import random

    from open_parse_ray.functions.html import _Layout
    from open_parse_ray.functions.spans import group_char_items_into_spans

    def charwise_spans(items):
        return group_char_items_into_spans(
            [(ch, f, s) for t, f, s, *_ in items for ch in t]
        )

    def key(spans):
        return [(s.text, s.is_bold, s.is_italic, s.size) for s in spans]

    rng = random.Random(20261019)
    layout = _Layout()
    words = ["a", "of", "the", "wrap", "layout", "extraction", "x" * 90, "y" * 260,
             "t\tab", "v\x0bt", "İx", "n\xa0b"]
    sizes = [12.0, 13.0, 24.0, 13.7, 12.5, 9.3, 0.0]
    seen = dict.fromkeys(["exact+13.7", "double space at boundary", "leading space",
                          "trailing space", "newline run", "long word", "tab/vt"], 0)
    for _ in range(10_000):
        runs = []
        for _ in range(rng.randint(1, 6)):
            r = rng.random()
            if r < 0.08:
                text = "\n"
            elif r < 0.16:
                text = rng.choice([" ", "  ", " \n "])
            else:
                toks = [rng.choice(words) + rng.choice([" ", " ", "  ", "", "\n"])
                        for _ in range(rng.randint(1, 24))]
                text = rng.choice(["", " ", "  "]) + "".join(toks)
            runs.append((text, rng.random() < 0.3, rng.random() < 0.2, rng.choice(sizes)))
        block_sizes = {s for _, _, _, s in runs}
        seen["exact+13.7"] += 13.7 in block_sizes and bool(block_sizes & {12.0, 13.0, 24.0})
        seen["double space at boundary"] += any(
            a[0].endswith(" ") and b[0].startswith(" ") for a, b in zip(runs, runs[1:])
        )
        seen["leading space"] += runs[0][0].startswith(" ")
        seen["trailing space"] += runs[-1][0].endswith(" ")
        seen["newline run"] += any(t == "\n" for t, *_ in runs)
        seen["long word"] += any(("y" * 260) in t for t, *_ in runs)
        seen["tab/vt"] += any("\t" in t or "\x0b" in t for t, *_ in runs)

        want = _per_word_wrap(runs, layout.max_width)
        got = layout._wrap(runs)
        assert [
            ("".join(t for t, *_ in segs), width.hex(), msize, uni)
            for segs, width, msize, uni in got
        ] == [
            ("".join(t for t, *_ in items), width.hex(), msize, uni)
            for items, width, msize, uni in want
        ], runs
        for (segs, width, msize, uni), (items, *_) in zip(got, want):
            line = layout._make_line(segs, 700.0, width, msize, uni)
            assert key(line.spans) == key(charwise_spans(items)), runs
        assert key(group_char_items_into_spans([s for segs, *_ in got for s in segs])) == key(
            charwise_spans([i for items, *_ in want for i in items])
        ), runs
    assert all(n >= 200 for n in seen.values()), seen


def test_embed_bincount_equals_per_feature_loop():
    """The bincount embedder equals the per-feature ``vec[h % dim] +=
    sign`` loop bitwise, and the cached-vector merge equals the list
    round-trip merge (embed_many + a cosine per pair) on random node
    lists with empty-text nodes and similarity ties at the threshold."""
    import hashlib
    import random

    import numpy as np

    from open_parse_ray.functions.embed import (
        CombineNodesSemantically,
        HashedNGramEmbeddings,
    )
    from open_parse_ray.model import Bbox, LineElement, Node, TextElement, TextSpan

    def per_feature_loop(text, dim):
        vec = np.zeros(dim, dtype=np.float64)
        words = text.lower().split()
        for f in words + [f"{a}_{b}" for a, b in zip(words, words[1:])]:
            h = int.from_bytes(hashlib.md5(f.encode("utf-8", "ignore")).digest()[:8], "little")
            vec[h % dim] += 1.0 if (h >> 63) & 1 == 0 else -1.0
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec /= norm
        return vec

    rng = random.Random(7)
    vocab = ["alpha", "beta", "Gamma", "İstanbul", "straße", "ΟΔΟΣ", "x", "_", "a_b"]
    texts = ["", " ", " \t\n\x0b\u3000 ", "İ", "İİ i̇",
             "rep " * 500, " ".join(rng.choice(vocab) for _ in range(10_000))]
    for dim in (64, 32, 7):
        model = HashedNGramEmbeddings(dim=dim)
        for text in texts:
            got, want = model._embed_uncached(text), per_feature_loop(text, dim)
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes(), (dim, text[:20])
            assert model.embed_many([text])[0] == want.tolist()

    def cosine(a, b):
        with np.errstate(invalid="ignore", divide="ignore"):
            return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))

    def list_merge(nodes, client, min_similarity, max_tokens):
        nodes = list(nodes)
        modified = True
        while modified:
            modified = False
            nodes = sorted(nodes)
            embeddings = client.embed_many([n.text for n in nodes])
            i = 0
            while i < len(nodes) - 1:
                similarity = cosine(embeddings[i], embeddings[i + 1])
                if (
                    similarity >= min_similarity
                    and nodes[i].tokens + nodes[i + 1].tokens <= max_tokens
                ):
                    nodes[i] = nodes[i] + nodes[i + 1]
                    del nodes[i + 1]
                    del embeddings[i + 1]
                    modified = True
                    continue
                i += 1
        return nodes

    def node(text, y):
        bbox = Bbox(page=0, page_height=792.0, page_width=612.0, x0=50.0, y0=y, x1=300.0, y1=y + 10)
        line = LineElement(bbox=(50.0, y, 300.0, y + 10), spans=(TextSpan(text=text, is_bold=False, is_italic=False, size=12.0),))
        return Node(elements=(TextElement(text=text, lines=(line,), bbox=bbox),))

    phrases = ["", " ", "alpha beta", "alpha beta gamma", "beta gamma", "delta", "alpha beta"]
    merges = ties = 0
    for trial in range(60):
        nodes = [node(rng.choice(phrases), 700.0 - 12 * k) for k in range(rng.randint(0, 14))]
        client = HashedNGramEmbeddings(dim=rng.choice([16, 64]))
        # a threshold equal to one of the adjacent similarities: a tie
        sims = [cosine(client.embed(a.text), client.embed(b.text)) for a, b in zip(nodes, nodes[1:])]
        sims = [s for s in sims if s == s]  # nan (an empty text) never ties
        threshold = rng.choice(sims) if sims and trial % 2 else rng.choice([0.3, 0.6, 0.99])
        ties += threshold in sims
        max_tokens = rng.choice([4, 20, 1000])
        want = list_merge(nodes, HashedNGramEmbeddings(dim=client.dim), threshold, max_tokens)
        got = CombineNodesSemantically(client, threshold, max_tokens).process(nodes)
        assert [n.text for n in got] == [n.text for n in want], trial
        merges += len(got) < len(nodes)
    assert merges >= 10 and ties >= 20, (merges, ties)
