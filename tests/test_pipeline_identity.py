"""The per-url byte-identity contract (BASELINE.json north_rule):

(a) the Ray Data pipeline's extracted text per url is byte-identical to
    the single-document pure-python kernel;
(b) the result is invariant to batch size / parallelism;
(c) re-running produces identical bytes (determinism).
"""

import pytest

from open_parse_ray.pipelines.extraction import doc_row, extract, parse_page
from open_parse_ray.sources.pages import gen_html, read_pages


@pytest.fixture(scope="module")
def kernel_golden():
    """Pure-python oracle for the first 60 docs of the sf0.001 corpus."""
    golden = {}
    for i in range(60):
        url = f"https://example-42.test/doc/{i:08d}"
        nodes = parse_page(gen_html(i)["html"].encode("utf-8"))
        golden[url] = doc_row(url, nodes)
    return golden


def _ray_results(batch_size):
    out = extract(read_pages(0.001), output="docs", batch_size=batch_size)
    return {r["url"]: r for r in out.take_all()}


def test_ray_matches_kernel_bytes(ray_session, kernel_golden):
    results = _ray_results(batch_size=32)
    for url, expect in kernel_golden.items():
        got = results[url]
        assert got["status"] == "ok"
        assert got["extracted_text"] == expect["extracted_text"], url
        assert list(got["node_texts"]) == expect["node_texts"], url
        assert got["n_nodes"] == expect["n_nodes"]
        assert got["total_tokens"] == expect["total_tokens"]


def test_invariant_to_batch_size_and_skew_branch(ray_session):
    """Skew handling is block-granular: batch_size decides how many
    documents, the 100x tail included, share one kernel call. Text must
    not depend on it."""
    a = _ray_results(batch_size=4)
    b = _ray_results(batch_size=64)
    assert set(a) == set(b)
    for url in a:
        assert a[url]["extracted_text"] == b[url]["extracted_text"], url


def test_rerun_is_deterministic(ray_session):
    a = _ray_results(batch_size=32)
    b = _ray_results(batch_size=32)
    assert {u: r["extracted_text"] for u, r in a.items()} == {
        u: r["extracted_text"] for u, r in b.items()
    }


def test_all_docs_parse_ok(ray_session):
    results = _ray_results(batch_size=32)
    assert len(results) == 200
    bad = [r for r in results.values() if r["status"] != "ok"]
    assert bad == []


def _per_url(output):
    by_url = {}
    for r in extract(read_pages(0.001), output=output, batch_size=32).take_all():
        by_url.setdefault(r["url"], []).append(r)
    for rows in by_url.values():
        rows.sort(key=lambda r: r["node_idx"])
    return by_url


def test_nodes_output_consistent_with_docs(ray_session):
    """nodes and linked_nodes carry, per url and in node order, exactly
    the docs output's node texts, under the same node ids."""
    docs = _ray_results(batch_size=32)
    nodes = _per_url("nodes")
    linked = _per_url("linked_nodes")
    assert set(linked) == set(nodes)
    for url, rows in nodes.items():
        assert [r["text"] for r in rows] == list(docs[url]["node_texts"])
        # deterministic ids
        assert len({r["node_id"] for r in rows}) == len(rows)
        assert [(r["text"], r["node_id"]) for r in linked[url]] == [
            (r["text"], r["node_id"]) for r in rows
        ], url


def test_prepare_training_corpus_deterministic_and_gated(ray_session):
    """The end-to-end prep pipeline (extract → quality gate → corpus
    dedup) is deterministic at different dedup partition counts, keeps
    only ok/en/≥50-token docs, and emits one row per distinct text."""
    from open_parse_ray.pipelines.extraction import prepare_training_corpus

    sf = "/root/testdata/sf0.001"
    a = prepare_training_corpus(sf).to_pandas().sort_values("url").reset_index(drop=True)
    b = (
        prepare_training_corpus(sf, dedup_parts=7)
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    import pandas as pd

    pd.testing.assert_frame_equal(a, b)
    assert len(a) > 0
    assert (a["total_tokens"] >= 50).all()
    assert a["fp"].is_unique
