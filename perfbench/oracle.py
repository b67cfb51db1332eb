"""Expected outputs for each (workload, seed), computed outside the timed region.

Pages workloads: a sha256 over the sorted (url, extracted_text) pairs. For the
seeds in ``expected.json`` the digest is committed, so a change to the
extracted text fails the run; it applies only while the corpus bytes match
the committed ``input_sha256``. Any other seed (or a changed generator) gets
its digest from the in-process ``parse_page`` kernel.

text_dedup: each query's result digest from its ``oracle_sql()`` entry in
``__ray_entry__`` run by DuckDB over the same parquet file.

Computed digests are cached in the corpus directory.

    python3 perfbench/oracle.py --commit 0-19   # rewrite expected.json
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Dict, Iterable, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
COMMITTED = os.path.join(HERE, "expected.json")
PAGES_PIPELINE = {"pages_basic": "basic", "pages_semantic": "semantic"}
QUERIES = ("exact_dedup", "normalized_exact_dedup", "top_terms", "doc_stats_by_lang")


def pairs_digest(pairs: Iterable[Tuple[str, str]]) -> str:
    h = hashlib.sha256()
    for url, text in sorted(pairs):
        h.update(json.dumps([url, text], ensure_ascii=False).encode())
        h.update(b"\n")
    return h.hexdigest()


def table_digest(tables: List) -> str:
    """Order-insensitive digest of query output: columns by name, rows sorted."""
    names, rows = None, []
    for t in tables:
        if t.num_rows == 0:
            continue
        cols = sorted(t.column_names)
        if names is not None and cols != names:
            raise ValueError(f"result batches disagree on columns: {names} vs {cols}")
        names = cols
        rows.extend(zip(*(t.column(c).to_pylist() for c in cols)))
    rows.sort(key=repr)
    return hashlib.sha256(json.dumps([names or [], rows]).encode()).hexdigest()


def kernel_pairs(main_dir: str, pipeline: str) -> List[Tuple[str, str]]:
    """(url, extracted_text) per page from the single-process kernel."""
    import pyarrow.parquet as pq

    from open_parse_ray.pipelines.extraction import doc_row, make_pipeline, parse_page

    pipe = make_pipeline(pipeline)
    t = pq.read_table(os.path.join(main_dir, "pages.parquet"), columns=["url", "html"])
    return [
        (url, doc_row(url, parse_page(html, pipe))["extracted_text"])
        for url, html in zip(t.column("url").to_pylist(), t.column("html").to_pylist())
    ]


def _committed(workload: str, seed: int, input_sha: str):
    with open(COMMITTED) as f:
        entry = json.load(f).get(workload, {}).get(str(seed))
    if entry and entry["input_sha256"] == input_sha:
        return entry["pairs_sha256"]
    return None


def _duckdb_digests(main_dir: str) -> Dict[str, str]:
    import duckdb

    import __ray_entry__

    sql = __ray_entry__.oracle_sql()
    con = duckdb.connect()
    try:
        con.execute("SET threads TO 1")
        path = os.path.join(main_dir, "documents.parquet").replace("'", "''")
        con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{path}')")
        return {q: table_digest([con.sql(sql[q]).arrow()]) for q in QUERIES}
    finally:
        con.close()


def expected(workload: str, corpus: Dict) -> Dict:
    """{"source": ..., digests...} for the corpus built by corpus.ensure."""
    if workload in PAGES_PIPELINE:
        digest = _committed(workload, corpus["seed"], corpus["input_sha256"])
        if digest:
            return {"source": "committed", "pairs_sha256": digest}
    cached = os.path.join(corpus["dir"], "expected.json")
    if os.path.exists(cached):
        with open(cached) as f:
            return json.load(f)
    if workload in PAGES_PIPELINE:
        pairs = kernel_pairs(corpus["main"], PAGES_PIPELINE[workload])
        out = {"source": "in-process parse_page", "pairs_sha256": pairs_digest(pairs)}
    else:
        out = {"source": "duckdb oracle_sql", "queries": _duckdb_digests(corpus["main"])}
    tmp = f"{cached}.tmp{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(out, f)
    os.replace(tmp, cached)
    return out


def _commit(seeds: List[int]) -> None:
    import corpus as corpus_mod

    root = os.path.dirname(HERE)
    try:
        with open(COMMITTED) as f:
            data = json.load(f)
    except FileNotFoundError:
        data = {}
    for workload, pipeline in PAGES_PIPELINE.items():
        for seed in seeds:
            c = corpus_mod.ensure(root, workload, seed)
            data.setdefault(workload, {})[str(seed)] = {
                "input_sha256": c["input_sha256"],
                "pairs_sha256": pairs_digest(kernel_pairs(c["main"], pipeline)),
            }
            print(workload, seed, data[workload][str(seed)]["pairs_sha256"], flush=True)
    with open(COMMITTED, "w") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] != "--commit":
        sys.exit("usage: python3 perfbench/oracle.py --commit FIRST-LAST")
    first, last = (int(x) for x in sys.argv[2].split("-"))
    sys.path.insert(0, os.path.dirname(HERE))
    _commit(list(range(first, last + 1)))
