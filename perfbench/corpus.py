"""Seeded inputs for the benchmark workloads, written once per (workload, seed).

Every input comes from the engine's synthetic page generator,
``open_parse_ray.sources.pages.gen_pages_batch(indices, seed)``; the seed is
the only thing that differs between two runs of one workload. A corpus is
written atomically (temporary directory, then rename) under
``.perfbench/cache/`` in the checkout, so an interrupted or concurrent run
never reads half a corpus. Each corpus directory holds ``main/`` (the timed
input), ``warmup/`` (a small slice for the set-up batch) and ``corpus.json``
(rows, bytes, the 100x share of bytes and the planted duplicate share).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
from typing import Dict, List

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# Bump when the corpus layout below changes: cached corpora are keyed by it.
LAYOUT = 3

WORKLOADS = {
    "pages_basic": "flagship path: natural page mix with the 1% 100x tail "
    "through the basic 12-step chain, docs output; HTML parsing dominates",
    "pages_semantic": "short pages only through the semantic chain; same read, "
    "HTML and Ray path, but the embedder merge is a third of the kernel",
    "text_dedup": "documents table with planted exact and recased/re-spaced "
    "copies through four exchange queries; no HTML parsing at all",
}

PAGES_DOCS = 400
# The generator makes every 97th page 100x larger (sources/pages.py gen_html).
LARGE_EVERY = 97
LARGE_DOCS = 4
# A large page is 100x a random count of 2 to 5 sections, so a run could draw
# mostly big or mostly small ones. Picking LARGE_DOCS of LARGE_CANDIDATES at
# the size-rank quantiles 1/8, 3/8, 5/8 and 7/8 takes one page of each size,
# which keeps the tail's share of work the same for every seed.
LARGE_CANDIDATES = 96
WARMUP_ROWS = 32

DEDUP_ORIGINALS = 4500
DEDUP_COPIES = 500  # half exact copies, half recased or re-spaced copies
DEDUP_WARMUP_ROWS = 256


def cache_root(root: str) -> str:
    return os.path.join(root, ".perfbench", "cache")


def _small_indices(n: int) -> List[int]:
    out, i = [], 1
    while len(out) < n:
        if i % LARGE_EVERY:
            out.append(i)
        i += 1
    return out


def pages_indices(seed: int, with_tail: bool) -> List[int]:
    """Page indices of a pages corpus, in corpus order."""
    if not with_tail:
        return _small_indices(PAGES_DOCS)
    from open_parse_ray.sources.pages import gen_html

    candidates = [LARGE_EVERY * j for j in range(1, LARGE_CANDIDATES + 1)]
    by_size = sorted(candidates, key=lambda i: (len(gen_html(i, seed)["html"]), i))
    step = LARGE_CANDIDATES / LARGE_DOCS
    order = _small_indices(PAGES_DOCS - LARGE_DOCS)
    for k in range(LARGE_DOCS):
        # spread the large pages evenly through the corpus
        order.insert(int((k + 0.5) * PAGES_DOCS / LARGE_DOCS), by_size[int((k + 0.5) * step)])
    return order


def _pages_corpus(seed: int, with_tail: bool, out: str) -> Dict:
    from open_parse_ray.sources.pages import gen_pages_batch

    idx = pages_indices(seed, with_tail)
    table = gen_pages_batch(np.asarray(idx, dtype=np.int64), seed)
    sizes = [len(h) for h in table.column("html").to_pylist()]
    large = [s for i, s in zip(idx, sizes) if i % LARGE_EVERY == 0]
    small = sorted(s for i, s in zip(idx, sizes) if i % LARGE_EVERY)
    if large and min(large) < 20 * small[len(small) // 2]:
        raise RuntimeError("generator no longer makes every 97th page 100x larger")
    pq.write_table(table, os.path.join(out, "main", "pages.parquet"), row_group_size=128)
    pq.write_table(table.slice(0, WARMUP_ROWS), os.path.join(out, "warmup", "pages.parquet"))
    digest = hashlib.sha256()
    for url, html in zip(table.column("url").to_pylist(), table.column("html").to_pylist()):
        digest.update(url.encode() + b"\0" + html + b"\n")
    return {
        "rows": table.num_rows,
        "html_bytes": sum(sizes),
        "large_docs": len(large),
        "large_share_of_bytes": sum(large) / sum(sizes),
        "input_sha256": digest.hexdigest(),
    }


def _recase(text: str, rng: random.Random) -> str:
    return text.upper() if rng.random() < 0.5 else text.swapcase()


def _respace(text: str, rng: random.Random) -> str:
    words = text.split(" ")
    gaps = [rng.choice(("  ", " ", "\t", " \n ")) for _ in words[1:]]
    body = words[0] + "".join(g + w for g, w in zip(gaps, words[1:]))
    return "  " + body + "\n"


def _documents_corpus(seed: int, out: str) -> Dict:
    from open_parse_ray.sources.pages import gen_pages_batch

    pages = gen_pages_batch(np.asarray(_small_indices(DEDUP_ORIGINALS), dtype=np.int64), seed)
    texts = pages.column("text").to_pylist()
    langs = pages.column("lang").to_pylist()
    rng = random.Random(f"text_dedup:{seed}")
    rows = [(t, lang, f"crawl-{rng.randrange(3)}") for t, lang in zip(texts, langs)]
    for c in range(DEDUP_COPIES):
        src = rng.randrange(len(texts))
        text = texts[src]
        if c % 2:
            text = (_recase if rng.random() < 0.5 else _respace)(text, rng)
            if text == texts[src]:
                raise RuntimeError("a planted near-copy equals its original")
        rows.append((text, langs[src], "mirror"))
    rng.shuffle(rows)
    table = pa.table(
        {
            "doc_id": pa.array(np.arange(len(rows)), pa.int64()),
            "text": pa.array([r[0] for r in rows], pa.string()),
            "lang": pa.array([r[1] for r in rows], pa.string()),
            "source": pa.array([r[2] for r in rows], pa.string()),
            "n_chars": pa.array([len(r[0]) for r in rows], pa.int64()),
        }
    )
    pq.write_table(table, os.path.join(out, "main", "documents.parquet"), row_group_size=512)
    pq.write_table(
        table.slice(0, DEDUP_WARMUP_ROWS), os.path.join(out, "warmup", "documents.parquet")
    )
    return {
        "rows": table.num_rows,
        "text_bytes": sum(len(r[0].encode()) for r in rows),
        "planted_duplicate_share": DEDUP_COPIES / len(rows),
        "planted_exact_share": (DEDUP_COPIES - DEDUP_COPIES // 2) / len(rows),
        "planted_normalized_share": (DEDUP_COPIES // 2) / len(rows),
    }


def ensure(root: str, workload: str, seed: int) -> Dict:
    """Corpus description for (workload, seed), building it on first use."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    path = os.path.join(cache_root(root), f"{workload}-l{LAYOUT}-s{seed}")
    meta_path = os.path.join(path, "corpus.json")
    if not os.path.exists(meta_path):
        tmp = f"{path}.tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(os.path.join(tmp, "main"))
        os.makedirs(os.path.join(tmp, "warmup"))
        if workload == "text_dedup":
            stats = _documents_corpus(seed, tmp)
        else:
            stats = _pages_corpus(seed, workload == "pages_basic", tmp)
        stats.update(workload=workload, seed=seed, layout=LAYOUT)
        with open(os.path.join(tmp, "corpus.json"), "w") as f:
            json.dump(stats, f, indent=1)
        try:
            os.rename(tmp, path)
        except OSError:  # another run finished the same corpus first
            shutil.rmtree(tmp, ignore_errors=True)
    with open(meta_path) as f:
        meta = json.load(f)
    meta.update(
        dir=path, main=os.path.join(path, "main"), warmup=os.path.join(path, "warmup")
    )
    return meta
