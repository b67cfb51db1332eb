"""Line-level webtext curation: C4-style line filtering and corpus-level
duplicated-paragraph removal (MassiveText-style).

The ``documents`` test corpus is single-space word soup with no line
structure, so — exactly like ``web.synth_messy_url`` — both operators
run over a DETERMINISTIC closed-form synthesis of page lines from
(doc_id, text): fixed-size word chunks with deterministic terminal
punctuation, shared boilerplate paragraphs injected on a (doc_id + i)
schedule (these are the cross-document duplicates and the
'javascript' C4 signal), and lorem-ipsum / curly-brace trailer lines on
doc_id residues (the C4 page-level drop signals). The DuckDB oracle
derives the identical line set in closed form, so both operators are
hash-verified end to end.

Reference anchors: the line/paragraph semantics follow C4 (Raffel et
al. 2020, §2.2 badlines filtering) and MassiveText/Gopher (Rae et al.
2021, repetition/dedup appendix); the reference repo has no corpus-level
counterpart (its dedup is per-document, basic_transforms.py:235-258 —
``RemoveRepeatedElements`` — whose drop-all semantics paragraph_dedup
generalizes across documents).
"""

from __future__ import annotations

from typing import List

import numpy as np
import pandas as pd

CHUNK = 8  # words per synthesized line

BOILERPLATE = (
    "please enable javascript to continue reading this page.",
    "subscribe to our newsletter for weekly updates and exclusive offers.",
    "all rights reserved, terms of service and privacy policy apply.",
)
LOREM_LINE = "lorem ipsum dolor sit amet consectetur adipiscing elit."
CURLY_LINE = "function() { return 0; }"

TERMINAL_PUNCT = frozenset({".", "!", "?", '"'})


def synth_page_lines(doc_id: int, text: str) -> List[str]:
    """Deterministic page-line synthesis (closed form, mirrored by the
    SQL oracle): CHUNK-word lines, '.' appended when (doc_id+i)%4 < 3,
    boilerplate BOILERPLATE[((doc_id+i)//6)%3] inserted after line i when (doc_id+i)%6 == 0, lorem /
    curly trailer lines on doc_id%31 / doc_id%37."""
    if not text:
        return []
    words = text.split(" ")
    out: List[str] = []
    for i in range((len(words) + CHUNK - 1) // CHUNK):
        ln = " ".join(words[i * CHUNK : (i + 1) * CHUNK])
        if (doc_id + i) % 4 < 3:
            ln += "."
        out.append(ln)
        if (doc_id + i) % 6 == 0:
            # selector uses //6 so it varies on the %6==0 schedule
            out.append(BOILERPLATE[((doc_id + i) // 6) % 3])
    if doc_id % 31 == 0:
        out.append(LOREM_LINE)
    if doc_id % 37 == 0:
        out.append(CURLY_LINE)
    return out


def c4_keep_line(line: str) -> bool:
    """C4 badlines rule: keep a line iff it ends in terminal
    punctuation, has >= 5 words, and does not mention javascript."""
    if not line or line[-1] not in TERMINAL_PUNCT:
        return False
    if sum(1 for w in line.split(" ") if w) < 5:
        return False
    return "javascript" not in line.lower()


def c4_doc_is_bad(lines: List[str]) -> bool:
    """C4 page-level drop: any line with a curly brace or the lorem
    ipsum placeholder kills the whole document."""
    return any("{" in ln or "lorem ipsum" in ln.lower() for ln in lines)


def c4_line_filter(sf_dir: str):
    """C4-style line filtering (Raffel et al. 2020 §2.2) over the
    synthesized page lines: per document, keep only lines that end in
    terminal punctuation, have >= 5 words, and don't mention
    javascript; drop the whole document if any line contains '{' or
    'lorem ipsum', or if fewer than 3 lines survive. Emits
    (doc_id, n_lines, n_kept, text) for surviving docs, text = kept
    lines joined by newline.

    Scale shape: entirely per-document — ONE stateless streaming
    map_batches, no exchange, no driver state; the canonical cheap
    first-pass filter before any dedup shuffle ships bytes. SQL-oracle
    hash-verified (the oracle re-synthesizes the lines in closed
    form)."""
    from open_parse_ray.stages.analysis import read_documents

    def run(b: pd.DataFrame) -> pd.DataFrame:
        ids, n_lines, n_kept, texts = [], [], [], []
        for d, t in zip(b["doc_id"], b["text"]):
            lines = synth_page_lines(int(d), t)
            if not lines or c4_doc_is_bad(lines):
                continue
            kept = [ln for ln in lines if c4_keep_line(ln)]
            if len(kept) < 3:
                continue
            ids.append(int(d))
            n_lines.append(len(lines))
            n_kept.append(len(kept))
            texts.append("\n".join(kept))
        return pd.DataFrame(
            {
                "doc_id": np.asarray(ids, dtype=np.int64),
                "n_lines": np.asarray(n_lines, dtype=np.int64),
                "n_kept": np.asarray(n_kept, dtype=np.int64),
                "text": texts,
            }
        )

    return read_documents(sf_dir, columns=["doc_id", "text"]).map_batches(
        run, batch_format="pandas", batch_size=8192
    )


def _rebuild_frame(doc_ids, texts, dropped_of) -> pd.DataFrame:
    """Shared pass-2 kernel: re-synthesize each doc's lines and drop
    those in ``dropped_of(doc_id, line) -> bool``. One code path for
    both the broadcast and distributed variants keeps them equal by
    construction on the per-doc semantics."""
    ids, n_paras, n_removed, out_texts = [], [], [], []
    for d, t in zip(doc_ids, texts):
        d = int(d)
        lines = synth_page_lines(d, t)
        if not lines:  # empty-text docs: no synthesized page
            continue
        kept = [ln for ln in lines if not dropped_of(d, ln)]
        ids.append(d)
        n_paras.append(len(lines))
        n_removed.append(len(lines) - len(kept))
        out_texts.append("\n".join(kept))
    return pd.DataFrame(
        {
            "doc_id": np.asarray(ids, dtype=np.int64),
            "n_paras": np.asarray(n_paras, dtype=np.int64),
            "n_removed": np.asarray(n_removed, dtype=np.int64),
            "text": out_texts,
        }
    )


def paragraph_dedup(sf_dir: str, max_driver_lines: int = 5_000_000):
    """Corpus-level duplicated-paragraph removal (MassiveText-style):
    any line appearing in >= 2 DISTINCT documents (exact string match)
    is removed from every document. Emits (doc_id, n_paras, n_removed,
    text) for all documents, text = surviving lines joined by newline.

    Scale shape: pass 1 ships (line, nd) partials — per-batch each
    document contributes each of its DISTINCT lines once, so nd is
    additive across batches — through a salted groupby on the line
    hash; only lines with nd >= 2 survive. Pass 2 switches on the size
    of that duplicated-line table (the ``semdedup_keep`` pattern,
    similarity.py): at or under ``max_driver_lines`` (web boilerplate
    heads are typically a few 10^6 strings) the table is read to the
    driver once and broadcast via ray.put; past the threshold it stays
    distributed — a salted (line -> doc_id) flag join marks each doc's
    duplicated lines, then a second salted exchange on doc_id carries
    (text ∪ flags) to the rebuild, so no driver materialization at any
    dup cardinality. Both paths share the per-doc rebuild kernel and a
    forced-distributed == driver equality gate (tests/test_stages.py).
    SQL-oracle hash-verified."""
    import ray

    from open_parse_ray.stages.analysis import read_documents
    from open_parse_ray.stages.dedup import salted_groupby

    ds = read_documents(sf_dir, columns=["doc_id", "text"])

    def line_partials(b: pd.DataFrame) -> pd.DataFrame:
        from collections import Counter

        c: Counter = Counter()
        for d, t in zip(b["doc_id"], b["text"]):
            c.update(set(synth_page_lines(int(d), t)))
        return pd.DataFrame(
            {
                "line": list(c.keys()),
                "nd": np.asarray(list(c.values()), dtype=np.int64),
            }
        )

    partials = ds.map_batches(line_partials, batch_format="pandas", batch_size=8192)

    def dup_only(part: pd.DataFrame) -> pd.DataFrame:
        g = part.groupby("line", as_index=False).agg(nd=("nd", "sum"))
        return g[g["nd"] >= 2][["line"]]

    dup_lines = salted_groupby(partials, "line", dup_only)

    if dup_lines.count() <= max_driver_lines:
        # bounded driver read: duplicated boilerplate strings only
        dup_set = frozenset(r["line"] for r in dup_lines.take_all())
        dup_ref = ray.put(dup_set)

        def rebuild(b: pd.DataFrame) -> pd.DataFrame:
            dups = ray.get(dup_ref)
            return _rebuild_frame(
                b["doc_id"], b["text"], lambda _d, ln: ln in dups
            )

        return ds.map_batches(rebuild, batch_format="pandas", batch_size=8192)

    return _paragraph_dedup_distributed(ds, dup_lines)


def _paragraph_dedup_distributed(ds, dup_lines):
    """Fully-distributed pass 2: never materializes the duplicated-line
    table anywhere.

    Exchange 1 (salt = line hash): per-doc DISTINCT line rows (side 1)
    union the dup-line rows (side 0); co-location by line means a
    partition-local membership test yields exactly the (doc_id, line)
    pairs to drop — flag volume is bounded by the docs' duplicated-line
    occurrences, not the corpus. Exchange 2 (salt = doc_id): doc text
    rows union their flag rows; the rebuild sees each doc's text once
    next to its own flag set. Text bytes cross one exchange; lines
    cross only as flags."""
    from open_parse_ray.stages.dedup import salted_groupby


    def doc_line_rows(b: pd.DataFrame) -> pd.DataFrame:
        ids: List[int] = []
        lines: List[str] = []
        for d, t in zip(b["doc_id"], b["text"]):
            for ln in set(synth_page_lines(int(d), t)):
                ids.append(int(d))
                lines.append(ln)
        return pd.DataFrame(
            {
                "doc_id": np.asarray(ids, dtype=np.int64),
                "line": pd.Series(lines, dtype=object),
                "side": np.ones(len(ids), dtype=np.int64),
            }
        )

    def dup_rows(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": np.full(len(b), -1, dtype=np.int64),
                "line": b["line"].astype(object),
                "side": np.zeros(len(b), dtype=np.int64),
            }
        )

    mixed = ds.map_batches(
        doc_line_rows, batch_format="pandas", batch_size=8192
    ).union(dup_lines.map_batches(dup_rows, batch_format="pandas"))

    def flag_fn(part: pd.DataFrame) -> pd.DataFrame:
        dset = set(part.loc[part["side"] == 0, "line"])
        m = (part["side"] == 1) & part["line"].isin(dset)
        sel = part.loc[m, ["doc_id", "line"]]
        return pd.DataFrame(
            {
                "doc_id": sel["doc_id"].to_numpy(dtype=np.int64),
                "line": sel["line"].astype(object),
            }
        )

    flags = salted_groupby(mixed, "line", flag_fn)

    def doc_side(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"].to_numpy(dtype=np.int64),
                "payload": b["text"].astype(object),
                "side": np.zeros(len(b), dtype=np.int64),
            }
        )

    def flag_side(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"].to_numpy(dtype=np.int64),
                "payload": b["line"].astype(object),
                "side": np.ones(len(b), dtype=np.int64),
            }
        )

    joined = ds.map_batches(doc_side, batch_format="pandas", batch_size=8192).union(
        flags.map_batches(flag_side, batch_format="pandas", batch_size=8192)
    )

    def rebuild_fn(part: pd.DataFrame) -> pd.DataFrame:
        fl = part[part["side"] == 1]
        doc_flags: dict = {}
        for d, ln in zip(fl["doc_id"], fl["payload"]):
            doc_flags.setdefault(int(d), set()).add(ln)
        docs = part[part["side"] == 0]
        empty: frozenset = frozenset()
        return _rebuild_frame(
            docs["doc_id"],
            docs["payload"],
            lambda d, ln: ln in doc_flags.get(d, empty),
        )

    return salted_groupby(joined, "doc_id", rebuild_fn)
