"""Incremental corpus processing: snapshot diffing — the recurring-
crawl primitive (each month's crawl against the previous one: which
documents were added, deleted, or changed) that decides how much of a
100 TB pipeline actually needs to re-run.

Oracle strategy (the synthesize-on-both-sides pattern of stages/web.py):
the testdata carries one snapshot, so both sides derive the NEW snapshot
deterministically from `documents` — doc_id % 11 == 0 rows deleted,
doc_id % 13 == 0 rows changed (text + ' v2'), doc_id % 17 == 0 rows
re-added under doc_id + 10_000_000 — and diff it against the original.
The DuckDB oracle is a FULL OUTER JOIN on doc_id comparing md5(text).

Scale shape: the exchange ships only (side, doc_id, 16-byte fp) rows
salted on hash(doc_id) — both snapshots' rows for one doc_id land in
the same partition (co-partitioned hash join), where a vectorized merge
emits added/deleted/changed rows. Text never moves; unchanged docs
(the overwhelming majority of a recrawl) produce no output row at all.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd

_ADDED_OFFSET = 10_000_000


def _fp(texts) -> list:
    return [hashlib.md5(t.encode()).hexdigest() for t in texts]


def snapshot_diff(sf_dir: str):
    """(doc_id, status) rows for every difference between the original
    snapshot and the deterministically derived new one; status in
    {'added', 'deleted', 'changed'}; unchanged docs emit nothing."""
    from open_parse_ray.stages.analysis import read_documents
    from open_parse_ray.stages.dedup import salted_groupby

    def tagged_rows(b: pd.DataFrame) -> pd.DataFrame:
        ids = b["doc_id"].to_numpy(dtype=np.int64)
        old_fp = _fp(b["text"])
        rows = {"side": [], "doc_id": [], "fp": []}
        # old snapshot: every row
        rows["side"].extend([0] * len(ids))
        rows["doc_id"].extend(ids.tolist())
        rows["fp"].extend(old_fp)
        # new snapshot: deletions dropped, changes re-hashed, additions
        for i, d in enumerate(ids):
            d = int(d)
            if d % 11 != 0:
                rows["side"].append(1)
                rows["doc_id"].append(d)
                rows["fp"].append(
                    hashlib.md5((b["text"].iloc[i] + " v2").encode()).hexdigest()
                    if d % 13 == 0
                    else old_fp[i]
                )
            if d % 17 == 0:
                rows["side"].append(1)
                rows["doc_id"].append(d + _ADDED_OFFSET)
                rows["fp"].append(old_fp[i])
        return pd.DataFrame(
            {
                "side": np.asarray(rows["side"], dtype=np.int64),
                "doc_id": np.asarray(rows["doc_id"], dtype=np.int64),
                "fp": rows["fp"],
            }
        )

    tagged = read_documents(sf_dir, columns=["doc_id", "text"]).map_batches(
        tagged_rows, batch_format="pandas", batch_size=8192
    )

    def diff(part: pd.DataFrame) -> pd.DataFrame:
        old = part[part["side"] == 0][["doc_id", "fp"]]
        new = part[part["side"] == 1][["doc_id", "fp"]]
        m = old.merge(new, on="doc_id", how="outer", suffixes=("_old", "_new"))
        status = np.where(
            m["fp_old"].isna(),
            "added",
            np.where(m["fp_new"].isna(), "deleted", "changed"),
        )
        keep = m["fp_old"].isna() | m["fp_new"].isna() | (m["fp_old"] != m["fp_new"])
        return pd.DataFrame(
            {"doc_id": m["doc_id"].astype("int64"), "status": status}
        )[keep]

    return salted_groupby(tagged, "doc_id", diff)


def _changelog_rows(b: pd.DataFrame) -> pd.DataFrame:
    """The shared deterministic changelog synth (one (doc_id, seq, op,
    fp) row per change event; op 1 = upsert, 0 = delete) — consumed by
    BOTH apply_changelog and scd2_history, so the two operators' oracles
    describe the same stream by construction (the curation_job sharing
    rule: job and query must not drift)."""
    ids = b["doc_id"].to_numpy(dtype=np.int64)
    texts = b["text"]
    rows = {"doc_id": [], "seq": [], "op": [], "fp": []}

    def emit(d, seq, op, fp):
        rows["doc_id"].append(d)
        rows["seq"].append(seq)
        rows["op"].append(op)
        rows["fp"].append(fp)

    for i, d in enumerate(ids):
        d = int(d)
        t = texts.iloc[i]
        emit(d, 0, 1, hashlib.md5(t.encode()).hexdigest())
        if d % 5 == 0:
            emit(d, 1, 1, hashlib.md5((t + " rev1").encode()).hexdigest())
        if d % 7 == 0:
            emit(d, 2, 0, "")
        if d % 35 == 0:
            emit(d, 3, 1, hashlib.md5((t + " rev2").encode()).hexdigest())
    return pd.DataFrame(
        {
            "doc_id": np.asarray(rows["doc_id"], dtype=np.int64),
            "seq": np.asarray(rows["seq"], dtype=np.int64),
            "op": np.asarray(rows["op"], dtype=np.int64),
            "fp": rows["fp"],
        }
    )


def apply_changelog(sf_dir: str):
    """CDC merge — apply an upsert/delete changelog to a base corpus
    with LAST-WRITER-WINS by sequence number, the primitive behind
    incremental corpus refresh (snapshot_diff tells you WHAT changed;
    this produces the merged state). Returns (doc_id, fp) — the md5
    fingerprint of every doc's final text; deleted docs emit nothing.

    Oracle strategy (synthesize-on-both-sides): the changelog derives
    deterministically from `documents` — doc_id % 5 == 0 upserts
    text + ' rev1' at seq 1, doc_id % 7 == 0 deletes at seq 2,
    doc_id % 35 == 0 upserts text + ' rev2' at seq 3 (resurrecting
    after its own delete, exercising win-by-seq across op kinds); the
    base corpus is the implicit seq-0 upsert.

    Scale shape: text NEVER crosses the exchange — each batch
    fingerprints its base and changelog texts locally and ships only
    (doc_id, seq, op, 32-byte fp) rows salted on hash(doc_id); the
    per-partition kernel takes the max-seq row per doc and keeps
    upsert winners. Unlike snapshot_diff the output covers the full
    surviving corpus, but every shipped row is fixed-width."""
    from open_parse_ray.stages.analysis import read_documents
    from open_parse_ray.stages.dedup import salted_groupby

    tagged = read_documents(sf_dir, columns=["doc_id", "text"]).map_batches(
        _changelog_rows, batch_format="pandas", batch_size=8192
    )

    def merge(part: pd.DataFrame) -> pd.DataFrame:
        win = part.loc[part.groupby("doc_id")["seq"].idxmax()]
        keep = win[win["op"] == 1]
        return pd.DataFrame(
            {"doc_id": keep["doc_id"].astype("int64"), "fp": keep["fp"]}
        )

    return salted_groupby(tagged, "doc_id", merge)


def scd2_history(sf_dir: str):
    """Slowly-changing-dimension TYPE 2 history build — turn the CDC
    changelog into validity intervals: one row per upsert version with
    (valid_from, valid_to) sequence bounds, valid_to = -1 for the
    version still current (deletes emit no row themselves but CLOSE the
    previous version's interval — op-kind-blind lead(seq) semantics).
    apply_changelog answers "what is the state now"; this materializes
    "what was true when", the point-in-time reproducibility record a
    training-data pipeline needs to rebuild any past corpus snapshot.

    Scale shape: identical to apply_changelog — the changelog derives
    from the SAME shared synth (_changelog_rows), text never crosses
    the exchange (only fixed-width (doc_id, seq, op, fp) rows, salted
    on hash(doc_id)), and the per-partition kernel is one vectorized
    lexsort + shift per partition (a doc's whole history is
    co-located, so next-change lookup is a local shift). Returns
    (doc_id, fp, valid_from, valid_to)."""
    from open_parse_ray.stages.analysis import read_documents
    from open_parse_ray.stages.dedup import salted_groupby

    tagged = read_documents(sf_dir, columns=["doc_id", "text"]).map_batches(
        _changelog_rows, batch_format="pandas", batch_size=8192
    )

    def intervals(part: pd.DataFrame) -> pd.DataFrame:
        if len(part) == 0:
            return pd.DataFrame(
                {
                    "doc_id": pd.Series([], dtype="int64"),
                    "fp": pd.Series([], dtype=object),
                    "valid_from": pd.Series([], dtype="int64"),
                    "valid_to": pd.Series([], dtype="int64"),
                }
            )
        ids = part["doc_id"].to_numpy(dtype=np.int64)
        seq = part["seq"].to_numpy(dtype=np.int64)
        order = np.lexsort((seq, ids))
        ids, seq = ids[order], seq[order]
        op = part["op"].to_numpy(dtype=np.int64)[order]
        fp = part["fp"].to_numpy(dtype=object)[order]
        nxt = np.full(len(ids), -1, dtype=np.int64)
        same = ids[:-1] == ids[1:]
        nxt[:-1][same] = seq[1:][same]
        keep = op == 1
        return pd.DataFrame(
            {
                "doc_id": ids[keep],
                "fp": fp[keep],
                "valid_from": seq[keep],
                "valid_to": nxt[keep],
            }
        )

    return salted_groupby(tagged, "doc_id", intervals)


def corpus_merkle(sf_dir: str, fanout: int = 64):
    """MERKLE TREE of the corpus — the integrity/audit primitive that
    makes two runs comparable in O(changed subtrees) instead of O(docs):
    level-0 buckets (doc_id // fanout) hash the concatenation of their
    docs' md5 fingerprints in doc_id order; level 1 hashes the level-0
    hashes per (bucket // fanout); the root hashes level 1. A recrawl,
    a resumed job, or a replica disagreeing on ANY document surfaces as
    a differing path of exactly tree-height hashes (pairs with
    snapshot_diff: merkle tells you WHERE cheaply, diff tells you WHAT).

    Scale shape: text never moves — each block fingerprints locally and
    ships (doc_id, 32-byte fp) rows salted on BUCKET id, so a bucket's
    docs co-locate and its hash is one vectorized string-concat; level
    1 re-salts the fanout-times-smaller hash table; the root sees
    |docs|/fanout² rows. At 10^12 docs with fanout 4096 that is a
    60k-row root pass. Returns (level, bucket, h, n_docs)."""
    from open_parse_ray.stages.analysis import read_documents
    from open_parse_ray.stages.dedup import salted_groupby

    def fp_rows(b: pd.DataFrame) -> pd.DataFrame:
        ids = b["doc_id"].to_numpy(dtype=np.int64)
        return pd.DataFrame(
            {
                "doc_id": ids,
                "fp": _fp(b["text"]),
                "bucket": ids // fanout,
            }
        )

    fps = read_documents(sf_dir, columns=["doc_id", "text"]).map_batches(
        fp_rows, batch_format="pandas", batch_size=8192
    )

    def l0(part: pd.DataFrame) -> pd.DataFrame:
        part = part.sort_values(["bucket", "doc_id"])
        g = part.groupby("bucket", sort=True)
        return pd.DataFrame(
            {
                "bucket": np.asarray(list(g.groups.keys()), dtype=np.int64),
                "h": g["fp"].agg(
                    lambda s: hashlib.md5("".join(s).encode()).hexdigest()
                ).to_numpy(dtype=object),
                "n_docs": g.size().to_numpy(dtype=np.int64),
            }
        )

    level0 = salted_groupby(fps, "bucket", l0).materialize()

    def up(level):
        def f(part: pd.DataFrame) -> pd.DataFrame:
            part = part.sort_values(["parent", "bucket"])
            g = part.groupby("parent", sort=True)
            return pd.DataFrame(
                {
                    "bucket": np.asarray(list(g.groups.keys()), dtype=np.int64),
                    "h": g["h"].agg(
                        lambda s: hashlib.md5("".join(s).encode()).hexdigest()
                    ).to_numpy(dtype=object),
                    "n_docs": g["n_docs"].sum().to_numpy(dtype=np.int64),
                }
            )

        return f

    def add_parent(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["parent"] = b["bucket"].to_numpy(dtype=np.int64) // fanout
        return b

    level1 = salted_groupby(
        level0.map_batches(add_parent, batch_format="pandas", batch_size=65536),
        "parent",
        up(1),
    ).materialize()

    def root(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return pd.DataFrame(
                {
                    "bucket": pd.Series([], dtype="int64"),
                    "h": pd.Series([], dtype=object),
                    "n_docs": pd.Series([], dtype="int64"),
                }
            )
        b = b.sort_values("bucket")
        return pd.DataFrame(
            {
                "bucket": np.asarray([0], dtype=np.int64),
                "h": [hashlib.md5("".join(b["h"]).encode()).hexdigest()],
                "n_docs": np.asarray([int(b["n_docs"].sum())], dtype=np.int64),
            }
        )

    level2 = level1.repartition(1).map_batches(
        root, batch_format="pandas", batch_size=None
    )

    def tag(level):
        def f(b: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {
                    "level": np.full(len(b), level, dtype=np.int64),
                    "bucket": b["bucket"].to_numpy(dtype=np.int64),
                    "h": b["h"].to_numpy(dtype=object),
                    "n_docs": b["n_docs"].to_numpy(dtype=np.int64),
                }
            )

        return f

    return (
        level0.map_batches(tag(0), batch_format="pandas", batch_size=65536)
        .union(level1.map_batches(tag(1), batch_format="pandas", batch_size=65536))
        .union(level2.map_batches(tag(2), batch_format="pandas", batch_size=65536))
    )


def stats_after_changelog(sf_dir: str):
    """Incremental VIEW MAINTENANCE — update the per-language corpus
    aggregate (n_docs, total_chars) by folding the CDC changelog's
    DELTAS into the base aggregate, never materializing the merged
    corpus: the recurring-pipeline primitive that makes a 10^12-doc
    monthly refresh cost O(changes), not O(corpus). Per block, BASE
    partials count the current snapshot and DELTA partials derive from
    the changelog rules alone (upsert: char diff, delete: −1 doc and
    −chars; last-writer-wins resolved per doc in-block because the
    synth changelog is keyed by the local doc); one bounded per-lang
    combine folds base ⊕ delta. Equality-gated against recomputing
    from the merged corpus (the IVM correctness statement) and
    SQL-oracle-checked against the merged-corpus aggregate. Returns
    (lang, n_docs, total_chars)."""
    from open_parse_ray.stages.analysis import read_documents
    from open_parse_ray.stages.relational import two_phase_agg

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        ids = b["doc_id"].to_numpy(dtype=np.int64)
        chars = np.asarray([len(t) for t in b["text"]], dtype=np.int64)
        lang = b["lang"].to_numpy(dtype=object)
        # base aggregate partial
        base = pd.DataFrame({"lang": lang, "dn": np.int64(1), "dc": chars})
        # delta partial from the changelog rules (apply_changelog's
        # last-writer-wins, resolved in closed form per doc)
        d35 = ids % 35 == 0
        d7 = (ids % 7 == 0) & ~d35
        d5 = (ids % 5 == 0) & ~(ids % 7 == 0)
        dn = np.zeros(len(ids), dtype=np.int64)
        dc = np.zeros(len(ids), dtype=np.int64)
        dn[d7] = -1
        dc[d7] = -chars[d7]
        dc[d5] = len(" rev1")
        dc[d35] = len(" rev2")
        delta = pd.DataFrame({"lang": lang, "dn": dn, "dc": dc})
        both = pd.concat([base, delta], ignore_index=True)
        return both.groupby("lang", as_index=False).agg(
            dn=("dn", "sum"), dc=("dc", "sum")
        )

    partials = read_documents(
        sf_dir, columns=["doc_id", "text", "lang"]
    ).map_batches(partial, batch_format="pandas", batch_size=8192)

    def rename(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "lang": b["lang"],
                "n_docs": b["dn"].astype("int64"),
                "total_chars": b["dc"].astype("int64"),
            }
        )

    return two_phase_agg(
        partials,
        ["lang"],
        {"dn": "sum", "dc": "sum"},
        finalize=rename,
    )
