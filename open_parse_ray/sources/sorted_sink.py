"""Distributed SORTED write: globally-ordered, partitioned parquet.

sources/clustered.py and sources/zorder.py stage their layouts with a
single-process sort — right for a /tmp cache of test-scale tables,
wrong for 10^12 rows. This module is the cluster-scale path those
layouts name: the same histogram→boundary machinery global_rank uses
for exact ranks range-partitions the table (one exchange), each
partition sorts LOCALLY and writes its own pid-addressed parquet file
(bounded row groups), and a tiny MANIFEST (pid, path, key min/max,
rows, content md5) makes global order, pruning, and resume all
metadata-level facts:

- global order: partition key ranges are disjoint by construction
  (cut keys come from one shared boundary array), so file pid order
  IS total order — gated by reading the concatenation back.
- pruning: a range scan intersects the manifest first (file level),
  then per-file footer stats (row-group level) — same contract as
  sources/clustered.py, now over many files.
- resume/idempotence: files are written atomically under a name
  containing the content md5; re-running a finished partition
  produces byte-identical output and replaces nothing.

Ties are total-ordered by (key, id) through the same value<<40|id
composite global_rank uses, so the layout is deterministic for any
block structure.
"""

from __future__ import annotations

import hashlib
import os
from typing import Tuple

import numpy as np
import pandas as pd

ROW_GROUP_SIZE = 8192


def write_sorted(
    keyed,
    out_dir: str,
    num_parts: int = 16,
) -> pd.DataFrame:
    """Sort a Dataset of (doc_id:int64, n_chars:int64, …payload) rows
    globally by (n_chars, doc_id) into ``out_dir``. Returns the manifest
    DataFrame ordered by pid. One exchange total; the driver holds only
    the value histogram and the manifest."""
    import pyarrow.parquet as pq
    import ray

    from open_parse_ray.stages.dedup import salted_groupby
    from open_parse_ray.stages.ranking import _boundaries, _composite
    from open_parse_ray.stages.relational import two_phase_agg

    os.makedirs(out_dir, exist_ok=True)
    keyed = keyed.materialize()

    def hist_partial(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return pd.DataFrame(
                {
                    "v": pd.Series([], dtype="int64"),
                    "cnt": pd.Series([], dtype="int64"),
                    "max_id": pd.Series([], dtype="int64"),
                }
            )
        vc = b["n_chars"].value_counts()
        return pd.DataFrame(
            {
                "v": vc.index.to_numpy(dtype=np.int64),
                "cnt": vc.to_numpy(dtype=np.int64),
                "max_id": np.int64(b["doc_id"].max()),
            }
        )

    hp = two_phase_agg(
        keyed.map_batches(hist_partial, batch_format="pandas", batch_size=65536),
        ["v"],
        {"cnt": "sum", "max_id": "max"},
    ).to_pandas()
    if len(hp) == 0:
        # commit the EXPLICIT empty run (the curation empty-partition
        # rule): one schema-bearing 0-row part file + the manifest, so
        # downstream readers see "empty run" (with a schema), never
        # "missing run" — range_scan_sorted derives its empty-result
        # schema from the first part file
        import pyarrow as pa

        base = keyed.schema().base_schema
        if isinstance(base, pa.Schema):
            t = base.empty_table()
        else:  # PandasBlockSchema (names, types) from pandas blocks
            t = pa.Table.from_pandas(
                pd.DataFrame(
                    {n: pd.Series(dtype=ty)
                     for n, ty in zip(base.names, base.types)}
                ),
                preserve_index=False,
            )
        buf = pa.BufferOutputStream()
        pq.write_table(t, buf, row_group_size=ROW_GROUP_SIZE)
        data = buf.getvalue().to_pybytes()
        digest = hashlib.md5(data).hexdigest()[:16]
        path = os.path.join(out_dir, f"part-00000-{digest}.parquet")
        if not os.path.exists(path):
            tmp = path + f".tmp.{os.getpid()}"
            with open(tmp, "wb") as f:
                f.write(data)
            os.replace(tmp, path)
        man = pd.DataFrame(
            {
                "pid": [np.int64(0)], "path": [path],
                "n_rows": [np.int64(0)], "v_lo": [np.int64(0)],
                "v_hi": [np.int64(-1)], "md5": [digest],
            }
        )
        man.to_parquet(os.path.join(out_dir, "_manifest.parquet"))
        return man
    bounds = _boundaries(
        hp[["v", "cnt"]], int(hp["max_id"].max()), num_parts
    )
    bounds_ref = ray.put(bounds)

    def pid_of(b) -> np.ndarray:
        """Range-partition id per row of an Arrow table or pandas frame."""
        key = _composite(
            np.asarray(b["n_chars"], np.int64), np.asarray(b["doc_id"], np.int64)
        )
        return np.searchsorted(ray.get(bounds_ref), key, side="right").astype(np.int64)

    n_parts_eff = len(bounds) + 1

    def write_part(g: pd.DataFrame) -> pd.DataFrame:
        import pyarrow as pa

        g = g.sort_values(["n_chars", "doc_id"]).reset_index(drop=True)
        pid = int(pid_of(g.iloc[:1])[0])
        t = pa.Table.from_pandas(g, preserve_index=False)
        buf = pa.BufferOutputStream()
        pq.write_table(t, buf, row_group_size=ROW_GROUP_SIZE)
        data = buf.getvalue().to_pybytes()
        digest = hashlib.md5(data).hexdigest()[:16]
        path = os.path.join(out_dir, f"part-{pid:05d}-{digest}.parquet")
        if not os.path.exists(path):  # idempotent re-run / resume skip
            tmp = path + f".tmp.{os.getpid()}"
            with open(tmp, "wb") as f:
                f.write(data)
            os.replace(tmp, path)
        return pd.DataFrame(
            {
                "pid": [np.int64(pid)],
                "path": [path],
                "n_rows": [np.int64(len(g))],
                "v_lo": [np.int64(g["n_chars"].iloc[0])],
                "v_hi": [np.int64(g["n_chars"].iloc[-1])],
                "md5": [digest],
            }
        )

    manifest = (
        salted_groupby(keyed, pid_of, write_part, num_parts=n_parts_eff)
        .to_pandas()
        .sort_values("pid")
        .reset_index(drop=True)
    )
    manifest.to_parquet(os.path.join(out_dir, "_manifest.parquet"))
    return manifest


def range_scan_sorted(
    out_dir: str, v_lo: int, v_hi: int, count_total: bool = True
) -> Tuple["object", int, int]:
    """Range scan over a write_sorted layout: manifest prunes FILES
    (before any footer is opened), footer stats prune ROW GROUPS inside
    survivors, survivors filter exactly. Returns (pyarrow.Table,
    n_groups_read, n_groups_total); group totals require opening every
    footer, so callers that only need the data (merge_sorted_runs)
    pass count_total=False and get total = -1."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    man = pd.read_parquet(os.path.join(out_dir, "_manifest.parquet"))
    total, read, tables = (0 if count_total else -1), 0, []
    for r in man.itertuples():
        pruned = r.n_rows == 0 or r.v_hi < v_lo or r.v_lo > v_hi
        if pruned and not count_total:
            continue
        f = pq.ParquetFile(r.path)
        md = f.metadata
        if count_total:
            total += md.num_row_groups
        if pruned:
            continue
        groups = []
        for g in range(md.num_row_groups):
            rg = md.row_group(g)
            for i in range(rg.num_columns):
                c = rg.column(i)
                if c.path_in_schema == "n_chars":
                    if c.statistics.max >= v_lo and c.statistics.min <= v_hi:
                        groups.append(g)
                    break
        if not groups:
            continue
        read += len(groups)
        t = f.read_row_groups(groups)
        v = t["n_chars"].to_numpy(zero_copy_only=False)
        tables.append(t.filter((v >= v_lo) & (v <= v_hi)))
    if not tables:
        first = pq.ParquetFile(man["path"].iloc[0]).schema_arrow.empty_table()
        return first, 0, total
    return pa.concat_tables(tables), read, total


def sorted_range_docs(sf_dir: str):
    """Corpus query: documents whose n_chars lies in the middle quintile
    of the corpus range, served from the distributed-sorted layout
    (manifest + footer pruning). Bounds derive from the global column
    min/max so the SQL oracle mirrors them with subqueries. Returns
    (doc_id, n_chars, lang)."""
    import ray.data as rd

    from open_parse_ray.sources.tables import table_path

    src = table_path(sf_dir, "documents")
    st = os.stat(src)
    key = hashlib.md5(
        f"{os.path.abspath(src)}|{st.st_size}|{st.st_mtime_ns}|sorted_v1".encode()
    ).hexdigest()[:16]
    out_dir = os.path.join("/tmp/opr_cache/sorted_v1", key)
    if not os.path.exists(os.path.join(out_dir, "_manifest.parquet")):
        ds = rd.read_parquet(src, columns=["doc_id", "n_chars", "lang"])
        write_sorted(ds, out_dir)
    man = pd.read_parquet(os.path.join(out_dir, "_manifest.parquet"))
    lo, hi = int(man["v_lo"].min()), int(man["v_hi"].max())
    a = lo + ((hi - lo) * 40) // 100
    b = lo + ((hi - lo) * 60) // 100
    t, _, _ = range_scan_sorted(out_dir, a, b)
    df = t.to_pandas()
    return rd.from_pandas(
        pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy(dtype=np.int64),
                "n_chars": df["n_chars"].to_numpy(dtype=np.int64),
                "lang": df["lang"],
            }
        )
    )


SORTED_RANGE_DOCS_SQL = """
    WITH b AS (
      SELECT min(n_chars) AS lo, max(n_chars) AS hi FROM documents
    ),
    bb AS (
      SELECT lo + ((hi - lo) * 40) // 100 AS a,
             lo + ((hi - lo) * 60) // 100 AS c
      FROM b
    )
    SELECT doc_id, n_chars, lang
    FROM documents, bb
    WHERE n_chars BETWEEN a AND c
"""


def merge_sorted_runs(a_dir: str, b_dir: str, out_dir: str) -> pd.DataFrame:
    """LSM-style COMPACTION MERGE of two write_sorted runs into one,
    exploiting input sortedness instead of re-sorting: output partition
    ranges are run A's partitions (the base run); the cut composites
    come from a metadata-cheap pre-pass that reads only the LAST row
    group of each A file (the file is sorted, so its last row is its
    max key). Each output partition is one task that reads its A file
    plus B's matching key range (manifest + footer pruned via
    range_scan_sorted, then an exact composite filter against the cut
    window) and produces the merged order with a searchsorted
    interleave — O(n) per partition, no sort anywhere. Equal composites
    (possible only if the runs share (n_chars, doc_id) pairs) place the
    B row first. Files and the manifest use write_sorted's exact layout
    (content-md5 names, atomic replace), so range_scan_sorted and
    resume work on the merged output unchanged; re-running the merge is
    idempotent."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from open_parse_ray.stages.ranking import _composite

    import shutil

    os.makedirs(out_dir, exist_ok=True)
    man_a = _read_manifest(a_dir)
    man_b = _read_manifest(b_dir)
    if int(man_a["n_rows"].sum()) == 0 and int(man_b["n_rows"].sum()) > 0:
        a_dir, b_dir, man_a, man_b = b_dir, a_dir, man_b, man_a
    live_a = man_a[man_a["n_rows"] > 0].reset_index(drop=True)
    if len(live_a) == 0:
        # both runs empty: propagate A's schema-bearing empty part.
        # A zero-LENGTH manifest means the run predates the
        # schema-bearing-empty-part layout — refuse loudly rather than
        # IndexError or silently assuming the new layout.
        if len(man_a) == 0:
            raise ValueError(
                f"legacy empty run under {a_dir}: manifest has no rows "
                "(no schema-bearing part file) — rewrite the run with "
                "the current write_sorted before merging"
            )
        srcp = man_a["path"].iloc[0]
        dstp = os.path.join(out_dir, os.path.basename(srcp))
        if not os.path.exists(dstp):
            shutil.copyfile(srcp, dstp)
        man = man_a.copy()
        man["path"] = [dstp]
        man.to_parquet(os.path.join(out_dir, "_manifest.parquet"))
        return man

    # cut composites (uint64): last row of each LIVE A file except the
    # last — the final partition's upper bound is the +inf sentinel, so
    # its tail row group is never read
    cuts = []
    for r in live_a.iloc[:-1].itertuples():
        f = pq.ParquetFile(r.path)
        t = f.read_row_group(f.metadata.num_row_groups - 1)
        cuts.append(
            int(
                _composite(
                    t["n_chars"].to_numpy(zero_copy_only=False)[-1:],
                    t["doc_id"].to_numpy(zero_copy_only=False)[-1:],
                )[0]
            )
        )
    hi_sentinel = (1 << 64) - 1  # uint64 +inf — composites never wrap
    specs = []
    for i, r in enumerate(live_a.itertuples()):
        specs.append(
            {
                # inclusive composite window [lo_c, hi_c], all uint64
                "pid": int(r.pid),
                "a_path": r.path,
                "lo_c": 0 if i == 0 else cuts[i - 1] + 1,
                "hi_c": hi_sentinel if i == len(live_a) - 1 else cuts[i],
            }
        )

    b_has_rows = int(man_b["n_rows"].sum()) > 0
    b_v_hi = int(man_b["v_hi"].max()) if b_has_rows else 0

    def merge_part(spec: pd.DataFrame) -> pd.DataFrame:
        row = spec.iloc[0]
        ta = pq.read_table(row["a_path"]).to_pandas()
        ca = _composite(
            ta["n_chars"].to_numpy(dtype=np.int64),
            ta["doc_id"].to_numpy(dtype=np.int64),
        )
        if b_has_rows:
            lo_c, hi_c = int(row["lo_c"]), int(row["hi_c"])
            v_lo = lo_c >> 40
            v_hi = b_v_hi if hi_c == hi_sentinel else hi_c >> 40
            tb_arrow, _, _ = range_scan_sorted(
                b_dir, v_lo, v_hi, count_total=False
            )
            tb = tb_arrow.to_pandas()
            cb = _composite(
                tb["n_chars"].to_numpy(dtype=np.int64),
                tb["doc_id"].to_numpy(dtype=np.int64),
            )
            # pure-uint64 window test: int64 casts would sign-wrap
            # composites with n_chars >= 2^23 and silently DROP rows
            keep = (cb >= np.uint64(lo_c)) & (cb <= np.uint64(hi_c))
            tb, cb = tb[keep].reset_index(drop=True), cb[keep]
        else:
            tb = ta.iloc[0:0]
            cb = ca[:0]
        # searchsorted interleave of two sorted runs — O(n), no sort
        n = len(ta) + len(tb)
        bpos = np.searchsorted(ca, cb, side="left") + np.arange(len(cb))
        mask = np.ones(n, dtype=bool)
        mask[bpos] = False
        apos = np.flatnonzero(mask)
        order = np.empty(n, dtype=np.int64)
        order[apos] = np.arange(len(ta))
        order[bpos] = len(ta) + np.arange(len(tb))
        merged = (
            pd.concat([ta, tb], ignore_index=True)
            .iloc[order]
            .reset_index(drop=True)
        )

        pid = int(row["pid"])
        t = pa.Table.from_pandas(merged, preserve_index=False)
        buf = pa.BufferOutputStream()
        pq.write_table(t, buf, row_group_size=ROW_GROUP_SIZE)
        data = buf.getvalue().to_pybytes()
        digest = hashlib.md5(data).hexdigest()[:16]
        path = os.path.join(out_dir, f"part-{pid:05d}-{digest}.parquet")
        if not os.path.exists(path):
            tmp = path + f".tmp.{os.getpid()}"
            with open(tmp, "wb") as f:
                f.write(data)
            os.replace(tmp, path)
        return pd.DataFrame(
            {
                "pid": [np.int64(pid)],
                "path": [path],
                "n_rows": [np.int64(len(merged))],
                "v_lo": [np.int64(merged["n_chars"].iloc[0])],
                "v_hi": [np.int64(merged["n_chars"].iloc[-1])],
                "md5": [digest],
            }
        )

    spec_df = pd.DataFrame(specs)
    # lo_c/hi_c can exceed int64 (uint64 sentinel) — ship as strings,
    # parse in-task (Arrow has no uint64-safe pandas round-trip here)
    spec_df["lo_c"] = spec_df["lo_c"].map(str)
    spec_df["hi_c"] = spec_df["hi_c"].map(str)
    manifest = (
        rd.from_pandas(spec_df)
        .repartition(len(specs))
        .map_batches(merge_part, batch_format="pandas", batch_size=1)
        .to_pandas()
        .sort_values("pid")
        .reset_index(drop=True)
    )
    manifest.to_parquet(os.path.join(out_dir, "_manifest.parquet"))
    return manifest


def _read_manifest(d: str) -> pd.DataFrame:
    p = os.path.join(d, "_manifest.parquet")
    if not os.path.exists(p):
        raise FileNotFoundError(f"no _manifest.parquet under {d}")
    return pd.read_parquet(p).sort_values("pid").reset_index(drop=True)


def merged_run_range_docs(sf_dir: str):
    """Corpus query exercising the compaction merge end to end: the
    documents table is split into two halves (even / odd doc_id), each
    written as its own sorted run, the runs are MERGED (never
    re-sorted), and the same middle-quintile range scan as
    sorted_range_docs is served from the merged layout — so the SQL
    oracle is a plain filter over ALL documents and a hash match proves
    the merge lost, duplicated and misordered nothing."""
    import ray.data as rd

    from open_parse_ray.sources.tables import table_path

    src = table_path(sf_dir, "documents")
    st = os.stat(src)
    key = hashlib.md5(
        f"{os.path.abspath(src)}|{st.st_size}|{st.st_mtime_ns}|merged_v1".encode()
    ).hexdigest()[:16]
    base = os.path.join("/tmp/opr_cache/merged_v1", key)
    out_dir = os.path.join(base, "merged")
    if not os.path.exists(os.path.join(out_dir, "_manifest.parquet")):
        ds = rd.read_parquet(src, columns=["doc_id", "n_chars", "lang"])

        def _half(par):
            def f(b: pd.DataFrame) -> pd.DataFrame:
                return b[b["doc_id"] % 2 == par]

            return f

        even = ds.map_batches(_half(0), batch_format="pandas", batch_size=65536)
        odd = ds.map_batches(_half(1), batch_format="pandas", batch_size=65536)
        write_sorted(even, os.path.join(base, "a"))
        write_sorted(odd, os.path.join(base, "b"))
        merge_sorted_runs(
            os.path.join(base, "a"), os.path.join(base, "b"), out_dir
        )
    man = pd.read_parquet(os.path.join(out_dir, "_manifest.parquet"))
    lo, hi = int(man["v_lo"].min()), int(man["v_hi"].max())
    a = lo + ((hi - lo) * 40) // 100
    b = lo + ((hi - lo) * 60) // 100
    t, _, _ = range_scan_sorted(out_dir, a, b)
    df = t.to_pandas()
    return rd.from_pandas(
        pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy(dtype=np.int64),
                "n_chars": df["n_chars"].to_numpy(dtype=np.int64),
                "lang": df["lang"],
            }
        )
    )


MERGED_RUN_RANGE_DOCS_SQL = SORTED_RANGE_DOCS_SQL


def _commit_part(out_dir: str, pid: int, merged: pd.DataFrame) -> dict:
    """Write one merged partition in write_sorted's exact layout
    (content-md5 name, atomic replace, idempotent re-run) and return
    its manifest row."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    t = pa.Table.from_pandas(merged, preserve_index=False)
    buf = pa.BufferOutputStream()
    pq.write_table(t, buf, row_group_size=ROW_GROUP_SIZE)
    data = buf.getvalue().to_pybytes()
    digest = hashlib.md5(data).hexdigest()[:16]
    path = os.path.join(out_dir, f"part-{pid:05d}-{digest}.parquet")
    if not os.path.exists(path):
        tmp = path + f".tmp.{os.getpid()}"
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    return {
        "pid": np.int64(pid),
        "path": path,
        "n_rows": np.int64(len(merged)),
        "v_lo": np.int64(merged["n_chars"].iloc[0]),
        "v_hi": np.int64(merged["n_chars"].iloc[-1]),
        "md5": digest,
    }


def merge_sorted_runs_k(run_dirs, out_dir: str) -> pd.DataFrame:
    """k-way LSM COMPACTION MERGE — the leveled/tiered generalization of
    merge_sorted_runs (r4-verdict worklist #4). Produces the IDENTICAL
    global row sequence to ``reduce(merge_sorted_runs, run_dirs)``
    (iterated two-run merges; equality-gated), in one pass over the
    data instead of k-1: on equal (n_chars, doc_id) composites a row
    from a LATER run in ``run_dirs`` places first (merge2's B-first
    rule applied left-to-right), and within a run input order is
    preserved (every interleave is stable).

    Scale shape: output partition ranges are the BASE run's partitions
    (the run with the most rows — at an LSM level boundary that is the
    big bottom run, so cut metadata is one row-group tail read per base
    file); every other run contributes its manifest + footer-pruned
    composite window (range_scan_sorted, then an exact pure-uint64
    window filter — int64 would sign-wrap composites for n_chars >=
    2^23). Each partition applies k-1 searchsorted interleaves in run
    order — each IS merge2's kernel, so equality with the iterated
    merge holds partition-locally, and windows are disjoint inclusive
    composite ranges so equal-composite rows can never split across
    partitions. O(data moved) total, no sort anywhere; files and
    manifest use write_sorted's exact layout, so range_scan_sorted,
    further merges and resume work unchanged and re-running is
    idempotent."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from open_parse_ray.stages.ranking import _composite

    import shutil

    run_dirs = list(run_dirs)
    if len(run_dirs) < 2:
        raise ValueError("merge_sorted_runs_k needs >= 2 runs")
    os.makedirs(out_dir, exist_ok=True)
    mans = [_read_manifest(d) for d in run_dirs]
    for d, m in zip(run_dirs, mans):
        if len(m) == 0:
            raise ValueError(
                f"legacy empty run under {d}: manifest has no rows "
                "(no schema-bearing part file) — rewrite the run with "
                "the current write_sorted before merging"
            )
    totals = [int(m["n_rows"].sum()) for m in mans]
    if sum(totals) == 0:
        # all runs empty: propagate run 0's schema-bearing empty part
        srcp = mans[0]["path"].iloc[0]
        dstp = os.path.join(out_dir, os.path.basename(srcp))
        if not os.path.exists(dstp):
            shutil.copyfile(srcp, dstp)
        man = mans[0].copy()
        man["path"] = [dstp]
        man.to_parquet(os.path.join(out_dir, "_manifest.parquet"))
        return man

    base_idx = int(np.argmax(totals))  # ties -> earliest run
    live_base = mans[base_idx][mans[base_idx]["n_rows"] > 0].reset_index(
        drop=True
    )

    cuts = []
    for r in live_base.iloc[:-1].itertuples():
        f = pq.ParquetFile(r.path)
        t = f.read_row_group(f.metadata.num_row_groups - 1)
        cuts.append(
            int(
                _composite(
                    t["n_chars"].to_numpy(zero_copy_only=False)[-1:],
                    t["doc_id"].to_numpy(zero_copy_only=False)[-1:],
                )[0]
            )
        )
    hi_sentinel = (1 << 64) - 1
    specs = []
    for i, r in enumerate(live_base.itertuples()):
        specs.append(
            {
                "pid": int(r.pid),
                "a_path": r.path,
                "lo_c": 0 if i == 0 else cuts[i - 1] + 1,
                "hi_c": hi_sentinel if i == len(live_base) - 1 else cuts[i],
            }
        )

    others = [
        (j, run_dirs[j], int(mans[j]["v_hi"].max()))
        for j in range(len(run_dirs))
        if j != base_idx and totals[j] > 0
    ]

    def merge_part(spec: pd.DataFrame) -> pd.DataFrame:
        row = spec.iloc[0]
        lo_c, hi_c = int(row["lo_c"]), int(row["hi_c"])
        v_lo = lo_c >> 40

        base_df = pq.read_table(row["a_path"]).to_pandas()
        frags = []  # (run_idx, df, comp) in run order
        for j, d, jv_hi in others:
            v_hi = jv_hi if hi_c == hi_sentinel else hi_c >> 40
            tb_arrow, _, _ = range_scan_sorted(d, v_lo, v_hi, count_total=False)
            tb = tb_arrow.to_pandas()
            cb = _composite(
                tb["n_chars"].to_numpy(dtype=np.int64),
                tb["doc_id"].to_numpy(dtype=np.int64),
            )
            keep = (cb >= np.uint64(lo_c)) & (cb <= np.uint64(hi_c))
            frags.append((j, tb[keep].reset_index(drop=True), cb[keep]))
        cbase = _composite(
            base_df["n_chars"].to_numpy(dtype=np.int64),
            base_df["doc_id"].to_numpy(dtype=np.int64),
        )
        frags.append((base_idx, base_df, cbase))
        frags.sort(key=lambda x: x[0])

        acc_df, acc_c = frags[0][1], frags[0][2]
        for _, fd, fc in frags[1:]:
            # merge2's kernel: the NEWER run's rows place first on ties
            n = len(acc_df) + len(fd)
            bpos = np.searchsorted(acc_c, fc, side="left") + np.arange(len(fc))
            mask = np.ones(n, dtype=bool)
            mask[bpos] = False
            apos = np.flatnonzero(mask)
            order = np.empty(n, dtype=np.int64)
            order[apos] = np.arange(len(acc_df))
            order[bpos] = len(acc_df) + np.arange(len(fd))
            acc_df = (
                pd.concat([acc_df, fd], ignore_index=True)
                .iloc[order]
                .reset_index(drop=True)
            )
            merged_c = np.empty(n, dtype=np.uint64)
            merged_c[apos] = acc_c
            merged_c[bpos] = fc
            acc_c = merged_c

        return pd.DataFrame([_commit_part(out_dir, int(row["pid"]), acc_df)])

    spec_df = pd.DataFrame(specs)
    spec_df["lo_c"] = spec_df["lo_c"].map(str)
    spec_df["hi_c"] = spec_df["hi_c"].map(str)
    manifest = (
        rd.from_pandas(spec_df)
        .repartition(len(specs))
        .map_batches(merge_part, batch_format="pandas", batch_size=1)
        .to_pandas()
        .sort_values("pid")
        .reset_index(drop=True)
    )
    manifest.to_parquet(os.path.join(out_dir, "_manifest.parquet"))
    return manifest


def lsm_merged_range_docs(sf_dir: str):
    """Corpus query exercising the k-WAY compaction end to end: the
    documents table is split into FOUR runs (doc_id % 4), each written
    as its own sorted run, all four merged in ONE merge_sorted_runs_k
    pass, and the same middle-quintile range scan as sorted_range_docs
    is served from the merged layout — the SQL oracle is a plain filter
    over ALL documents, so a hash match proves the k-way merge lost,
    duplicated and misordered nothing. NOT in the block-invariance
    list (the /tmp cache would make that check vacuous — the
    merged_run_range_docs rule); the fresh-path pytest gates pin the
    merge itself."""
    import ray.data as rd

    from open_parse_ray.sources.tables import table_path

    src = table_path(sf_dir, "documents")
    st = os.stat(src)
    key = hashlib.md5(
        f"{os.path.abspath(src)}|{st.st_size}|{st.st_mtime_ns}|lsmk_v1".encode()
    ).hexdigest()[:16]
    base = os.path.join("/tmp/opr_cache/lsmk_v1", key)
    out_dir = os.path.join(base, "merged")
    if not os.path.exists(os.path.join(out_dir, "_manifest.parquet")):
        ds = rd.read_parquet(src, columns=["doc_id", "n_chars", "lang"])

        def _mod(par):
            def f(b: pd.DataFrame) -> pd.DataFrame:
                return b[b["doc_id"] % 4 == par]

            return f

        runs = []
        for par in range(4):
            d = os.path.join(base, f"r{par}")
            write_sorted(
                ds.map_batches(_mod(par), batch_format="pandas", batch_size=65536),
                d,
            )
            runs.append(d)
        merge_sorted_runs_k(runs, out_dir)
    man = pd.read_parquet(os.path.join(out_dir, "_manifest.parquet"))
    lo, hi = int(man["v_lo"].min()), int(man["v_hi"].max())
    a = lo + ((hi - lo) * 40) // 100
    b = lo + ((hi - lo) * 60) // 100
    t, _, _ = range_scan_sorted(out_dir, a, b)
    df = t.to_pandas()
    return rd.from_pandas(
        pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy(dtype=np.int64),
                "n_chars": df["n_chars"].to_numpy(dtype=np.int64),
                "lang": df["lang"],
            }
        )
    )


LSM_MERGED_RANGE_DOCS_SQL = SORTED_RANGE_DOCS_SQL
