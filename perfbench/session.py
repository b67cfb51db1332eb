"""One set-up cycle of a benchmark run, executed in a child process of run.py.

    python3 perfbench/session.py SPEC.json

run.py starts this file once per set-up cycle, each time as the leader of a
new process group, so every process of its Ray session can be found and
killed afterwards. The spec names the workload, the corpus, the Ray temp dir
and where to write the result. The cycle sets Ray up cold (importing Ray and
the engine, ``ray.init`` and a warm-up batch of the same pipeline) and then
repeats full passes over the corpus for ``seconds``. After ``ray.shutdown()``
the session's processes are checked: core processes still alive are counted
as leaked, and everything left is killed.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import oracle  # noqa: E402
import procs  # noqa: E402

# Ray's default object store takes 30% of RAM; the largest run holds a few MB.
OBJECT_STORE_BYTES = 256 * 1024 * 1024
BATCH_SIZE = 32  # extract()'s default, also used for the in-process kernel


def peak_rss_mb() -> float:
    """Largest VmHWM over this process and the session's ``ray::`` workers."""
    me = os.getpid()
    pids = [me] + [p for p in procs.group_members(os.getpgid(0), [me]) if procs.role(p) == "worker"]
    return max(procs.vm_hwm_mb(p) for p in pids)


def init_ray(spec) -> None:
    import ray
    import ray.data

    ray.init(
        address="local",
        num_cpus=spec["num_cpus"],
        include_dashboard=False,
        logging_level="ERROR",
        object_store_memory=OBJECT_STORE_BYTES,
        _temp_dir=spec["ray_tmp"],
    )
    ray.data.DataContext.get_current().enable_progress_bars = False


def pages_pass(spec, main_dir: str):
    """One read → extract → consume pass; returns wall, pairs, error rows, dataset."""
    import ray.data as rd

    from open_parse_ray.pipelines.extraction import extract

    t0 = time.perf_counter()
    ds = extract(
        rd.read_parquet(main_dir, columns=["url", "html"]),
        pipeline=oracle.PAGES_PIPELINE[spec["workload"]],
        output="docs",
        batch_size=BATCH_SIZE,
    )
    pairs, errors = [], 0
    for b in ds.iter_batches(batch_size=None, batch_format="pyarrow"):
        pairs.extend(zip(b.column("url").to_pylist(), b.column("extracted_text").to_pylist()))
        errors += sum(s != "ok" for s in b.column("status").to_pylist())
    return time.perf_counter() - t0, pairs, errors, ds


def dedup_pass(main_dir: str):
    """The four text_dedup queries in turn; returns wall and per-query results."""
    from open_parse_ray.stages import analysis, dedup

    fns = {
        "exact_dedup": dedup.exact_dedup_groups,
        "normalized_exact_dedup": dedup.normalized_exact_dedup,
        "top_terms": analysis.top_terms,
        "doc_stats_by_lang": analysis.doc_stats_by_lang,
    }
    out = {}
    t0 = time.perf_counter()
    for name in oracle.QUERIES:
        q0 = time.perf_counter()
        try:
            ds = fns[name](main_dir)
            tables = list(ds.iter_batches(batch_size=None, batch_format="pyarrow"))
            out[name] = {"wall_s": time.perf_counter() - q0, "tables": tables, "ds": ds}
        except Exception:
            out[name] = {"wall_s": time.perf_counter() - q0, "error": traceback.format_exc()}
    return time.perf_counter() - t0, out


def run_pass(spec, main_dir: str) -> dict:
    """One timed pass plus its (untimed) output summary."""
    if spec["workload"] == "text_dedup":
        wall, res = dedup_pass(main_dir)
        return {
            "wall_s": wall,
            "docs": spec["rows"],
            "attempted": len(res),
            "failed": sum("error" in r for r in res.values()),
            "errors": [r["error"] for r in res.values() if "error" in r],
            "digests": {q: oracle.table_digest(r["tables"]) for q, r in res.items() if "tables" in r},
            "_res": res,
        }
    wall, pairs, errors, ds = pages_pass(spec, main_dir)
    urls = [u for u, _ in pairs]
    missing = len(set(spec["urls"]) - set(urls))
    duplicated = len(urls) - len(set(urls))
    return {
        "wall_s": wall,
        "docs": spec["rows"],
        "attempted": spec["rows"],
        "failed": errors + missing + duplicated,
        "error_rows": errors,
        "missing_urls": missing,
        "duplicated_urls": duplicated,
        "pairs_sha256": oracle.pairs_digest(pairs),
        "_ds": ds,
    }


def warm_up(spec) -> None:
    """One small batch through the same pipeline (worker spawn, imports)."""
    if spec["workload"] == "text_dedup":
        _, res = dedup_pass(spec["warmup"])
        errors = [r["error"] for r in res.values() if "error" in r]
    else:
        _, _, n_err, _ = pages_pass(spec, spec["warmup"])
        errors = ["warm-up produced error rows"] if n_err else []
    if errors:
        raise RuntimeError("warm-up failed: " + errors[0])


def trace_layers(spec, last: dict) -> dict:
    """Per-layer metrics of the traced run's one pass (Ray side)."""
    if spec["workload"] == "text_dedup":
        res = last["_res"]
        out = layers.ray_layers([r["ds"]._get_stats_summary() for r in res.values()], last["wall_s"])
        for q, r in res.items():
            out[f"{q}.wall_s"] = r["wall_s"]
            for k, v in layers.exchange_layers(r["ds"]._get_stats_summary()).items():
                out[f"{q}.{k}"] = v
        return out
    return layers.ray_layers([last["_ds"]._get_stats_summary()], last["wall_s"])


def run(spec: dict, result: dict) -> None:
    import pyarrow.parquet as pq

    trace = spec["trace"]
    if spec["workload"] != "text_dedup":
        columns = ["url", "html"] if trace else ["url"]
        table = pq.read_table(spec["main"], columns=columns)
        spec["urls"] = table.column("url").to_pylist()
        if trace:
            kernel = layers.kernel_layers(
                table, oracle.PAGES_PIPELINE[spec["workload"]], BATCH_SIZE
            )
            result["kernel"] = kernel
            result["layers"].update(kernel["metrics"])
    t0 = time.perf_counter()
    import ray  # the first import of Ray in this process counts as set-up

    init_ray(spec)
    try:
        warm_up(spec)
        result["setup_s"].append(time.perf_counter() - t0)
        started = time.perf_counter()
        for n in itertools.count():
            p = run_pass(spec, spec["main"])
            result["passes"].append({k: v for k, v in p.items() if not k.startswith("_")})
            if n == 0:
                # Worker heaps keep growing over repeated passes, so how many
                # passes fit in the time would move the peak: the metric takes
                # it after one pass; the record keeps both.
                result["peak_rss_mb"] = peak_rss_mb()
            if trace or time.perf_counter() - started >= spec["seconds"]:
                break
        result["peak_rss_end_mb"] = peak_rss_mb()
        if trace:
            result["layers"].update(trace_layers(spec, p))
    finally:
        t1 = time.perf_counter()
        ray.shutdown()
        reaped = procs.reap_group(os.getpgid(0), exclude=[os.getpid()])
        result["teardown"].append(dict(reaped, seconds=time.perf_counter() - t1))


def main() -> int:
    with open(sys.argv[1]) as f:
        spec = json.load(f)
    result = {"setup_s": [], "passes": [], "teardown": [], "layers": {}}
    code = 0
    try:
        run(spec, result)
    except Exception:
        result["error"] = traceback.format_exc()
        code = 1
    tmp = spec["result"] + ".tmp"
    with open(tmp, "w") as f:
        json.dump(result, f)
    os.replace(tmp, spec["result"])
    return code


if __name__ == "__main__":
    sys.exit(main())
