"""Benchmark of the open_parse_ray extraction engine on Ray Data.

Run from the repository root:

    python3 perfbench/run.py --workload pages_basic --seed 3 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Workloads (corpus.py): ``pages_basic``, ``pages_semantic``, ``text_dedup``.
With ``--trace 0`` the last stdout line holds the end-to-end metrics named in
BENCHMARK.json, with ``--trace 1`` the per-layer metrics (a layer that the
workload does not run reads 0). The line is one JSON object with the keys
correct, attempted, failed and metrics. The process exits non-zero when an
output check fails. A full record (corpus stats, every pass, set-up samples,
teardown counts, calibration probe, layer table) goes to
``.perfbench/records/``.

Each run builds (once) and checks its seeded corpus, then starts session.py
``SETUP_CYCLES`` times in turn, each a fresh process that sets Ray up cold and
leads a new process group, all under one hard timeout. ``setup_s`` is the
median of the cycles' set-up times; the timed passes are spread over the
cycles, which also damps the minute-scale speed drift of a shared host. After
each cycle exits, any process of its group still alive is killed; a raylet,
GCS server or worker among them counts as a failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import corpus  # noqa: E402
import oracle  # noqa: E402
import procs  # noqa: E402

RUN_DEADLINE_S = 170  # per workload, corpus build and oracle included
SETUP_CYCLES = 3


def calibration_s() -> float:
    """Median time of a fixed pure-Python loop: shows VM speed drift per run."""
    def loop():
        t0 = time.perf_counter()
        x = 0
        for i in range(300_000):
            x += i * i
        return time.perf_counter() - t0

    return statistics.median(loop() for _ in range(5))


def _child_env(ray_tmp: str) -> dict:
    env = dict(os.environ)
    # Ray workers import open_parse_ray whatever the caller's cwd
    env["PYTHONPATH"] = os.pathsep.join(p for p in (ROOT, env.get("PYTHONPATH")) if p)
    env.update(RAY_USAGE_STATS_ENABLED="0", RAY_TMPDIR=ray_tmp)
    return env


def _tail(path: str, n: int = 4000) -> str:
    try:
        with open(path, "rb") as f:
            f.seek(max(0, os.path.getsize(path) - n))
            return f.read().decode("utf-8", "replace")
    except OSError:
        return ""


def run_session(spec: dict, timeout_s: float) -> dict:
    """Run session.py under ``timeout_s``; kill whatever of its group is left."""
    work = spec["work"]
    spec_path = os.path.join(work, "spec.json")
    with open(spec_path, "w") as f:
        json.dump(spec, f)
    log_path = os.path.join(work, "session.log")
    with open(log_path, "wb") as log:
        child = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "session.py"), spec_path],
            cwd=ROOT,
            env=_child_env(spec["ray_tmp"]),
            stdout=log,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        timed_out = False
        try:
            child.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            timed_out = True
        finally:  # also on SIGTERM / Ctrl-C of this process
            if child.poll() is None:
                os.killpg(child.pid, signal.SIGKILL)
                child.wait()
    leftover = procs.reap_group(child.pid, grace_s=0)
    try:
        with open(spec["result"]) as f:
            result = json.load(f)
    except (OSError, ValueError):
        result = {"setup_s": [], "passes": [], "teardown": [], "layers": {}}
    if timed_out:
        result["error"] = f"session exceeded {timeout_s:.0f}s and was killed"
    elif child.returncode and "error" not in result:
        result["error"] = f"session exited with code {child.returncode}"
    if "error" in result:
        result["log_tail"] = _tail(log_path)
    result["teardown"].append(leftover)
    return result


def _checks(workload: str, expected: dict, result: dict) -> dict:
    passes = result["passes"]
    if workload == "text_dedup":
        bad = [
            q
            for p in passes
            for q in oracle.QUERIES
            if p["digests"].get(q) != expected["queries"][q]
        ]
        ok = not bad
        detail = {"mismatched_queries": sorted(set(bad))}
    else:
        ok = all(
            p["pairs_sha256"] == expected["pairs_sha256"]
            and p["missing_urls"] == 0
            and p["duplicated_urls"] == 0
            for p in passes
        )
        detail = {}
    if "kernel" in result:
        kernel = result["kernel"]
        ok = ok and kernel["nodes_equal"] and kernel["layer_sum_within_tolerance"]
    ok = ok and bool(passes) and "error" not in result
    return dict(detail, outputs_match=ok, expected_from=expected["source"])


def run_one(bench: dict, workload: str, seed: int, seconds: int, trace: int) -> dict:
    started = time.monotonic()
    meta = corpus.ensure(ROOT, workload, seed)
    expected = oracle.expected(workload, meta)
    work = os.path.join(ROOT, ".perfbench", "work", f"{os.getpid()}-{workload}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cycles = 1 if trace else SETUP_CYCLES
    spec = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds / cycles,
        "trace": trace,
        "rows": meta["rows"],
        "main": meta["main"],
        "warmup": meta["warmup"],
        # nproc, unlike os.cpu_count(), honours OMP_NUM_THREADS and CPU affinity
        "num_cpus": int(subprocess.run(["nproc"], capture_output=True, check=True).stdout),
        "work": work,
    }
    result = {"setup_s": [], "passes": [], "teardown": [], "layers": {}}
    calibration = calibration_s()
    try:
        for n in range(cycles):
            remaining = RUN_DEADLINE_S - (time.monotonic() - started)
            if remaining <= 0:
                result["error"] = f"no time left for set-up cycle {n + 1} of {cycles}"
                break
            # A fresh Ray temp dir per cycle. It lives under the system temp
            # dir because AF_UNIX socket paths are capped at 107 bytes and Ray
            # nests its sockets about 64 bytes below it, which a checkout path
            # of any length could not guarantee.
            spec["ray_tmp"] = tempfile.mkdtemp(prefix="pb")
            spec["result"] = os.path.join(work, f"result{n}.json")
            try:
                cycle = run_session(spec, remaining)
            finally:
                shutil.rmtree(spec["ray_tmp"], ignore_errors=True)
            for key in ("setup_s", "passes", "teardown"):
                result[key] += cycle.pop(key)
            result["layers"].update(cycle.pop("layers"))
            for key in ("peak_rss_mb", "peak_rss_end_mb"):
                result[key] = max(result.get(key, 0.0), cycle.pop(key, 0.0))
            result.update(cycle)  # kernel table, error and log tail
            if "error" in result:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = result["passes"]
    leaked = sum(t["leaked"] + t["unkillable"] for t in result["teardown"])
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes) + leaked
    checks = _checks(workload, expected, result)
    measured = dict(result["layers"])
    if passes and result["setup_s"]:
        measured.update(
            # all passes' docs over their summed wall: pass times on a shared
            # host can be bimodal, and the median of a few passes jumps modes
            docs_per_s=sum(p["docs"] for p in passes) / sum(p["wall_s"] for p in passes),
            setup_s=statistics.median(result["setup_s"]),
            peak_rss_mb=result["peak_rss_mb"],
        )
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    metrics = {}
    if "docs_per_s" in measured:
        metrics = {
            m["name"]: {"value": measured.get(m["name"], 0.0) if trace else measured[m["name"]],
                        "unit": m["unit"]}
            for m in wanted
        }
    line = {
        "correct": checks["outputs_match"],
        "attempted": max(attempted, 1),
        "failed": failed if attempted else max(failed, 1),
        "metrics": metrics,
    }
    record = {
        "workload": workload,
        "why": corpus.WORKLOADS[workload],
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "num_cpus": spec["num_cpus"],
        "corpus": {k: v for k, v in meta.items() if k not in ("dir", "main", "warmup")},
        "calibration_s": calibration,
        "checks": checks,
        "failed_share": line["failed"] / line["attempted"],
        "leaked_processes": leaked,
        "measured": measured,
        "result": line,
        **{k: v for k, v in result.items() if k != "layers"},
    }
    records = os.path.join(ROOT, ".perfbench", "records")
    os.makedirs(records, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    with open(os.path.join(records, f"{stamp}-{workload}-s{seed}-t{trace}-{os.getpid()}.json"), "w") as f:
        json.dump(record, f, indent=1)
    return record


def _summary(record: dict) -> str:
    m = record["measured"]
    if "error" in record:
        return f"{record['workload']} seed {record['seed']}: FAILED\n{record.get('log_tail', '')}"
    head = (
        f"{record['workload']} seed {record['seed']}: correct={record['checks']['outputs_match']}"
        f" failed_share={record['failed_share']:.4f}"
        f" calibration_s={record['calibration_s']:.4f} passes={len(record['passes'])}"
    )
    if record["trace"]:
        rows = [f"  {k} = {v:.6g}" for k, v in sorted(m.items())]
        if "kernel" in record:
            k = record["kernel"]
            rows.append(
                f"  tracing_overhead_share = {k['tracing_overhead_share']:.4f}"
                f"  layer_sum_error_share = {k['layer_sum_error_share']:.4f}"
                f" (tolerance {k['layer_sum_tolerance']})"
            )
        return "\n".join([head] + rows)
    return (
        f"{head}\n  docs_per_s={m['docs_per_s']:.2f} docs/s  setup_s={m['setup_s']:.3f} s"
        f"  peak_rss_mb={m['peak_rss_mb']:.1f} MB"
    )


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        import open_parse_ray  # noqa: F401

        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (ImportError, OSError) as exc:
        print(f"perfbench: the engine is not in {ROOT}: {exc}", file=sys.stderr)
        return 2
    workloads = sorted(corpus.WORKLOADS) if args.workload == "all" else [args.workload]
    records = [run_one(bench, w, args.seed, args.seconds, args.trace) for w in workloads]
    for r in records:
        print(_summary(r), flush=True)
    if len(records) == 1:
        line = records[0]["result"]
    else:
        line = {
            "correct": all(r["result"]["correct"] for r in records),
            "attempted": sum(r["result"]["attempted"] for r in records),
            "failed": sum(r["result"]["failed"] for r in records),
            "metrics": {
                f"{r['workload']}.{k}": v for r in records for k, v in r["result"]["metrics"].items()
            },
        }
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.path.insert(0, ROOT)
    sys.exit(main())
