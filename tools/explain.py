"""Per-stage execution report for any queries() entry — the repo's
EXPLAIN ANALYZE. Runs the named query, materializes the result, and
prints one line per Dataset operator: task count, block count, remote
wall time, and output rows/bytes where Ray records them. This is the
feedback loop the perf playbook prescribes (read ds.stats(), find the
stage that dominates, iterate) packaged so a regression triage is one
command instead of an ad-hoc script.

Usage:
    python tools/explain.py <query_name> [sf_dir] [--repeat N]

The second run of --repeat 2 shows steady-state numbers (the first run
pays worker spawn + object-store fill; the round-4 bench sessions
measured 2-4x first-run inflation on heavy exchanges).
"""

import os
import re
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def condense_stats(stats: str):
    """Parse Dataset.stats() text into one record per operator:
    {name, tasks, blocks, wall} — wall is the 'Remote wall time ...
    total' figure when present. Pure function (unit-tested without Ray)."""
    out = []
    for block in re.split(r"\n(?=Operator )", stats):
        m = re.match(r"Operator (\d+) (.+?):", block)
        if not m:
            continue
        rec = {"op": int(m.group(1)), "name": m.group(2).strip(), "tasks": None,
               "blocks": None, "wall": None}
        t = re.search(r"(\d+) tasks executed, (\d+) blocks produced", block)
        if t:
            rec["tasks"], rec["blocks"] = int(t.group(1)), int(t.group(2))
        w = re.search(r"Remote wall time:.*?([\d.]+(?:ms|s|us|m)) total", block)
        if w:
            rec["wall"] = w.group(1)
        if "[execution cached]" in block:
            rec["cached"] = True
        out.append(rec)
    return out


USAGE = "usage: python tools/explain.py <query_name> [sf_dir] [--repeat N]"


def parse_args(argv):
    """(query_name, sf_dir, repeat) from the command line. ``--repeat N``
    and ``--repeat=N`` both work; a missing query name or a missing or
    non-integer N exits with the usage message."""
    args, repeat = [], 2
    it = iter(argv)
    for a in it:
        if a == "--repeat" or a.startswith("--repeat="):
            value = a.split("=", 1)[1] if "=" in a else next(it, "")
            if not value.isdigit():
                sys.exit(USAGE)
            repeat = int(value)
        elif not a.startswith("--"):
            args.append(a)
    if not args:
        sys.exit(USAGE)
    name = args[0]
    sf_dir = args[1] if len(args) > 1 else "/root/testdata/sf0.01"
    return name, sf_dir, repeat


def main(argv):
    name, sf_dir, repeat = parse_args(argv)

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
            include_dashboard=False,
            logging_level="ERROR",
        )
    import __ray_entry__ as entrymod

    fn = entrymod.queries()[name]
    for run in range(repeat):
        t0 = time.perf_counter()
        res = fn(sf_dir)
        if hasattr(res, "materialize"):
            res = res.materialize()
            n = res.count()
            stats = res.stats()
        else:
            n = len(res)
            stats = ""
        wall = time.perf_counter() - t0
        print(f"== run {run}: {wall:.2f}s, {n} rows ==")
        for rec in condense_stats(stats):
            cached = " [cached]" if rec.get("cached") else ""
            tasks = f"{rec['tasks']} tasks, {rec['blocks']} blocks" if rec[
                "tasks"] is not None else "-"
            print(f"  op{rec['op']:>2} {rec['name'][:70]:<70} {tasks:<22} "
                  f"wall={rec['wall'] or '-'}{cached}")
    ray.shutdown()


if __name__ == "__main__":
    main(sys.argv[1:])
