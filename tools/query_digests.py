"""Order-insensitive digest of every queries() entry, one line per query:
``name rows sha256`` over the result with columns sorted by name and rows
sorted (the normalization of tools/check_oracles.py). Covers the queries
without an oracle too. The engine is imported from the CURRENT directory,
so one copy of this script compares two checkouts for any change that
must not move an answer:

    python tools/query_digests.py SF_DIR [names...] > after.txt
    (cd PARENT_CHECKOUT && python $OLDPWD/tools/query_digests.py SF_DIR) > before.txt
    diff before.txt after.txt
"""

import hashlib
import os
import sys

import pandas as pd

from check_oracles import normalize, to_pandas

# after check_oracles, which puts this script's checkout on the path: the
# engine (driver and Ray workers) comes from the current directory
ROOT = os.getcwd()
sys.path.insert(0, ROOT)
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
)


def digest(df: pd.DataFrame) -> str:
    df = normalize(df)
    h = hashlib.sha256(repr(list(df.columns)).encode())
    h.update(pd.util.hash_pandas_object(df, index=False).values.tobytes())
    return h.hexdigest()


def main():
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    sf_dir, only = sys.argv[1], set(sys.argv[2:])
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local", num_cpus=8, include_dashboard=False,
            ignore_reinit_error=True, logging_level="ERROR",
        )
    import __ray_entry__ as E

    for name, fn in E.queries().items():
        if only and name not in only:
            continue
        try:
            df = to_pandas(fn(sf_dir))
            print(f"{name} {len(df)} {digest(df)}", flush=True)
        except Exception as exc:  # noqa: BLE001 - reported, not hidden
            print(f"{name} ERROR {type(exc).__name__}: {exc}"[:300], flush=True)
    ray.shutdown()


if __name__ == "__main__":
    main()
