"""Corpus-level deduplication: exact, MinHash+LSH, SimHash, n-gram
Jaccard, char-set Jaccard.

Scale shapes (the part that matters at 100 TB):
- exact: hash in a vectorized map (shrinks the shuffle key from full text
  to 16 bytes) → ``groupby(fp)`` → per-group first. One shuffle, keyed on
  a short uniform hash — no skew.
- MinHash-LSH: per-batch numpy signatures → exact collapse of equal
  signatures (one shuffle shipping each 256 B sig once per doc) → SLIM
  band rows (bucket, band, rep_id — 24 B, signatures never ride along)
  → bucket routing with adaptive triangle chunking (a hot bucket
  degrades into bounded chunk-pair tasks of <= 2 × chunk_size rows) →
  signatures re-attached to the small non-singleton-bucket membership
  via a salted union-join against the materialized signature index →
  per-chunk verification → bounded expansion of exact-dup groups.
  Texts are never shuffled anywhere.
- SimHash: 64-bit signature per doc, same collapse + 4×16-bit band
  blocking + adaptive chunking; the 8-byte signature rides the band
  rows directly (no side-table join needed).
"""

from __future__ import annotations

import hashlib
from typing import List, Optional

import numpy as np
import pandas as pd
import pyarrow as pa

from open_parse_ray.sources.tables import table_path

_MERSENNE = (1 << 61) - 1


def _read_sample_docs(sf_dir: str, sample_mod: int) -> pd.DataFrame:
    """Select the broadcast sample (doc_id %% sample_mod == 0) with a
    DISTRIBUTED scan: the filter runs inside map_batches across the
    cluster and only the surviving 1/sample_mod rows ever reach the
    driver — at 10^12 docs the full-corpus read is cluster work, not a
    driver loop (pyarrow scan expressions lack modulo, hence the batch
    filter instead of a pushed-down predicate)."""
    import ray.data as rd

    def keep_sample(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        return t.filter(pa.array(ids % sample_mod == 0))

    kept = (
        rd.read_parquet(
            table_path(sf_dir, "documents"), columns=["doc_id", "text", "lang"]
        )
        .map_batches(keep_sample, batch_format="pyarrow", batch_size=8192)
        .take_all()
    )
    if not kept:
        return pd.DataFrame({"doc_id": [], "text": [], "lang": []})
    return pd.DataFrame(kept)



def _md5_64(s: str) -> int:
    return int.from_bytes(hashlib.md5(s.encode("utf-8")).digest()[:8], "little")


# word → 64-bit md5 cache (vocabulary-bounded; cleared if it ever grows
# past the cap so a pathological corpus can't exhaust worker memory)
_WORD_HASH_CACHE: dict = {}
_WORD_HASH_CACHE_CAP = 1_000_000
_SHINGLE_MIX = np.uint64(0x9E3779B97F4A7C15)  # golden-ratio odd multiplier


def _hash_words(words) -> np.ndarray:
    cache = _WORD_HASH_CACHE
    get = cache.get
    out = np.empty(len(words), dtype=np.uint64)
    for i, w in enumerate(words):
        h = get(w)
        if h is None:
            if len(cache) >= _WORD_HASH_CACHE_CAP:
                cache.clear()
            h = _md5_64(w)
            cache[w] = h
        out[i] = h
    return out


def _word_shingles(text: str, k: int = 3) -> np.ndarray:
    """Hashed k-word shingles (uint64). One md5 per DISTINCT word (cached
    across documents — vocabulary-bounded), then a vectorized wrapping
    polynomial combine over k consecutive word hashes; order-sensitive and
    deterministic, ~100x fewer hash calls than per-shingle md5."""
    words = text.split()
    if len(words) < k:
        return (
            np.array([_md5_64(text)], dtype=np.uint64)
            if words
            else np.array([], dtype=np.uint64)
        )
    wh = _hash_words(words)
    n = len(words) - k + 1
    acc = np.zeros(n, dtype=np.uint64)
    for j in range(k):  # wrapping uint64 polynomial: acc = acc*MIX + wh[j:j+n]
        acc = acc * _SHINGLE_MIX + wh[j : j + n]
    return acc


class MinHasher:
    """num_perm universal-hash minhash signatures; (a*x+b) mod p family.
    Permutation parameters derive from a fixed seed → deterministic
    everywhere. Built once per actor."""

    def __init__(self, num_perm: int = 128, seed: int = 42):
        rng = np.random.RandomState(seed)
        self.num_perm = num_perm
        self.a = rng.randint(1, _MERSENNE, size=num_perm, dtype=np.uint64)
        self.b = rng.randint(0, _MERSENNE, size=num_perm, dtype=np.uint64)

    def signature(self, shingles: np.ndarray) -> np.ndarray:
        if len(shingles) == 0:
            return np.full(self.num_perm, np.iinfo(np.uint64).max, dtype=np.uint64)
        # (P, S) matrix of hashed values, min over shingles
        x = shingles.astype(np.object_)  # exact modular arithmetic via python ints
        sig = np.empty(self.num_perm, dtype=np.uint64)
        for p in range(self.num_perm):
            vals = (int(self.a[p]) * x + int(self.b[p])) % _MERSENNE
            sig[p] = np.uint64(min(vals))
        return sig


class FastMinHasher(MinHasher):
    """Vectorized variant using float-safe 32-bit hashing: h = (a*x+b)
    mod p with 31-bit ranges so uint64 arithmetic never overflows."""

    def __init__(self, num_perm: int = 128, seed: int = 42):
        rng = np.random.RandomState(seed)
        self.num_perm = num_perm
        p = np.uint64((1 << 31) - 1)
        self.p = p
        self.a = rng.randint(1, int(p), size=num_perm, dtype=np.uint64)
        self.b = rng.randint(0, int(p), size=num_perm, dtype=np.uint64)

    def signature(self, shingles: np.ndarray) -> np.ndarray:
        if len(shingles) == 0:
            return np.full(self.num_perm, np.iinfo(np.uint64).max, dtype=np.uint64)
        x = (shingles % self.p)[None, :]  # (1, S) values < 2^31
        h = (self.a[:, None] * x + self.b[:, None]) % self.p  # fits in uint64
        return h.min(axis=1)


def _band_buckets(sig_matrix: np.ndarray, bands: int) -> np.ndarray:
    """(D, P) uint16 signature matrix → (D, bands) int64 LSH bucket ids.

    One vectorized wrapping-uint64 polynomial per band (xor-multiply over
    the rows-per-band axis, band-id salt, splitmix64 finalizer) replaces
    the old 16-md5-calls-per-doc Python loop. Equal band chunks map to
    equal buckets by construction; distinct chunks collide with ~2^-64
    probability, so candidate-pair output is unchanged."""
    d, p = sig_matrix.shape
    rpb = p // bands
    chunks = sig_matrix.reshape(d, bands, rpb).astype(np.uint64)
    acc = np.zeros((d, bands), dtype=np.uint64)
    for j in range(rpb):
        acc = (acc ^ chunks[:, :, j]) * _SHINGLE_MIX
    acc ^= (np.arange(bands, dtype=np.uint64) + np.uint64(1)) * _SHINGLE_MIX
    # splitmix64-style avalanche
    acc = (acc ^ (acc >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    acc = (acc ^ (acc >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    acc = acc ^ (acc >> np.uint64(31))
    return acc.view(np.int64)


def minhash_band_rows(
    batch: pd.DataFrame,
    hasher: FastMinHasher,
    bands: int = 16,
    shingle_k: int = 3,
) -> pd.DataFrame:
    """doc rows → (band_id, band_hash, doc_id) rows (LSH banding)."""
    sigs = np.stack(
        [
            hasher.signature(_word_shingles(t, shingle_k)).astype(np.uint16)
            for t in batch["text"]
        ]
    ) if len(batch) else np.empty((0, hasher.num_perm), dtype=np.uint16)
    buckets = _band_buckets(sigs, bands)
    return pd.DataFrame(
        {
            "band_id": np.tile(np.arange(bands, dtype=np.int64), len(batch)),
            "band_hash": buckets.reshape(-1),
            "doc_id": np.repeat(np.asarray(batch["doc_id"], dtype=np.int64), bands),
        }
    )


def minhash_signatures(batch: pd.DataFrame, hasher: FastMinHasher, shingle_k=3):
    """Signatures stored as uint16 components (256B at 128 perms, not
    1KB): minhash components are only ever compared for EQUALITY, so
    truncating to 16 bits adds a 2^-16 per-component collision — an
    est_jaccard bias of +0.000015 — while cutting every downstream
    shuffle of signatures 4x. At 10^12 docs the LSH band shuffle ships
    sig bytes with every band row; this is the difference between 4 TB
    and 16 TB of exchange per 10^9 docs."""
    sigs = [
        hasher.signature(_word_shingles(t, shingle_k)).astype(np.uint16).tobytes()
        for t in batch["text"]
    ]
    return pd.DataFrame({"doc_id": batch["doc_id"], "sig": sigs})


def estimate_jaccard(sig_a: bytes, sig_b: bytes, dtype=np.uint16) -> float:
    """Fraction of equal signature components. Default dtype matches the
    uint16 storage format emitted by ``minhash_signatures``."""
    a = np.frombuffer(sig_a, dtype=dtype)
    b = np.frombuffer(sig_b, dtype=dtype)
    return float((a == b).mean())


def simhash64(text: str) -> int:
    """Classic 64-bit SimHash over word features (multiplicity-weighted).

    Vectorized: md5 once per *unique* word, bit-unpack as a (U, 64)
    matrix, weight rows by word counts — identical result to the
    textbook per-word ±1 accumulation, without the 64-iteration Python
    inner loop (which dominated the stage at scale)."""
    from collections import Counter

    counts = Counter(text.split())
    if not counts:
        return 0
    hs = _hash_words(list(counts))  # cached md5 per distinct word (bit-identical)
    w = np.fromiter(counts.values(), dtype=np.int64, count=len(counts))
    bits = ((hs[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)).astype(np.int64)
    v = ((2 * bits - 1) * w[:, None]).sum(axis=0)
    out_bits = np.where(v > 0, np.uint64(1), np.uint64(0))
    return int((out_bits << np.arange(64, dtype=np.uint64)).sum(dtype=np.uint64))


def simhash_batch(batch: pd.DataFrame) -> pd.DataFrame:
    sh = [simhash64(t) for t in batch["text"]]
    return pd.DataFrame(
        {
            "doc_id": batch["doc_id"],
            "simhash": np.array(sh, dtype=np.uint64).astype(np.int64),  # arrow int64
        }
    )


# byte-wise popcount lookup table (numpy 1.x has no bitwise_count)
_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def _popcount64_rows(words: np.ndarray) -> np.ndarray:
    """Sum of set bits along the last axis of a uint64 array."""
    if words.size == 0:
        return np.zeros(words.shape[:-1], dtype=np.int64)
    by = words.view(np.uint8).reshape(*words.shape[:-1], -1)
    return _POPCOUNT8[by].sum(axis=-1, dtype=np.int64)


def _charset_bits(texts, alphabet: np.ndarray):
    """(rows × words) uint64 bitset matrix over ``alphabet`` plus the
    EXACT per-row distinct-char count (chars outside the alphabet can
    never intersect the sample but still count toward the union)."""
    n_words = max(1, (len(alphabet) + 63) // 64)
    bits = np.zeros((len(texts), n_words), dtype=np.uint64)
    sizes = np.zeros(len(texts), dtype=np.int64)
    for i, t in enumerate(texts):
        cps = np.unique(np.frombuffer(t.encode("utf-32-le"), dtype=np.uint32))
        sizes[i] = len(cps)
        if len(alphabet) == 0 or not len(cps):
            continue
        pos = np.searchsorted(alphabet, cps)
        ok = pos < len(alphabet)
        pos = pos[ok]
        hit = alphabet[pos] == cps[ok]
        idx = pos[hit].astype(np.uint64)
        np.bitwise_or.at(
            bits[i],
            (idx >> np.uint64(6)).astype(np.int64),
            np.uint64(1) << (idx & np.uint64(63)),
        )
    return bits, sizes


def charset_jaccard_matrix(texts, sample_texts) -> np.ndarray:
    """(len(texts) × len(sample_texts)) exact char-set Jaccard matrix via
    the bitset AND+popcount kernel — the pure math behind
    char_jaccard_pairs, exposed for property testing against the scalar
    char_jaccard definition."""
    if not sample_texts:
        return np.zeros((len(texts), 0), dtype=np.float64)
    alphabet = np.unique(
        np.frombuffer("".join(sample_texts).encode("utf-32-le"), dtype=np.uint32)
    )
    qbits, qsizes = _charset_bits(list(sample_texts), alphabet)
    bbits, bsizes = _charset_bits(list(texts), alphabet)
    inter = _popcount64_rows(bbits[:, None, :] & qbits[None, :, :])
    union = bsizes[:, None] + qsizes[None, :] - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        return inter / union


def ngram_jaccard(a: str, b: str, k: int = 3) -> float:
    sa = set(zip(*[a.split()[i:] for i in range(k)])) if len(a.split()) >= k else {a}
    sb = set(zip(*[b.split()[i:] for i in range(k)])) if len(b.split()) >= k else {b}
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


def char_jaccard(a: str, b: str) -> float:
    """Character-set Jaccard — matches DuckDB's jaccard() exactly."""
    sa, sb = set(a), set(b)
    return len(sa & sb) / len(sa | sb)


# ---------------------------------------------------------------------------
# Dataset-level operators
# ---------------------------------------------------------------------------


def _input_bytes(ds) -> int:
    """Ray's own size estimate of ``ds``'s inputs: the sum of
    ``infer_metadata().size_bytes`` over the leaves of its logical plan
    (for a Parquet read, the in-memory estimate from file metadata — no
    pass over the data, and blind to the column projection, so an upper
    bound). 0 when any leaf's size is unknown. The one place that reads
    Ray's internal ``_logical_plan``."""
    sizes = [
        op.infer_metadata().size_bytes
        for op in ds._logical_plan.dag.post_order_iter()
        if not op.input_dependencies
    ]
    return 0 if None in sizes else sum(sizes)


def default_num_parts(ds=None) -> int:
    """Adaptive salt width for the salted exchanges:
    ``max(4 × cluster CPUs, ceil(input bytes / target_max_block_size))``.

    Groups per core: Ray Data's sorted-groupby splits output blocks only
    BETWEEN salt groups, so the salt count bounds both parallelism and
    load balance — with ~1 group per core one skewed split stalls the
    stage (measured: recommend_parts_topk 15.6 s at 32 salts vs 5.7 s at
    64 on 32 CPUs, same answer), and 4 per core keeps the largest split
    ~25% of a core's share. No more than that: every group pays ~4 ms
    of Ray's per-group Python, serially per core.

    Bytes per partition: when ``ds`` is given, the width also grows with
    its input (:func:`_input_bytes`) so that no partition exceeds one
    Ray block target (``ds.context.target_max_block_size``).

    Correctness never depends on the value: every salt is a function of
    the real key, so co-location holds at any width."""
    import ray

    cpus = int(ray.cluster_resources().get("CPU", 16)) if ray.is_initialized() else 16
    parts = 4 * cpus
    block = ds.context.target_max_block_size if ds is not None else None
    if block:
        parts = max(parts, -(-_input_bytes(ds) // block))
    return parts


def salt_of_key(t: pa.Table, key) -> np.ndarray:
    """The integer salt of every row of ``t`` for the exchange ``key``:

    - one column name of an integer type: the value itself;
    - one string/binary (any non-integer) column name, or a list of
      names: ``pd.util.hash_pandas_object(<those columns as pandas>,
      index=False).astype("int64")`` — a Series for one name, a frame
      for a list, so ``["a"]`` hashes differently from ``"a"``;
    - a callable ``(pa.Table) -> integer array``, for a computed or
      spec-pinned salt (md5 digests, composite keys, range-partition
      ids).

    The salt is a function of the key alone, so every row of one key
    lands in one partition at any width."""
    if callable(key):
        return key(t)
    if isinstance(key, str):
        if pa.types.is_integer(t.schema.field(key).type):
            return t.column(key).to_numpy()
        cols = t.column(key).to_pandas()
    else:
        cols = t.select(list(key)).to_pandas()
    return pd.util.hash_pandas_object(cols, index=False).astype("int64").to_numpy()


def salted_groupby(ds, key, fn, num_parts: Optional[int] = None):
    """The engine's one exchange: shuffle on a LOW-cardinality salt of
    the real key, then run ``fn`` vectorized over each whole partition.

    Ray Data's ``groupby(k).map_groups`` costs ~4 ms of Python per group;
    with fine-grained keys (text hashes, LSH buckets, user ids) that
    dwarfs the actual work. Salting the key down to ``num_parts`` groups
    keeps co-location — the salt (:func:`salt_of_key` of ``key``) is a
    function of the key — while paying the per-group cost only
    ``num_parts`` times; inside a partition ``fn`` uses pandas groupby
    (~µs per group). ``num_parts=None`` takes :func:`default_num_parts`
    of ``ds``.

    The salt stage is Arrow-native (appends ``_part`` to the block, no
    pandas copy before the exchange); ``fn`` receives one pandas
    partition without ``_part``.
    """
    if num_parts is None:
        num_parts = default_num_parts(ds)

    def add_salt(t: pa.Table) -> pa.Table:
        part = (salt_of_key(t, key) % num_parts).astype(np.int64)
        return t.append_column("_part", pa.array(part, pa.int64()))

    salted = ds.map_batches(add_salt, batch_format="pyarrow", batch_size=8192)

    def run(g: pd.DataFrame) -> pd.DataFrame:
        return fn(g.drop(columns=["_part"]))

    return salted.groupby("_part").map_groups(run, batch_format="pandas")


# Only where the replacement changes bytes: a run of two or more ASCII
# whitespace characters, or one tab/newline/CR. A lone space is left
# unmatched, so RE2 does not rewrite every word gap. Replacing these
# with " " equals re.sub(r"[ \t\n\r]+", " ", s) on every string.
_WS_CHANGE = r"[ \t\n\r]{2,}|[\t\n\r]"
# The text kernels (text_fp, analysis.term_counts per string) work
# through a column in slices of this many rows, so their Arrow and
# Python copies of the text hold one slice at a time: on a 5000-row,
# 12.8 MB column text_fp's peak RSS rise is 4 MB sliced vs 36 MB whole,
# and the per-string term count's 15 MB vs 111 MB.
TEXT_SLICE_ROWS = 256


def text_fp(text, normalize: bool = False):
    r"""(fp, fp_salt) of every string of the Arrow column ``text``:
    ``fp`` is the ``binary(16)`` md5 digest of the UTF-8 text and
    ``fp_salt`` the int64 of its first 4 digest bytes, big-endian (the
    first 8 hex digits of the md5 hex).

    ``normalize=True`` fingerprints ``re.sub(r"[ \t\n\r]+", " ",
    s).strip().lower()`` instead: the whitespace runs collapse in one
    Arrow regex pass over the column (:data:`_WS_CHANGE`), then
    ``str.strip`` and ``str.lower`` run per row. Python semantics on
    purpose: ``pc.utf8_lower`` differs from ``str.lower`` at U+0130 and
    at a word-final sigma, and ``str.strip`` strips all Unicode
    whitespace. The DuckDB oracles (``trim`` strips only ' ', ``lower``
    maps U+0130 to 'i' and a final capital sigma to 'σ') agree with
    this only on text without U+0130, a word-final capital sigma, or
    whitespace other than [ \t\n\r] at either end. Pinned against the
    per-row formula by
    tests/test_robustness.py::test_text_fp_equals_python_formula."""
    import pyarrow.compute as pc

    parts = []
    for start in range(0, len(text), TEXT_SLICE_ROWS):
        rows = text.slice(start, TEXT_SLICE_ROWS)
        if normalize:
            rows = pc.replace_substring_regex(rows, _WS_CHANGE, " ")
            texts = (s.strip().lower() for s in rows.to_pylist())
        else:
            texts = rows.to_pylist()
        parts += [hashlib.md5(s.encode()).digest() for s in texts]
    digests = b"".join(parts)
    n = len(text)
    fp = pa.Array.from_buffers(pa.binary(16), n, [None, pa.py_buffer(digests)])
    salt = np.frombuffer(digests, dtype=">u4").reshape(n, 4)[:, 0].astype(np.int64)
    return fp, pa.array(salt, pa.int64())


def _min_id_groups(part: pd.DataFrame) -> pd.DataFrame:
    """(doc_id = min id, n_copies) per distinct ``fp`` of a partition."""
    out = part.groupby("fp", as_index=False).agg(
        doc_id=("doc_id", "min"), n_copies=("doc_id", "size")
    )
    return out[["doc_id", "n_copies"]].astype({"doc_id": "int64", "n_copies": "int64"})


def exact_dedup_groups(sf_dir: str):
    """(doc_id = min id per distinct text, n_copies). Shuffles a 16-byte
    fp (never the text), salted to :func:`default_num_parts` partitions:
    ≥4 groups per core, and no partition over one Ray block target of
    input bytes (see salted_groupby)."""
    import ray.data as rd

    ds = rd.read_parquet(table_path(sf_dir, "documents"), columns=["doc_id", "text"])

    def add_fp(t: pa.Table) -> pa.Table:
        fp, salt = text_fp(t.column("text"))
        return pa.table({"doc_id": t.column("doc_id"), "fp": fp, "fp_salt": salt})

    hashed = ds.map_batches(add_fp, batch_format="pyarrow", batch_size=8192)
    return salted_groupby(hashed, "fp_salt", _min_id_groups)


# ---------------------------------------------------------------------------
# LSH near-dup scaffolding (bounded buckets, slim exchanges)
# ---------------------------------------------------------------------------


def _ids_to_bytes(ids: np.ndarray) -> bytes:
    """Pack sorted int64 doc ids as little-endian bytes (binary columns
    survive Arrow schema unification across heterogeneous blocks, unlike
    object-dtype lists, and cost 8B/id in every exchange)."""
    return np.ascontiguousarray(ids, dtype="<i8").tobytes()


def _bytes_to_ids(b: bytes) -> np.ndarray:
    return np.frombuffer(b, dtype="<i8")


def _collapse_by_key(ds, key_col: str, salt_key: str, num_parts: Optional[int] = None):
    """Exact-duplicate collapse at the SIGNATURE level: one row per
    distinct ``key_col`` value with rep_id = min doc_id and copies = the
    sorted member ids packed as bytes.

    Equal texts have equal signatures, so this subsumes exact text dedup
    for bucket-capping purposes WITHOUT ever shuffling text — the
    exchange ships each signature once per doc (vs. once per band row
    before this stage existed). A corpus already collapsed with
    ``exact_dedup_groups`` passes through unchanged (all groups size 1).

    ``salt_key`` names the integer column the exchange salts on: a hash
    of ``key_col``, or ``key_col`` itself when that is an integer.
    """

    def collapse(part: pd.DataFrame) -> pd.DataFrame:
        reps, keys, copies = [], [], []
        for key, g in part.groupby(key_col, sort=False):
            ids = np.sort(g["doc_id"].to_numpy(dtype=np.int64))
            reps.append(ids[0])
            keys.append(key)
            copies.append(_ids_to_bytes(ids))
        return pd.DataFrame(
            {
                "rep_id": pd.Series(reps, dtype="int64"),
                # dtype inferred: bytes keys stay object→binary, int
                # keys (simhash) stay int64
                key_col: pd.Series(
                    keys, dtype=None if keys else part[key_col].dtype
                ),
                "copies": pd.Series(copies, dtype="object"),
            }
        )

    return salted_groupby(ds, salt_key, collapse, num_parts=num_parts)


def _triangle_assign(n: int, chunk_size: int):
    """Adaptive triangle-join replication for one bucket of ``n`` sorted
    members: chunk c = position // chunk_size (deterministic — a pure
    function of the sorted id multiset), each member replicated to every
    chunk-pair bucket (min(c, j), max(c, j)). Any verify task then holds
    at most 2 × chunk_size rows NO MATTER how hot the bucket is — the
    content-addressed chunking `embedding_neardup_pairs` proved, with
    n_chunks chosen per bucket (ceil(n / chunk_size)) instead of fixed.
    Returns (row_idx, ca, cb) replication arrays."""
    c = np.arange(n, dtype=np.int64) // chunk_size
    k = int(c[-1]) + 1 if n else 1
    idx = np.tile(np.arange(n, dtype=np.int64), k)
    cj = np.repeat(np.arange(k, dtype=np.int64), n)
    return idx, np.minimum(c[idx], cj), np.maximum(c[idx], cj)


_EXP_SCHEMA = pa.schema(
    [
        ("ids_a", pa.binary()),
        ("ids_b", pa.binary()),
        ("tri", pa.int64()),
        ("value", pa.float64()),
    ]
)


def _exp_table(rows: list) -> pa.Table:
    """(ids_a, ids_b, tri, value) tuples → Arrow table with the EXPLICIT
    expansion schema (an empty pandas object column would otherwise
    infer Arrow ``null`` and break schema unification in unions)."""
    return pa.Table.from_arrays(
        [
            pa.array([r[0] for r in rows], pa.binary()),
            pa.array([r[1] for r in rows], pa.binary()),
            pa.array([r[2] for r in rows], pa.int64()),
            pa.array([r[3] for r in rows], pa.float64()),
        ],
        schema=_EXP_SCHEMA,
    )


def _chunk_pair_rows(ids: np.ndarray, chunk_size: int, value: float) -> list:
    """Expansion-task rows covering all unordered pairs WITHIN one sorted
    id array, each row bounded to chunk_size ids per side: triangular
    rows for each chunk, cross rows for each chunk pair."""
    k = max(1, -(-len(ids) // chunk_size))
    chunks = [
        _ids_to_bytes(ids[i * chunk_size : (i + 1) * chunk_size])
        for i in range(k)
    ]
    rows = [(chunks[i], chunks[i], 1, value) for i in range(k)]
    rows += [
        (chunks[i], chunks[j], 0, value)
        for i in range(k)
        for j in range(i + 1, k)
    ]
    return rows


def _within_group_rows(part: pd.DataFrame, chunk_size: int, value: float):
    """reps rows → expansion rows for every exact-duplicate group with
    >= 2 copies (each such pair has identical signatures, hence the
    constant ``value``: est 1.0 / hamming 0)."""
    rows = []
    for cp in part["copies"]:
        ids = _bytes_to_ids(cp)
        if len(ids) >= 2:
            rows.extend(_chunk_pair_rows(ids, chunk_size, value))
    return _exp_table(rows)


def _expand_pair_rows(batch: pd.DataFrame):
    """Generator UDF: expansion rows → (doc_a, doc_b, value) pairs,
    flushed in bounded slices so one task never materializes more than
    ~2M pairs regardless of how many rows land in its batch."""
    buf_a, buf_b, buf_v, n_buf = [], [], [], 0
    empty = pd.DataFrame(
        {
            "doc_a": pd.Series(dtype="int64"),
            "doc_b": pd.Series(dtype="int64"),
            "value": pd.Series(dtype="float64"),
        }
    )
    for ids_a, ids_b, tri, value in zip(
        batch["ids_a"], batch["ids_b"], batch["tri"], batch["value"]
    ):
        a_ids = _bytes_to_ids(ids_a)
        if tri:
            ia, ib = np.triu_indices(len(a_ids), k=1)
            lo, hi = a_ids[ia], a_ids[ib]
        else:
            b_ids = _bytes_to_ids(ids_b)
            a = np.repeat(a_ids, len(b_ids))
            b = np.tile(b_ids, len(a_ids))
            lo, hi = np.minimum(a, b), np.maximum(a, b)
        buf_a.append(lo)
        buf_b.append(hi)
        buf_v.append(np.full(len(lo), value, dtype=np.float64))
        n_buf += len(lo)
        if n_buf >= 2_000_000:
            yield pd.DataFrame(
                {
                    "doc_a": np.concatenate(buf_a),
                    "doc_b": np.concatenate(buf_b),
                    "value": np.concatenate(buf_v),
                }
            )
            buf_a, buf_b, buf_v, n_buf = [], [], [], 0
    if n_buf:
        yield pd.DataFrame(
            {
                "doc_a": np.concatenate(buf_a),
                "doc_b": np.concatenate(buf_b),
                "value": np.concatenate(buf_v),
            }
        )
    else:
        yield empty


def _expand_rep_pairs(rep_pairs, reps_ds, chunk_size: int):
    """Verified REP pairs (small by LSH construction — the documented
    |pairs| ≪ |corpus| assumption) → expansion rows over the members of
    each side's exact-duplicate group. Copy lists are fetched with a
    distributed broadcast-filter over the materialized reps table (the
    involved-rep set is bounded by the pair stream), never a full
    collect."""
    import ray

    if not rep_pairs:
        return _exp_table([])
    involved = {int(p["rep_a"]) for p in rep_pairs}
    involved |= {int(p["rep_b"]) for p in rep_pairs}
    # Sorted int64 array broadcast: np.isin(..., assume_unique) is a
    # vectorized merge per batch, not a per-row Python membership loop
    # (the reps table is a few % of corpus rows — at 10^12 docs a Python
    # loop here is billions of iterations).
    ref = ray.put(np.fromiter(sorted(involved), dtype=np.int64, count=len(involved)))

    def keep_involved(t: pa.Table) -> pa.Table:
        want = ray.get(ref)
        ids = t.column("rep_id").to_numpy(zero_copy_only=False).astype(np.int64)
        return t.filter(pa.array(np.isin(ids, want, assume_unique=False)))

    rows = (
        reps_ds.select_columns(["rep_id", "copies"])
        .map_batches(keep_involved, batch_format="pyarrow", batch_size=4096)
        .take_all()
    )
    copies = {int(r["rep_id"]): _bytes_to_ids(r["copies"]) for r in rows}
    out = []
    for p in rep_pairs:
        a_ids = copies[int(p["rep_a"])]
        b_ids = copies[int(p["rep_b"])]
        v = float(p["value"])
        for i in range(0, len(a_ids), chunk_size):
            for j in range(0, len(b_ids), chunk_size):
                out.append(
                    (
                        _ids_to_bytes(a_ids[i : i + chunk_size]),
                        _ids_to_bytes(b_ids[j : j + chunk_size]),
                        0,
                        v,
                    )
                )
    return _exp_table(out)


def minhash_neardup_pairs(
    sf_dir: str,
    num_perm: int = 128,
    bands: int = 16,
    shingle_k: int = 3,
    threshold: float = 0.5,
    chunk_size: int = 1024,
):
    """Candidate pairs from LSH banding, verified by signature-estimated
    Jaccard >= threshold. Returns (doc_a, doc_b, est_jaccard) — the same
    rows as pairwise est >= threshold among docs sharing >= 1 band,
    each pair exactly once (first-matching-band rule).

    Scale shape (bounded buckets, slim exchanges — round-3 redesign):
    1. signatures per doc (map, no shuffle), then EXACT COLLAPSE of equal
       signatures into (rep_id, sig, copies): a viral cluster of g
       byte-identical docs costs ONE bucket slot instead of an O(g^2)
       verify task. Exchange: sig shipped once per doc (256 B).
    2. band rows over reps ship (bucket, band, rep_id) ONLY — 24 B/row
       vs 280 B/row when the signature rode along with every band row
       (~16x less banding exchange at 128 perms / 16 bands).
    3. bucket routing: each bucket with >= 2 reps is triangle-chunked
       adaptively (ceil(g / chunk_size) chunks, see _triangle_assign) so
       any verify task holds <= 2 * chunk_size signatures — a hot
       near-identical bucket degrades into many bounded tasks, never one
       OOM straggler.
    4. signatures re-attach to routing rows via a salted union-join
       against the materialized signature side-table (reps) — the only
       stage that ships sigs again, and only for members of
       non-singleton buckets.
    5. per chunk-pair verification (est matrix + first-matching-band
       over recomputed band buckets), then bounded expansion of exact-
       duplicate groups (copies) back into doc-level pairs.

    The materialized reps table is a signature INDEX (~264 B per
    distinct sig — a few percent of corpus bytes), not a mid-pipeline
    materialization of the input."""
    import ray.data as rd

    hasher = FastMinHasher(num_perm)
    ds = rd.read_parquet(table_path(sf_dir, "documents"), columns=["doc_id", "text"])

    def sig_rows(batch: pd.DataFrame) -> pd.DataFrame:
        out = minhash_signatures(batch, hasher, shingle_k)
        if len(out):
            mat = np.frombuffer(b"".join(out["sig"]), dtype=np.uint16).reshape(
                len(out), num_perm
            )
            out["sighash"] = _band_buckets(mat, 1).reshape(-1)
        else:
            out["sighash"] = pd.Series(dtype="int64")
        return out

    sigs = ds.map_batches(sig_rows, batch_format="pandas", batch_size=4096)
    reps = _collapse_by_key(
        sigs.select_columns(["doc_id", "sig", "sighash"]), "sig", "sighash"
    ).materialize()

    def band_rows(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return pa.table(
                {
                    "bucket": pa.array([], pa.int64()),
                    "band": pa.array([], pa.int64()),
                    "rep_id": pa.array([], pa.int64()),
                }
            )
        sig_list = [s.as_py() for s in t.column("sig")]
        mat = np.frombuffer(b"".join(sig_list), dtype=np.uint16).reshape(
            len(sig_list), num_perm
        )
        buckets = _band_buckets(mat, bands)
        rep_ids = t.column("rep_id").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "bucket": pa.array(buckets.reshape(-1), pa.int64()),
                "band": pa.array(
                    np.tile(np.arange(bands, dtype=np.int64), len(sig_list)),
                    pa.int64(),
                ),
                "rep_id": pa.array(
                    np.repeat(rep_ids.astype(np.int64), bands), pa.int64()
                ),
            }
        )

    banded = reps.select_columns(["rep_id", "sig"]).map_batches(
        band_rows, batch_format="pyarrow", batch_size=4096
    )

    def route(part: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for bucket, g in part.groupby("bucket", sort=False):
            if len(g) < 2:
                continue
            ids = np.sort(g["rep_id"].to_numpy(dtype=np.int64))
            idx, ca, cb = _triangle_assign(len(ids), chunk_size)
            c = np.arange(len(ids), dtype=np.int64) // chunk_size
            outs.append(
                pd.DataFrame(
                    {
                        "bucket": np.full(len(idx), bucket, dtype=np.int64),
                        "band": np.full(
                            len(idx), int(g["band"].iloc[0]), dtype=np.int64
                        ),
                        "ca": ca,
                        "cb": cb,
                        "chunk": c[idx],
                        "rep_id": ids[idx],
                    }
                )
            )
        if not outs:
            return pd.DataFrame(
                {
                    "bucket": pd.Series(dtype="int64"),
                    "band": pd.Series(dtype="int64"),
                    "ca": pd.Series(dtype="int64"),
                    "cb": pd.Series(dtype="int64"),
                    "chunk": pd.Series(dtype="int64"),
                    "rep_id": pd.Series(dtype="int64"),
                }
            )
        return pd.concat(outs, ignore_index=True)

    routing = salted_groupby(banded, "bucket", route)

    # --- attach signatures: tagged union-join against the side-table.
    # Both sides carry the full column set (ints -1 / empty bytes as
    # placeholders) so Arrow block schemas unify.
    def tag_routing(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return t.append_column(
            "sig", pa.array([b""] * n, pa.binary())
        )

    def tag_reps(t: pa.Table) -> pa.Table:
        n = t.num_rows
        cols = {
            "bucket": pa.array(np.full(n, -1, dtype=np.int64)),
            "band": pa.array(np.full(n, -1, dtype=np.int64)),
            "ca": pa.array(np.full(n, -1, dtype=np.int64)),
            "cb": pa.array(np.full(n, -1, dtype=np.int64)),
            "chunk": pa.array(np.full(n, -1, dtype=np.int64)),
            "rep_id": t.column("rep_id"),
            "sig": t.column("sig").cast(pa.binary()),
        }
        return pa.table(cols)

    unioned = routing.map_batches(
        tag_routing, batch_format="pyarrow", batch_size=8192
    ).union(
        reps.select_columns(["rep_id", "sig"]).map_batches(
            tag_reps, batch_format="pyarrow", batch_size=8192
        )
    )

    def attach(part: pd.DataFrame) -> pd.DataFrame:
        side = part[part["bucket"] == -1]
        tgt = part[part["bucket"] != -1]
        if not len(tgt):
            return tgt
        return tgt.drop(columns=["sig"]).merge(
            side[["rep_id", "sig"]], on="rep_id", how="inner"
        )

    attached = salted_groupby(unioned, "rep_id", attach)

    def verify(part: pd.DataFrame) -> pd.DataFrame:
        out_a, out_b, out_v = [], [], []
        for _, g in part.groupby(["bucket", "ca", "cb"], sort=False):
            order = np.argsort(g["rep_id"].to_numpy(dtype=np.int64), kind="stable")
            ids = g["rep_id"].to_numpy(dtype=np.int64)[order]
            mat = np.frombuffer(b"".join(g["sig"]), dtype=np.uint16).reshape(
                len(g), num_perm
            )[order]
            bb = _band_buckets(mat, bands)
            band = int(g["band"].iloc[0])
            ca, cb = int(g["ca"].iloc[0]), int(g["cb"].iloc[0])
            if ca == cb:
                if len(ids) < 2:
                    continue
                est = (mat[:, None, :] == mat[None, :, :]).mean(axis=2)
                keep = np.triu(est >= threshold, k=1)
                keep &= ids[:, None] != ids[None, :]  # band-hash collision guard
                first = np.argmax(bb[:, None, :] == bb[None, :, :], axis=2)
                keep &= first == band
                ia, ib = np.nonzero(keep)
                out_a.append(ids[ia])
                out_b.append(ids[ib])
                out_v.append(est[ia, ib])
            else:
                chunk = g["chunk"].to_numpy(dtype=np.int64)[order]
                left = chunk == ca
                if not left.any() or left.all():
                    continue
                A, B = np.nonzero(left)[0], np.nonzero(~left)[0]
                est = (mat[A][:, None, :] == mat[B][None, :, :]).mean(axis=2)
                keep = est >= threshold
                first = np.argmax(bb[A][:, None, :] == bb[B][None, :, :], axis=2)
                keep &= first == band
                ia, ib = np.nonzero(keep)
                a, b = ids[A[ia]], ids[B[ib]]
                out_a.append(np.minimum(a, b))
                out_b.append(np.maximum(a, b))
                out_v.append(est[ia, ib])
        if not out_a:
            return pd.DataFrame(
                {
                    "rep_a": pd.Series(dtype="int64"),
                    "rep_b": pd.Series(dtype="int64"),
                    "value": pd.Series(dtype="float64"),
                }
            )
        return pd.DataFrame(
            {
                "rep_a": np.concatenate(out_a).astype(np.int64),
                "rep_b": np.concatenate(out_b).astype(np.int64),
                "value": np.concatenate(out_v).astype(np.float64),
            }
        )

    verified = salted_groupby(
        attached,
        lambda t: (
            t.column("bucket").to_numpy()
            + t.column("ca").to_numpy() * 0x9E3779B9
            + t.column("cb").to_numpy() * 31
        ),
        verify,
    )

    rep_pairs = verified.take_all()  # small by LSH construction
    import ray.data as _rd

    cross_rows = _expand_rep_pairs(rep_pairs, reps, chunk_size)
    within = reps.map_batches(
        lambda b: _within_group_rows(b, chunk_size, 1.0),
        batch_format="pandas",
        batch_size=4096,
    )
    expansion = _rd.from_arrow(cross_rows).union(within)

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_a": b["doc_a"].astype("int64"),
                "doc_b": b["doc_b"].astype("int64"),
                "est_jaccard": b["value"].astype("float64"),
            }
        )

    return expansion.map_batches(
        _expand_pair_rows, batch_format="pandas", batch_size=32
    ).map_batches(finish, batch_format="pandas", batch_size=1_000_000)


def union_find_clusters(pairs) -> dict:
    """Connected components over (a, b) pairs → {member: min id in its
    component} (path-compressed union-find; canonical = smallest id,
    matching exact_dedup's min-doc_id convention)."""
    parent: dict = {}

    def find(x):
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            # union by canonical order: smaller id becomes the root
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            parent[hi] = lo
    return {x: find(x) for x in parent} | {
        x: x for x in parent.values() if parent.get(x, x) == x
    }


_EMPTY_CLUSTERS = {
    "doc_id": "int64",
    "cluster_id": "int64",
    "cluster_size": "int64",
}


def _edge_checksum(edges_ds) -> tuple:
    """(n_edges, order-independent multiset checksum) of a canonical
    (a, b) edge Dataset — per-batch partial sums, one tiny aggregate."""

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        a = b["a"].to_numpy(dtype=np.int64).view(np.uint64)
        bb = b["b"].to_numpy(dtype=np.int64).view(np.uint64)
        h = a * np.uint64(0x9E3779B97F4A7C15) ^ bb * np.uint64(0xC2B2AE3D27D4EB4F)
        return pd.DataFrame(
            {"n": [len(b)], "h": [int(h.sum(dtype=np.uint64))]}
        )

    rows = edges_ds.map_batches(
        partial, batch_format="pandas", batch_size=65536
    ).take_all()
    return (
        sum(int(r["n"]) for r in rows),
        sum(int(r["h"]) for r in rows) & 0xFFFFFFFFFFFFFFFF,
    )


def labelprop_clusters(pairs_ds, num_parts: Optional[int] = None, max_iters: int = 64):
    """Distributed connected components over a (doc_a, doc_b) pair
    Dataset via alternating LARGE-STAR / SMALL-STAR rounds (Kiveris et
    al., "Connected Components in MapReduce and Beyond", SoCC'14):

    - large-star(u): for every neighbor v > u, emit (v, m) with
      m = min(Γ(u) ∪ {u});
    - small-star(u): over edges directed max→min, emit (v, m) for every
      smaller neighbor v plus u itself, m = the smallest neighbor.

    Both steps are salted groupbys on a node id (each task holds one
    node's adjacency — memory bounded by max degree, never cluster²);
    the edge multiset shrinks toward per-component stars rooted at the
    component minimum in O(log n) rounds even for path graphs. The
    driver runs only the CONTROL loop — per round it reads a two-int
    (count, checksum) aggregate, never the edges. Converged when the
    canonical edge set's (count, checksum) is a fixed point.

    Output matches :func:`union_find_clusters` labeling: (doc_id,
    cluster_id = component min, cluster_size), docs in >= 1 pair only.
    """
    import ray.data as rd

    def canon(b: pd.DataFrame) -> pd.DataFrame:
        a = np.minimum(b["doc_a"], b["doc_b"]).to_numpy(dtype=np.int64)
        bb = np.maximum(b["doc_a"], b["doc_b"]).to_numpy(dtype=np.int64)
        keep = a != bb
        return pd.DataFrame({"a": a[keep], "b": bb[keep]}).drop_duplicates()

    edges = pairs_ds.map_batches(
        canon, batch_format="pandas", batch_size=65536
    ).materialize()

    def bidir(b: pd.DataFrame) -> pd.DataFrame:
        a = b["a"].to_numpy(dtype=np.int64)
        bb = b["b"].to_numpy(dtype=np.int64)
        return pd.DataFrame(
            {
                "u": np.concatenate([a, bb]),
                "v": np.concatenate([bb, a]),
            }
        )

    def large_star(part: pd.DataFrame) -> pd.DataFrame:
        part = part.drop_duplicates()
        out_a, out_b = [], []
        for u, g in part.groupby("u", sort=False):
            vs = g["v"].to_numpy(dtype=np.int64)
            m = min(int(u), int(vs.min()))
            big = vs[vs > u]
            if len(big):
                out_a.append(np.full(len(big), m, dtype=np.int64))
                out_b.append(big)  # m < u < v: already canonical
        if not out_a:
            return pd.DataFrame(
                {"a": pd.Series(dtype="int64"), "b": pd.Series(dtype="int64")}
            )
        return pd.DataFrame(
            {"a": np.concatenate(out_a), "b": np.concatenate(out_b)}
        ).drop_duplicates()

    def small_star(part: pd.DataFrame) -> pd.DataFrame:
        # rows: (u = larger endpoint, v = smaller); one group per u
        part = part.drop_duplicates()
        out_a, out_b = [], []
        for u, g in part.groupby("u", sort=False):
            vs = g["v"].to_numpy(dtype=np.int64)
            m = int(vs.min())
            rest = np.concatenate([vs[vs != m], [int(u)]])
            out_a.append(np.full(len(rest), m, dtype=np.int64))
            out_b.append(rest)  # m < everything else in the group
        if not out_a:
            return pd.DataFrame(
                {"a": pd.Series(dtype="int64"), "b": pd.Series(dtype="int64")}
            )
        return pd.DataFrame(
            {"a": np.concatenate(out_a), "b": np.concatenate(out_b)}
        ).drop_duplicates()

    state = _edge_checksum(edges)
    for _ in range(max_iters):
        after_large = salted_groupby(
            edges.map_batches(bidir, batch_format="pandas", batch_size=65536),
            "u",
            large_star,
            num_parts=num_parts,
        )
        # small-star input: edges directed larger → smaller (u=b, v=a)
        edges = salted_groupby(
            after_large.map_batches(
                lambda b: pd.DataFrame(
                    {
                        "u": b["b"].to_numpy(dtype=np.int64),
                        "v": b["a"].to_numpy(dtype=np.int64),
                    }
                ),
                batch_format="pandas",
                batch_size=65536,
            ),
            "u",
            small_star,
            num_parts=num_parts,
        ).materialize()
        new_state = _edge_checksum(edges)
        if new_state == state:
            break
        state = new_state
    else:
        raise RuntimeError(
            f"labelprop_clusters did not converge in {max_iters} rounds"
        )

    # fixed point = per-component stars rooted at the min: every member
    # b is labeled by its unique neighbor a; roots label themselves
    def to_labels(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": b["b"].to_numpy(dtype=np.int64),
                "cluster_id": b["a"].to_numpy(dtype=np.int64),
            }
        )

    labels = edges.map_batches(to_labels, batch_format="pandas", batch_size=65536)

    def root_rows(part: pd.DataFrame) -> pd.DataFrame:
        roots = np.unique(part["cluster_id"].to_numpy(dtype=np.int64))
        return pd.concat(
            [
                part,
                pd.DataFrame({"doc_id": roots, "cluster_id": roots}),
            ],
            ignore_index=True,
        )

    def with_sizes(part: pd.DataFrame) -> pd.DataFrame:
        part = part.drop_duplicates()
        part = part.copy()
        part["cluster_size"] = (
            part.groupby("cluster_id")["doc_id"].transform("size").astype("int64")
        )
        return part

    # one salted exchange keyed on cluster_id: add the root's own row
    # (deduped — several star edges share a root) and annotate sizes
    return salted_groupby(
        labels.map_batches(root_rows, batch_format="pandas", batch_size=65536),
        "cluster_id",
        with_sizes,
        num_parts=num_parts,
    )


def neardup_clusters(
    sf_dir: str, max_driver_pairs: int = 5_000_000, **minhash_kwargs
):
    """Near-duplicate CLUSTERS from the MinHash-LSH pair stream: each doc
    that appears in any verified pair gets (doc_id, cluster_id = min
    doc_id reachable through pairs, cluster_size) — the dedup DECISION
    step (keep cluster_id, drop the rest) that follows pair generation
    in a training-data pipeline.

    Scale shape: the pair list is normally tiny relative to the corpus
    (LSH emits only verified near-dups), so up to ``max_driver_pairs``
    the transitive closure runs on the driver over the collected pairs —
    the corpus itself never materializes. A bigger pair stream switches
    to :func:`labelprop_clusters`, the distributed large-star/small-star
    rounds over the same pair Dataset (identical output, gated by
    tests/test_stages.py equivalence + giant-cluster tests)."""
    import pandas as pd_
    import ray.data as rd

    pairs = (
        minhash_neardup_pairs(sf_dir, **minhash_kwargs)
        .select_columns(["doc_a", "doc_b"])
        .materialize()
    )
    if pairs.count() > max_driver_pairs:
        return labelprop_clusters(pairs)

    pair_rows = pairs.take_all()
    labels = union_find_clusters(
        [(int(r["doc_a"]), int(r["doc_b"])) for r in pair_rows]
    )
    if not labels:
        return rd.from_pandas(
            pd_.DataFrame(
                {k: pd_.Series(dtype=v) for k, v in _EMPTY_CLUSTERS.items()}
            )
        )
    df = pd_.DataFrame(
        sorted(labels.items()), columns=["doc_id", "cluster_id"]
    ).astype("int64")
    sizes = df.groupby("cluster_id")["doc_id"].transform("size")
    df["cluster_size"] = sizes.astype("int64")
    return rd.from_pandas(df)


def simhash_table(sf_dir: str):
    import ray.data as rd

    ds = rd.read_parquet(table_path(sf_dir, "documents"), columns=["doc_id", "text"])
    return ds.map_batches(simhash_batch, batch_format="pandas", batch_size=4096)


def simhash_neardup_pairs(
    sf_dir: str, max_hamming: int = 3, chunk_size: int = 1024
):
    """4×16-bit band blocking: any pair with hamming <= 3 shares at least
    one exact 16-bit band (pigeonhole). Returns (doc_a, doc_b, hamming).

    Same bounded-bucket shape as :func:`minhash_neardup_pairs`: equal
    simhashes collapse into (rep_id, simhash, copies) first (a cluster
    of g identical docs costs one bucket slot), oversized buckets are
    adaptively triangle-chunked so a verify task holds <= 2 * chunk_size
    rows, and exact-duplicate groups expand back in bounded slices. The
    simhash itself is 8 bytes, so band rows carry it directly — no
    signature side-table join is needed here."""
    import ray.data as rd

    sh = simhash_table(sf_dir)
    reps = _collapse_by_key(sh, "simhash", "simhash").materialize()

    def bands(batch: pd.DataFrame) -> pd.DataFrame:
        # vectorized 4-way band explode: shift/mask the whole column at
        # once instead of building a Python dict per (doc, band) row
        h = batch["simhash"].to_numpy(dtype=np.int64).view(np.uint64)
        n = len(h)
        band_ids = np.tile(np.arange(4, dtype=np.int64), n)
        shifts = (band_ids.astype(np.uint64)) * np.uint64(16)
        band_vals = ((np.repeat(h, 4) >> shifts) & np.uint64(0xFFFF)).astype(
            np.int64
        )
        return pd.DataFrame(
            {
                "band_id": band_ids,
                "band_val": band_vals,
                "rep_id": np.repeat(
                    batch["rep_id"].to_numpy(dtype=np.int64), 4
                ),
                "simhash": np.repeat(h, 4).view(np.int64),
            }
        )

    banded = reps.select_columns(["rep_id", "simhash"]).map_batches(
        bands, batch_format="pandas", batch_size=4096
    )

    def route(part: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for (band_id, band_val), g in part.groupby(
            ["band_id", "band_val"], sort=False
        ):
            if len(g) < 2:
                continue
            order = np.argsort(
                g["rep_id"].to_numpy(dtype=np.int64), kind="stable"
            )
            ids = g["rep_id"].to_numpy(dtype=np.int64)[order]
            hs = g["simhash"].to_numpy(dtype=np.int64)[order]
            idx, ca, cb = _triangle_assign(len(ids), chunk_size)
            c = np.arange(len(ids), dtype=np.int64) // chunk_size
            outs.append(
                pd.DataFrame(
                    {
                        "band_id": np.full(len(idx), band_id, dtype=np.int64),
                        "band_val": np.full(len(idx), band_val, dtype=np.int64),
                        "ca": ca,
                        "cb": cb,
                        "chunk": c[idx],
                        "rep_id": ids[idx],
                        "simhash": hs[idx],
                    }
                )
            )
        if not outs:
            return pd.DataFrame(
                {
                    "band_id": pd.Series(dtype="int64"),
                    "band_val": pd.Series(dtype="int64"),
                    "ca": pd.Series(dtype="int64"),
                    "cb": pd.Series(dtype="int64"),
                    "chunk": pd.Series(dtype="int64"),
                    "rep_id": pd.Series(dtype="int64"),
                    "simhash": pd.Series(dtype="int64"),
                }
            )
        return pd.concat(outs, ignore_index=True)

    routing = salted_groupby(
        banded, lambda t: t["band_val"].to_numpy() * 7 + t["band_id"].to_numpy(), route
    )

    def _pair_hamming(ha: np.ndarray, hb: np.ndarray) -> np.ndarray:
        x = ha[:, None].view(np.uint64) ^ hb[None, :].view(np.uint64)
        return _POPCOUNT8[
            x.view(np.uint8).reshape(len(ha), len(hb), 8)
        ].sum(axis=-1, dtype=np.int64)

    def verify(part: pd.DataFrame) -> pd.DataFrame:
        out_a, out_b, out_v = [], [], []
        shifts = (np.arange(4, dtype=np.uint64)) * np.uint64(16)
        for (band_id, _bv, ca, cb), g in part.groupby(
            ["band_id", "band_val", "ca", "cb"], sort=False
        ):
            order = np.argsort(
                g["rep_id"].to_numpy(dtype=np.int64), kind="stable"
            )
            ids = g["rep_id"].to_numpy(dtype=np.int64)[order]
            hs = g["simhash"].to_numpy(dtype=np.int64)[order]
            hu = hs.view(np.uint64)
            bvals = (hu[:, None] >> shifts[None, :]) & np.uint64(0xFFFF)
            if ca == cb:
                if len(ids) < 2:
                    continue
                ham = _pair_hamming(hs, hs)
                keep = np.triu(ham <= max_hamming, k=1)
                keep &= ids[:, None] != ids[None, :]  # duplicate-row guard
                first = np.argmax(bvals[:, None, :] == bvals[None, :, :], axis=2)
                keep &= first == band_id
                ia, ib = np.nonzero(keep)
                out_a.append(ids[ia])
                out_b.append(ids[ib])
                out_v.append(ham[ia, ib])
            else:
                chunk = g["chunk"].to_numpy(dtype=np.int64)[order]
                left = chunk == ca
                if not left.any() or left.all():
                    continue
                A, B = np.nonzero(left)[0], np.nonzero(~left)[0]
                ham = _pair_hamming(hs[A], hs[B])
                keep = ham <= max_hamming
                first = np.argmax(
                    bvals[A][:, None, :] == bvals[B][None, :, :], axis=2
                )
                keep &= first == band_id
                ia, ib = np.nonzero(keep)
                a, b = ids[A[ia]], ids[B[ib]]
                out_a.append(np.minimum(a, b))
                out_b.append(np.maximum(a, b))
                out_v.append(ham[ia, ib])
        if not out_a:
            return pd.DataFrame(
                {
                    "rep_a": pd.Series(dtype="int64"),
                    "rep_b": pd.Series(dtype="int64"),
                    "value": pd.Series(dtype="float64"),
                }
            )
        return pd.DataFrame(
            {
                "rep_a": np.concatenate(out_a).astype(np.int64),
                "rep_b": np.concatenate(out_b).astype(np.int64),
                "value": np.concatenate(out_v).astype(np.float64),
            }
        )

    verified = salted_groupby(
        routing,
        lambda t: (
            t["band_val"].to_numpy() * 7
            + t["band_id"].to_numpy()
            + t["ca"].to_numpy() * 131
            + t["cb"].to_numpy()
        ),
        verify,
    )

    rep_pairs = verified.take_all()  # small by LSH construction
    cross_rows = _expand_rep_pairs(rep_pairs, reps, chunk_size)
    within = reps.map_batches(
        lambda b: _within_group_rows(b, chunk_size, 0.0),
        batch_format="pandas",
        batch_size=4096,
    )
    expansion = rd.from_arrow(cross_rows).union(within)

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_a": b["doc_a"].astype("int64"),
                "doc_b": b["doc_b"].astype("int64"),
                "hamming": b["value"].astype("int64"),
            }
        )

    return expansion.map_batches(
        _expand_pair_rows, batch_format="pandas", batch_size=32
    ).map_batches(finish, batch_format="pandas", batch_size=1_000_000)


def _shingle_hash_set(text: str, k: int):
    """Distinct hashed word-k-shingles (uint64, sorted) or None when the
    doc has < k whitespace tokens — hash-set analog of the SQL oracle's
    distinct k-gram string list (split trim(text) on runs of whitespace;
    ``str.split()`` is exactly that). The k-word join is injective (words
    carry no whitespace), so shingle-string sets and shingle-hash sets
    have equal cardinality up to a ~2^-64 collision."""
    words = text.split()
    if len(words) < k:
        return None
    wh = _hash_words(words)
    n = len(words) - k + 1
    acc = np.zeros(n, dtype=np.uint64)
    for j in range(k):
        acc = acc * _SHINGLE_MIX + wh[j : j + n]
    return np.unique(acc)


def ngram_jaccard_pairs(
    sf_dir: str, sample_mod: int = 50, threshold: float = 0.2, k: int = 3
):
    """Word k-gram Jaccard near-dup vs a broadcast sample of query docs
    (same no-shuffle design as char_jaccard_pairs), fully vectorized: the
    sample's shingles form a sorted hash VOCABULARY with a CSR map from
    each shingle to the sample docs containing it; a batch concatenates
    every row's shingle hashes, binary-searches the vocabulary once, and
    accumulates per-(row, sample-doc) intersection counts with one
    bincount — no per-pair Python loop. Intersection/union counts are
    exact integers, so the float division matches the DuckDB
    list-function oracle. Returns (query_id, doc_id, jac) for same-lang
    pairs with jac >= threshold."""
    import ray
    import ray.data as rd

    docs = rd.read_parquet(
        table_path(sf_dir, "documents"), columns=["doc_id", "text", "lang"]
    )
    sample_tbl = _read_sample_docs(sf_dir, sample_mod)
    samp = [
        (int(r.doc_id), r.lang, _shingle_hash_set(r.text, k))
        for r in sample_tbl.itertuples()
    ]
    samp = [s for s in samp if s[2] is not None]
    qids = np.array([s[0] for s in samp], dtype=np.int64)
    qlangs = np.array([s[1] for s in samp], dtype=object)
    qsizes = np.array([len(s[2]) for s in samp], dtype=np.int64)
    # CSR: vocab (sorted distinct hashes) → the sample docs holding each
    if samp:
        all_h = np.concatenate([s[2] for s in samp])
        all_d = np.repeat(np.arange(len(samp), dtype=np.int64), qsizes)
        vocab, inv = np.unique(all_h, return_inverse=True)
        order = np.argsort(inv, kind="stable")
        csr_docs = all_d[order]
        indptr = np.zeros(len(vocab) + 1, dtype=np.int64)
        np.cumsum(np.bincount(inv, minlength=len(vocab)), out=indptr[1:])
    else:
        vocab = np.array([], dtype=np.uint64)
        csr_docs = np.array([], dtype=np.int64)
        indptr = np.zeros(1, dtype=np.int64)
    sample_ref = ray.put((vocab, csr_docs, indptr, qids, qlangs, qsizes))

    class CompareNgrams:
        def __init__(self, ref):
            (
                self.vocab,
                self.csr_docs,
                self.indptr,
                self.qids,
                self.qlangs,
                self.qsizes,
            ) = ray.get(ref)

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            S = len(self.qids)
            empty = pd.DataFrame(
                {
                    "query_id": pd.Series(dtype="int64"),
                    "doc_id": pd.Series(dtype="int64"),
                    "jac": pd.Series(dtype="float64"),
                }
            )
            if S == 0:
                return empty
            sets = [_shingle_hash_set(t, k) for t in batch["text"]]
            rows = [i for i, s in enumerate(sets) if s is not None]
            if not rows:
                return empty
            bsizes = np.array([len(sets[i]) for i in rows], dtype=np.int64)
            H = np.concatenate([sets[i] for i in rows])
            R = np.repeat(np.arange(len(rows), dtype=np.int64), bsizes)
            pos = np.searchsorted(self.vocab, H)
            ok = pos < len(self.vocab)
            ok[ok] &= self.vocab[pos[ok]] == H[ok]
            pos, R_ok = pos[ok], R[ok]
            # expand each matched vocab entry to its sample docs (CSR walk)
            lens = self.indptr[pos + 1] - self.indptr[pos]
            total = int(lens.sum())
            if total:
                starts = self.indptr[pos]
                flat = (
                    np.arange(total, dtype=np.int64)
                    - np.repeat(np.cumsum(lens) - lens, lens)
                    + np.repeat(starts, lens)
                )
                sdocs = self.csr_docs[flat]
                rrows = np.repeat(R_ok, lens)
                inter = np.bincount(
                    rrows * S + sdocs, minlength=len(rows) * S
                ).reshape(len(rows), S)
            else:
                inter = np.zeros((len(rows), S), dtype=np.int64)
            union = bsizes[:, None] + self.qsizes[None, :] - inter
            jac = inter / union  # union >= k-gram count >= 1 on both sides
            ids = batch["doc_id"].to_numpy(dtype=np.int64)[rows]
            langs = batch["lang"].to_numpy()[rows]
            keep = (
                (jac >= threshold)
                & (langs[:, None] == self.qlangs[None, :])
                & (ids[:, None] != self.qids[None, :])
            )
            bi, qi = np.nonzero(keep)
            return pd.DataFrame(
                {
                    "query_id": self.qids[qi],
                    "doc_id": ids[bi],
                    "jac": jac[bi, qi],
                }
            )

    return docs.map_batches(
        CompareNgrams,
        fn_constructor_args=(sample_ref,),
        batch_format="pandas",
        batch_size=4096,
        concurrency=(1, 8),
    )


def dup_span_flags(sf_dir: str, window: int = 16, stride: int = 8):
    """Cross-document duplicated-SPAN detection — the exact-substring
    dedup shape (Lee et al. 2022) at word granularity: every full
    ``window``-word window at ``stride`` spacing is hashed; a window
    position is duplicated when its gram occurs in ≥ 2 DISTINCT
    documents. Returns (doc_id, n_windows, n_dup_windows) for docs with
    ≥ window words — the boilerplate/contamination signal substring
    dedup pipelines cut on.

    Scale shape: the exchange carries (uint64 gram hash, doc_id) pairs —
    ~n/stride rows per doc, the inherent cost of substring dedup — salted
    on the hash; shared grams collapse to per-doc duplicate counts,
    which re-shuffle on doc_id (tiny) to join the per-doc totals."""
    import ray.data as rd

    docs = rd.read_parquet(
        table_path(sf_dir, "documents"), columns=["doc_id", "text"]
    )

    def window_rows(b: pd.DataFrame) -> pd.DataFrame:
        out_h, out_d = [], []
        for doc_id, t in zip(b["doc_id"], b["text"]):
            words = t.split()
            n = len(words)
            if n < window:
                continue
            wh = _hash_words(words)
            count = 1 + (n - window) // stride
            # hash of each full window: polynomial over its word hashes
            acc = np.zeros(count, dtype=np.uint64)
            starts = np.arange(count) * stride
            for j in range(window):
                acc = acc * _SHINGLE_MIX + wh[starts + j]
            out_h.extend(acc.view(np.int64).tolist())
            out_d.extend([int(doc_id)] * count)
        return pd.DataFrame(
            {
                "h": pd.Series(out_h, dtype="int64"),
                "doc_id": pd.Series(out_d, dtype="int64"),
            }
        )

    def total_rows(b: pd.DataFrame) -> pd.DataFrame:
        # totals need only token counts — no hashing pass
        ids, totals = [], []
        for doc_id, t in zip(b["doc_id"], b["text"]):
            n = len(t.split())
            if n >= window:
                ids.append(int(doc_id))
                totals.append(1 + (n - window) // stride)
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "n_windows": pd.Series(totals, dtype="int64"),
            }
        )

    wrows = docs.map_batches(window_rows, batch_format="pandas", batch_size=4096)

    def dup_counts(part: pd.DataFrame) -> pd.DataFrame:
        # positions whose gram is shared by >= 2 distinct docs
        nd = part.groupby("h")["doc_id"].transform("nunique")
        dup = part[nd >= 2]
        out = dup.groupby("doc_id", as_index=False).agg(n_dup=("h", "size"))
        return out.astype({"doc_id": "int64", "n_dup": "int64"})

    dups = salted_groupby(wrows, "h", dup_counts)
    totals = docs.map_batches(total_rows, batch_format="pandas", batch_size=4096)

    # join totals with dup counts on doc_id (tagged union, salted)
    def tag_tot(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"].astype("int64"),
                "n_windows": b["n_windows"].astype("int64"),
                "n_dup": np.int64(-1),
            }
        )

    def tag_dup(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"].astype("int64"),
                "n_windows": np.int64(-1),
                "n_dup": b["n_dup"].astype("int64"),
            }
        )

    both = totals.map_batches(tag_tot, batch_format="pandas").union(
        dups.map_batches(tag_dup, batch_format="pandas")
    )

    def join(part: pd.DataFrame) -> pd.DataFrame:
        tot = part[part["n_windows"] >= 0][["doc_id", "n_windows"]]
        # a doc's duplicate counts arrive as one partial per gram
        # partition — sum them before the join
        dup = (
            part[part["n_dup"] >= 0]
            .groupby("doc_id", as_index=False)["n_dup"]
            .sum()
        )
        out = tot.merge(dup, on="doc_id", how="left")
        out["n_dup_windows"] = out["n_dup"].fillna(0).astype("int64")
        return out[["doc_id", "n_windows", "n_dup_windows"]]

    return salted_groupby(both, "doc_id", join)


# content-defined anchor predicate: first hex char of md5(word) in
# {'0','1'} — probability 2/16 = 1/8, so the expected window density
# matches stride-8 exactly. Cached per distinct word (boilerplate
# vocabulary recurs); the SQL oracle mirrors it verbatim as
# substr(md5(word), 1, 1) IN ('0','1').
_ANCHOR_CACHE: dict = {}
_ANCHOR_CACHE_CAP = 1_000_000


def _anchor_mask(words) -> np.ndarray:
    cache = _ANCHOR_CACHE
    get = cache.get
    out = np.empty(len(words), dtype=bool)
    for i, w in enumerate(words):
        a = get(w)
        if a is None:
            if len(cache) >= _ANCHOR_CACHE_CAP:
                cache.clear()
            a = hashlib.md5(w.encode("utf-8")).hexdigest()[0] in "01"
            cache[w] = a
        out[i] = a
    return out


def dup_span_flags_cdc(sf_dir: str, window: int = 16):
    """Cross-document duplicated-SPAN detection with CONTENT-DEFINED
    window anchors — the alignment-invariant repair of dup_span_flags'
    strided approximation (r4-verdict worklist #5): fixed-stride
    windows hash at positions ≡ 0 mod stride WITHIN EACH DOC, so a
    shared run whose offsets differ mod stride across two docs never
    produces a common gram at ANY length (the characterization gate in
    tests/test_new_ops.py measures that hole exactly). Here a window
    starts wherever the WORD ITSELF says so (first md5 hex char of the
    word in {'0','1'}, density 1/8 = stride-8's cost), so anchor
    positions travel with the content: a run shared by two docs anchors
    at the same run-relative offsets in both, regardless of where the
    run sits in either doc. A shared run of length L is detected iff
    its first L-(window-1) words contain an anchor — probability
    1-(7/8)^(L-15) over random content, independent of alignment,
    vs the strided kernel's hard 1/8 ceiling for cross-aligned dups.
    Returns (doc_id, n_windows, n_dup_windows) for docs with >= window
    words (n_windows = anchor count, may be 0).

    Scale shape: identical to dup_span_flags — the exchange carries
    (uint64 gram hash, doc_id) pairs (~n/8 per doc in expectation),
    salted on the hash; shared grams collapse to per-doc duplicate
    counts, which re-shuffle on doc_id to join the per-doc totals."""
    import ray.data as rd

    docs = rd.read_parquet(
        table_path(sf_dir, "documents"), columns=["doc_id", "text"]
    )

    def window_rows(b: pd.DataFrame) -> pd.DataFrame:
        out_h, out_d = [], []
        for doc_id, t in zip(b["doc_id"], b["text"]):
            words = t.split()
            n = len(words)
            if n < window:
                continue
            anchors = np.flatnonzero(_anchor_mask(words)[: n - window + 1])
            if len(anchors) == 0:
                continue
            wh = _hash_words(words)
            acc = np.zeros(len(anchors), dtype=np.uint64)
            for j in range(window):
                acc = acc * _SHINGLE_MIX + wh[anchors + j]
            out_h.extend(acc.view(np.int64).tolist())
            out_d.extend([int(doc_id)] * len(anchors))
        return pd.DataFrame(
            {
                "h": pd.Series(out_h, dtype="int64"),
                "doc_id": pd.Series(out_d, dtype="int64"),
            }
        )

    def total_rows(b: pd.DataFrame) -> pd.DataFrame:
        ids, totals = [], []
        for doc_id, t in zip(b["doc_id"], b["text"]):
            words = t.split()
            n = len(words)
            if n >= window:
                ids.append(int(doc_id))
                totals.append(
                    int(_anchor_mask(words)[: n - window + 1].sum())
                )
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "n_windows": pd.Series(totals, dtype="int64"),
            }
        )

    wrows = docs.map_batches(window_rows, batch_format="pandas", batch_size=4096)

    def dup_counts(part: pd.DataFrame) -> pd.DataFrame:
        nd = part.groupby("h")["doc_id"].transform("nunique")
        dup = part[nd >= 2]
        out = dup.groupby("doc_id", as_index=False).agg(n_dup=("h", "size"))
        return out.astype({"doc_id": "int64", "n_dup": "int64"})

    dups = salted_groupby(wrows, "h", dup_counts)
    totals = docs.map_batches(total_rows, batch_format="pandas", batch_size=4096)

    def tag_tot(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"].astype("int64"),
                "n_windows": b["n_windows"].astype("int64"),
                "n_dup": np.int64(-1),
            }
        )

    def tag_dup(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"].astype("int64"),
                "n_windows": np.int64(-1),
                "n_dup": b["n_dup"].astype("int64"),
            }
        )

    both = totals.map_batches(tag_tot, batch_format="pandas").union(
        dups.map_batches(tag_dup, batch_format="pandas")
    )

    def join(part: pd.DataFrame) -> pd.DataFrame:
        tot = part[part["n_windows"] >= 0][["doc_id", "n_windows"]]
        dup = (
            part[part["n_dup"] >= 0]
            .groupby("doc_id", as_index=False)["n_dup"]
            .sum()
        )
        out = tot.merge(dup, on="doc_id", how="left")
        out["n_dup_windows"] = out["n_dup"].fillna(0).astype("int64")
        return out[["doc_id", "n_windows", "n_dup_windows"]]

    return salted_groupby(both, "doc_id", join)


DUP_SPAN_FLAGS_CDC_SQL = r"""
    WITH w AS (
      SELECT doc_id,
             CASE WHEN trim(text) = '' THEN CAST([] AS VARCHAR[])
                  ELSE regexp_split_to_array(trim(text), '\s+')
             END AS words
      FROM documents
    ), nn AS (
      SELECT doc_id, words, len(words) AS n FROM w WHERE len(words) >= 16
    ), pos AS (
      SELECT doc_id, words, unnest(range(1, n - 14)) AS i FROM nn
    ), anch AS (
      SELECT doc_id, words, i FROM pos
      WHERE substr(md5(words[i]), 1, 1) IN ('0', '1')
    ), g AS (
      SELECT doc_id,
             array_to_string(list_slice(words, i, i + 15), ' ') AS gram
      FROM anch
    ), shared AS (
      SELECT gram FROM g GROUP BY gram HAVING count(DISTINCT doc_id) >= 2
    ), cnt AS (
      SELECT g.doc_id, count(*) AS n_windows,
             sum(CASE WHEN s.gram IS NOT NULL THEN 1 ELSE 0 END) AS n_dup
      FROM g LEFT JOIN shared s ON g.gram = s.gram
      GROUP BY g.doc_id
    )
    SELECT nn.doc_id,
           CAST(coalesce(cnt.n_windows, 0) AS BIGINT) AS n_windows,
           CAST(coalesce(cnt.n_dup, 0) AS BIGINT) AS n_dup_windows
    FROM nn LEFT JOIN cnt ON nn.doc_id = cnt.doc_id
"""


def dup_span_flags_exact(sf_dir: str, window: int = 16, bloom_m: int = 1 << 22):
    """FULL-FIDELITY Lee-et-al duplicated-span flags: EVERY window
    position (stride 1). Any run of ``window`` or more words shared by
    two distinct documents is flagged at every covered position in both
    — deterministically, at any alignment. This is the closing member
    of the family: the strided kernel has a hard 1/8 cross-aligned
    detection ceiling and the CDC variant detects with
    P = 1-(7/8)^(L-15); here P = 1 for L >= window (r4-verdict #5's
    last residual). Returns (doc_id, n_windows, n_dup_windows) for docs
    with >= window words.

    Scale shape: positions per doc = n-window+1 — 8x the stride-8 rows,
    the inherent price of exactness. The exchange is cut by a
    saturating->=2 bloom prefilter (bloom_dup_groups' two-leg no-false-
    negative argument): pass 1 streams packed ``bloom_m``-bit
    (>=1-block, >=2-anywhere) bitmap partials over the window hashes —
    compute-only, NO shuffle, m/8 bytes per block regardless of corpus
    size, folded 64→1 by an associative tree level — and pass 2 ships
    only positions whose hash bucket saturated. A truly repeated gram
    sets its bucket in two partials or twice within one (ge2' = ge2_a |
    ge2_b | (ge1_a & ge1_b)), so no false negative is possible; bucket
    collisions only admit singletons that the exact nunique>=2 stage
    then discards — results are IDENTICAL to bloom_m=0 (equality gate
    in tests/test_new_ops.py, plus a tiny-bitmap stress at m=4096).
    ``bloom_m=0`` disables the prefilter (one pass, full exchange)."""
    import ray
    import ray.data as rd

    docs = rd.read_parquet(
        table_path(sf_dir, "documents"), columns=["doc_id", "text"]
    )

    def _win_hashes(t: str) -> np.ndarray:
        words = t.split()
        n = len(words)
        if n < window:
            return np.empty(0, dtype=np.uint64)
        wh = _hash_words(words)
        count = n - window + 1
        acc = np.zeros(count, dtype=np.uint64)
        for j in range(window):
            acc = acc * _SHINGLE_MIX + wh[j : j + count]
        return acc

    cand_ref = None
    if bloom_m:
        mb = bloom_m

        def bitmap_partial(b: pd.DataFrame) -> pd.DataFrame:
            present = np.zeros(mb, dtype=bool)
            ge2 = np.zeros(mb, dtype=bool)
            for t in b["text"]:
                acc = _win_hashes(t)
                if not len(acc):
                    continue
                pos = (acc % np.uint64(mb)).astype(np.int64)
                uniq, counts = np.unique(pos, return_counts=True)
                # >=2 occurrences inside this doc, or seen in an
                # earlier doc of the block → bucket saturated locally
                ge2[uniq[counts >= 2]] = True
                ge2[uniq[present[uniq]]] = True
                present[uniq] = True
            return pd.DataFrame(
                {
                    "present": [np.packbits(present).tobytes()],
                    "ge2": [np.packbits(ge2).tobytes()],
                }
            )

        def _unpack(raw: bytes) -> np.ndarray:
            return np.unpackbits(np.frombuffer(raw, dtype=np.uint8))[:mb].astype(
                bool
            )

        def _merge(ge1s, ge2s):
            # associative: ge2' = ge2_a | ge2_b | (ge1_a & ge1_b) —
            # order-independent, so the tree shape never affects it
            ge1 = np.zeros(mb, dtype=bool)
            ge2 = np.zeros(mb, dtype=bool)
            for g1raw, g2raw in zip(ge1s, ge2s):
                g1 = _unpack(g1raw)
                ge2 |= _unpack(g2raw) | (ge1 & g1)
                ge1 |= g1
            return ge1, ge2

        def combine_level(b: pd.DataFrame) -> pd.DataFrame:
            ge1, ge2 = _merge(b["present"], b["ge2"])
            return pd.DataFrame(
                {
                    "present": [np.packbits(ge1).tobytes()],
                    "ge2": [np.packbits(ge2).tobytes()],
                }
            )

        parts = (
            docs.map_batches(bitmap_partial, batch_format="pandas", batch_size=4096)
            .map_batches(combine_level, batch_format="pandas", batch_size=64)
            .to_pandas()
        )
        _, ge2 = _merge(parts["present"], parts["ge2"])
        cand_ref = ray.put(np.packbits(ge2))

    def window_rows(b: pd.DataFrame) -> pd.DataFrame:
        bits = (
            np.unpackbits(np.frombuffer(ray.get(cand_ref), dtype=np.uint8))[
                :bloom_m
            ].astype(bool)
            if cand_ref is not None
            else None
        )
        out_h, out_d = [], []
        for doc_id, t in zip(b["doc_id"], b["text"]):
            acc = _win_hashes(t)
            if not len(acc):
                continue
            if bits is not None:
                acc = acc[bits[(acc % np.uint64(bloom_m)).astype(np.int64)]]
                if not len(acc):
                    continue
            out_h.extend(acc.view(np.int64).tolist())
            out_d.extend([int(doc_id)] * len(acc))
        return pd.DataFrame(
            {
                "h": pd.Series(out_h, dtype="int64"),
                "doc_id": pd.Series(out_d, dtype="int64"),
            }
        )

    def total_rows(b: pd.DataFrame) -> pd.DataFrame:
        # totals need only token counts — no hashing pass, no filter
        # (the prefilter drops candidate ROWS, never window COUNTS)
        ids, totals = [], []
        for doc_id, t in zip(b["doc_id"], b["text"]):
            n = len(t.split())
            if n >= window:
                ids.append(int(doc_id))
                totals.append(n - window + 1)
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "n_windows": pd.Series(totals, dtype="int64"),
            }
        )

    wrows = docs.map_batches(window_rows, batch_format="pandas", batch_size=4096)

    def dup_counts(part: pd.DataFrame) -> pd.DataFrame:
        nd = part.groupby("h")["doc_id"].transform("nunique")
        dup = part[nd >= 2]
        out = dup.groupby("doc_id", as_index=False).agg(n_dup=("h", "size"))
        return out.astype({"doc_id": "int64", "n_dup": "int64"})

    dups = salted_groupby(wrows, "h", dup_counts)
    totals = docs.map_batches(total_rows, batch_format="pandas", batch_size=4096)

    def tag_tot(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"].astype("int64"),
                "n_windows": b["n_windows"].astype("int64"),
                "n_dup": np.int64(-1),
            }
        )

    def tag_dup(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"].astype("int64"),
                "n_windows": np.int64(-1),
                "n_dup": b["n_dup"].astype("int64"),
            }
        )

    both = totals.map_batches(tag_tot, batch_format="pandas").union(
        dups.map_batches(tag_dup, batch_format="pandas")
    )

    def join(part: pd.DataFrame) -> pd.DataFrame:
        tot = part[part["n_windows"] >= 0][["doc_id", "n_windows"]]
        dup = (
            part[part["n_dup"] >= 0]
            .groupby("doc_id", as_index=False)["n_dup"]
            .sum()
        )
        out = tot.merge(dup, on="doc_id", how="left")
        out["n_dup_windows"] = out["n_dup"].fillna(0).astype("int64")
        return out[["doc_id", "n_windows", "n_dup_windows"]]

    return salted_groupby(both, "doc_id", join)


DUP_SPAN_FLAGS_EXACT_SQL = r"""
    WITH w AS (
      SELECT doc_id,
             CASE WHEN trim(text) = '' THEN CAST([] AS VARCHAR[])
                  ELSE regexp_split_to_array(trim(text), '\s+')
             END AS words
      FROM documents
    ), nn AS (
      SELECT doc_id, words, len(words) AS n FROM w WHERE len(words) >= 16
    ), pos AS (
      SELECT doc_id, words, unnest(range(1, n - 14)) AS i FROM nn
    ), g AS (
      SELECT doc_id,
             array_to_string(list_slice(words, i, i + 15), ' ') AS gram
      FROM pos
    ), shared AS (
      SELECT gram FROM g GROUP BY gram HAVING count(DISTINCT doc_id) >= 2
    ), cnt AS (
      SELECT g.doc_id, count(*) AS n_windows,
             sum(CASE WHEN s.gram IS NOT NULL THEN 1 ELSE 0 END) AS n_dup
      FROM g LEFT JOIN shared s ON g.gram = s.gram
      GROUP BY g.doc_id
    )
    SELECT nn.doc_id,
           CAST(cnt.n_windows AS BIGINT) AS n_windows,
           CAST(coalesce(cnt.n_dup, 0) AS BIGINT) AS n_dup_windows
    FROM nn LEFT JOIN cnt ON nn.doc_id = cnt.doc_id
"""


def decontamination_flags(sf_dir: str, bench_mod: int = 97, k: int = 5):
    """Eval-set decontamination (the any-overlap n-gram check training
    pipelines run against benchmark suites): docs with doc_id %
    bench_mod == 0 form the held-out "benchmark"; every OTHER doc with
    ≥ k words is flagged with its count of distinct word-k-grams shared
    with the benchmark's shingle union. Returns (doc_id, n_overlap,
    is_contaminated 0/1) — SQL-oracle-checked.

    Scale shape: the benchmark slice is selected AND shingle-hashed by a
    distributed scan (each task emits its batch's DISTINCT hashes); only
    those per-batch unions reach the driver, whose final merge is
    bounded by the benchmark's shingle vocabulary, not the corpus. The
    union broadcasts once via ray.put; each probe batch does one
    sorted-array membership searchsorted — no shuffle, no per-pair
    loop."""
    import ray
    import ray.data as rd

    def bench_hashes(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        texts = t.column("text").to_pylist()
        sets = [
            s
            for doc_id, txt in zip(ids, texts)
            if doc_id % bench_mod == 0
            for s in (_shingle_hash_set(txt, k),)
            if s is not None
        ]
        h = (
            np.unique(np.concatenate(sets))
            if sets
            else np.array([], dtype=np.uint64)
        )
        return pa.table({"h": pa.array(h, pa.uint64())})

    parts = (
        rd.read_parquet(table_path(sf_dir, "documents"), columns=["doc_id", "text"])
        .map_batches(bench_hashes, batch_format="pyarrow", batch_size=8192)
        .take_all()
    )
    bench_union = (
        np.unique(np.array([r["h"] for r in parts], dtype=np.uint64))
        if parts
        else np.array([], dtype=np.uint64)
    )
    bref = ray.put(bench_union)

    docs = rd.read_parquet(
        table_path(sf_dir, "documents"), columns=["doc_id", "text"]
    )

    class Flag:
        def __init__(self, ref):
            self.bench = ray.get(ref)

        def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
            ids, overlaps = [], []
            for doc_id, text in zip(b["doc_id"], b["text"]):
                if int(doc_id) % bench_mod == 0:
                    continue  # benchmark rows are not training docs
                s = _shingle_hash_set(text, k)
                if s is None:
                    continue  # <k words: no shingles (oracle excludes too)
                pos = np.searchsorted(self.bench, s)
                ok = pos < len(self.bench)
                n = int((self.bench[pos[ok]] == s[ok]).sum())
                ids.append(int(doc_id))
                overlaps.append(n)
            ov = np.asarray(overlaps, dtype=np.int64)
            return pd.DataFrame(
                {
                    "doc_id": pd.Series(ids, dtype="int64"),
                    "n_overlap": ov,
                    "is_contaminated": (ov > 0).astype(np.int64),
                }
            )

    return docs.map_batches(
        Flag,
        fn_constructor_args=(bref,),
        batch_format="pandas",
        batch_size=4096,
        concurrency=(1, 8),
    )


def char_jaccard_pairs(sf_dir: str, sample_mod: int = 50, threshold: float = 0.5):
    """Broadcast-join near-dup check: a small sample of query docs
    (doc_id % sample_mod == 0, selected by a DISTRIBUTED scan) is
    broadcast via ray.put once; every batch compares its rows against the
    sample as ONE (batch × sample × words) uint64 bitset matrix op —
    AND + popcount over char bitsets, no per-pair Python. Intersection /
    union counts are exact integers, so the float division matches the
    DuckDB jaccard() oracle bit-for-bit (char-set Jaccard, same-lang
    pairs). Work per batch is O(B·S·|alphabet|/64): linear in the corpus
    for a fixed sample rate, with a constant ~100x below the old
    per-pair set loop."""
    import ray
    import ray.data as rd

    docs = rd.read_parquet(
        table_path(sf_dir, "documents"), columns=["doc_id", "text", "lang"]
    )
    sample_tbl = _read_sample_docs(sf_dir, sample_mod)
    # alphabet = distinct chars of the SAMPLE only: batch chars outside it
    # cannot intersect, and the union term needs only the exact per-row
    # distinct count, which _charset_bits returns separately
    alphabet = (
        np.unique(
            np.frombuffer(
                "".join(sample_tbl["text"]).encode("utf-32-le"), dtype=np.uint32
            )
        )
        if len(sample_tbl)
        else np.array([], dtype=np.uint32)
    )
    qbits, qsizes = _charset_bits(list(sample_tbl["text"]), alphabet)
    qids = sample_tbl["doc_id"].to_numpy(dtype=np.int64)
    qlangs = sample_tbl["lang"].to_numpy()
    sample_ref = ray.put((alphabet, qbits, qsizes, qids, qlangs))

    class CompareToSample:
        def __init__(self, ref):
            self.alphabet, self.qbits, self.qsizes, self.qids, self.qlangs = ray.get(
                ref
            )

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            bbits, bsizes = _charset_bits(list(batch["text"]), self.alphabet)
            # (B, S): popcount of pairwise AND over the word axis
            inter = _popcount64_rows(bbits[:, None, :] & self.qbits[None, :, :])
            union = bsizes[:, None] + self.qsizes[None, :] - inter
            with np.errstate(divide="ignore", invalid="ignore"):
                jac = inter / union
            ids = batch["doc_id"].to_numpy(dtype=np.int64)
            langs = batch["lang"].to_numpy()
            keep = (
                (jac >= threshold)
                & (langs[:, None] == self.qlangs[None, :])
                & (ids[:, None] != self.qids[None, :])
            )
            bi, qi = np.nonzero(keep)
            return pd.DataFrame(
                {
                    "query_id": self.qids[qi],
                    "doc_id": ids[bi],
                    "jac": jac[bi, qi],
                }
            )

    return docs.map_batches(
        CompareToSample,
        fn_constructor_args=(sample_ref,),
        batch_format="pandas",
        batch_size=4096,
        concurrency=(1, 8),
    )


def keep_best_dedup(sf_dir: str):
    """Normalized exact dedup keeping the BEST member, not the first:
    per normalized-distinct text, survive the copy with the most raw
    characters (formatting/casing preserved), ties broken by min
    doc_id — the "keep the richest duplicate" policy real curation
    pipelines use instead of min-id. Returns (doc_id, n_copies,
    n_chars) for each surviving doc.

    Same scale shape as normalized_exact_dedup: the exchange carries a
    16-byte normalized fp + three ints per row, never text; the argmax
    runs vectorized per partition. Full SQL oracle (row_number over the
    same normalization expression) on text without the Unicode cases
    named in :func:`text_fp`."""
    import ray.data as rd

    ds = rd.read_parquet(
        table_path(sf_dir, "documents"), columns=["doc_id", "text", "n_chars"]
    )

    def add_fp(t: pa.Table) -> pa.Table:
        fp, salt = text_fp(t.column("text"), normalize=True)
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "n_chars": t.column("n_chars"),
                "fp": fp,
                "fp_salt": salt,
            }
        )

    hashed = ds.map_batches(add_fp, batch_format="pyarrow", batch_size=8192)

    def best(part: pd.DataFrame) -> pd.DataFrame:
        part = part.sort_values(
            ["fp", "n_chars", "doc_id"], ascending=[True, False, True]
        )
        g = part.groupby("fp", as_index=False).agg(
            doc_id=("doc_id", "first"),
            n_chars=("n_chars", "first"),
            n_copies=("doc_id", "size"),
        )
        return g[["doc_id", "n_copies", "n_chars"]].astype(
            {"doc_id": "int64", "n_copies": "int64", "n_chars": "int64"}
        )

    return salted_groupby(hashed, "fp_salt", best)


def normalized_exact_dedup(sf_dir: str):
    """Exact dedup AFTER text normalization (lowercase + collapse ASCII
    whitespace runs + strip) — the CCNet-style "near-exact" first pass
    that catches reflowed/recased copies plain exact dedup misses while
    staying a pure hash shuffle (no shingling, no LSH).

    Same scale shape as :func:`exact_dedup_groups`: the exchange carries
    a 16-byte fp of the NORMALIZED text (:func:`text_fp`), never the
    text itself. Returns (doc_id = min id per normalized-distinct text,
    n_copies). Equal to its SQL oracle on text without the Unicode
    cases named in :func:`text_fp`."""
    import ray.data as rd

    ds = rd.read_parquet(table_path(sf_dir, "documents"), columns=["doc_id", "text"])

    def add_fp(t: pa.Table) -> pa.Table:
        fp, salt = text_fp(t.column("text"), normalize=True)
        return pa.table({"doc_id": t.column("doc_id"), "fp": fp, "fp_salt": salt})

    hashed = ds.map_batches(add_fp, batch_format="pyarrow", batch_size=8192)
    return salted_groupby(hashed, "fp_salt", _min_id_groups)

# ---------------------------------------------------------------------------
# Bloom-prefiltered duplicate-group extraction
# ---------------------------------------------------------------------------


def _bloom_positions(fps: np.ndarray, m_bits: int) -> np.ndarray:
    """(n, 2) bit positions per 64-bit fingerprint: two independent
    multiplicative mixes of the same fp (Kirsch-Mitzenmacher double
    hashing degenerates for k=2 to two mixes)."""
    f = fps.astype(np.uint64)
    h1 = (f * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(40)
    h2 = (f * np.uint64(0xC2B2AE3D27D4EB4F)) >> np.uint64(40)
    return np.stack([h1 % np.uint64(m_bits), h2 % np.uint64(m_bits)], axis=1).astype(
        np.int64
    )


def bloom_dup_groups(sf_dir: str, m_bits: int = 1 << 20):
    """Duplicate canonical-URL groups (n_dups ≥ 2) computed with a
    Bloom-filter PREFILTER so the dedup shuffle ships only candidate
    rows — the classic way to exact-dedup 10^12 keys when duplicates
    are a small fraction: the all-to-all shrinks from every row to
    ~(true dups + false positives).

    Pass 1 (streaming, NO shuffle): each block emits packed m-bit
    bitmaps — positions of its distinct key fingerprints (≥1-block),
    a ≥2-block accumulator, and positions of fps already duplicated
    WITHIN the block. Partials fold through an associative tree-reduce
    level (ge2' = ge2_a | ge2_b | (ge1_a ∧ ge1_b), ~64 rows → 1) so
    the driver sees a bounded stream at any corpus size; candidate
    positions are those present in ≥ 2 blocks OR an intra-block dup. A fp occurring in two
    places sets its positions in two partials (or the dup bitmap), so
    NO false negative is possible; unrelated fps sharing both positions
    only add false positives, which pass 2 discards. At 10^12 keys the
    driver reduce becomes a tree-reduce over sharded bitmaps (the
    partial per block stays m/8 bytes regardless of corpus size).

    Pass 2: rows whose both positions are set in the broadcast candidate
    bitmap flow into the usual salted fp-groupby; groups keep exact
    counts (a candidate fp admits ALL its occurrences) and only
    n_dups ≥ 2 groups are emitted. Output matches url_canonical_dedup
    restricted to duplicate groups: (canonical_url, n_dups, rep_doc_id).
    """
    import ray

    from open_parse_ray.stages.analysis import read_documents
    from open_parse_ray.stages.web import _messy_urls, canonicalize_url

    def to_canon(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "canonical_url": [canonicalize_url(u) for u in _messy_urls(b)],
                "doc_id": b["doc_id"].astype("int64"),
            }
        )

    canon = (
        read_documents(sf_dir, columns=["doc_id", "source"])
        .map_batches(to_canon, batch_format="pandas", batch_size=65536)
        .materialize()
    )

    def _fps(vals: pd.Series) -> np.ndarray:
        return np.asarray(
            [int(hashlib.md5(v.encode()).hexdigest()[:16], 16) for v in vals],
            dtype=np.uint64,
        )

    def bitmap_partial(b: pd.DataFrame) -> pd.DataFrame:
        fps = _fps(b["canonical_url"])
        uniq, counts = np.unique(fps, return_counts=True)
        pos_all = _bloom_positions(uniq, m_bits).ravel()
        present = np.zeros(m_bits, dtype=bool)
        present[pos_all] = True
        intra = np.zeros(m_bits, dtype=bool)
        dup_fp = uniq[counts >= 2]
        if len(dup_fp):
            intra[_bloom_positions(dup_fp, m_bits).ravel()] = True
        return pd.DataFrame(
            {
                "present": [np.packbits(present).tobytes()],
                "ge2": [np.packbits(np.zeros(m_bits, dtype=bool)).tobytes()],
                "intra": [np.packbits(intra).tobytes()],
            }
        )

    def _unpack(raw: bytes) -> np.ndarray:
        return np.unpackbits(np.frombuffer(raw, dtype=np.uint8))[:m_bits].astype(bool)

    def _merge_rows(ge1s, ge2s, intras):
        """Associative merge of (≥1-block, ≥2-block, intra-dup) bitmap
        triples: ge2' = ge2_a | ge2_b | (ge1_a & ge1_b). Order-independent,
        so the tree shape never affects the result."""
        ge1 = np.zeros(m_bits, dtype=bool)
        ge2 = np.zeros(m_bits, dtype=bool)
        intra = np.zeros(m_bits, dtype=bool)
        for g1raw, g2raw, iraw in zip(ge1s, ge2s, intras):
            g1 = _unpack(g1raw)
            ge2 |= _unpack(g2raw) | (ge1 & g1)
            ge1 |= g1
            intra |= _unpack(iraw)
        return ge1, ge2, intra

    def combine_level(b: pd.DataFrame) -> pd.DataFrame:
        # tree-reduce level: fold ~64 partial rows into one, so the
        # driver sees a bounded stream at any corpus size (add levels
        # by chaining this stage; one level suffices below ~10^10 rows)
        ge1, ge2, intra = _merge_rows(b["present"], b["ge2"], b["intra"])
        return pd.DataFrame(
            {
                "present": [np.packbits(ge1).tobytes()],
                "ge2": [np.packbits(ge2).tobytes()],
                "intra": [np.packbits(intra).tobytes()],
            }
        )

    parts = (
        canon.map_batches(bitmap_partial, batch_format="pandas", batch_size=65536)
        .map_batches(combine_level, batch_format="pandas", batch_size=64)
        .to_pandas()
    )
    ge1, ge2, intra = _merge_rows(parts["present"], parts["ge2"], parts["intra"])
    candidate = np.packbits(ge2 | intra)
    cand_ref = ray.put(candidate)

    def keep_candidates(b: pd.DataFrame) -> pd.DataFrame:
        bits = np.unpackbits(ray.get(cand_ref))[:m_bits].astype(bool)
        pos = _bloom_positions(_fps(b["canonical_url"]), m_bits)
        return b[bits[pos].all(axis=1)]

    candidates = canon.map_batches(
        keep_candidates, batch_format="pandas", batch_size=65536
    )

    def collapse(part: pd.DataFrame) -> pd.DataFrame:
        g = part.groupby("canonical_url", as_index=False).agg(
            n_dups=("doc_id", "size"), rep_doc_id=("doc_id", "min")
        )
        g = g[g["n_dups"] >= 2]
        return g.astype({"n_dups": "int64", "rep_doc_id": "int64"})

    return salted_groupby(candidates, "canonical_url", collapse)


def dup_span_excise(sf_dir: str, window: int = 16, stride: int = 8):
    """Exact-substring dedup with REMOVAL (Lee et al. 2022's headline
    semantics, word-granular): every word position covered by a
    duplicated window (same ``window``-word gram in ≥ 2 distinct docs,
    windows at ``stride`` spacing — identical hashing to
    dup_span_flags) is cut; the document is rebuilt from the surviving
    words (single-space joined — this is a word-level operator, so
    intra-doc whitespace normalizes; docs shorter than ``window`` pass
    through as their word join). Returns
    (doc_id, n_words, n_removed_words, text_md5).

    Scale shape: exchange 1 ships (hash, doc_id, pos) window rows
    (~n/stride per doc) salted on the hash and returns ONLY duplicated
    positions; exchange 2 is a tagged-union salted doc_id join of those
    tiny position rows with the doc text — text ships exactly once (the
    inherent cost: excision rewrites text). Pytest-gated vs a local
    single-process reference (no SQL oracle: windowed rewriting)."""
    import ray.data as rd

    docs = rd.read_parquet(table_path(sf_dir, "documents"), columns=["doc_id", "text"])

    def window_rows(b: pd.DataFrame) -> pd.DataFrame:
        out_h, out_d, out_p = [], [], []
        for doc_id, t in zip(b["doc_id"], b["text"]):
            words = t.split()
            n = len(words)
            if n < window:
                continue
            wh = _hash_words(words)
            count = 1 + (n - window) // stride
            acc = np.zeros(count, dtype=np.uint64)
            starts = np.arange(count) * stride
            for j in range(window):
                acc = acc * _SHINGLE_MIX + wh[starts + j]
            out_h.extend(acc.view(np.int64).tolist())
            out_d.extend([int(doc_id)] * count)
            out_p.extend(starts.tolist())
        return pd.DataFrame(
            {
                "h": pd.Series(out_h, dtype="int64"),
                "doc_id": pd.Series(out_d, dtype="int64"),
                "pos": pd.Series(out_p, dtype="int64"),
            }
        )

    def dup_positions(part: pd.DataFrame) -> pd.DataFrame:
        nd = part.groupby("h")["doc_id"].transform("nunique")
        dup = part[nd >= 2]
        return pd.DataFrame(
            {
                "doc_id": dup["doc_id"].astype("int64"),
                "pos": dup["pos"].astype("int64"),
            }
        )

    dup_pos = salted_groupby(
        docs.map_batches(window_rows, batch_format="pandas", batch_size=4096),
        "h",
        dup_positions,
    )

    def tag_doc(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"].astype("int64"),
                "pos": np.int64(-1),
                "text": b["text"],
            }
        )

    def tag_pos(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"].astype("int64"),
                "pos": b["pos"].astype("int64"),
                "text": "",
            }
        )

    union = docs.map_batches(tag_doc, batch_format="pandas", batch_size=4096).union(
        dup_pos.map_batches(tag_pos, batch_format="pandas", batch_size=65536)
    )

    def excise(part: pd.DataFrame) -> pd.DataFrame:
        import hashlib as _hl

        texts = part[part["pos"] < 0]
        poss = part[part["pos"] >= 0]
        pos_of = {
            d: g["pos"].to_numpy(dtype=np.int64)
            for d, g in poss.groupby("doc_id")
        }
        ids, n_words, n_removed, md5s = [], [], [], []
        for doc_id, t in zip(texts["doc_id"], texts["text"]):
            words = t.split()
            keep = np.ones(len(words), dtype=bool)
            for p in pos_of.get(int(doc_id), ()):
                keep[p : p + window] = False
            kept = [w for w, k in zip(words, keep) if k]
            ids.append(int(doc_id))
            n_words.append(len(words))
            n_removed.append(int((~keep).sum()))
            md5s.append(_hl.md5(" ".join(kept).encode("utf-8")).hexdigest())
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "n_words": pd.Series(n_words, dtype="int64"),
                "n_removed_words": pd.Series(n_removed, dtype="int64"),
                "text_md5": pd.Series(md5s, dtype="object"),
            }
        )

    return salted_groupby(union, "doc_id", excise)


_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint16)
# first set bit of a byte, counted from the MSB (bit packed as
# 1 << (7 - pos)): position of the LOWEST local token index present
_FSB8 = np.array([0] + [8 - v.bit_length() for v in range(1, 256)], dtype=np.int64)


def jaccard_selfjoin(
    sf_dir: str,
    threshold_pct: int = 90,
    num_parts: Optional[int] = None,
    bitset_vocab_cap: int = 4096,
):
    """EXACT all-pairs similarity self-join via prefix filtering (the
    AllPairs/PPJoin family) — every document pair whose distinct-word
    Jaccard is >= threshold_pct/100 (threshold_pct >= 1), with exact
    integer intersection and union counts. The exact counterpart to the
    probabilistic minhash/simhash LSH paths: no candidate that should
    match is ever missed, by the prefix-filter theorem rather than by
    luck.

    Prefix filter (rarest-first global order): rank every token by
    (document frequency asc, hash asc); a doc with k distinct tokens
    emits only its p = k - ceil(tau*k) + 1 rarest tokens as candidate
    buckets. If jac(A,B) >= tau, the rarest COMMON token t satisfies:
    were t outside A's prefix, every common token would sit in A's
    ceil(tau*k_a) - 1 most-common tail, capping the intersection below
    the ceil(tau*k_a) that jac >= tau forces — contradiction; so t is in
    BOTH prefixes and the pair surfaces in t's bucket.

    ONE exchange, verify-once: each prefix row carries the doc's full
    token set AS SORTED RANKS (a bijection of the tokens, so
    intersection counts are unchanged), and the bucket kernel verifies
    candidate pairs in place — emitting a pair ONLY in the bucket of its
    rarest common rank, which both prefixes provably contain. No
    candidate exchange, no pair dedupe, no blob-attach join. Candidates
    pass the AllPairs length filter (100*min(ka,kb) >= pct*max(ka,kb))
    before verification; verification is vectorized when the bucket's
    local vocabulary fits ``bitset_vocab_cap`` (batch-local rank
    dictionary -> per-doc bitsets -> AND + popcount + first-set-bit for
    the rarest common rank; the per-pair sorted-merge path is the
    unbounded-vocab fallback — both gated identical). All arithmetic is
    integer (ceil via (pct*k + 99)//100; the final test is
    100*inter >= pct*union), matching the DuckDB list-function oracle.

    Scale shape: the (token -> rank) dictionary is the
    vocabulary-bounded broadcast every AllPairs implementation carries
    (a rank-attach salted join is the fallback for vocabularies that
    outgrow it); each doc ships p copies of its fixed-width rank set —
    the rarer the doc's tokens, the smaller its bucket fan-in, which is
    the point of rarest-first ordering. Word identity is 64-bit md5
    (collision-free in practice; the oracle compares the strings
    themselves). Returns (doc_a, doc_b, n_inter, n_union)."""
    import ray
    import ray.data as rd

    pct = int(threshold_pct)
    if pct < 1:
        raise ValueError("threshold_pct must be >= 1")
    docs = rd.read_parquet(table_path(sf_dir, "documents"), columns=["doc_id", "text"])

    def doc_sets(b: pd.DataFrame) -> pd.DataFrame:
        ids, ks, blobs = [], [], []
        for d, t in zip(b["doc_id"].to_numpy(), b["text"]):
            t = t.strip()
            if not t:
                continue
            th = np.unique(_hash_words(t.split()))
            ids.append(int(d))
            ks.append(len(th))
            blobs.append(th.tobytes())
        return pd.DataFrame(
            {
                "doc_id": np.asarray(ids, dtype=np.int64),
                "k": np.asarray(ks, dtype=np.int64),
                "blob": blobs,
            }
        )

    sets = docs.map_batches(doc_sets, batch_format="pandas", batch_size=8192)

    # --- token document frequency (per-batch partial: a doc contributes
    # once per token by construction, so counts of blob tokens ARE df)
    def df_partial(b: pd.DataFrame) -> pd.DataFrame:
        if not len(b):
            return pd.DataFrame({"th": pd.Series(dtype="uint64"),
                                 "n": pd.Series(dtype="int64")})
        hs = np.frombuffer(b"".join(b["blob"]), dtype=np.uint64)
        u, c = np.unique(hs, return_counts=True)
        return pd.DataFrame({"th": u, "n": c.astype(np.int64)})

    from open_parse_ray.stages.relational import _combine_partials

    hist = _combine_partials(
        sets.map_batches(df_partial, batch_format="pandas", batch_size=8192),
        ["th"],
        {"n": "sum"},
    ).take_all()
    th_all = np.array([r["th"] for r in hist], dtype=np.uint64)
    df_all = np.array([r["n"] for r in hist], dtype=np.int64)
    # global rarest-first rank: (df asc, hash asc) — a bijection
    order = np.lexsort((th_all, df_all))
    srt = np.argsort(th_all, kind="stable")
    pos_in_order = np.empty(len(th_all), dtype=np.int64)
    pos_in_order[order] = np.arange(len(th_all), dtype=np.int64)
    rank_ref = ray.put((th_all[srt], pos_in_order[srt]))

    def prefix_rows(b: pd.DataFrame) -> pd.DataFrame:
        th_sorted, ranks_lookup = ray.get(rank_ref)
        buckets, dids, dks, rblobs = [], [], [], []
        for d, k, blob in zip(b["doc_id"].to_numpy(), b["k"].to_numpy(), b["blob"]):
            th = np.frombuffer(blob, dtype=np.uint64)
            r = np.sort(ranks_lookup[np.searchsorted(th_sorted, th)])
            p = int(k) - (pct * int(k) + 99) // 100 + 1
            n = min(p, len(r))
            rb = r.tobytes()
            buckets.extend(r[:n].tolist())
            dids.extend([int(d)] * n)
            dks.extend([int(k)] * n)
            rblobs.extend([rb] * n)
        return pd.DataFrame(
            {
                "bucket": np.asarray(buckets, dtype=np.int64),
                "doc_id": np.asarray(dids, dtype=np.int64),
                "k": np.asarray(dks, dtype=np.int64),
                "rblob": rblobs,
            }
        )

    prefix = sets.map_batches(prefix_rows, batch_format="pandas", batch_size=8192)

    def _empty_out() -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_a": pd.Series(dtype="int64"),
                "doc_b": pd.Series(dtype="int64"),
                "n_inter": pd.Series(dtype="int64"),
                "n_union": pd.Series(dtype="int64"),
            }
        )

    def bucket_verify(part: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for r, g in part.groupby("bucket", sort=False):
            gg = g.drop_duplicates("doc_id")
            ids = gg["doc_id"].to_numpy(dtype=np.int64)
            if len(ids) < 2:
                continue
            srt_ids = np.argsort(ids)
            ids = ids[srt_ids]
            ks = gg["k"].to_numpy(dtype=np.int64)[srt_ids]
            rbl = [gg["rblob"].iloc[i] for i in srt_ids]
            ia, ib = np.triu_indices(len(ids), k=1)
            # AllPairs length filter: a necessary condition for jac>=tau
            ka, kb = ks[ia], ks[ib]
            keep = 100 * np.minimum(ka, kb) >= pct * np.maximum(ka, kb)
            ia, ib = ia[keep], ib[keep]
            if not len(ia):
                continue
            tok = np.unique(np.frombuffer(b"".join(rbl), dtype=np.int64))
            if len(tok) <= bitset_vocab_cap:
                w8 = (len(tok) + 7) // 8
                bits = np.zeros((len(ids), w8), dtype=np.uint8)
                for i, blob in enumerate(rbl):
                    idx = np.searchsorted(
                        tok, np.frombuffer(blob, dtype=np.int64)
                    )
                    np.bitwise_or.at(
                        bits[i], idx >> 3, (1 << (7 - (idx & 7))).astype(np.uint8)
                    )
                AND = bits[ia] & bits[ib]
                inter = _POP8[AND].sum(axis=1).astype(np.int64)
                union = ks[ia] + ks[ib] - inter
                ok = 100 * inter >= pct * union
                if not ok.any():
                    continue
                AND = AND[ok]
                # rarest common rank: tok is rank-ascending, so the
                # first set bit of the AND bitset IS the minimum
                nz = AND != 0
                first_byte = nz.argmax(axis=1)
                byte_val = AND[np.arange(len(AND)), first_byte]
                min_rank = tok[first_byte * 8 + _FSB8[byte_val]]
                emit = min_rank == r
                sel = np.nonzero(ok)[0][emit]
                outs.append(
                    pd.DataFrame(
                        {
                            "doc_a": ids[ia[sel]],
                            "doc_b": ids[ib[sel]],
                            "n_inter": inter[ok][emit],
                            "n_union": union[ok][emit],
                        }
                    )
                )
            else:
                da, db, ni, nu = [], [], [], []
                for x, y in zip(ia, ib):
                    A = np.frombuffer(rbl[x], dtype=np.int64)
                    B = np.frombuffer(rbl[y], dtype=np.int64)
                    common = np.intersect1d(A, B, assume_unique=True)
                    inter = int(common.size)
                    union = len(A) + len(B) - inter
                    if (
                        100 * inter >= pct * union
                        and inter
                        and int(common[0]) == r
                    ):
                        da.append(int(ids[x]))
                        db.append(int(ids[y]))
                        ni.append(inter)
                        nu.append(union)
                if da:
                    outs.append(
                        pd.DataFrame(
                            {
                                "doc_a": np.asarray(da, dtype=np.int64),
                                "doc_b": np.asarray(db, dtype=np.int64),
                                "n_inter": np.asarray(ni, dtype=np.int64),
                                "n_union": np.asarray(nu, dtype=np.int64),
                            }
                        )
                    )
        if not outs:
            return _empty_out()
        return pd.concat(outs, ignore_index=True)

    return salted_groupby(prefix, "bucket", bucket_verify, num_parts=num_parts)


def _expand_ranges(lo: np.ndarray, hi: np.ndarray):
    """Vectorized expansion of half-open index ranges: for each i with
    hi[i] > lo[i], emit (i, lo[i]), (i, lo[i]+1), ..., (i, hi[i]-1).
    Returns (row_idx, flat_pos) int64 arrays."""
    counts = hi - lo
    m = counts > 0
    if not m.any():
        e = np.array([], dtype=np.int64)
        return e, e.copy()
    rows = np.flatnonzero(m)
    c = counts[rows]
    row_idx = np.repeat(rows, c)
    starts = np.repeat(lo[rows], c)
    offs = np.arange(c.sum(), dtype=np.int64) - np.repeat(
        np.cumsum(c) - c, c
    )
    return row_idx, starts + offs


def fuzzy_decontamination(
    sf_dir: str,
    bench_mod: int = 97,
    num_perm: int = 128,
    bands: int = 16,
    shingle_k: int = 3,
    min_eq: int = 64,
):
    """FUZZY eval-set decontamination — the MinHash sibling of
    decontamination_flags (which catches verbatim k-gram overlap only;
    a paraphrased or lightly-edited benchmark leak slips past exact
    shingles). Docs with doc_id % bench_mod == 0 are the held-out
    "benchmark"; a training doc is flagged when it shares >= 1 LSH band
    with some benchmark doc AND their signatures agree on >= min_eq of
    num_perm components (integer threshold — est. Jaccard >= min_eq /
    num_perm, no float compare). Docs with < shingle_k words carry no
    shingles and are excluded from BOTH sides (mirrors the >= k words
    rule in decontamination_flags). Returns
    (doc_id, n_bench_matches, max_eq) for flagged training docs.

    Scale shape: the benchmark side is bounded (a held-out slice), so
    its (id, signature, band-bucket) index — 256 B + 128 B per bench
    doc — is built by a distributed scan whose per-batch partials are
    already filtered to the slice, assembled once, and BROADCAST via
    ray.put with per-band SORTED bucket arrays. The training side
    streams: each batch computes signatures, probes all 16 bands with
    two searchsorteds each, verifies candidates with one vectorized
    (pairs × perms) equality sum, and aggregates per train doc LOCALLY
    (a doc lives in exactly one batch) — zero exchanges end to end.
    Candidate count per batch is bounded by batch × bench collisions,
    and a pathological all-match batch is still batch_size × |bench|
    uint16 compares, never an O(corpus^2) blowup."""
    import ray
    import ray.data as rd

    hasher = FastMinHasher(num_perm)
    ds = rd.read_parquet(table_path(sf_dir, "documents"), columns=["doc_id", "text"])

    def bench_sigs(b: pd.DataFrame) -> pd.DataFrame:
        m = (b["doc_id"].to_numpy(dtype=np.int64) % bench_mod == 0) & (
            b["text"].str.split().str.len() >= shingle_k
        ).to_numpy()
        sub = b[m]
        return minhash_signatures(sub, hasher, shingle_k)

    rows = ds.map_batches(
        bench_sigs, batch_format="pandas", batch_size=4096
    ).take_all()
    if rows:
        bench_ids = np.array([r["doc_id"] for r in rows], dtype=np.int64)
        bench_mat = np.frombuffer(
            b"".join(r["sig"] for r in rows), dtype=np.uint16
        ).reshape(len(rows), num_perm)
    else:
        bench_ids = np.array([], dtype=np.int64)
        bench_mat = np.zeros((0, num_perm), dtype=np.uint16)
    bb = _band_buckets(bench_mat, bands) if len(bench_ids) else np.zeros(
        (0, bands), dtype=np.int64
    )
    order = [np.argsort(bb[:, j], kind="stable") for j in range(bands)]
    index_ref = ray.put(
        (
            bench_ids,
            bench_mat,
            [bb[order[j], j] for j in range(bands)],  # sorted buckets
            order,
        )
    )

    class Probe:
        def __init__(self, ref):
            self.ids, self.mat, self.sorted_b, self.order = ray.get(ref)

        def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
            empty = pd.DataFrame(
                {
                    "doc_id": pd.Series([], dtype="int64"),
                    "n_bench_matches": pd.Series([], dtype="int64"),
                    "max_eq": pd.Series([], dtype="int64"),
                }
            )
            ids = b["doc_id"].to_numpy(dtype=np.int64)
            m = (ids % bench_mod != 0) & (
                b["text"].str.split().str.len() >= shingle_k
            ).to_numpy()
            sub = b[m]
            if len(sub) == 0 or len(self.ids) == 0:
                return empty
            sig = minhash_signatures(sub, hasher, shingle_k)
            mat = np.frombuffer(b"".join(sig["sig"]), dtype=np.uint16).reshape(
                len(sig), num_perm
            )
            tb = _band_buckets(mat, bands)
            tr_parts, bj_parts = [], []
            for j in range(bands):
                sb = self.sorted_b[j]
                lo = np.searchsorted(sb, tb[:, j], side="left")
                hi = np.searchsorted(sb, tb[:, j], side="right")
                ti, pos = _expand_ranges(lo, hi)
                if len(ti):
                    tr_parts.append(ti)
                    bj_parts.append(self.order[j][pos])
            if not tr_parts:
                return empty
            ti = np.concatenate(tr_parts)
            bj = np.concatenate(bj_parts)
            comp = np.unique(ti * len(self.ids) + bj)
            ti, bj = comp // len(self.ids), comp % len(self.ids)
            eq = (mat[ti] == self.mat[bj]).sum(axis=1).astype(np.int64)
            keep = eq >= min_eq
            if not keep.any():
                return empty
            g = pd.DataFrame({"t": ti[keep], "eq": eq[keep]}).groupby(
                "t", as_index=False
            ).agg(n_bench_matches=("eq", "size"), max_eq=("eq", "max"))
            tids = sig["doc_id"].to_numpy(dtype=np.int64)
            return pd.DataFrame(
                {
                    "doc_id": tids[g["t"].to_numpy()],
                    "n_bench_matches": g["n_bench_matches"].astype("int64"),
                    "max_eq": g["max_eq"].astype("int64"),
                }
            )

    return ds.map_batches(
        Probe,
        fn_constructor_args=(index_ref,),
        batch_format="pandas",
        batch_size=4096,
        concurrency=(1, 8),
    )

