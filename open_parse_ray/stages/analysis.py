"""Text-analysis stages over the ``documents`` table.

Large-scale training-data-pipeline operators: language ID, quality
scoring, token counting, fingerprinting. All are stateless vectorized
``map_batches`` stages; regexes are module-level compiled (once per
process). Column semantics are deliberately chosen to be expressible in
ANSI SQL so the DuckDB oracle can verify them bit-for-bit (integer
outputs only where float accumulation order would differ).
"""

from __future__ import annotations

import hashlib
import re
from typing import Dict

import numpy as np
import pandas as pd
import pyarrow as pa

from open_parse_ray.sources.tables import table_path
from open_parse_ray.stages.dedup import TEXT_SLICE_ROWS

_WS_SPLIT = re.compile(r"\s+")
_ALPHA = re.compile(r"[a-zA-Z]")
_DIGIT = re.compile(r"[0-9]")
_UPPER = re.compile(r"[A-Z]")

# tiny deterministic stopword lists for the n-gram language heuristic
_STOPWORDS = {
    "en": {"the", "of", "and", "to", "in", "for", "with", "on", "is", "a"},
    "de": {"der", "die", "das", "und", "zu", "in", "für", "mit", "auf", "ist"},
    "fr": {"le", "la", "les", "et", "de", "pour", "avec", "sur", "est", "un"},
}


def n_tokens_sql_semantics(text: str) -> int:
    """Whitespace token count matching the SQL oracle exactly:
    0 for blank, else len(regexp_split_to_array(trim(text), '\\s+'))."""
    t = text.strip()
    if not t:
        return 0
    return len(_WS_SPLIT.split(t))


def token_count_batch(batch: pd.DataFrame) -> pd.DataFrame:
    return pd.DataFrame(
        {
            "doc_id": batch["doc_id"],
            "n_tokens": [n_tokens_sql_semantics(t) for t in batch["text"]],
        }
    )


def fingerprint_batch(batch: pd.DataFrame) -> pd.DataFrame:
    """Exact content fingerprint = md5 hex (matches DuckDB md5())."""
    return pd.DataFrame(
        {
            "doc_id": batch["doc_id"],
            "fp": [hashlib.md5(t.encode("utf-8")).hexdigest() for t in batch["text"]],
        }
    )


_ROLL_B = np.uint64(1_000_003)
_ROLL_BINV = np.uint64(pow(1_000_003, -1, 1 << 64))  # B odd → invertible mod 2^64


def rolling_fp_scalar(data: bytes, window: int = 16) -> int:
    """Scalar reference for the rolling fingerprint: max over all
    ``window``-byte windows of the wrapping-uint64 polynomial hash
    h = Σ d[i+j]·B^(window-1-j) mod 2^64 (whole-string Horner when the
    doc is shorter than one window). Property tests drive the vectorized
    kernel against this."""
    M = (1 << 64) - 1
    B = int(_ROLL_B)
    if len(data) < window:
        h = 0
        for byte in data:
            h = (h * B + byte) & M
        return h
    pw = pow(B, window - 1, 1 << 64)
    h = 0
    best = 0
    for i, byte in enumerate(data):
        if i >= window:
            h = (h - data[i - window] * pw) & M
        h = (h * B + byte) & M
        if i >= window - 1:
            best = max(best, h)
    return best


def rolling_fingerprint_batch(batch: pd.DataFrame, window: int = 16) -> pd.DataFrame:
    """Polynomial rolling-hash fingerprint (Rabin-Karp style) over each
    document — a cheap shift-resistant fingerprint for chunk-level dedup.
    Vectorized per document in O(len) numpy (no per-byte Python): with
    weights A[j] = d[j]·B^(N-1-j) (wrapping uint64), any window sum is a
    difference of prefix sums times a power of B^-1 — B is odd, hence
    invertible mod 2^64 — so all windows come from one cumsum + one
    elementwise multiply. Not SQL-expressible; gated by a property test
    vs the scalar reference (rolling_fp_scalar)."""
    w = window
    enc = [t.encode("utf-8") for t in batch["text"]]
    maxn = max((len(e) for e in enc), default=1)
    # shared power tables for the whole batch: bp[t] = B^t, binv[t] = B^-t
    bp = np.ones(max(maxn, 1), dtype=np.uint64)
    if maxn > 1:
        np.cumprod(np.full(maxn - 1, _ROLL_B, dtype=np.uint64), out=bp[1:])
    binv = np.ones(max(maxn, 1), dtype=np.uint64)
    if maxn > 1:
        np.cumprod(np.full(maxn - 1, _ROLL_BINV, dtype=np.uint64), out=binv[1:])
    fps = np.empty(len(batch), dtype=np.uint64)
    for out_i, e in enumerate(enc):
        d = np.frombuffer(e, dtype=np.uint8).astype(np.uint64)
        n = len(d)
        if n == 0:
            fps[out_i] = 0
            continue
        if n < w:
            fps[out_i] = (d * bp[n - 1 :: -1]).sum(dtype=np.uint64)
            continue
        c = np.cumsum(d * bp[n - 1 :: -1], dtype=np.uint64)  # wrapping prefix sums
        wins = c[w - 1 :].copy()
        wins[1:] -= c[: n - w]
        # window i's hash = window sum × B^-(N-w-i)
        fps[out_i] = (wins * binv[n - w :: -1]).max()
    return pd.DataFrame({"doc_id": batch["doc_id"], "rolling_fp": fps})


def quality_batch(batch: pd.DataFrame) -> pd.DataFrame:
    """Integer quality metrics (SQL-replicable): char/word/alpha/digit/
    upper counts. Ratios are for the caller to derive."""
    texts = list(batch["text"])
    return pd.DataFrame(
        {
            "doc_id": batch["doc_id"],
            "n_chars": [len(t) for t in texts],
            "n_words": [n_tokens_sql_semantics(t) for t in texts],
            "n_alpha": [len(_ALPHA.findall(t)) for t in texts],
            "n_digit": [len(_DIGIT.findall(t)) for t in texts],
            "n_upper": [len(_UPPER.findall(t)) for t in texts],
        }
    )


_ALPHA_SEARCH = re.compile(r"[A-Za-z]").search


def repetition_stats_batch(batch: pd.DataFrame) -> pd.DataFrame:
    """Repetition quality signals (the Gopher §A1.1 duplicate-n-gram
    family), integer-exact: word count, distinct word count, and the
    highest adjacent-bigram frequency. High duplicate-word or
    top-bigram mass marks boilerplate/spam for the filter stage."""
    from collections import Counter

    n_words, n_distinct, top_bigram = [], [], []
    for t in batch["text"]:
        words = t.split()
        n_words.append(len(words))
        n_distinct.append(len(set(words)))
        if len(words) >= 2:
            c = Counter(zip(words, words[1:]))
            top_bigram.append(max(c.values()))
        else:
            top_bigram.append(0)
    return pd.DataFrame(
        {
            "doc_id": batch["doc_id"],
            "n_words": np.asarray(n_words, dtype=np.int64),
            "n_distinct_words": np.asarray(n_distinct, dtype=np.int64),
            "top_bigram_count": np.asarray(top_bigram, dtype=np.int64),
        }
    )


def repetition_stats(sf_dir: str):
    """Per-document repetition signals over the corpus (SQL oracle)."""
    return read_documents(sf_dir, columns=["doc_id", "text"]).map_batches(
        repetition_stats_batch, batch_format="pandas", batch_size=8192
    )


def gopher_quality_batch(batch: pd.DataFrame) -> pd.DataFrame:
    """Gopher/C4-style document quality rules (Rae et al. 2021, §A1.1),
    integer-exact so the DuckDB oracle hash-matches: word count bounds,
    mean-word-length bounds (as cross-multiplied integer comparisons),
    symbol-to-word ratio (# and non-overlapping ...), alphabetic-word
    fraction. ``passes_gopher`` is 0/1 int."""
    n_words, total_chars, n_hash, n_ell, n_alpha = [], [], [], [], []
    for t in batch["text"]:
        words = t.split()
        n_words.append(len(words))
        total_chars.append(sum(len(w) for w in words))
        n_hash.append(t.count("#"))
        n_ell.append(t.count("..."))
        n_alpha.append(sum(1 for w in words if _ALPHA_SEARCH(w)))
    n = np.asarray(n_words, dtype=np.int64)
    tc = np.asarray(total_chars, dtype=np.int64)
    nh = np.asarray(n_hash, dtype=np.int64)
    ne = np.asarray(n_ell, dtype=np.int64)
    na = np.asarray(n_alpha, dtype=np.int64)
    passes = (
        (n >= 50)
        & (n <= 100_000)
        & (3 * n <= tc)
        & (tc <= 10 * n)
        & (10 * (nh + ne) <= n)
        & (5 * na >= 4 * n)
    ).astype(np.int64)
    return pd.DataFrame(
        {
            "doc_id": batch["doc_id"],
            "n_words": n,
            "total_word_chars": tc,
            "n_hash": nh,
            "n_ellipsis": ne,
            "n_alpha_words": na,
            "passes_gopher": passes,
        }
    )


def gopher_quality_flags(sf_dir: str):
    """Per-document Gopher-rule quality gate over the corpus — the
    rule-based filter stage of a training-data pipeline (SQL oracle)."""
    return read_documents(sf_dir, columns=["doc_id", "text"]).map_batches(
        gopher_quality_batch, batch_format="pandas", batch_size=8192
    )


class LangId:
    """Stopword + character-class language heuristic (stateful stage:
    tables built once per actor in __init__). Oracle-checked: the
    stopword-ratio argmax translates to integer-exact SQL (same-doc
    denominators cancel, so 100*count >= 3*n replaces the float
    threshold); the CJK branch never fires on the ASCII corpus and is
    unit-tested instead."""

    def __init__(self):
        self.stopwords = _STOPWORDS
        self.word_re = re.compile(r"[^\W\d_]+", re.UNICODE)

    def predict(self, text: str) -> str:
        # CJK detection first
        n_cjk = sum(1 for ch in text[:400] if "一" <= ch <= "鿿")
        if n_cjk > 5:
            return "zh"
        words = [w.lower() for w in self.word_re.findall(text)]
        if not words:
            return "xx"
        scores = {
            lang: sum(1 for w in words if w in sw) / len(words)
            for lang, sw in self.stopwords.items()
        }
        best = max(scores, key=lambda k: (scores[k], k))
        return best if scores[best] >= 0.03 else "xx"

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"],
                "pred_lang": [self.predict(t) for t in batch["text"]],
            }
        )


# ---------------------------------------------------------------------------
# Dataset-level wrappers
# ---------------------------------------------------------------------------


def read_documents(sf_dir: str, columns=None):
    import ray.data as rd

    return rd.read_parquet(table_path(sf_dir, "documents"), columns=columns)


def doc_stats_by_lang(sf_dir: str):
    """Per-language corpus stats: an Arrow per-block partial, then one
    combine over ~langs×blocks rows — never shuffles the full table."""
    from open_parse_ray.stages.relational import _arrow_group_aggs, _combine_partials

    ds = read_documents(sf_dir, columns=["lang", "n_chars"])

    def partial(t: "pa.Table") -> "pa.Table":
        n = t.column("n_chars").to_numpy()
        return _arrow_group_aggs(
            {"lang": t.column("lang")},
            {
                "n_docs": ("count", None),
                "total_chars": ("sum", n),
                "min_chars": ("min", n),
                "max_chars": ("max", n),
            },
            t.num_rows,
        )

    partials = ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)
    return _combine_partials(
        partials,
        ["lang"],
        {"n_docs": "sum", "total_chars": "sum", "min_chars": "min", "max_chars": "max"},
    )


def source_lang_matrix(sf_dir: str):
    """Corpus composition crosstab — the mixture table a training run
    balances against: per (source, lang): docs and chars. Two-phase
    partial aggregation; bounded cardinality (sources × langs)."""
    import ray.data as rd

    ds = read_documents(sf_dir, columns=["source", "lang", "n_chars"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.assign(n=np.int64(1))
        return b.groupby(["source", "lang"], as_index=False).agg(
            n_docs=("n", "sum"), total_chars=("n_chars", "sum")
        )

    from open_parse_ray.stages.relational import _combine_partials

    return _combine_partials(
        ds.map_batches(partial, batch_format="pandas", batch_size=65536),
        ["source", "lang"],
        {"n_docs": "sum", "total_chars": "sum"},
    )


def token_counts(sf_dir: str):
    return read_documents(sf_dir, columns=["doc_id", "text"]).map_batches(
        token_count_batch, batch_format="pandas", batch_size=8192
    )


def fingerprints(sf_dir: str):
    return read_documents(sf_dir, columns=["doc_id", "text"]).map_batches(
        fingerprint_batch, batch_format="pandas", batch_size=8192
    )


def rolling_fingerprints(sf_dir: str):
    """Shift-resistant Rabin-Karp rolling-hash fingerprints per document
    (chunk-level dedup primitive). Deterministic; gated by unit tests
    (not SQL-expressible)."""
    return read_documents(sf_dir, columns=["doc_id", "text"]).map_batches(
        rolling_fingerprint_batch, batch_format="pandas", batch_size=8192
    )


def bpe_token_counts(sf_dir: str):
    """Token counts with the BPE-ish regex tokenizer (the tiktoken
    cl100k_base analog used by the extraction thresholds — see
    open_parse_ray/tokens.py; reference: src/openparse/utils.py:6-10).
    Oracle-checked: the tokenizer regex + long-run surcharge translate
    directly to a DuckDB regexp_extract_all expression."""
    from open_parse_ray.tokens import num_tokens

    def batch_fn(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"],
                "n_bpe_tokens": np.asarray(
                    [num_tokens(t) for t in b["text"]], dtype=np.int64
                ),
            }
        )

    return read_documents(sf_dir, columns=["doc_id", "text"]).map_batches(
        batch_fn, batch_format="pandas", batch_size=8192
    )


def quality_scores(sf_dir: str):
    return read_documents(sf_dir, columns=["doc_id", "text"]).map_batches(
        quality_batch, batch_format="pandas", batch_size=8192
    )


def langid_preds(sf_dir: str):
    return read_documents(sf_dir, columns=["doc_id", "text"]).map_batches(
        LangId, batch_format="pandas", batch_size=8192, concurrency=(1, 4)
    )


def term_counts(text, per_doc: bool = False):
    r"""The Arrow ``(term, n)`` partial of the Arrow string column
    ``text``: every whitespace-split term and its count, or with
    ``per_doc=True`` the number of strings that hold it.

    Terms are ``s.split()`` of every string: ``pc.utf8_split_whitespace``
    classifies every code point as whitespace exactly as ``str.split``
    does, and its empty strings (leading/trailing whitespace, blank
    text) are dropped from the counts. Counting is one hash aggregate
    (``pc.value_counts``). For ``per_doc`` each (string, term) pair is
    kept once first: per slice of :data:`TEXT_SLICE_ROWS` strings, as
    one int64 key over the slice's term dictionary (whole-column keys
    cost ~9x the text in memory). The DuckDB oracles split
    ``trim(text)`` on RE2 ``\s`` (ASCII [ \t\n\f\r] only; ``trim``
    strips only ' '), so they agree with this only on text whose
    whitespace is all in that set and holds nothing but ' ' at either
    end. Pinned against the per-row ``Counter`` by
    tests/test_robustness.py::test_term_counts_equal_python_counter."""
    import pyarrow.compute as pc

    if per_doc:
        pairs = []
        for start in range(0, len(text), TEXT_SLICE_ROWS):
            lists = pc.utf8_split_whitespace(text.slice(start, TEXT_SLICE_ROWS))
            flat = pc.list_flatten(lists)
            if isinstance(flat, pa.ChunkedArray):
                flat = flat.combine_chunks()
            enc = flat.dictionary_encode()
            n_vocab = len(enc.dictionary)
            key = pc.list_parent_indices(lists).to_numpy() * n_vocab + enc.indices.to_numpy()
            pairs.append(enc.dictionary.take(np.unique(key) % n_vocab))
        terms = pa.chunked_array(pairs, text.type)
    else:
        terms = pc.list_flatten(pc.utf8_split_whitespace(text))
    counts = pc.value_counts(terms)
    out = pa.table({"term": counts.field("values"), "n": counts.field("counts")})
    return out.filter(pc.not_equal(out["term"], ""))


def top_terms(sf_dir: str, k: int = 20):
    """Corpus term-frequency top-k (the word-count of training-data
    pipelines). Plan: per-batch Arrow (term, n) partials
    (:func:`term_counts`; each block collapses to ≤|vocab-in-block| rows
    before any exchange), salted shuffle on hash(term) to sum per term,
    per-partition partial top-k, then a tiny global sort+limit — the
    full term table is never globally sorted. Ties break on the term
    string ascending, same as the oracle. Returns (rank, term, n). Equal
    to its SQL oracle on the text named in :func:`term_counts`."""
    from open_parse_ray.stages.dedup import salted_groupby

    ds = read_documents(sf_dir, columns=["text"])

    def partial_counts(t: pa.Table) -> pa.Table:
        return term_counts(t.column("text"))

    partials = ds.map_batches(partial_counts, batch_format="pyarrow", batch_size=8192)

    def sum_and_topk(part: pd.DataFrame) -> pd.DataFrame:
        g = part.groupby("term", as_index=False).agg(n=("n", "sum"))
        g = g.sort_values(["n", "term"], ascending=[False, True]).head(k)
        return g.astype({"n": "int64"})

    per_part_top = salted_groupby(partials, "term", sum_and_topk)

    def add_rank(b: pd.DataFrame) -> pd.DataFrame:
        b = b.sort_values(["n", "term"], ascending=[False, True]).head(k)
        b = b.reset_index(drop=True)
        b["rank"] = np.arange(1, len(b) + 1, dtype=np.int64)
        return b[["rank", "term", "n"]]

    return per_part_top.repartition(1).map_batches(
        add_rank, batch_format="pandas", batch_size=None
    )


def term_doc_freq(sf_dir: str):
    """Document frequency per term (the DF side of TF-IDF / stopword
    detection). Per-batch Arrow (term, df) partials
    (:func:`term_counts` with ``per_doc``); salted shuffle on
    hash(term); per-partition sum. DF counts are additive across
    batches because each doc contributes each term at most once and a
    doc lives in exactly one input row. Returns (term, df). Equal to
    its SQL oracle on the text named in :func:`term_counts`."""
    from open_parse_ray.stages.dedup import salted_groupby

    ds = read_documents(sf_dir, columns=["text"])

    def partial_df(t: pa.Table) -> pa.Table:
        return term_counts(t.column("text"), per_doc=True).rename_columns(["term", "df"])

    partials = ds.map_batches(partial_df, batch_format="pyarrow", batch_size=8192)

    def sum_df(part: pd.DataFrame) -> pd.DataFrame:
        return part.groupby("term", as_index=False).agg(df=("df", "sum")).astype({"df": "int64"})

    return salted_groupby(partials, "term", sum_df)


def chunk_spans_batch(
    batch: pd.DataFrame, max_tokens: int = 64, overlap: int = 16
) -> pd.DataFrame:
    """Sliding-window document chunking (the RAG/embedding prep step):
    whitespace tokens split into chunks of ≤ max_tokens with ``overlap``
    tokens shared between neighbors (stride = max_tokens - overlap).
    1-based inclusive token positions so the DuckDB list_slice oracle
    reproduces chunk_text byte-for-byte. Zero-token docs emit no rows."""
    stride = max_tokens - overlap
    ids, idxs, starts, ends, texts = [], [], [], [], []
    for doc_id, t in zip(batch["doc_id"], batch["text"]):
        words = t.split()
        n = len(words)
        if n == 0:
            continue
        count = 1 if n <= max_tokens else 1 + (n - overlap - 1) // stride
        for i in range(count):
            s = 1 + stride * i
            e = min(s + max_tokens - 1, n)
            ids.append(int(doc_id))
            idxs.append(i)
            starts.append(s)
            ends.append(e)
            texts.append(" ".join(words[s - 1 : e]))
    return pd.DataFrame(
        {
            "doc_id": pd.Series(ids, dtype="int64"),
            "chunk_idx": pd.Series(idxs, dtype="int64"),
            "start_tok": pd.Series(starts, dtype="int64"),
            "end_tok": pd.Series(ends, dtype="int64"),
            "chunk_text": pd.Series(texts, dtype="object"),
        }
    )


def chunk_spans(sf_dir: str, max_tokens: int = 64, overlap: int = 16):
    """Per-document overlapping chunks over the corpus (SQL oracle)."""
    return read_documents(sf_dir, columns=["doc_id", "text"]).map_batches(
        lambda b: chunk_spans_batch(b, max_tokens, overlap),
        batch_format="pandas",
        batch_size=8192,
    )


class EmbedDocs:
    """Actor-pool embedding stage: the hermetic hashed-ngram model is
    built once per actor in ``__init__`` (the shape a real transformer
    checkpoint load takes — reference loads models at import time,
    tables/table_transformers/ml.py:58-66); ``__call__`` embeds a batch.
    Swap the model class, keep the stage."""

    def __init__(self, dim: int = 64):
        from open_parse_ray.functions.embed import HashedNGramEmbeddings

        self.model = HashedNGramEmbeddings(dim=dim)
        self.dim = dim

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        vecs = [
            np.asarray(v, dtype=np.float32)
            for v in self.model.embed_many(list(batch["text"]))
        ]
        return pd.DataFrame({"doc_id": batch["doc_id"], "embedding": vecs})


def doc_embeddings(sf_dir: str, dim: int = 64):
    """Embedding generation at corpus scale: documents → (doc_id,
    embedding list<float32>). Deterministic (same text → same vector at
    any parallelism); output feeds the ANN / embedding-neardup stages."""
    return read_documents(sf_dir, columns=["doc_id", "text"]).map_batches(
        EmbedDocs,
        fn_constructor_kwargs={"dim": dim},
        batch_format="pandas",
        batch_size=4096,
        concurrency=(1, 8),
    )


def stratified_sample(sf_dir: str, per_group: int = 10):
    """Deterministic STRATIFIED sampling: exactly ``per_group`` docs per
    language, chosen by md5(doc_id) order — balanced-corpus sampling
    (equal representation per stratum) with no RNG state and no full
    shuffle: only (doc_id, lang, md5) rows move, salted on the stratum.
    Returns (lang, rank, doc_id)."""

    from open_parse_ray.stages.dedup import salted_groupby

    def add_key(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"].astype("int64"),
                "lang": b["lang"],
                "h": [
                    hashlib.md5(str(int(d)).encode("ascii")).hexdigest()
                    for d in b["doc_id"]
                ],
            }
        )

    keyed = read_documents(sf_dir, columns=["doc_id", "lang"]).map_batches(
        add_key, batch_format="pandas", batch_size=65536
    )

    def topk_per_lang(part: pd.DataFrame) -> pd.DataFrame:
        g = part.sort_values(["lang", "h", "doc_id"])
        g = g.assign(rank=g.groupby("lang").cumcount() + 1)
        g = g[g["rank"] <= per_group]
        return pd.DataFrame(
            {
                "lang": g["lang"],
                "rank": g["rank"].astype("int64"),
                "doc_id": g["doc_id"].astype("int64"),
            }
        )

    return salted_groupby(keyed, "lang", topk_per_lang)


def sample_documents(sf_dir: str):
    """Deterministic hash-based sampling (~1/8): keep docs whose
    md5(doc_id-as-string) hex digest sorts below '2'. Content-addressed
    sampling is reproducible across runs/cluster sizes and needs no
    shuffle or RNG state — the correct way to sample 10^12 rows (a
    seeded random_shuffle would be an all-to-all exchange). Matches
    DuckDB md5() bit-for-bit. Returns (doc_id, lang, n_chars)."""

    def keep(b: pd.DataFrame) -> pd.DataFrame:
        mask = [
            hashlib.md5(str(int(d)).encode("ascii")).hexdigest() < "2"
            for d in b["doc_id"]
        ]
        return b[np.asarray(mask, dtype=bool)]

    return read_documents(sf_dir, columns=["doc_id", "lang", "n_chars"]).map_batches(
        keep, batch_format="pandas", batch_size=65536
    )


def split_assignments(sf_dir: str, train_pct: int = 80, val_pct: int = 10):
    """Deterministic train/val/test SPLIT assignment — the step every
    training-data pipeline runs last. bucket = (doc_id * 2654435761)
    mod 2^32 mod 100 (Knuth multiplicative hash: decorrelates the split
    from id order so range-partitioned corpora don't put one shard's
    docs in one split); split by (train_pct, val_pct) thresholds.

    Content-addressed and stateless: no RNG, no shuffle, reproducible at
    any parallelism / cluster size — a seeded random_shuffle would be an
    all-to-all over 10^12 rows for nothing. Integer-exact, hence
    SQL-oracle-checkable. Returns (doc_id, bucket, split)."""

    def assign(b: pd.DataFrame) -> pd.DataFrame:
        ids = b["doc_id"].to_numpy(dtype=np.int64).astype(np.uint64)
        bucket = ((ids * np.uint64(2654435761)) % np.uint64(2**32)) % np.uint64(100)
        bucket = bucket.astype(np.int64)
        split = np.where(
            bucket < train_pct,
            "train",
            np.where(bucket < train_pct + val_pct, "val", "test"),
        )
        return pd.DataFrame(
            {"doc_id": b["doc_id"].astype("int64"), "bucket": bucket, "split": split}
        )

    return read_documents(sf_dir, columns=["doc_id"]).map_batches(
        assign, batch_format="pandas", batch_size=65536
    )


def source_capped_sample(sf_dir: str, cap: int = 20):
    """Per-SOURCE document cap — the standard web-corpus guard against a
    single domain dominating training data: keep at most ``cap`` docs
    per source, deterministically chosen by md5(doc_id) order (content-
    addressed, so the kept set is stable across runs and cluster sizes,
    and not biased toward low doc_ids).

    Scale shape: only (doc_id, source, md5) rows move, salted on the
    source key (at web scale sources are fine-grained — millions of
    hosts — exactly what salted_groupby bounds). Returns
    (source, rank, doc_id)."""
    from open_parse_ray.stages.dedup import salted_groupby

    def add_key(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"].astype("int64"),
                "source": b["source"],
                "h": [
                    hashlib.md5(str(int(d)).encode("ascii")).hexdigest()
                    for d in b["doc_id"]
                ],
            }
        )

    keyed = read_documents(sf_dir, columns=["doc_id", "source"]).map_batches(
        add_key, batch_format="pandas", batch_size=65536
    )

    def cap_per_source(part: pd.DataFrame) -> pd.DataFrame:
        g = part.sort_values(["source", "h", "doc_id"])
        g = g.assign(rank=g.groupby("source").cumcount() + 1)
        g = g[g["rank"] <= cap]
        return pd.DataFrame(
            {
                "source": g["source"],
                "rank": g["rank"].astype("int64"),
                "doc_id": g["doc_id"].astype("int64"),
            }
        )

    return salted_groupby(keyed, "source", cap_per_source)

def tfidf_top_terms(sf_dir: str, k: int = 3):
    """Per-document top-k TF-IDF terms — the keyword-extraction /
    domain-labeling step of corpus curation. Scored by tf/df (monotone
    in tf·idf for ranking within one corpus), ties broken by the term
    string ascending, exactly as the DuckDB oracle's
    row_number() OVER (PARTITION BY doc ORDER BY tf/df DESC, term).

    Scale shape — two salted exchanges over (doc_id, term, tf) rows and
    NO df side-table or join: because the per-batch tokenize emits
    exactly one row per (doc, term), a term's document frequency IS its
    row count, so the first shuffle (salt=hash(term)) computes df with
    a vectorized group-size transform in the same partition that holds
    the rows; the second shuffle (salt=hash(doc_id)) ranks within each
    document. Both partitions are salt-bounded; the comparator is IEEE
    double tf/df (exact vs DuckDB: counts ≪ 2^26, so distinct rationals
    never collide after rounding). Returns (doc_id, rank, term, tf, df).
    """
    from collections import Counter

    from open_parse_ray.stages.dedup import salted_groupby

    ds = read_documents(sf_dir, columns=["doc_id", "text"])

    def tf_rows(b: pd.DataFrame) -> pd.DataFrame:
        doc_ids, terms, tfs = [], [], []
        for d, t in zip(b["doc_id"].to_numpy(), b["text"]):
            t = t.strip()
            if not t:
                continue
            c = Counter(_WS_SPLIT.split(t))
            doc_ids.extend([int(d)] * len(c))
            terms.extend(c.keys())
            tfs.extend(c.values())
        return pd.DataFrame(
            {
                "doc_id": np.asarray(doc_ids, dtype=np.int64),
                "term": terms,
                "tf": np.asarray(tfs, dtype=np.int64),
            }
        )

    tf = ds.map_batches(tf_rows, batch_format="pandas", batch_size=8192)

    def attach_df(part: pd.DataFrame) -> pd.DataFrame:
        part = part.copy()
        part["df"] = part.groupby("term")["term"].transform("size").astype("int64")
        return part

    with_df = salted_groupby(tf, "term", attach_df)

    def topk_per_doc(part: pd.DataFrame) -> pd.DataFrame:
        part = part.copy()
        part["score"] = part["tf"].to_numpy(dtype=np.float64) / part["df"].to_numpy(
            dtype=np.float64
        )
        part = part.sort_values(
            ["doc_id", "score", "term"], ascending=[True, False, True]
        )
        part["rank"] = part.groupby("doc_id").cumcount().to_numpy(dtype=np.int64) + 1
        part = part[part["rank"] <= k]
        return part[["doc_id", "rank", "term", "tf", "df"]].astype(
            {"doc_id": "int64", "rank": "int64", "tf": "int64", "df": "int64"}
        )

    return salted_groupby(
        with_df,
        lambda t: pd.util.hash_pandas_object(
            t["doc_id"].to_pandas(), index=False
        ).astype("int64"),
        topk_per_doc,
    )

def source_ngram_overlap(sf_dir: str, n: int = 3):
    """Cross-source corpus similarity: for every source pair, the exact
    count of shared DISTINCT word n-grams plus each side's distinct
    total — the numerator/denominators of pairwise Jaccard as exact
    integers (the cross-corpus contamination report run before mixing
    data sources). Returns (source_a, source_b, n_common, n_a, n_b) for
    pairs with n_common >= 1, source_a < source_b.

    Scale shape: per-batch DISTINCT (source, ngram) rows (each block
    collapses before the exchange), ONE salted exchange on the ngram
    string co-locating every copy of an ngram; the per-partition kernel
    dedupes, emits per-pair intersection partials (an ngram shared by k
    sources contributes to C(k,2) pairs — k is bounded by |sources|)
    and per-source distinct totals; a bounded combine (≤|sources|² rows)
    assembles the matrix. Full SQL oracle (self-join on the same
    n-gram derivation)."""
    from itertools import combinations

    from open_parse_ray.stages.dedup import salted_groupby
    from open_parse_ray.stages.relational import _combine_partials

    ds = read_documents(sf_dir, columns=["source", "text"])

    def ng_rows(b: pd.DataFrame) -> pd.DataFrame:
        seen = set()
        for src, t in zip(b["source"], b["text"]):
            t = t.strip()
            if not t:
                continue
            ws = _WS_SPLIT.split(t)
            for i in range(len(ws) - n + 1):
                seen.add((src, " ".join(ws[i : i + n])))
        if not seen:
            return pd.DataFrame({"source": pd.Series([], dtype=object),
                                 "ng": pd.Series([], dtype=object)})
        srcs, ngs = zip(*seen)
        return pd.DataFrame({"source": list(srcs), "ng": list(ngs)})

    rows = ds.map_batches(ng_rows, batch_format="pandas", batch_size=8192)

    def pair_partials(part: pd.DataFrame) -> pd.DataFrame:
        d = part.drop_duplicates(["source", "ng"])
        a_out, b_out, n_out = [], [], []
        # per-source distinct totals ride as (source, "") rows — the
        # partition holds EVERY copy of its ngrams, so per-partition
        # distinct counts are additive to the global distinct count
        tot = d.groupby("source").size()
        for src, cnt in tot.items():
            a_out.append(src)
            b_out.append("")
            n_out.append(int(cnt))
        for _, g in d.groupby("ng", sort=False):
            srcs = sorted(g["source"])
            if len(srcs) < 2:
                continue
            for sa, sb in combinations(srcs, 2):
                a_out.append(sa)
                b_out.append(sb)
                n_out.append(1)
        out = pd.DataFrame(
            {"source_a": a_out, "source_b": b_out,
             "n": np.asarray(n_out, dtype=np.int64)}
        )
        return out.groupby(["source_a", "source_b"], as_index=False).agg(
            n=("n", "sum")
        )

    partials = salted_groupby(rows, "ng", pair_partials)
    combined = _combine_partials(partials, ["source_a", "source_b"], {"n": "sum"})

    def assemble(b: pd.DataFrame) -> pd.DataFrame:
        totals = dict(
            zip(b.loc[b["source_b"] == "", "source_a"],
                b.loc[b["source_b"] == "", "n"])
        )
        p = b[b["source_b"] != ""].sort_values(["source_a", "source_b"])
        return pd.DataFrame(
            {
                "source_a": p["source_a"],
                "source_b": p["source_b"],
                "n_common": p["n"].astype("int64"),
                "n_a": p["source_a"].map(totals).astype("int64"),
                "n_b": p["source_b"].map(totals).astype("int64"),
            }
        )

    return combined.repartition(1).map_batches(
        assemble, batch_format="pandas", batch_size=None
    )


DEFAULT_BM25_QUERY = ("window", "join", "scan")


def bm25_lite_topk(sf_dir: str, query_terms=DEFAULT_BM25_QUERY, k: int = 20):
    """Corpus retrieval scoring — rank documents against a term query by
    integer-exact idf-weighted term frequency:

        score(d) = Σ_t tf(d,t) · ((N·1000) // df(t))

    (a BM25-family score with the saturation/length terms dropped so
    every intermediate is an int64 — the repo's integer-oracle
    discipline; N = |documents|, fixed-point idf with 3 digits). Ties
    break on doc_id ascending. Returns (rank, doc_id, score).

    Scale shape: the query term set broadcasts (tiny); one pass emits
    (doc_id, term, tf) rows ONLY for query terms (≤|query| rows per
    doc); df comes from a bounded combine of per-term row counts
    (≤|query| values, driver-held and re-broadcast); scores fold through
    a salted doc_id exchange with per-partition top-k before one final
    k-row sort — the corpus text crosses no exchange and no global sort
    runs. Exact SQL oracle (same integer arithmetic in DuckDB)."""
    from collections import Counter

    import ray

    from open_parse_ray.stages.dedup import salted_groupby

    qset = frozenset(query_terms)
    qref = ray.put(qset)
    ds = read_documents(sf_dir, columns=["doc_id", "text"])
    n_docs = read_documents(sf_dir, columns=["doc_id"]).count()

    def tf_rows(b: pd.DataFrame) -> pd.DataFrame:
        q = ray.get(qref)
        doc_ids, terms, tfs = [], [], []
        for d, t in zip(b["doc_id"].to_numpy(), b["text"]):
            t = t.strip()
            if not t:
                continue
            c = Counter(w for w in _WS_SPLIT.split(t) if w in q)
            doc_ids.extend([int(d)] * len(c))
            terms.extend(c.keys())
            tfs.extend(c.values())
        return pd.DataFrame(
            {
                "doc_id": np.asarray(doc_ids, dtype=np.int64),
                "term": terms,
                "tf": np.asarray(tfs, dtype=np.int64),
            }
        )

    tf = ds.map_batches(tf_rows, batch_format="pandas", batch_size=8192).materialize()

    # df per query term: one row per (doc, term) → df is the row count.
    # Bounded by |query| → safe driver combine + re-broadcast.
    from open_parse_ray.stages.relational import _combine_partials

    def df_partial(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby("term", as_index=False).size()
        return g.rename(columns={"size": "df"}).astype({"df": "int64"})

    df_tbl = _combine_partials(
        tf.map_batches(df_partial, batch_format="pandas", batch_size=65536),
        ["term"],
        {"df": "sum"},
    ).to_pandas()
    idf = {
        t: (n_docs * 1000) // int(d) for t, d in zip(df_tbl["term"], df_tbl["df"])
    }
    idf_ref = ray.put(idf)

    def score_partial(b: pd.DataFrame) -> pd.DataFrame:
        w = ray.get(idf_ref)
        s = b["tf"].to_numpy(dtype=np.int64) * np.fromiter(
            (w[t] for t in b["term"]), dtype=np.int64, count=len(b)
        )
        g = pd.DataFrame({"doc_id": b["doc_id"].to_numpy(dtype=np.int64), "s": s})
        return g.groupby("doc_id", as_index=False).agg(score=("s", "sum"))

    scores = tf.map_batches(score_partial, batch_format="pandas", batch_size=65536)

    def sum_and_topk(part: pd.DataFrame) -> pd.DataFrame:
        g = part.groupby("doc_id", as_index=False).agg(score=("score", "sum"))
        return g.sort_values(["score", "doc_id"], ascending=[False, True]).head(k)

    per_part = salted_groupby(scores, "doc_id", sum_and_topk)

    def add_rank(b: pd.DataFrame) -> pd.DataFrame:
        b = b.sort_values(["score", "doc_id"], ascending=[False, True]).head(k)
        b = b.reset_index(drop=True)
        return pd.DataFrame(
            {
                "rank": np.arange(1, len(b) + 1, dtype=np.int64),
                "doc_id": b["doc_id"].to_numpy(dtype=np.int64),
                "score": b["score"].to_numpy(dtype=np.int64),
            }
        )

    return per_part.repartition(1).map_batches(
        add_rank, batch_format="pandas", batch_size=None
    )


def compression_ratios(sf_dir: str):
    """Per-document zlib compression ratio — the classic cheap quality
    signal (highly repetitive / templated text compresses far better
    than natural prose; used as a filter feature in RefinedWeb-style
    pipelines). Stateless streaming map; emits integers only
    (doc_id, n_bytes, n_gz_bytes) so downstream thresholds stay exact.
    Not SQL-expressible (no zlib in DuckDB) → pytest-gated:
    determinism, monotonicity on synthetic repetitive vs random text,
    and ratio sanity bounds."""
    import zlib

    def ratios(b: pd.DataFrame) -> pd.DataFrame:
        enc = [t.encode() for t in b["text"]]
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"].astype("int64"),
                "n_bytes": np.asarray([len(e) for e in enc], dtype=np.int64),
                "n_gz_bytes": np.asarray(
                    [len(zlib.compress(e, 6)) for e in enc], dtype=np.int64
                ),
            }
        )

    return read_documents(sf_dir, columns=["doc_id", "text"]).map_batches(
        ratios, batch_format="pandas", batch_size=8192
    )

_DSIR_BUCKETS = 8192


def _dsir_features(text: str) -> np.ndarray:
    """Hashed word-bigram features (DSIR, Xie et al. 2023,
    arXiv:2302.03169 §3): each bigram hashes to one of _DSIR_BUCKETS
    buckets; a doc's feature multiset drives its importance weight."""
    words = text.split()
    if len(words) < 2:
        return np.zeros(0, dtype=np.int64)
    out = np.empty(len(words) - 1, dtype=np.int64)
    for i in range(len(words) - 1):
        out[i] = _md5_64_cached(words[i] + " " + words[i + 1]) % _DSIR_BUCKETS
    return out


_DSIR_HASH_CACHE: dict = {}


def _md5_64_cached(s: str) -> int:
    v = _DSIR_HASH_CACHE.get(s)
    if v is None:
        v = int(hashlib.md5(s.encode()).hexdigest()[:16], 16)
        if len(_DSIR_HASH_CACHE) < 1_000_000:
            _DSIR_HASH_CACHE[s] = v
    return v


def dsir_weights(sf_dir: str, target_lang: str = "en"):
    """DSIR importance weights (Xie et al. 2023, arXiv:2302.03169):
    log-likelihood ratio of each document under hashed-bigram unigram
    bucket models of a TARGET distribution (here: the ``target_lang``
    slice) vs the RAW corpus — the data-selection scoring step that
    precedes importance resampling.

    Scale shape: ONE streaming pass emits per-batch (bucket, n_corpus,
    n_target) count partials (bounded: ≤ _DSIR_BUCKETS rows per batch),
    folded and combined to the driver's two 8192-long count vectors;
    the smoothed log-ratio table broadcasts via ray.put; a second
    streaming pass scores each doc with a fixed-length dot product
    (bincount(features) · log_ratio — deterministic at any block
    structure). Returns (doc_id, n_features, dsir_logw:float64).
    Pytest-gated (local-reference equality + block invariance +
    target-slice-scores-higher sanity); floats → no SQL oracle."""
    import ray

    from open_parse_ray.stages.relational import _combine_partials

    ds = read_documents(sf_dir, columns=["doc_id", "text", "lang"])

    def count_partial(b: pd.DataFrame) -> pd.DataFrame:
        corpus = np.zeros(_DSIR_BUCKETS, dtype=np.int64)
        target = np.zeros(_DSIR_BUCKETS, dtype=np.int64)
        for t, lang in zip(b["text"], b["lang"]):
            f = _dsir_features(t)
            if len(f) == 0:
                continue
            c = np.bincount(f, minlength=_DSIR_BUCKETS)
            corpus += c
            if lang == target_lang:
                target += c
        nz = np.nonzero(corpus)[0]
        return pd.DataFrame(
            {
                "bucket": nz.astype(np.int64),
                "n_corpus": corpus[nz],
                "n_target": target[nz],
            }
        )

    counts = (
        _combine_partials(
            ds.map_batches(count_partial, batch_format="pandas", batch_size=8192),
            ["bucket"],
            {"n_corpus": "sum", "n_target": "sum"},
        )
        .to_pandas()
        .sort_values("bucket")
    )
    corpus = np.zeros(_DSIR_BUCKETS, dtype=np.int64)
    target = np.zeros(_DSIR_BUCKETS, dtype=np.int64)
    corpus[counts["bucket"].to_numpy(dtype=np.int64)] = counts["n_corpus"].to_numpy(
        dtype=np.int64
    )
    target[counts["bucket"].to_numpy(dtype=np.int64)] = counts["n_target"].to_numpy(
        dtype=np.int64
    )
    # add-one smoothing on both models
    log_ratio = np.log(
        (target + 1.0) / (target.sum() + _DSIR_BUCKETS)
    ) - np.log((corpus + 1.0) / (corpus.sum() + _DSIR_BUCKETS))
    lr_ref = ray.put(log_ratio)

    def score(b: pd.DataFrame) -> pd.DataFrame:
        lr = ray.get(lr_ref)
        n_feat, logw = [], []
        for t in b["text"]:
            f = _dsir_features(t)
            n_feat.append(len(f))
            logw.append(
                float(np.bincount(f, minlength=_DSIR_BUCKETS) @ lr) if len(f) else 0.0
            )
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"].astype("int64"),
                "n_features": np.asarray(n_feat, dtype=np.int64),
                "dsir_logw": np.asarray(logw, dtype=np.float64),
            }
        )

    return ds.map_batches(score, batch_format="pandas", batch_size=8192)


# ---------------------------------------------------------------------------
# Heavy hitters: mergeable Misra-Gries sketch + exact verification pass
# ---------------------------------------------------------------------------

_MG_SKETCH_K = 120  # sketch capacity; guarantee holds for any term with
#                     true count > N/(_MG_SKETCH_K+1)


def mg_compress(counts: Dict[str, int], k: int) -> Dict[str, int]:
    """Misra-Gries compression: if more than ``k`` counters survive,
    subtract the (k+1)-th largest weight from every counter and drop the
    non-positive ones. Each compression under-counts any single term by
    at most the subtracted amount; across an arbitrary merge tree the
    total under-count is < N/(k+1) (Agarwal et al., PODS'12 mergeable
    summaries), so every term with true frequency > N/(k+1) survives to
    the final summary. Deterministic: ties need no breaking because we
    subtract a value, never select among equals."""
    if len(counts) <= k:
        return counts
    cut = sorted(counts.values(), reverse=True)[k]
    return {t: c - cut for t, c in counts.items() if c > cut}


def heavy_hitter_terms(sf_dir: str, k: int = 30):
    """EXACT corpus heavy hitters — every term whose total count exceeds
    floor(total_words / k) — computed without ever shuffling the term
    table, via the classic sketch-then-verify plan:

    1. one streaming pass builds per-batch Misra-Gries summaries
       (≤ _MG_SKETCH_K counter rows per block, merged through a fold
       level and one single-block combine, compressing after each merge
       — MG summaries are mergeable, so the tree shape is free);
       any term with count > N/(_MG_SKETCH_K+1) is guaranteed present,
       and N/(_MG_SKETCH_K+1) < N/k because _MG_SKETCH_K >= k, so the
       candidate set is a SUPERSET of the answer;
    2. the ≤ _MG_SKETCH_K candidate terms broadcast via ray.put; a
       second streaming pass counts ONLY candidates exactly (plus the
       batch's total word count under the '' sentinel — '' can never be
       a term because texts are stripped before the whitespace split),
       folded the same way;
    3. a final single-block map filters candidates to exact
       count > N // k and ranks them.

    The full term table never moves: pass 1 ships ≤ sketch_k rows per
    block, pass 2 ships ≤ |candidates|+1 rows per block. Compare
    top_terms (exact top-k via a salted term shuffle): MG trades the
    shuffle for a threshold guarantee — the right shape when the vocab
    is huge and only >N/k outliers matter. Returns (rank, term, n),
    SQL-oracle-checked exactly (sketch error is eliminated by the
    verify pass)."""
    import ray

    from open_parse_ray.stages.ranking import _fold
    from open_parse_ray.stages.relational import _combine_partials

    ds = read_documents(sf_dir, columns=["text"])

    def mg_partial(b: pd.DataFrame) -> pd.DataFrame:
        from collections import Counter

        c: Counter = Counter()
        for t in b["text"]:
            t = t.strip()
            if t:
                c.update(_WS_SPLIT.split(t))
        c = mg_compress(dict(c), _MG_SKETCH_K)
        return pd.DataFrame(
            {"term": list(c.keys()), "w": np.asarray(list(c.values()), dtype=np.int64)}
        )

    def mg_merge_level(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return b
        g = b.groupby("term", as_index=False).agg(w=("w", "sum"))
        c = mg_compress(dict(zip(g["term"], g["w"])), _MG_SKETCH_K)
        return pd.DataFrame(
            {"term": list(c.keys()), "w": np.asarray(list(c.values()), dtype=np.int64)}
        )

    sketch = (
        ds.map_batches(mg_partial, batch_format="pandas", batch_size=8192)
        .map_batches(mg_merge_level, batch_format="pandas", batch_size=65536)
        .repartition(1)
        .map_batches(mg_merge_level, batch_format="pandas", batch_size=None)
    )
    # bounded driver read: the final MG summary is <= _MG_SKETCH_K rows
    candidates = frozenset(r["term"] for r in sketch.take_all())
    cand_ref = ray.put(candidates)

    def verify_partial(b: pd.DataFrame) -> pd.DataFrame:
        from collections import Counter

        cand = ray.get(cand_ref)
        c: Counter = Counter()
        total = 0
        for t in b["text"]:
            t = t.strip()
            if t:
                words = _WS_SPLIT.split(t)
                total += len(words)
                c.update(w for w in words if w in cand)
        rows = list(c.items()) + [("", total)]
        return pd.DataFrame(
            {
                "term": [r[0] for r in rows],
                "n": np.asarray([r[1] for r in rows], dtype=np.int64),
            }
        )

    exact = _combine_partials(
        _fold(
            ds.map_batches(verify_partial, batch_format="pandas", batch_size=8192),
            ["term"],
            {"n": "sum"},
        ),
        ["term"],
        {"n": "sum"},
    )

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return pd.DataFrame({"rank": [], "term": [], "n": []}).astype(
                {"rank": "int64", "term": "object", "n": "int64"}
            )
        total = int(b.loc[b["term"] == "", "n"].sum())
        g = b[(b["term"] != "") & (b["n"] > total // k)]
        g = g.sort_values(["n", "term"], ascending=[False, True]).reset_index(drop=True)
        return pd.DataFrame(
            {
                "rank": np.arange(1, len(g) + 1, dtype=np.int64),
                "term": g["term"],
                "n": g["n"].astype("int64"),
            }
        )

    return exact.map_batches(finish, batch_format="pandas", batch_size=None)


def lang_mix_rebalance(sf_dir: str):
    """Rebalance the corpus to a UNIFORM language mix (the multilingual
    training-mix step: downsample over-represented languages to the
    per-language quota instead of letting one language dominate).
    quota = min(c_lang, total // n_langs), with the kept docs chosen by
    md5(doc_id) order — content-addressed, so the kept set is stable
    across runs, cluster sizes and input partitionings, and unbiased
    w.r.t. doc_id order.

    Two-phase shape: (1) per-batch language counts (bounded cardinality:
    |langs|) fold to the driver, which broadcasts the tiny quota table;
    (2) (doc_id, lang, md5) rows — never text — move through ONE salted
    exchange on the language key where each partition ranks and cuts at
    its quota. Integer-exact, hence SQL-oracle-checked. Temperature-
    scaled variants (quota ∝ c^alpha) drop in by changing one line of
    the driver-side quota computation. Returns (lang, rank, doc_id)."""
    import ray

    from open_parse_ray.stages.dedup import salted_groupby
    from open_parse_ray.stages.ranking import _fold
    from open_parse_ray.stages.relational import _combine_partials

    ds = read_documents(sf_dir, columns=["doc_id", "lang"])

    def count_partial(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby("lang", as_index=False).agg(c=("doc_id", "size"))
        return g.astype({"c": "int64"})

    counts = (
        _combine_partials(
            _fold(
                ds.map_batches(count_partial, batch_format="pandas", batch_size=65536),
                ["lang"],
                {"c": "sum"},
            ),
            ["lang"],
            {"c": "sum"},
        )
        .to_pandas()
    )
    total = int(counts["c"].sum())
    per_lang = total // len(counts)
    quota = {l: min(int(c), per_lang) for l, c in zip(counts["lang"], counts["c"])}
    quota_ref = ray.put(quota)

    def add_key(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"].astype("int64"),
                "lang": b["lang"],
                "h": [
                    hashlib.md5(str(int(d)).encode("ascii")).hexdigest()
                    for d in b["doc_id"]
                ],
            }
        )

    keyed = ds.map_batches(add_key, batch_format="pandas", batch_size=65536)

    def cap_per_lang(part: pd.DataFrame) -> pd.DataFrame:
        q = ray.get(quota_ref)
        g = part.sort_values(["lang", "h", "doc_id"])
        g = g.assign(rank=g.groupby("lang").cumcount() + 1)
        g = g[g["rank"] <= g["lang"].map(q).astype("int64")]
        return pd.DataFrame(
            {
                "lang": g["lang"],
                "rank": g["rank"].astype("int64"),
                "doc_id": g["doc_id"].astype("int64"),
            }
        )

    return salted_groupby(keyed, "lang", cap_per_lang)


def dsir_select(sf_dir: str, n: int = 100, target_lang: str = "en"):
    """DSIR importance SELECTION (the resampling step that follows
    dsir_weights in Xie et al. 2023): keep the top-``n`` documents by
    importance weight, deterministic ties on doc_id — the greedy
    top-weight variant of importance resampling (the paper's Gumbel
    noise exists to de-bias repeated draws; for a single deterministic
    selection pass, weight order IS the estimator, and determinism is
    what a reproducible corpus build needs).

    Scale shape: consumes the dsir_weights Dataset (one counting pass +
    broadcast ratio table + one scoring pass), then top-n via per-batch
    partial top-n (each block collapses to <= n rows before any data
    movement) and a single-block combine — the classic distributed
    top-k; no sort of the full corpus. Scores are bit-reproducible at
    any block structure (fixed-length integer bincount dot float table,
    same order every time), so the selection is too. Returns
    (rank, doc_id, dsir_logw). Pytest-gated (floats → no SQL oracle):
    equality vs a local numpy reference selection."""

    weights = dsir_weights(sf_dir, target_lang=target_lang)

    def partial_topn(b: pd.DataFrame) -> pd.DataFrame:
        b = b.sort_values(["dsir_logw", "doc_id"], ascending=[False, True])
        return b.head(n)[["doc_id", "dsir_logw"]]

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        b = b.sort_values(["dsir_logw", "doc_id"], ascending=[False, True]).head(n)
        b = b.reset_index(drop=True)
        return pd.DataFrame(
            {
                "rank": np.arange(1, len(b) + 1, dtype=np.int64),
                "doc_id": b["doc_id"].astype("int64"),
                "dsir_logw": b["dsir_logw"].astype("float64"),
            }
        )

    return (
        weights.map_batches(partial_topn, batch_format="pandas", batch_size=8192)
        .repartition(1)
        .map_batches(finish, batch_format="pandas", batch_size=None)
    )


def ccnet_perplexity_buckets(sf_dir: str, ref_mod: int = 7):
    """CCNet-style per-language perplexity bucketing (Wenzek et al.
    2020, arXiv:1911.00359 §4.3): score every document under a language
    model trained on a curated same-language reference slice, then
    split each language into head/middle/tail by the perplexity
    terciles — the quality tiering CCNet applies to Common Crawl before
    training-data selection.

    Hermetic analogs of the paper's components: the reference corpus is
    the deterministic ``doc_id % ref_mod == 0`` slice of each language
    (stand-in for Wikipedia); the LM is the hashed-bigram add-one
    bucket model shared with dsir_weights (stand-in for KenLM 5-gram);
    the score is mean negative log-likelihood per bigram — monotone in
    perplexity (= exp(nll)), so tercile membership is identical.

    Scale shape: pass 1 — bounded (lang, bucket) count partials
    (≤ #langs × 8192 rows per batch, folded); pass 2 — broadcast
    per-lang log-prob matrix, fixed-length bincount·row scoring
    (bit-reproducible at any block structure), materialized once as the
    compact (doc_id, gid, nll, key) projection; then the exact per-lang
    tercile KEYS come from stages/quantiles' MSD-radix selection (only
    counts ever reach the driver); the final streaming map compares
    keys against the two broadcast cutoffs. Featureless docs score +inf
    → tail. Buckets are value-thresholded (ties share a bucket), so
    counts are equal thirds up to ties. Returns
    (doc_id, lang, nll:float64, bucket:str). Pytest-gated (floats → no
    SQL oracle): local numpy reference equality + block invariance."""
    import ray

    from open_parse_ray.stages.quantiles import ordered_u64, quantile_values
    from open_parse_ray.stages.relational import _combine_partials

    ds = read_documents(sf_dir, columns=["doc_id", "text", "lang"])

    # deterministic gid per lang over the WHOLE corpus (a lang can lack
    # reference docs; it still needs a (uniform, add-one) model row)
    def lang_partial(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"lang": b["lang"].unique(), "one": np.int64(1)})

    langs = sorted(
        _combine_partials(
            ds.map_batches(lang_partial, batch_format="pandas", batch_size=65536),
            ["lang"],
            {"one": "sum"},
        )
        .to_pandas()["lang"]
        .tolist()
    )
    gid_of = {l: i for i, l in enumerate(langs)}

    def count_partial(b: pd.DataFrame) -> pd.DataFrame:
        acc: dict = {}
        for did, t, lang in zip(b["doc_id"], b["text"], b["lang"]):
            if int(did) % ref_mod != 0:
                continue
            f = _dsir_features(t)
            if len(f) == 0:
                continue
            c = acc.get(lang)
            if c is None:
                c = acc[lang] = np.zeros(_DSIR_BUCKETS, dtype=np.int64)
            c += np.bincount(f, minlength=_DSIR_BUCKETS)
        frames = []
        for lang, c in acc.items():
            nz = np.nonzero(c)[0]
            frames.append(
                pd.DataFrame(
                    {"lang": lang, "bucket": nz.astype(np.int64), "n": c[nz]}
                )
            )
        if not frames:
            return pd.DataFrame(
                {
                    "lang": pd.Series([], dtype="object"),
                    "bucket": pd.Series([], dtype="int64"),
                    "n": pd.Series([], dtype="int64"),
                }
            )
        return pd.concat(frames, ignore_index=True)

    counts = _combine_partials(
        ds.map_batches(count_partial, batch_format="pandas", batch_size=8192),
        ["lang", "bucket"],
        {"n": "sum"},
    ).to_pandas()

    logp = np.zeros((len(langs), _DSIR_BUCKETS), dtype=np.float64)
    for gid, lang in enumerate(langs):
        c = np.zeros(_DSIR_BUCKETS, dtype=np.int64)
        sub = counts[counts["lang"] == lang]
        c[sub["bucket"].to_numpy(dtype=np.int64)] = sub["n"].to_numpy(dtype=np.int64)
        logp[gid] = np.log((c + 1.0) / (c.sum() + _DSIR_BUCKETS))
    model_ref = ray.put((gid_of, logp))

    def score(b: pd.DataFrame) -> pd.DataFrame:
        g_of, lp = ray.get(model_ref)
        gids, nlls = [], []
        for t, lang in zip(b["text"], b["lang"]):
            g = g_of[lang]
            f = _dsir_features(t)
            nll = (
                float(-(np.bincount(f, minlength=_DSIR_BUCKETS) @ lp[g]) / len(f))
                if len(f)
                else np.inf
            )
            gids.append(g)
            nlls.append(nll)
        nll_arr = np.asarray(nlls, dtype=np.float64)
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"].astype("int64"),
                "gid": np.asarray(gids, dtype=np.int64),
                "nll": nll_arr,
                "key": ordered_u64(nll_arr),
            }
        )

    scored = ds.map_batches(score, batch_format="pandas", batch_size=8192).materialize()

    qv = quantile_values(scored, [33, 66])
    cut33 = np.full(len(langs), np.uint64(0xFFFFFFFFFFFFFFFF), dtype=np.uint64)
    cut66 = cut33.copy()
    for _, r in qv.iterrows():
        k = ordered_u64(np.array([r["value"]]))[0]
        if int(r["p"]) == 33:
            cut33[int(r["gid"])] = k
        else:
            cut66[int(r["gid"])] = k
    cuts_ref = ray.put((langs, cut33, cut66))

    def assign(b: pd.DataFrame) -> pd.DataFrame:
        ls, c33, c66 = ray.get(cuts_ref)
        g = b["gid"].to_numpy(dtype=np.int64)
        k = b["key"].to_numpy(dtype=np.uint64)
        bucket = np.where(k <= c33[g], "head", np.where(k <= c66[g], "middle", "tail"))
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"].astype("int64"),
                "lang": [ls[x] for x in g],
                "nll": b["nll"].astype("float64"),
                "bucket": bucket,
            }
        )

    return scored.map_batches(assign, batch_format="pandas", batch_size=65536)


# ---------------------------------------------------------------------------
# Unicode normalization (crawl-text cleanup)
# ---------------------------------------------------------------------------

_CTRL_RE = re.compile("[\\x00-\\x08\\x0b-\\x1f\\x7f\\u200b\\ufeff]")


def synth_denormalized(text: str, doc_id: int) -> str:
    """Deterministic 'dirty crawl text' perturbation of a clean (NFC)
    document: NFD-decompose, CRLF-ize newlines on odd ids, inject
    zero-width spaces / BEL controls on a per-id stride — the closed
    form the normalize op must invert (the synth_messy_url pattern)."""
    import unicodedata

    t = unicodedata.normalize("NFD", text)
    if doc_id % 2:
        t = t.replace("\n", "\r\n")
    step = 23 + (doc_id % 7)
    out = []
    for i, ch in enumerate(t):
        out.append(ch)
        if i % step == step - 1:
            out.append("\u200b" if (doc_id + i) % 3 else "\x07")
    return "".join(out)


def normalize_unicode_text(t: str) -> str:
    """CRLF→LF, strip C0 controls (keeping \\n and \\t) + DEL +
    zero-width space/BOM, NFC-normalize — the standard crawl-text
    cleanup pass (ftfy-lite; mojibake repair would layer on top)."""
    import unicodedata

    t = t.replace("\r\n", "\n")
    t = _CTRL_RE.sub("", t)
    return unicodedata.normalize("NFC", t)


def unicode_normalize_docs(sf_dir: str):
    """Corpus query with a ROUNDTRIP oracle (the pdf_extract_text
    shape): each document is deterministically dirtied
    (synth_denormalized) and then normalized; the oracle asserts
    normalize(perturb(text)) == text for EVERY doc by comparing md5 and
    code-point length of the result against the clean column — so the
    op is verified to truly invert NFD expansion, CRLF, and injected
    zero-width/control noise, not just to run. Stateless single-pass
    map; returns (doc_id, norm_md5, n_chars_norm)."""
    ds = read_documents(sf_dir, columns=["doc_id", "text"])

    def run(b: pd.DataFrame) -> pd.DataFrame:
        ids = b["doc_id"].to_numpy(dtype=np.int64)
        norm = [
            normalize_unicode_text(synth_denormalized(t, int(d)))
            for t, d in zip(b["text"], ids)
        ]
        return pd.DataFrame(
            {
                "doc_id": ids,
                "norm_md5": [
                    hashlib.md5(t.encode("utf-8")).hexdigest() for t in norm
                ],
                "n_chars_norm": np.array([len(t) for t in norm], dtype=np.int64),
            }
        )

    return ds.map_batches(run, batch_format="pandas", batch_size=8192)


def doc_rollup_stats(sf_dir: str):
    """Multi-level rollup (SQL GROUPING SETS) in ONE corpus pass:
    (source × lang), (source), (lang) and grand-total doc counts +
    char sums. Only the FINEST level is aggregated distributedly
    (bounded cardinality: sources × langs); every coarser level is
    derived from that combined table in a final single-block map —
    integer re-sums, so all levels are exactly consistent with each
    other and the corpus is never re-scanned per level. 'ALL' is the
    rollup sentinel. Returns (source, lang, n_docs, total_chars)."""
    from open_parse_ray.stages.relational import _combine_partials

    ds = read_documents(sf_dir, columns=["source", "lang", "n_chars"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        g = (
            pd.DataFrame(
                {
                    "source": b["source"],
                    "lang": b["lang"],
                    "n_docs": np.int64(1),
                    "total_chars": b["n_chars"].to_numpy(dtype=np.int64),
                }
            )
            .groupby(["source", "lang"], as_index=False)
            .agg(n_docs=("n_docs", "sum"), total_chars=("total_chars", "sum"))
        )
        return g.astype({"n_docs": "int64", "total_chars": "int64"})

    fine = _combine_partials(
        ds.map_batches(partial, batch_format="pandas", batch_size=65536),
        ["source", "lang"],
        {"n_docs": "sum", "total_chars": "sum"},
    )

    def rollup(f: pd.DataFrame) -> pd.DataFrame:
        aggs = {"n_docs": ("n_docs", "sum"), "total_chars": ("total_chars", "sum")}
        by_src = f.groupby("source", as_index=False).agg(**aggs)
        by_src["lang"] = "ALL"
        by_lang = f.groupby("lang", as_index=False).agg(**aggs)
        by_lang["source"] = "ALL"
        total = pd.DataFrame(
            {
                "source": ["ALL"],
                "lang": ["ALL"],
                "n_docs": [f["n_docs"].sum()],
                "total_chars": [f["total_chars"].sum()],
            }
        )
        out = pd.concat([f, by_src, by_lang, total], ignore_index=True)
        return out[["source", "lang", "n_docs", "total_chars"]].astype(
            {"n_docs": "int64", "total_chars": "int64"}
        )

    return fine.repartition(1).map_batches(
        rollup, batch_format="pandas", batch_size=None
    )


def mixture_manifest(sf_dir: str, budget_tokens: int = 600):
    """Final corpus-ASSEMBLY step: given a per-source token budget,
    emit the deterministic keep list — docs admitted in md5(doc_id)
    order (content-addressed, cluster-size independent) until the
    source's RUNNING token total first reaches the budget. The doc that
    crosses the boundary is kept (budgets are soft caps, matching how
    mixture builders fill quotas), everything after it is dropped.

    Scale shape: only (doc_id, source, n_tokens, md5) rows move, salted
    on the source key; per-partition vectorized cumsum; text never
    ships. Full SQL oracle: the same window cumsum
    (SUM OVER PARTITION BY source ORDER BY md5, doc_id) — integer
    arithmetic on both sides. Returns
    (source, doc_id, cum_tokens) for kept docs."""
    from open_parse_ray.stages.dedup import salted_groupby

    ds = read_documents(sf_dir, columns=["doc_id", "source", "text"])

    def keyed(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"].astype("int64"),
                "source": b["source"],
                "n_tokens": np.array(
                    [n_tokens_sql_semantics(t) for t in b["text"]], dtype=np.int64
                ),
                "h": [
                    hashlib.md5(str(int(d)).encode("ascii")).hexdigest()
                    for d in b["doc_id"]
                ],
            }
        )

    def fill(part: pd.DataFrame) -> pd.DataFrame:
        g = part.sort_values(["source", "h", "doc_id"])
        cum = g.groupby("source")["n_tokens"].cumsum().to_numpy(dtype=np.int64)
        # keep while the total BEFORE this doc is under budget
        # (equivalently: cum - n_tokens < budget) → boundary doc kept
        keep = (cum - g["n_tokens"].to_numpy(dtype=np.int64)) < budget_tokens
        out = pd.DataFrame(
            {
                "source": g["source"].to_numpy()[keep],
                "doc_id": g["doc_id"].to_numpy(dtype=np.int64)[keep],
                "cum_tokens": cum[keep],
            }
        )
        return out.astype({"doc_id": "int64", "cum_tokens": "int64"})

    return salted_groupby(
        ds.map_batches(keyed, batch_format="pandas", batch_size=8192),
        "source",
        fill,
    )


def corpus_report(sf_dir: str):
    """Corpus DATA CARD in ONE streaming pass: doc/char/token totals,
    blank count, char extremes, the sorted language vocabulary and the
    distinct-source count — every statistic fused into a single
    per-batch partial row (no second scan per metric, the multi-
    aggregate fusion a 100-TB report job needs), combined on one final
    block. Distinct sets ride the partials as sorted comma-joined
    strings (bounded vocabularies: langs, sources). Returns one row
    (n_docs, total_chars, total_tokens, n_blank, max_chars, min_chars,
    langs, n_sources) — full one-row SQL oracle."""
    ds = read_documents(sf_dir, columns=["text", "lang", "source", "n_chars"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return pd.DataFrame(
                {
                    c: pd.Series([], dtype="int64")
                    for c in (
                        "n_docs", "total_chars", "total_tokens",
                        "n_blank", "max_chars", "min_chars",
                    )
                }
                | {"langs": pd.Series([], dtype=object),
                   "sources": pd.Series([], dtype=object)}
            )
        toks = np.array([n_tokens_sql_semantics(t) for t in b["text"]], dtype=np.int64)
        chars = b["n_chars"].to_numpy(dtype=np.int64)
        return pd.DataFrame(
            {
                "n_docs": [np.int64(len(b))],
                "total_chars": [chars.sum()],
                "total_tokens": [toks.sum()],
                "n_blank": [np.int64((toks == 0).sum())],
                "max_chars": [chars.max()],
                "min_chars": [chars.min()],
                "langs": [",".join(sorted(set(b["lang"])))],
                "sources": [",".join(sorted(set(b["source"])))],
            }
        )

    def combine(b: pd.DataFrame) -> pd.DataFrame:
        langs = sorted(set(",".join(b["langs"]).split(",")))
        sources = set(",".join(b["sources"]).split(","))
        return pd.DataFrame(
            {
                "n_docs": [np.int64(b["n_docs"].sum())],
                "total_chars": [np.int64(b["total_chars"].sum())],
                "total_tokens": [np.int64(b["total_tokens"].sum())],
                "n_blank": [np.int64(b["n_blank"].sum())],
                "max_chars": [np.int64(b["max_chars"].max())],
                "min_chars": [np.int64(b["min_chars"].min())],
                "langs": [",".join(langs)],
                "n_sources": [np.int64(len(sources))],
            }
        )

    return (
        ds.map_batches(partial, batch_format="pandas", batch_size=8192)
        .repartition(1)
        .map_batches(combine, batch_format="pandas", batch_size=None)
    )

def frequent_term_pairs(sf_dir: str, min_df: int = 100, min_pair: int = 320):
    """Exact distributed frequent-itemset mining at size 2 (the SON /
    a-priori shape): every unordered pair of terms that co-occurs in at
    least ``min_pair`` documents, where BOTH terms individually appear
    in at least ``min_df`` documents. The a-priori pruning is what makes
    the pair space tractable at corpus scale: candidate pairs are drawn
    only from the frequent-term set, never from the raw vocabulary.

    Scale shape, two passes:
    - Pass 1 = document frequency per term (one row per (doc, term),
      term-salted exchange, group-size — the tfidf_top_terms df trick),
      filtered to df >= min_df. The surviving set is driver-bounded by
      construction: sum(df) <= total (doc, term) rows, so
      |frequent| <= rows / min_df — the threshold is the bound knob
      (same argument as heavy_hitter_terms). Broadcast via ray.put.
    - Pass 2 = per batch, each doc's distinct terms intersect the
      broadcast set (sorted), emitting C(k,2) candidate pairs with
      k <= |frequent-in-doc| — then bounded per-(pair) count partials
      inside the pair-salted exchange, thresholded at min_pair.

    Returns (term_a, term_b, n_docs), term_a < term_b."""
    import ray
    import ray.data as rd

    from open_parse_ray.stages.dedup import salted_groupby

    ds = read_documents(sf_dir, columns=["doc_id", "text"])

    def dt_rows(b: pd.DataFrame) -> pd.DataFrame:
        doc_ids, terms = [], []
        for d, t in zip(b["doc_id"].to_numpy(), b["text"]):
            t = t.strip()
            if not t:
                continue
            uniq = set(_WS_SPLIT.split(t))
            doc_ids.extend([int(d)] * len(uniq))
            terms.extend(uniq)
        return pd.DataFrame(
            {"doc_id": np.asarray(doc_ids, dtype=np.int64), "term": terms}
        )

    dt = ds.map_batches(dt_rows, batch_format="pandas", batch_size=8192)

    def df_filter(part: pd.DataFrame) -> pd.DataFrame:
        g = part.groupby("term", as_index=False).agg(df=("doc_id", "size"))
        return g[g["df"] >= min_df][["term"]]

    freq = sorted(
        r["term"]
        for r in salted_groupby(dt, "term", df_filter).take_all()
    )
    freq_ref = ray.put(frozenset(freq))

    def pair_rows(b: pd.DataFrame) -> pd.DataFrame:
        fs = ray.get(freq_ref)
        chunks_a, chunks_b = [], []
        for t in b["text"]:
            t = t.strip()
            if not t:
                continue
            present = np.array(sorted(set(_WS_SPLIT.split(t)) & fs), dtype=object)
            if len(present) < 2:
                continue
            ia, ib = np.triu_indices(len(present), k=1)
            chunks_a.append(present[ia])
            chunks_b.append(present[ib])
        if not chunks_a:
            return pd.DataFrame(
                {
                    "term_a": pd.Series(dtype="object"),
                    "term_b": pd.Series(dtype="object"),
                    "n_docs": pd.Series(dtype="int64"),
                }
            )
        # bounded per-batch partial: collapse repeats before the exchange
        p = pd.DataFrame(
            {"term_a": np.concatenate(chunks_a), "term_b": np.concatenate(chunks_b)}
        )
        return p.groupby(["term_a", "term_b"], as_index=False).agg(
            n_docs=("term_a", "size")
        )

    pairs = ds.map_batches(pair_rows, batch_format="pandas", batch_size=8192)

    def count_filter(part: pd.DataFrame) -> pd.DataFrame:
        g = part.groupby(["term_a", "term_b"], as_index=False).agg(
            n_docs=("n_docs", "sum")
        )
        g = g[g["n_docs"] >= min_pair]
        return g.astype({"n_docs": "int64"})

    return salted_groupby(
        pairs,
        lambda t: pd.util.hash_pandas_object(
            t["term_a"].to_pandas() + "\x00" + t["term_b"].to_pandas(), index=False
        ).astype("int64"),
        count_filter,
    )


def inverted_index(sf_dir: str, shard_size: int = 128):
    """SHARDED inverted index: (term, shard, df, postings) where
    ``shard = doc_id // shard_size`` range-buckets the posting list and
    ``postings`` is the comma-joined ascending doc_id list within the
    shard. Sharding is the scale move: a stopword's posting list is
    O(corpus) and would otherwise pin one partition (and one output
    string) to the full document count — bucketing by doc range spreads
    every hot term across shards, each assembled independently inside a
    (term, shard)-salted partition, and readers reconstruct the full
    list by concatenating shards in shard order. Per-batch kernels emit
    per-doc DISTINCT terms only (a doc lives in exactly one input row,
    so (term, shard) groups are disjoint across batches and assembly is
    exact). The reference's retrieval surface is per-node embeddings
    (semantic_transforms.py:20-68); this is the sparse-retrieval scale
    analog (the index behind bm25_lite_topk's scoring)."""
    from open_parse_ray.stages.dedup import salt_of_key, salted_groupby

    ds = read_documents(sf_dir, columns=["doc_id", "text"])

    def pairs(b: pd.DataFrame) -> pd.DataFrame:
        terms: list = []
        docs: list = []
        for did, t in zip(b["doc_id"], b["text"]):
            t = t.strip()
            if not t:
                continue
            uniq = set(_WS_SPLIT.split(t))
            terms.extend(uniq)
            docs.extend([did] * len(uniq))
        doc = np.asarray(docs, dtype=np.int64)
        return pd.DataFrame(
            {
                "term": terms,
                "doc_id": doc,
                "shard": doc // np.int64(shard_size),
            }
        )

    pr = ds.map_batches(pairs, batch_format="pandas", batch_size=8192)

    def assemble(part: pd.DataFrame) -> pd.DataFrame:
        if len(part) == 0:
            return pd.DataFrame(
                {
                    "term": pd.Series([], dtype="object"),
                    "shard": pd.Series([], dtype="int64"),
                    "df": pd.Series([], dtype="int64"),
                    "postings": pd.Series([], dtype="object"),
                }
            )
        part = part.sort_values(["term", "shard", "doc_id"])
        g = part.groupby(["term", "shard"], as_index=False, sort=False).agg(
            df=("doc_id", "size"),
            postings=("doc_id", lambda s: ",".join(map(str, s))),
        )
        return g.astype({"shard": "int64", "df": "int64"})

    def salt(t: "pa.Table") -> np.ndarray:
        return salt_of_key(t, "term") * 31 + t["shard"].to_numpy()

    return salted_groupby(pr, salt, assemble)


def distinctive_terms_by_lang(sf_dir: str, k: int = 10):
    """Per-language DISTINCTIVE terms (corpus keyness): for each (lang,
    term) build the 2x2 document contingency table (a = lang docs with
    term, b = lang docs without, c = other docs with term, d = rest) and
    rank by the determinant ``score = a*d - b*c`` — an exact-integer
    association statistic that orders like chi-square/G2 for fixed
    margins but never touches a float (the repo's hash-comparable
    requirement; products are bounded by N² and asserted to fit int64 —
    a 10^12-doc corpus needs HUGEINT on both sides, never a silent
    float fallback). Plan: per-doc DISTINCT (term, lang) partials; the
    per-lang doc totals are a bounded partial reduce broadcast as a
    dict; inside the term-salted partition df(term) is the sum of the
    term's own lang rows (no df side-join — the tfidf_top_terms rule),
    so every cell of the table is local; positive-score survivors take
    a second lang-salted exchange for the top-k rank. Returns
    (lang, rank, term, score)."""
    from collections import Counter

    import ray

    from open_parse_ray.stages.dedup import salted_groupby

    ds = read_documents(sf_dir, columns=["lang", "text"])

    # bounded per-lang doc totals (langs are a small closed set)
    def lang_partial(b: pd.DataFrame) -> pd.DataFrame:
        nz = b["text"].str.strip() != ""
        vc = b.loc[nz, "lang"].value_counts()
        return pd.DataFrame(
            {"lang": vc.index, "n": vc.to_numpy().astype(np.int64)}
        )

    lt = (
        ds.map_batches(lang_partial, batch_format="pandas", batch_size=8192)
        .to_pandas()
        .groupby("lang")["n"]
        .sum()
    )
    n_lang = {str(k_): int(v) for k_, v in lt.items()}
    n_total = int(lt.sum())
    assert n_total < 3_000_000_000, "a*d product needs HUGEINT beyond ~3e9 docs"
    lang_ref = ray.put((n_lang, n_total))

    def pair_partial(b: pd.DataFrame) -> pd.DataFrame:
        c: Counter = Counter()
        for lg, t in zip(b["lang"], b["text"]):
            t = t.strip()
            if not t:
                continue
            for term in set(_WS_SPLIT.split(t)):
                c[(term, lg)] += 1
        ks = list(c.keys())
        return pd.DataFrame(
            {
                "term": [x[0] for x in ks],
                "lang": [x[1] for x in ks],
                "a": np.asarray(list(c.values()), dtype=np.int64),
            }
        )

    pr = ds.map_batches(pair_partial, batch_format="pandas", batch_size=8192)

    def score_part(part: pd.DataFrame) -> pd.DataFrame:
        if len(part) == 0:
            return pd.DataFrame(
                {
                    "lang": pd.Series([], dtype="object"),
                    "term": pd.Series([], dtype="object"),
                    "score": pd.Series([], dtype="int64"),
                }
            )
        nl, n = ray.get(lang_ref)
        g = part.groupby(["term", "lang"], as_index=False)["a"].sum()
        df = g.groupby("term")["a"].transform("sum").to_numpy(dtype=np.int64)
        a = g["a"].to_numpy(dtype=np.int64)
        nlv = g["lang"].map(nl).to_numpy(dtype=np.int64)
        b_ = nlv - a
        c_ = df - a
        d_ = (n - nlv) - c_
        score = a * d_ - b_ * c_
        out = pd.DataFrame({"lang": g["lang"], "term": g["term"], "score": score})
        return out[out["score"] > 0].reset_index(drop=True)

    cand = salted_groupby(pr, "term", score_part)

    def rank_topk(part: pd.DataFrame) -> pd.DataFrame:
        g = part.sort_values(
            ["lang", "score", "term"], ascending=[True, False, True]
        )
        g = g.assign(rank=(g.groupby("lang").cumcount() + 1).astype("int64"))
        g = g[g["rank"] <= k]
        return g[["lang", "rank", "term", "score"]].astype({"score": "int64"})

    return salted_groupby(cand, "lang", rank_topk)


def _bigrams(t: str) -> set:
    """Per-doc distinct word bigrams, whitespace tokenization — the
    exact twin of the oracle's list_transform(a[i] || ' ' || a[i+1])."""
    w = _WS_SPLIT.split(t.strip())
    if len(w) < 2 or w == [""]:
        return set()
    return {w[i] + " " + w[i + 1] for i in range(len(w) - 1)}


def _bigram_hashes128(t: str):
    """Per-doc distinct-bigram 128-bit fingerprints as two int64 arrays
    (the table_profile lesson: a 64-bit half birthday-collides at
    corpus scale, so gains could silently drift vs the string-exact SQL
    oracle). Hash identity stands in for string identity everywhere
    downstream — counts and set unions commute with the bijection up to
    a 2^-128 collision."""
    bs = _bigrams(t)
    h1 = np.empty(len(bs), dtype=np.int64)
    h2 = np.empty(len(bs), dtype=np.int64)
    for i, s in enumerate(bs):
        h1[i], h2[i] = _tri_hash128(s)
    return h1, h2


def _pair_member(h1, h2, cov1s, cov2s):
    """Vectorized exact membership of (h1, h2) int64 PAIRS against a
    covered set pre-sorted by lexsort((h2, h1)): one searchsorted pair
    on the first halves resolves almost every query (runs of length 0
    or 1 — h1 collisions inside the small covered set are ~never), and
    the rare longer run falls back to a bounded inner searchsorted.
    Never collapses the pair to 64 bits."""
    n = len(h1)
    member = np.zeros(n, dtype=bool)
    if len(cov1s) == 0 or n == 0:
        return member
    lo = np.searchsorted(cov1s, h1, side="left")
    hi = np.searchsorted(cov1s, h1, side="right")
    one = (hi - lo) == 1
    member[one] = cov2s[lo[one]] == h2[one]
    for i in np.flatnonzero((hi - lo) > 1):
        j = lo[i] + np.searchsorted(cov2s[lo[i] : hi[i]], h2[i])
        member[i] = j < hi[i] and cov2s[j] == h2[i]
    return member


def greedy_cover_docs(sf_dir: str, k: int = 8):
    """Greedy SET-COVER corpus selection — pick up to ``k`` documents
    that maximize marginal coverage of the word-BIGRAM universe (the
    classic (1-1/e) submodular-maximization greedy, the
    coreset/data-selection primitive: "which k docs teach the most new
    constructions"; bigrams, not unigrams, because this corpus's
    unigram vocabulary saturates in one pick).

    Scale shape (the mmr_select_docs pattern): ONE tokenize pass builds
    a materialized per-doc fingerprint table — (doc_id, nbig, two
    16·nbig-byte blobs of distinct-bigram 128-bit hashes) — and every
    round scores fingerprints, never text. Round r: every block
    concatenates its blobs into flat arrays, counts covered hits
    against the broadcast sorted covered set with one vectorized
    searchsorted pass + np.add.reduceat per doc, and emits ONE
    max-composite row (the largest_doc_by_group argmax idiom:
    gain·2^40 + (2^40-1-doc_id), so ties take the smallest id); the
    winner's term set comes from a doc_id-pushdown parquet scan of that
    ONE doc and extends the covered set. Zero exchanges — k slim scans
    with a 1-row-per-block reduce each; the broadcast covered set is
    bounded by k × max-terms-per-doc, independent of corpus size; text
    is never materialized and never re-tokenized. Docs with zero
    marginal gain are never selected (selection stops early when
    coverage saturates). Returns (round, doc_id, gain, covered_total)."""
    import pyarrow.dataset as pads
    import ray
    import ray.data as rd

    def fp_rows(b: pd.DataFrame) -> pd.DataFrame:
        ids = b["doc_id"].to_numpy(dtype=np.int64)
        nbig = np.empty(len(ids), dtype=np.int64)
        b1, b2 = [], []
        for i, t in enumerate(b["text"]):
            h1, h2 = _bigram_hashes128(t)
            nbig[i] = len(h1)
            b1.append(h1.tobytes())
            b2.append(h2.tobytes())
        return pd.DataFrame(
            {"doc_id": ids, "nbig": nbig, "b1": b1, "b2": b2}
        )

    fp = (
        read_documents(sf_dir, columns=["doc_id", "text"])
        .map_batches(fp_rows, batch_format="pandas", batch_size=4096)
        .materialize()
    )

    cov1s = np.empty(0, dtype=np.int64)
    cov2s = np.empty(0, dtype=np.int64)
    chosen: list = []
    rows = []
    for rnd in range(1, k + 1):
        cov_ref = ray.put((cov1s, cov2s))
        sel_ref = ray.put(np.asarray(sorted(chosen), dtype=np.int64))

        def score(b: pd.DataFrame) -> pd.DataFrame:
            c1, c2 = ray.get(cov_ref)
            sel = ray.get(sel_ref)
            ids = b["doc_id"].to_numpy(dtype=np.int64)
            nbig = b["nbig"].to_numpy(dtype=np.int64)
            keep = (nbig > 0) & ~np.isin(ids, sel)
            if not keep.any():
                return pd.DataFrame({"comp": pd.Series([], dtype="int64")})
            ids, nbig = ids[keep], nbig[keep]
            blobs1, blobs2 = b["b1"].to_numpy()[keep], b["b2"].to_numpy()[keep]
            h1 = np.frombuffer(b"".join(blobs1), dtype=np.int64)
            h2 = np.frombuffer(b"".join(blobs2), dtype=np.int64)
            offs = np.concatenate(([0], np.cumsum(nbig)[:-1]))
            hit = _pair_member(h1, h2, c1, c2).astype(np.int64)
            gain = nbig - np.add.reduceat(hit, offs)
            pos = gain > 0
            if not pos.any():
                return pd.DataFrame({"comp": pd.Series([], dtype="int64")})
            g, d = gain[pos], ids[pos]
            assert int(g.max()) < (1 << 23) and 0 <= int(d.max()) < (1 << 40)
            comp = (g << 40) | ((1 << 40) - 1 - d)
            return pd.DataFrame(
                {"comp": np.asarray([comp.max()], dtype=np.int64)}
            )

        got = (
            fp.map_batches(score, batch_format="pandas", batch_size=8192)
            .to_pandas()
        )
        if len(got) == 0:
            break
        comp = int(got["comp"].max())
        gain = comp >> 40
        winner = (1 << 40) - 1 - (comp & ((1 << 40) - 1))
        wtext = (
            rd.read_parquet(
                table_path(sf_dir, "documents"),
                columns=["text"],
                filter=pads.field("doc_id") == winner,
            )
            .to_pandas()["text"]
            .iloc[0]
        )
        w1, w2 = _bigram_hashes128(wtext)
        a1 = np.concatenate([cov1s, w1])
        a2 = np.concatenate([cov2s, w2])
        order = np.lexsort((a2, a1))
        a1, a2 = a1[order], a2[order]
        dup = np.zeros(len(a1), dtype=bool)
        dup[1:] = (a1[1:] == a1[:-1]) & (a2[1:] == a2[:-1])
        cov1s, cov2s = a1[~dup], a2[~dup]
        chosen.append(winner)
        rows.append((rnd, winner, gain, len(cov1s)))

    return rd.from_pandas(
        pd.DataFrame(
            {
                "round": np.asarray([r[0] for r in rows], dtype=np.int64),
                "doc_id": np.asarray([r[1] for r in rows], dtype=np.int64),
                "gain": np.asarray([r[2] for r in rows], dtype=np.int64),
                "covered_total": np.asarray([r[3] for r in rows], dtype=np.int64),
            }
        )
    )


def greedy_cover_oracle_sql(k: int = 8) -> str:
    """Unrolled-CTE DuckDB mirror of greedy_cover_docs: per round a
    (score, pick, covered-union, selected-set) MATERIALIZED CTE block
    over the same per-doc DISTINCT word-bigram table and the same
    (gain DESC, doc_id) tie rule;
    zero-gain docs drop out of the score CTE exactly as the kernel
    skips them, so saturation stops both sides identically."""
    parts = [
        r"""
        WITH arr AS MATERIALIZED (
          SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS a
          FROM documents WHERE trim(text) <> ''
        ),
        w AS MATERIALIZED (
          SELECT DISTINCT doc_id,
                 unnest(list_transform(generate_series(1, len(a) - 1),
                                       i -> a[i] || ' ' || a[i + 1])) AS term
          FROM arr WHERE len(a) >= 2
        ),
        c0 AS MATERIALIZED (SELECT CAST(NULL AS VARCHAR) AS term WHERE 1 = 0),
        picks0 AS MATERIALIZED (SELECT CAST(NULL AS BIGINT) AS doc_id WHERE 1 = 0)"""
    ]
    for r in range(1, k + 1):
        parts.append(
            f""",
        s{r} AS MATERIALIZED (
          SELECT doc_id, count(*) AS gain
          FROM w
          WHERE term NOT IN (SELECT term FROM c{r - 1})
            AND doc_id NOT IN (SELECT doc_id FROM picks{r - 1})
          GROUP BY doc_id
        ),
        p{r} AS MATERIALIZED (
          SELECT doc_id, gain FROM s{r} ORDER BY gain DESC, doc_id LIMIT 1
        ),
        c{r} AS MATERIALIZED (
          SELECT term FROM c{r - 1}
          UNION
          SELECT term FROM w WHERE doc_id IN (SELECT doc_id FROM p{r})
        ),
        picks{r} AS MATERIALIZED (
          SELECT doc_id FROM picks{r - 1}
          UNION ALL
          SELECT doc_id FROM p{r}
        )"""
        )
    selects = [
        f"""SELECT CAST({r} AS BIGINT) AS round, CAST(doc_id AS BIGINT) AS doc_id,
               CAST(gain AS BIGINT) AS gain,
               CAST((SELECT count(*) FROM c{r}) AS BIGINT) AS covered_total
        FROM p{r}"""
        for r in range(1, k + 1)
    ]
    parts.append("\n" + "\nUNION ALL\n".join(selects))
    return "".join(parts)


# splitmix64 constants — the shared priority-hash spec for
# weighted_priority_sample; the SQL oracle mirrors these digit-for-digit
# in HUGEINT arithmetic (multiplies split into 32-bit halves so every
# intermediate fits int128).
_SM_ADD = 0x9E3779B97F4A7C15
_SM_M1 = 0xBF58476D1CE4E5B9
_SM_M2 = 0x94D049BB133111EB


def _splitmix63(ids: np.ndarray) -> np.ndarray:
    """splitmix64 of each id, top 63 bits (>> 1) as int64 — a full-period
    mixer (every finalizer stage is a bijection on Z_2^64), so priorities
    are uniform and collision-free per id. numpy uint64 arithmetic wraps
    mod 2^64 by definition, which IS the spec."""
    z = ids.astype(np.uint64) + np.uint64(_SM_ADD)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_SM_M1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_SM_M2)
    z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(1)).astype(np.int64)


def weighted_priority_sample(sf_dir: str, k: int = 200):
    """Deterministic WEIGHTED sampling without replacement (priority
    sampling, the integer-exact cousin of A-ES reservoir sampling):
    each doc gets priority = h63(doc_id) // w with w = n_chars + 1, and
    the sample is the k globally smallest (priority, h63, doc_id)
    triples — larger weights divide the uniform hash down, so heavy
    docs win proportionally more often, with no RNG state and no
    full sort: every block forwards only its LOCAL top-k (the global
    top-k is a subset of the union of local top-ks), so k·n_blocks
    fixed-width rows reach the single merge block regardless of corpus
    size. Returns (doc_id, priority, w).

    Reference pairing: the corpus-scale sampling family next to
    sample_documents / stratified_sample (reference has no sampling;
    this is the training-data mixture primitive)."""
    import ray.data as rd

    ds = rd.read_parquet(
        table_path(sf_dir, "documents"), columns=["doc_id", "n_chars"]
    )

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return pd.DataFrame(
                {
                    "doc_id": pd.Series([], dtype="int64"),
                    "priority": pd.Series([], dtype="int64"),
                    "w": pd.Series([], dtype="int64"),
                }
            )
        ids = b["doc_id"].to_numpy(dtype=np.int64)
        w = b["n_chars"].to_numpy(dtype=np.int64) + 1
        h = _splitmix63(ids)
        pr = h // w
        order = np.lexsort((ids, h, pr))[:k]
        return pd.DataFrame(
            {"doc_id": ids[order], "priority": pr[order], "w": w[order]}
        )

    partials = ds.map_batches(partial, batch_format="pandas", batch_size=65536)

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return b
        h = _splitmix63(b["doc_id"].to_numpy(dtype=np.int64))
        order = np.lexsort(
            (b["doc_id"].to_numpy(), h, b["priority"].to_numpy())
        )[:k]
        return b.iloc[order].reset_index(drop=True)

    return partials.repartition(1).map_batches(
        finish, batch_format="pandas", batch_size=None
    )


def _sql_mul64(a: str, c: int) -> str:
    """(a * c) mod 2^64 over HUGEINT with the constant split into 32-bit
    halves so no intermediate exceeds int128."""
    lo, hi = c % 4294967296, c // 4294967296
    m64 = "18446744073709551616"
    return (
        f"((({a}) * {lo}) % {m64}"
        f" + ((({a}) * {hi}) % 4294967296) * 4294967296) % {m64}"
    )


def weighted_priority_sample_oracle_sql(k: int = 200) -> str:
    """DuckDB mirror of weighted_priority_sample: splitmix64 unrolled in
    HUGEINT mod-2^64 arithmetic (xor/shift-as-division are exact on
    non-negative HUGEINT), then the identical integer priority order."""
    m64 = "18446744073709551616"
    s1 = _sql_mul64("xor(z, z // 1073741824)", _SM_M1)
    s2 = _sql_mul64("xor(z, z // 134217728)", _SM_M2)
    return f"""
        WITH s0 AS (
          SELECT doc_id, CAST(n_chars + 1 AS BIGINT) AS w,
                 (CAST(doc_id AS HUGEINT) + {_SM_ADD}) % {m64} AS z
          FROM documents
        ),
        s1 AS (SELECT doc_id, w, {s1} AS z FROM s0),
        s2 AS (SELECT doc_id, w, {s2} AS z FROM s1),
        s3 AS (SELECT doc_id, w,
                      CAST(xor(z, z // 2147483648) // 2 AS BIGINT) AS h63
               FROM s2)
        SELECT doc_id, h63 // w AS priority, w
        FROM s3
        ORDER BY priority, h63, doc_id
        LIMIT {k}
    """


_TRI_HASH_CACHE: dict = {}


def _tri_hash128(s: str):
    """(hi, lo) int64 pair from md5 of an n-gram string, memoized with a
    bounded module cache (repeated n-grams across docs are the common
    case — boilerplate lines dominate web corpora)."""
    import hashlib

    v = _TRI_HASH_CACHE.get(s)
    if v is None:
        d = hashlib.md5(s.encode()).digest()
        v = (
            int.from_bytes(d[:8], "big", signed=True),
            int.from_bytes(d[8:], "big", signed=True),
        )
        if len(_TRI_HASH_CACHE) < 1_000_000:
            _TRI_HASH_CACHE[s] = v
    return v


def doc_ngram_novelty(sf_dir: str, n: int = 3):
    """Per-doc n-gram NOVELTY — the memorization/contamination metric:
    for each document, how many of its distinct word n-grams appear in
    NO other document (corpus df == 1) vs how many distinct n-grams it
    has at all. High unique-fraction = novel text; low = boilerplate or
    near-copies. Returns (doc_id, n_trigrams, n_unique) with a row for
    every doc (short docs get 0/0).

    Scale shape: one tokenize pass emits per-doc-distinct 16-byte
    n-gram fingerprints PLUS one tagged per-doc total row (h1 = -1) —
    the per-doc total is exact without a second scan because each doc
    lives in exactly one input row. One fingerprint-salted exchange
    computes df per n-gram inside its co-located partition and
    collapses df==1 hits to per-doc partial counts (the n-gram table
    never leaves its partition); one doc-salted exchange sums the two
    tagged row kinds into the final pair. Text never shuffles; exchange
    rows are 32 bytes. df is additive-free (computed whole inside one
    partition), so skewed n-grams concentrate work but never split."""
    from open_parse_ray.stages.dedup import salted_groupby

    ds = read_documents(sf_dir, columns=["doc_id", "text"])

    def tri_rows(b: pd.DataFrame) -> pd.DataFrame:
        ids, h1s, h2s, tots = [], [], [], []
        for did, t in zip(b["doc_id"].to_numpy(np.int64), b["text"]):
            d = int(did)
            t = t.strip()
            tris = set()
            if t:
                w = _WS_SPLIT.split(t)
                for i in range(len(w) - n + 1):
                    tris.add(" ".join(w[i : i + n]))
            for s in tris:
                h1, h2 = _tri_hash128(s)
                ids.append(d)
                h1s.append(h1)
                h2s.append(h2)
                tots.append(0)
            ids.append(d)  # tagged per-doc total row
            h1s.append(-1)
            h2s.append(-1)
            tots.append(len(tris))
        return pd.DataFrame(
            {
                "doc_id": np.asarray(ids, dtype=np.int64),
                "h1": np.asarray(h1s, dtype=np.int64),
                "h2": np.asarray(h2s, dtype=np.int64),
                "tot": np.asarray(tots, dtype=np.int64),
            }
        )

    rows = ds.map_batches(tri_rows, batch_format="pandas", batch_size=4096)

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        is_tot = g["h1"].values == -1
        out = [
            pd.DataFrame(
                {
                    "doc_id": g["doc_id"].values[is_tot],
                    "n_trigrams": g["tot"].values[is_tot],
                    "n_unique": np.zeros(int(is_tot.sum()), dtype=np.int64),
                }
            )
        ]
        tri = g[~is_tot]
        if len(tri):
            df = tri.groupby(["h1", "h2"])["doc_id"].transform("size")
            hit = tri[df.values == 1]
            if len(hit):
                u = hit.groupby("doc_id").size()
                out.append(
                    pd.DataFrame(
                        {
                            "doc_id": u.index.to_numpy(dtype=np.int64),
                            "n_trigrams": np.zeros(len(u), dtype=np.int64),
                            "n_unique": u.to_numpy(dtype=np.int64),
                        }
                    )
                )
        return pd.concat(out, ignore_index=True)

    def salt1(t: "pa.Table") -> np.ndarray:
        h1 = t["h1"].to_numpy()
        # total rows (h1 == -1) route by doc_id so no partition drowns
        return np.abs(np.where(h1 == -1, _splitmix63(t["doc_id"].to_numpy()), h1))

    partials = salted_groupby(rows, salt1, per_part)

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        f = g.groupby("doc_id", as_index=False).agg(
            n_trigrams=("n_trigrams", "sum"), n_unique=("n_unique", "sum")
        )
        return f.astype(
            {"doc_id": "int64", "n_trigrams": "int64", "n_unique": "int64"}
        )

    return salted_groupby(
        partials, lambda t: np.abs(_splitmix63(t["doc_id"].to_numpy())), finish
    )


DOC_NGRAM_NOVELTY_SQL = """
    WITH w AS (
      SELECT doc_id, regexp_split_to_array(trim(text), '\\s+') AS ws
      FROM documents WHERE trim(text) <> ''
    ),
    pos AS (
      SELECT doc_id, ws, unnest(generate_series(1, len(ws) - 2)) AS i
      FROM w
    ),
    tri AS (
      SELECT DISTINCT doc_id,
             ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2] AS tri
      FROM pos
    ),
    df AS (
      SELECT tri, count(*) AS df FROM tri GROUP BY tri
    ),
    per AS (
      SELECT t.doc_id,
             count(*) AS n_trigrams,
             sum(CASE WHEN f.df = 1 THEN 1 ELSE 0 END) AS n_unique
      FROM tri t JOIN df f USING (tri)
      GROUP BY t.doc_id
    )
    SELECT d.doc_id,
           CAST(coalesce(p.n_trigrams, 0) AS BIGINT) AS n_trigrams,
           CAST(coalesce(p.n_unique, 0) AS BIGINT) AS n_unique
    FROM documents d LEFT JOIN per p USING (doc_id)
"""
