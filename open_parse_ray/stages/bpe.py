"""Distributed BPE tokenizer training (learn merge rules from the
corpus) — the vocabulary-construction step of a training-data pipeline
(Sennrich et al. 2016, arXiv:1508.07909). The reference only COUNTS
tokens with a fixed encoder (utils.py:6-10); learning the merges is the
upstream job a 100-TB pipeline runs once per corpus.

Two-level shape (the reason BPE training scales at all):

1. ONE corpus pass builds the WORD-FREQUENCY table — per-batch partial
   counts, then a salted word exchange (fine-grained keys → bounded
   partitions, dedup.salted_groupby rationale). The corpus is never
   touched again: 10^12 documents collapse to ~10^8 distinct words.
2. Each of the ``n_merges`` iterations streams only the vocab table:
   every word is segmented with the CURRENT merge list (broadcast via
   ray.put), and adjacent-symbol pair counts (weighted by word
   frequency) flow up as bounded partials — the pair space is
   (symbol vocabulary)², ≤ (distinct chars + merges done)², so the
   driver's argmax table stays tiny no matter the corpus. Ties break
   (count DESC, left ASC, right ASC) — fully deterministic.

Integer counts → order-independent → bit-reproducible at any block
structure. No SQL oracle (iterative rewriting isn't SQL-expressible);
pytest-gated by equality against a single-process reference trainer
over the same word counts, plus block-structure invariance.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np
import pandas as pd


def apply_merges(symbols: Tuple[str, ...], rank_of: Dict[Tuple[str, str], int]) -> Tuple[str, ...]:
    """Segment by repeatedly merging the LOWEST-rank adjacent pair
    (all its occurrences, left to right) — GPT-2-style apply."""
    while len(symbols) >= 2:
        best_rank = None
        best_pair = None
        for i in range(len(symbols) - 1):
            r = rank_of.get((symbols[i], symbols[i + 1]))
            if r is not None and (best_rank is None or r < best_rank):
                best_rank = r
                best_pair = (symbols[i], symbols[i + 1])
        if best_pair is None:
            break
        merged = best_pair[0] + best_pair[1]
        out: List[str] = []
        i = 0
        while i < len(symbols):
            if i < len(symbols) - 1 and (symbols[i], symbols[i + 1]) == best_pair:
                out.append(merged)
                i += 2
            else:
                out.append(symbols[i])
                i += 1
        symbols = tuple(out)
    return symbols


def _pair_counts_of_vocab(words: List[str], counts: np.ndarray, rank_of: Dict) -> Dict[Tuple[str, str], int]:
    acc: Dict[Tuple[str, str], int] = {}
    for w, n in zip(words, counts):
        syms = apply_merges(tuple(w), rank_of)
        for a, b in zip(syms, syms[1:]):
            acc[(a, b)] = acc.get((a, b), 0) + int(n)
    return acc


def train_bpe_local(word_counts: Dict[str, int], n_merges: int) -> List[Tuple[str, str, int]]:
    """Single-process reference trainer (the pytest oracle)."""
    words = list(word_counts)
    counts = np.array([word_counts[w] for w in words], dtype=np.int64)
    merges: List[Tuple[str, str, int]] = []
    rank_of: Dict[Tuple[str, str], int] = {}
    for _ in range(n_merges):
        acc = _pair_counts_of_vocab(words, counts, rank_of)
        if not acc:
            break
        best = min(acc.items(), key=lambda kv: (-kv[1], kv[0]))
        merges.append((best[0][0], best[0][1], best[1]))
        rank_of[best[0]] = len(rank_of)
    return merges


def word_counts(sf_dir: str):
    """Corpus word-frequency table: per-batch partial counts → salted
    word exchange → exact per-word sums. Returns (word, n)."""
    from open_parse_ray.stages.analysis import read_documents
    from open_parse_ray.stages.dedup import salted_groupby

    ds = read_documents(sf_dir, columns=["text"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        acc: Dict[str, int] = {}
        for t in b["text"]:
            for w in t.split():
                acc[w] = acc.get(w, 0) + 1
        return pd.DataFrame(
            {"word": list(acc.keys()), "n": np.fromiter(acc.values(), dtype=np.int64)}
        )

    def combine(part: pd.DataFrame) -> pd.DataFrame:
        return part.groupby("word", as_index=False).agg(n=("n", "sum"))

    partials = ds.map_batches(partial, batch_format="pandas", batch_size=8192)
    return salted_groupby(partials, "word", combine)


def learned_bpe_merges(sf_dir: str, n_merges: int = 24):
    """Learn ``n_merges`` BPE merge rules from the corpus. Returns a
    Dataset (rank:int64 1-based, left, right, n:int64) — bit-equal to
    train_bpe_local over the same word counts."""
    import ray
    import ray.data as rd

    from open_parse_ray.stages.relational import two_phase_agg

    vocab = word_counts(sf_dir).materialize()

    merges: List[Tuple[str, str, int]] = []
    rank_of: Dict[Tuple[str, str], int] = {}
    for _ in range(n_merges):
        ranks_ref = ray.put(dict(rank_of))

        def pair_partial(b: pd.DataFrame) -> pd.DataFrame:
            ro = ray.get(ranks_ref)
            acc = _pair_counts_of_vocab(
                list(b["word"]), b["n"].to_numpy(dtype=np.int64), ro
            )
            if not acc:
                return pd.DataFrame(
                    {
                        "left": pd.Series([], dtype="object"),
                        "right": pd.Series([], dtype="object"),
                        "n": pd.Series([], dtype="int64"),
                    }
                )
            ks = list(acc.keys())
            return pd.DataFrame(
                {
                    "left": [k[0] for k in ks],
                    "right": [k[1] for k in ks],
                    "n": np.fromiter(acc.values(), dtype=np.int64),
                }
            )

        pairs = two_phase_agg(
            vocab.map_batches(pair_partial, batch_format="pandas", batch_size=8192),
            ["left", "right"],
            {"n": "sum"},
        ).to_pandas()
        if len(pairs) == 0:
            break
        pairs = pairs.sort_values(
            ["n", "left", "right"], ascending=[False, True, True]
        ).reset_index(drop=True)
        best = pairs.iloc[0]
        merges.append((str(best["left"]), str(best["right"]), int(best["n"])))
        rank_of[(str(best["left"]), str(best["right"]))] = len(rank_of)

    return rd.from_pandas(
        pd.DataFrame(
            {
                "rank": np.arange(1, len(merges) + 1, dtype=np.int64),
                "left": [m[0] for m in merges],
                "right": [m[1] for m in merges],
                "n": np.array([m[2] for m in merges], dtype=np.int64),
            }
        )
    )


def bpe_tokenize_counts(sf_dir: str, n_merges: int = 16):
    """Close the tokenizer loop: learn the merges (one vocab job),
    broadcast the rank table, re-tokenize the corpus and count tokens
    per document — i.e. the length statistics a packing/curriculum
    stage would consume from the LEARNED tokenizer rather than the
    fixed BPE-regex analog in tokens.py. Per-doc segmentation memoizes
    per distinct word inside the batch (Zipf makes that ~free).
    Returns (doc_id, n_tokens_bpe, n_words). Pytest-gated: equality vs
    a single-process apply over the same merges."""
    import ray

    from open_parse_ray.stages.analysis import read_documents

    merges = learned_bpe_merges(sf_dir, n_merges=n_merges).to_pandas()
    rank_of = {
        (l, r): i for i, (l, r) in enumerate(zip(merges["left"], merges["right"]))
    }
    ranks_ref = ray.put(rank_of)

    def count(b: pd.DataFrame) -> pd.DataFrame:
        ro = ray.get(ranks_ref)
        memo: Dict[str, int] = {}
        n_tok, n_words = [], []
        for t in b["text"]:
            words = t.split()
            total = 0
            for w in words:
                c = memo.get(w)
                if c is None:
                    c = memo[w] = len(apply_merges(tuple(w), ro))
                total += c
            n_tok.append(total)
            n_words.append(len(words))
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"].astype("int64"),
                "n_tokens_bpe": np.asarray(n_tok, dtype=np.int64),
                "n_words": np.asarray(n_words, dtype=np.int64),
            }
        )

    return read_documents(sf_dir, columns=["doc_id", "text"]).map_batches(
        count, batch_format="pandas", batch_size=8192
    )
