"""Web-corpus URL operators: canonicalization, canonical-URL dedup, and
per-domain composition stats — the first dedup/quality pass every
Common-Crawl-style pipeline runs (the same crawl URL is fetched many
times with varying case, ports, fragments and tracking parameters).

Oracle strategy (the `pdf_extract_text` pattern): the driver's SQL
views carry no URL column, so both sides SYNTHESIZE the same messy URL
deterministically from (doc_id, source) — the Python side then has to
RECOVER the clean canonical form through the real parser/normalizer,
while the DuckDB oracle derives the expected canonical independently
(a closed-form expression over doc_id/source that never sees the messy
string). A hash match therefore proves the canonicalizer inverts every
perturbation variant.

Scale shape: canonicalization is a stateless per-row map (compiled
rules, no state); the dedup groupby ships (canonical, doc_id) rows
salted on hash(canonical) — bounded partitions at any corpus size;
domain stats collapse per batch to ≤|domains-in-block| partial rows
before the tiny final combine (bounded cardinality: registered domains
number ~10^8 ≪ 10^12 pages, and partials collapse per block anyway).
"""

from __future__ import annotations

from urllib.parse import parse_qsl, urlencode, urlsplit

from typing import Optional

import numpy as np
import pandas as pd

# Tracking parameters dropped by canonicalization (the usual
# analytics/click-id noise that multiplies crawl URLs).
_TRACKING_KEYS = {"fbclid", "gclid", "ref", "mc_cid", "mc_eid"}

_DEFAULT_PORTS = {"https": ":443", "http": ":80"}


def canonicalize_url(url: str) -> str:
    """Normalize a URL to its canonical form:

    - scheme and host lowercased; leading ``www.`` stripped
    - default port stripped (``:443`` for https, ``:80`` for http)
    - duplicate slashes in the path collapsed; trailing slash stripped
      (a bare ``/`` root collapses to the empty path)
    - fragment dropped
    - query: tracking params (``utm_*`` and _TRACKING_KEYS) dropped,
      the rest sorted by (key, value) and re-encoded
    """
    parts = urlsplit(url)
    scheme = parts.scheme.lower()
    host = parts.netloc.lower()
    port = _DEFAULT_PORTS.get(scheme)
    if port and host.endswith(port):
        host = host[: -len(port)]
    if host.startswith("www."):
        host = host[4:]
    path = parts.path
    while "//" in path:
        path = path.replace("//", "/")
    if path.endswith("/"):
        path = path[:-1]
    pairs = [
        (k, v)
        for k, v in parse_qsl(parts.query, keep_blank_values=True)
        if not k.startswith("utm_") and k not in _TRACKING_KEYS
    ]
    query = urlencode(sorted(pairs))
    out = f"{scheme}://{host}{path}"
    return f"{out}?{query}" if query else out


def registered_domain(url: str) -> str:
    """Host of the URL with case, port and a leading ``www.`` removed.
    (A public-suffix list would be needed for true eTLD+1 on multi-label
    TLDs like .co.uk; the corpus here uses single-label TLDs.)"""
    host = urlsplit(url).netloc.lower()
    if ":" in host:
        host = host.split(":", 1)[0]
    if host.startswith("www."):
        host = host[4:]
    return host


def synth_messy_url(doc_id: int, source: str) -> str:
    """Deterministic messy crawl URL for (doc_id, source): one of six
    perturbation variants of the canonical
    ``https://{source}.org/d/{doc_id % 50}[?page={doc_id % 7}]`` —
    case noise, www, default port, fragments, tracking params, slash
    noise. canonicalize_url() must invert every variant (that inversion
    is exactly what the SQL oracle checks)."""
    m = doc_id % 50
    page = f"page={doc_id % 7}" if doc_id % 3 == 0 else ""
    v = doc_id % 6
    if v == 0:
        q = f"?{page}" if page else ""
        return f"https://{source}.org/d/{m}{q}"
    if v == 1:
        q = f"?{page}" if page else ""
        return f"HTTPS://WWW.{source.upper()}.ORG/d/{m}{q}"
    if v == 2:
        q = f"?{page}" if page else ""
        return f"https://{source}.org:443/d/{m}{q}#sec2"
    if v == 3:
        q = f"?utm_source=feed&{page}&fbclid=IwAR0x" if page else "?utm_source=feed&fbclid=IwAR0x"
        return f"https://{source}.org/d/{m}{q}"
    if v == 4:
        q = f"?{page}" if page else ""
        return f"https://www.{source}.org//d//{m}/{q}"
    q = f"?utm_campaign=x&{page}" if page else "?utm_campaign=x"
    return f"HTTPS://{source.upper()}.org:443//d//{m}/{q}#frag"


def _messy_urls(b: pd.DataFrame) -> list:
    return [
        synth_messy_url(int(d), s) for d, s in zip(b["doc_id"].to_numpy(), b["source"])
    ]


def url_canonical_dedup(sf_dir: str):
    """Canonical-URL dedup: canonicalize each (synthesized) crawl URL
    and collapse duplicates — (canonical_url, n_dups, rep_doc_id=min).
    The exchange ships only (canonical, doc_id) salted on
    hash(canonical); text never moves."""
    from open_parse_ray.stages.analysis import read_documents
    from open_parse_ray.stages.dedup import salted_groupby

    def to_canon(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "canonical_url": [canonicalize_url(u) for u in _messy_urls(b)],
                "doc_id": b["doc_id"].astype("int64"),
            }
        )

    canon = read_documents(sf_dir, columns=["doc_id", "source"]).map_batches(
        to_canon, batch_format="pandas", batch_size=65536
    )

    def collapse(part: pd.DataFrame) -> pd.DataFrame:
        g = part.groupby("canonical_url", as_index=False).agg(
            n_dups=("doc_id", "size"), rep_doc_id=("doc_id", "min")
        )
        return g.astype({"n_dups": "int64", "rep_doc_id": "int64"})

    return salted_groupby(canon, "canonical_url", collapse)


def leakage_safe_splits(sf_dir: str, train_pct: int = 80, val_pct: int = 10):
    """Train/val/test split with DUPLICATE-GROUP cohesion: every member
    of one canonical-URL duplicate group lands in the SAME split,
    because the Knuth bucket hashes the group REPRESENTATIVE (min
    doc_id), not each member. A per-doc split (split_assignments) leaks
    near-identical pages across train/test; this closes that leak for
    the URL-dup relation (the same rep-keyed trick composes with any
    dedup rep map). Returns (doc_id, rep_doc_id, bucket, split).

    Scale shape: the canonical key is a closed-form per-batch map (no
    text); ONE salted exchange on the canonical string computes each
    group's min and re-emits the members with their rep — identical
    arithmetic to split_assignments applied to rep_doc_id, hence a full
    SQL oracle."""
    from open_parse_ray.stages.analysis import read_documents
    from open_parse_ray.stages.dedup import salted_groupby

    def to_canon(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "canonical_url": [canonicalize_url(u) for u in _messy_urls(b)],
                "doc_id": b["doc_id"].astype("int64"),
            }
        )

    canon = read_documents(sf_dir, columns=["doc_id", "source"]).map_batches(
        to_canon, batch_format="pandas", batch_size=65536
    )

    def assign(part: pd.DataFrame) -> pd.DataFrame:
        rep = (
            part.groupby("canonical_url")["doc_id"].transform("min").to_numpy(np.int64)
        )
        bucket = (
            (rep.astype(np.uint64) * np.uint64(2654435761)) % np.uint64(2**32)
        ) % np.uint64(100)
        bucket = bucket.astype(np.int64)
        return pd.DataFrame(
            {
                "doc_id": part["doc_id"].to_numpy(dtype=np.int64),
                "rep_doc_id": rep,
                "bucket": bucket,
                "split": np.where(
                    bucket < train_pct,
                    "train",
                    np.where(bucket < train_pct + val_pct, "val", "test"),
                ),
            }
        )

    return salted_groupby(canon, "canonical_url", assign)


def url_domain_stats(sf_dir: str):
    """Per-registered-domain corpus composition: document count and
    total characters — the over-representation report used to cap hot
    domains. Bounded-cardinality two-phase aggregate: per-batch partials
    collapse each block to ≤|domains-in-block| rows before the tiny
    final combine. Returns (domain, n_docs, total_chars)."""
    import pyarrow as pa

    from open_parse_ray.stages.analysis import read_documents
    from open_parse_ray.stages.relational import _arrow_group_aggs, two_phase_agg

    def partial(t: pa.Table) -> pa.Table:
        urls = map(synth_messy_url, t.column("doc_id").to_pylist(), t.column("source").to_pylist())
        return _arrow_group_aggs(
            {"domain": pa.array([registered_domain(u) for u in urls], pa.string())},
            {"n_docs": ("count", None), "total_chars": ("sum", t.column("n_chars").to_numpy())},
            t.num_rows,
        )

    partials = read_documents(sf_dir, columns=["doc_id", "source", "n_chars"]).map_batches(
        partial, batch_format="pyarrow", batch_size=65536
    )
    return two_phase_agg(partials, ["domain"], {"n_docs": "sum", "total_chars": "sum"})


def domain_quality_filter(sf_dir: str, min_mean_chars: int = 300):
    """Domain-LEVEL quality gating (the RefinedWeb/UT1-blocklist
    pattern): aggregate quality per registered domain once, broadcast
    the failing-domain set, filter the corpus in a second streaming
    pass — per-document filters miss low-quality farms whose individual
    pages look plausible; domain aggregates catch them.

    A domain fails when its mean chars/doc is below ``min_mean_chars``,
    compared by INTEGER cross-multiplication
    (total_chars < min_mean_chars × n_docs) so the Python and SQL sides
    cannot disagree by a float ulp. Returns surviving (doc_id, domain).

    Scale shape: pass 1 is the bounded-cardinality two-phase domain
    aggregate (url_domain_stats); the bad set broadcasts via one
    ray.put (registered domains ≈ 10^8 at web scale — a string set fits
    a worker; a 10^12-key variant would Bloom-prefilter it, the
    stages/dedup.bloom_dup_groups pattern); pass 2 never exchanges."""
    import ray

    from open_parse_ray.stages.analysis import read_documents

    stats = url_domain_stats(sf_dir).to_pandas()
    bad = frozenset(
        stats.loc[
            stats["total_chars"] < min_mean_chars * stats["n_docs"], "domain"
        ]
    )
    bad_ref = ray.put(bad)

    def keep(b: pd.DataFrame) -> pd.DataFrame:
        bd = ray.get(bad_ref)
        dom = np.array([registered_domain(u) for u in _messy_urls(b)], dtype=object)
        if bd:
            m = np.fromiter((d not in bd for d in dom), dtype=bool, count=len(dom))
        else:
            m = np.ones(len(dom), dtype=bool)
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"].to_numpy(dtype=np.int64)[m],
                "domain": dom[m],
            }
        )

    return read_documents(sf_dir, columns=["doc_id", "source"]).map_batches(
        keep, batch_format="pandas", batch_size=65536
    )


def _ed_le1(a: str, b: str) -> bool:
    """Exact bounded check: edit distance(a, b) <= 1 (O(len) scan)."""
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return False
    if la == lb:
        return sum(1 for x, y in zip(a, b) if x != y) <= 1
    if la > lb:
        a, b, la, lb = b, a, lb, la
    # la + 1 == lb: try to align by skipping one char of b
    i = 0
    while i < la and a[i] == b[i]:
        i += 1
    return a[i:] == b[i + 1 :]


def url_editdist_pairs(sf_dir: str, num_parts: Optional[int] = None):
    """Bounded edit-distance self-join over the DISTINCT canonical crawl
    URLs: every pair at Levenshtein distance exactly 1 (typosquats,
    off-by-one ids, near-miss paths — the URL analog of near-dup text).
    The deletion-neighborhood (SymSpell) construction makes the join
    exact WITHOUT an all-pairs stage: two strings at distance <= 1 share
    at least one member of their deletion neighborhoods ({s} plus every
    single-character deletion), so bucketing each string by the md5 of
    each of its <= len+1 distinct variants surfaces every qualifying
    pair in some shared bucket; candidates are verified by an exact
    O(len) bounded-distance scan, then deduped in a pair-salted
    exchange (a pair can share several variant buckets).

    Scale shape: a URL of length L ships <= L+1 fixed-width
    (bucket-hash, url) rows; bucket fan-in is bounded by how many
    strings share a variant — the near-dup cluster size, not the corpus
    size. Returns (url_a, url_b), url_a < url_b."""
    from open_parse_ray.stages.analysis import read_documents
    from open_parse_ray.stages.dedup import _md5_64, salted_groupby

    docs = read_documents(sf_dir, columns=["doc_id", "source"])

    def canon_rows(b: pd.DataFrame) -> pd.DataFrame:
        urls = {
            canonicalize_url(synth_messy_url(int(d), s))
            for d, s in zip(b["doc_id"].to_numpy(), b["source"])
        }
        return pd.DataFrame({"url": sorted(urls)})

    def distinct(part: pd.DataFrame) -> pd.DataFrame:
        return part.drop_duplicates("url")[["url"]]

    canon = salted_groupby(
        docs.map_batches(canon_rows, batch_format="pandas", batch_size=8192),
        "url",
        distinct,
        num_parts=num_parts,
    )

    def deletion_rows(b: pd.DataFrame) -> pd.DataFrame:
        buckets, urls = [], []
        for s in b["url"]:
            variants = {s}
            for i in range(len(s)):
                variants.add(s[:i] + s[i + 1 :])
            for v in variants:
                buckets.append(_md5_64(v) & 0x7FFFFFFFFFFFFFFF)
                urls.append(s)
        return pd.DataFrame(
            {"bucket": np.asarray(buckets, dtype=np.int64), "url": urls}
        )

    rows = canon.map_batches(deletion_rows, batch_format="pandas", batch_size=8192)

    def bucket_pairs(part: pd.DataFrame) -> pd.DataFrame:
        oa, ob = [], []
        for _, g in part.groupby("bucket", sort=False):
            us = sorted(set(g["url"]))
            for i in range(len(us)):
                for j in range(i + 1, len(us)):
                    if _ed_le1(us[i], us[j]):
                        oa.append(us[i])
                        ob.append(us[j])
        return pd.DataFrame({"url_a": oa, "url_b": ob})

    pairs = salted_groupby(rows, "bucket", bucket_pairs, num_parts=num_parts)

    def dedupe(part: pd.DataFrame) -> pd.DataFrame:
        return part.drop_duplicates(["url_a", "url_b"])

    return salted_groupby(
        pairs,
        lambda t: pd.util.hash_pandas_object(
            t["url_a"].to_pandas() + "\x00" + t["url_b"].to_pandas(), index=False
        ).astype("int64"),
        dedupe,
        num_parts=num_parts,
    )


def domain_concentration(sf_dir: str, pcts=(50, 80, 90)):
    """Corpus CONCENTRATION report — for each coverage level p, the
    minimum number of registered domains (ordered chars DESC, domain
    ASC) whose pages hold ≥ p% of all characters, plus the chars they
    cover: the Pareto statistic that decides whether dedup/cap effort
    goes to a handful of mega-domains or the long tail. Threshold is
    the integer cross-multiply 100·cum ≥ p·total — no float shares.
    Shape: the bounded per-domain char table (the url_domain_stats
    two-phase aggregate) collapses to one block; sort + cumsum +
    searchsorted per level are vectorized there. At 10^8-domain scale
    the same report runs on the histogram-range-partition ranker
    (global_rank over chars) instead of the single block — noted in
    SCALE.md. Returns (pct, n_domains, covered_chars)."""
    stats = url_domain_stats(sf_dir)

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return pd.DataFrame(
                {
                    "pct": pd.Series([], dtype="int64"),
                    "n_domains": pd.Series([], dtype="int64"),
                    "covered_chars": pd.Series([], dtype="int64"),
                }
            )
        g = b.groupby("domain", as_index=False)["total_chars"].sum()
        order = np.lexsort(
            (g["domain"].to_numpy(dtype=object), -g["total_chars"].to_numpy(np.int64))
        )
        chars = g["total_chars"].to_numpy(np.int64)[order]
        cum = np.cumsum(chars)
        tot = int(cum[-1])
        rows = []
        for p in pcts:
            i = int(np.searchsorted(100 * cum, p * tot, side="left"))
            rows.append((int(p), i + 1, int(cum[i])))
        return pd.DataFrame(
            {
                "pct": np.asarray([r[0] for r in rows], dtype=np.int64),
                "n_domains": np.asarray([r[1] for r in rows], dtype=np.int64),
                "covered_chars": np.asarray([r[2] for r in rows], dtype=np.int64),
            }
        )

    return stats.repartition(1).map_batches(
        finish, batch_format="pandas", batch_size=None
    )


def charset_decode_docs(sf_dir: str):
    """Charset detection + decode over crawl payloads — the byte-level
    front door the reference never needed (open-parse ingests decoded
    strings; a 10^12-page crawl arrives as bytes in a zoo of
    encodings). Each document's text is deterministically framed as a
    byte payload (doc_id % 6 → plain utf-8 / utf-8 BOM / utf-16
    LE+BOM / utf-16 BE+BOM / ASCII meta-tag declaration / BOM-less
    utf-16-le), then the REAL sniffing kernel
    (functions/charset.py: BOM → meta prescan → zero-byte heuristic →
    utf-8-replace fallback) recovers codec and text. The oracle
    rebuilds the expectation in closed form: md5 of the text (the
    meta-prefixed text for variant 4 — the declaration is content) and
    the codec/path the detector must take per variant — so every
    detector branch is value-hashed on every document, not spot-checked.

    Scale shape: pure streaming map, zero exchanges; per-row decode is
    inherent (same as every extraction kernel). Returns
    (doc_id, charset, how, text_md5)."""
    import hashlib

    from open_parse_ray.functions.charset import decode_html_bytes, synth_encoded
    from open_parse_ray.stages.analysis import read_documents

    def decode(b: pd.DataFrame) -> pd.DataFrame:
        ids = b["doc_id"].to_numpy(dtype=np.int64)
        cs, how, md5s = [], [], []
        for did, text in zip(ids, b["text"]):
            payload = synth_encoded(text, int(did))
            decoded, codec, path = decode_html_bytes(payload)
            cs.append(codec)
            how.append(path)
            md5s.append(hashlib.md5(decoded.encode("utf-8")).hexdigest())
        return pd.DataFrame(
            {
                "doc_id": ids,
                "charset": pd.Series(cs, dtype="object"),
                "how": pd.Series(how, dtype="object"),
                "text_md5": pd.Series(md5s, dtype="object"),
            }
        )

    return read_documents(sf_dir, columns=["doc_id", "text"]).map_batches(
        decode, batch_format="pandas", batch_size=1024
    )


CHARSET_DECODE_DOCS_SQL = """
    SELECT doc_id,
           CASE doc_id % 6
               WHEN 0 THEN 'utf-8'      WHEN 1 THEN 'utf-8-sig'
               WHEN 2 THEN 'utf-16-le'  WHEN 3 THEN 'utf-16-be'
               WHEN 4 THEN 'utf-8'      WHEN 5 THEN 'utf-16-le'
           END AS charset,
           CASE doc_id % 6
               WHEN 0 THEN 'fallback'   WHEN 1 THEN 'bom'
               WHEN 2 THEN 'bom'        WHEN 3 THEN 'bom'
               WHEN 4 THEN 'meta'       WHEN 5 THEN 'heuristic'
           END AS how,
           CASE WHEN doc_id % 6 = 4
                THEN md5('<meta charset="UTF-8">' || text)
                ELSE md5(text)
           END AS text_md5
    FROM documents
"""


_ROBOTS_CACHE: dict = {}


def _robots_matcher(source: str):
    """Per-domain compiled matcher, cached per worker process (bounded
    vocabulary: registered domains; capped like the token-hash caches).
    In a real crawl the (domain → rules) table is fetched once and
    broadcast via ray.put — here the robots.txt is the deterministic
    synth_robots_txt closed form, parsed by the REAL parser so the
    parsing/precedence path is exercised on every domain."""
    from open_parse_ray.functions.robots import (
        RobotsMatcher,
        parse_robots,
        synth_robots_txt,
    )

    m = _ROBOTS_CACHE.get(source)
    if m is None:
        if len(_ROBOTS_CACHE) > 65536:
            _ROBOTS_CACHE.clear()
        m = RobotsMatcher(parse_robots(synth_robots_txt(source)))
        _ROBOTS_CACHE[source] = m
    return m


def robots_filter_docs(sf_dir: str):
    """Crawl politeness gate — robots.txt verdict per document: each
    doc's messy URL is canonicalized, its path matched against the
    domain's robots rules (functions/robots.py: RFC 9309 group
    selection, * / $ wildcards, longest-pattern-wins with Allow on
    ties). The synthesized per-domain robots exercises all three
    precedence tiers (wildcard 7 > allow 6 > prefix 5) plus a
    specific-bot group and unknown directives that must be parsed
    past; the oracle reproduces the verdict in closed form from
    (doc_id, source). Returns (doc_id, domain, path, allowed 0/1).

    Scale shape: pure streaming map, zero exchanges; the per-domain
    matcher is built once per worker per domain (bounded cache)."""
    from urllib.parse import urlsplit

    from open_parse_ray.stages.analysis import read_documents

    def verdict(b: pd.DataFrame) -> pd.DataFrame:
        ids = b["doc_id"].to_numpy(dtype=np.int64)
        doms, paths, ok = [], [], np.zeros(len(ids), dtype=np.int64)
        for i, (did, src) in enumerate(zip(ids, b["source"])):
            url = canonicalize_url(synth_messy_url(int(did), src))
            path = urlsplit(url).path
            doms.append(registered_domain(url))
            paths.append(path)
            ok[i] = 1 if _robots_matcher(src).allowed(path) else 0
        return pd.DataFrame(
            {
                "doc_id": ids,
                "domain": pd.Series(doms, dtype="object"),
                "path": pd.Series(paths, dtype="object"),
                "allowed": ok,
            }
        )

    return read_documents(sf_dir, columns=["doc_id", "source"]).map_batches(
        verdict, batch_format="pandas", batch_size=8192
    )


ROBOTS_FILTER_DOCS_SQL = """
    WITH x AS (
        SELECT doc_id, source,
               CAST(doc_id % 50 AS VARCHAR) AS m,
               CAST(strlen(source) % 10 AS VARCHAR) AS a,
               CAST(strlen(source) % 10 AS VARCHAR)
                   || CAST((strlen(source) % 10 + 1) % 10 AS VARCHAR) AS ab
        FROM documents
    )
    SELECT doc_id, source || '.org' AS domain,
           '/d/' || m AS path,
           CAST(CASE WHEN m LIKE '%7' THEN 0        -- Disallow /d/*7$ (len 7)
                     WHEN m = ab THEN 1             -- Allow /d/{a}{a+1} (len 6)
                     WHEN starts_with(m, a) THEN 0  -- Disallow /d/{a} (len 5)
                     ELSE 1 END AS BIGINT) AS allowed
    FROM x
"""


def _synth_page_base(d: int, src: str) -> str:
    return f"https://{src}.org/a/{d % 7}/b/page{d % 50}.html"


def _synth_page_html(d: int, src: str) -> str:
    """Per-doc HTML fragment shared by extract_outlinks and
    anchor_text_index: hrefs AND anchor texts are closed-form functions
    of (doc_id, source), so both oracles derive the expected output
    without seeing the HTML. Attribute syntax varies per link (double/
    single/unquoted, tag case, extra attrs, inner markup, entities)."""
    return (
        f'<html><body>'
        f'<a href="https://ext{d % 5}.com/x">ext site {d % 5} ref {d % 7}</a>\n'
        f"<A HREF='//cdn.{src}.org/lib.js'>cdn <b>lib</b></A>\n"
        f'<a data-k="v" href=/top/{d % 3}>top nav {d % 3}</a>\n'
        f'<a href="../up/./{d % 4}">up {d % 4} from {d % 7}</a>\n'
        f'<a href="?q={d % 9}&amp;r=2">query {d % 9}</a>\n'
        f'<a href="#sec{d % 2}">frag {d % 2}</a>\n'
        f'<a href="/d/{(d + 3) % 50}">see doc {(d + 3) % 50}</a>\n'
        f'<a href="mailto:x@{src}.org">mail us</a>\n'
        f'<a name="anchor">no link</a>\n'
        f'<link href="/style.css"></body></html>'
    )


def extract_outlinks(sf_dir: str):
    """Crawl-frontier outlink extraction — the real pipeline a link
    graph is built from: per doc, synthesize an HTML fragment whose
    <a href> values are closed-form functions of (doc_id, source)
    covering the reference-resolution taxonomy (absolute URL,
    protocol-relative, absolute path, dot-segment relative, query-only
    with an &amp; entity, fragment-only, plus a mailto: and two decoys
    the extractor must SKIP: an <a> without href and a <link href>).
    The kernel then does the genuine work end-to-end: attribute-level
    href extraction (quoted/unquoted/case variants, entity decode,
    functions/urlref.extract_hrefs), RFC 3986 §5.2 resolution against
    the page URL (resolve_reference: merge + remove_dot_segments +
    query/fragment inheritance), and an http(s)-only scheme gate. The
    oracle never sees the HTML — it derives every resolved URL in
    closed form, so a hash match proves extraction AND resolution are
    exactly right on all seven variants for every doc (the
    seventh targets a same-host /d/ URL that MAY be crawled — the
    frontier op's anti-join hinges on it).

    Scale shape: pure streaming map, zero exchanges; output is ~7 rows
    per page (the real Common Crawl ratio is ~50 links/page — still a
    bounded per-row fanout handled by flat-map semantics)."""
    from open_parse_ray.functions.urlref import (
        extract_hrefs,
        resolve_reference,
    )
    from open_parse_ray.stages.analysis import read_documents

    def links(b: pd.DataFrame) -> pd.DataFrame:
        ids, idxs, urls = [], [], []
        for did, src in zip(
            b["doc_id"].to_numpy(dtype=np.int64), b["source"]
        ):
            d = int(did)
            base = _synth_page_base(d, src)
            html_doc = _synth_page_html(d, src)
            k = 0
            for href in extract_hrefs(html_doc):
                u = resolve_reference(base, href)
                if not (u.startswith("http://") or u.startswith("https://")):
                    continue  # mailto: and friends are not crawl edges
                ids.append(d)
                idxs.append(k)
                urls.append(u)
                k += 1
        return pd.DataFrame(
            {
                "doc_id": np.asarray(ids, dtype=np.int64),
                "link_idx": np.asarray(idxs, dtype=np.int64),
                "url": pd.Series(urls, dtype="object"),
            }
        )

    return read_documents(sf_dir, columns=["doc_id", "source"]).map_batches(
        links, batch_format="pandas", batch_size=8192
    )


# Closed-form mirror of the seven emitted outlinks per doc. The dots
# variant '../up/./{m4}' resolves against base dir /a/{m7}/b/ to
# /a/{m7}/up/{m4}; query inherits the base path; frag inherits path
# (no query on the base).
_OUTLINKS_UNION_SQL = """
    WITH v AS (
        SELECT doc_id, source,
               CAST(doc_id % 7 AS VARCHAR)  AS m7,
               CAST(doc_id % 50 AS VARCHAR) AS m50,
               CAST(doc_id % 5 AS VARCHAR)  AS m5,
               CAST(doc_id % 3 AS VARCHAR)  AS m3,
               CAST(doc_id % 4 AS VARCHAR)  AS m4,
               CAST(doc_id % 9 AS VARCHAR)  AS m9,
               CAST(doc_id % 2 AS VARCHAR)  AS m2,
               CAST((doc_id + 3) % 50 AS VARCHAR) AS md
        FROM documents
    ),
    links AS (
        SELECT doc_id, CAST(0 AS BIGINT) AS link_idx,
               'https://ext' || m5 || '.com/x' AS url FROM v
        UNION ALL
        SELECT doc_id, 1, 'https://cdn.' || source || '.org/lib.js' FROM v
        UNION ALL
        SELECT doc_id, 2, 'https://' || source || '.org/top/' || m3 FROM v
        UNION ALL
        SELECT doc_id, 3, 'https://' || source || '.org/a/' || m7
               || '/up/' || m4 FROM v
        UNION ALL
        SELECT doc_id, 4, 'https://' || source || '.org/a/' || m7
               || '/b/page' || m50 || '.html?q=' || m9 || '&r=2' FROM v
        UNION ALL
        SELECT doc_id, 5, 'https://' || source || '.org/a/' || m7
               || '/b/page' || m50 || '.html#sec' || m2 FROM v
        UNION ALL
        SELECT doc_id, 6, 'https://' || source || '.org/d/' || md FROM v
    )
"""

EXTRACT_OUTLINKS_SQL = (
    _OUTLINKS_UNION_SQL + "SELECT doc_id, link_idx, url FROM links"
)


def outlink_host_counts(sf_dir: str):
    """The link graph's host out-degree table: resolved outlinks →
    registered host (authority minus userinfo/port, lowercased) →
    count. Host cardinality is bounded (≪ pages), so per-batch partial
    counts collapse each block to ≤|hosts-in-block| rows before one
    tiny combine — the degree table for a 10^12-page crawl ships KBs
    per block. Returns (host, n_links)."""
    from open_parse_ray.functions.urlref import host_of
    from open_parse_ray.stages.relational import two_phase_agg

    links = extract_outlinks(sf_dir)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return pd.DataFrame({"host": pd.Series([], dtype="object"),
                                 "n_links": pd.Series([], dtype="int64")})
        h = pd.Series([host_of(u) for u in b["url"]], dtype="object")
        g = h.groupby(h).size()
        return pd.DataFrame(
            {"host": g.index.to_numpy(dtype=object),
             "n_links": g.to_numpy(dtype=np.int64)}
        )

    return two_phase_agg(
        links.map_batches(partial, batch_format="pandas", batch_size=16384),
        ["host"],
        {"n_links": "sum"},
    )


OUTLINK_HOST_COUNTS_SQL = (
    _OUTLINKS_UNION_SQL
    + """
    SELECT lower(CASE
             WHEN url LIKE 'https://%' THEN
               split_part(split_part(substr(url, 9), '/', 1), '#', 1)
             ELSE split_part(split_part(substr(url, 8), '/', 1), '#', 1)
           END) AS host,
           CAST(count(*) AS BIGINT) AS n_links
    FROM links GROUP BY 1
"""
)


def _url_salt(col: str):
    """Per-row md5[:8]>>1 salt over a string column — the shared salting
    idiom for url/host exchanges in this module."""
    import hashlib

    def f(t) -> np.ndarray:
        return np.array(
            [
                int.from_bytes(hashlib.md5(u.encode()).digest()[:8], "big")
                >> 1
                for u in t[col].to_pylist()
            ],
            dtype=np.int64,
        )

    return f


def anchor_text_index(sf_dir: str):
    """The anchor-text INDEX of the link graph — per resolved target
    URL, how many pages link to it and the sorted distinct anchor
    texts they used (the signal web search and anchor-conditioned
    training data are built from). The kernel does the full real
    pipeline: <a>-tag inner-text extraction (nested-markup strip,
    entity decode, whitespace normalization — functions/urlref.
    extract_links), RFC 3986 resolution, http(s) gate, then one
    target-url-salted exchange where each URL's anchors co-locate and
    collapse to (url, n_links, '|'-joined sorted distinct anchors).

    Scale shape: anchor rows pre-dedupe per (url, anchor) inside the
    batch before the exchange; at web scale hot URLs concentrate in
    one partition (never split — counts stay exact) and the distinct
    anchor set per URL is the small side (anchor vocabulary per page
    is tiny)."""
    from open_parse_ray.functions.urlref import extract_links, resolve_reference
    from open_parse_ray.stages.analysis import read_documents
    from open_parse_ray.stages.dedup import salted_groupby

    def rows(b: pd.DataFrame) -> pd.DataFrame:
        urls, anchors, counts = [], [], []
        for did, src in zip(b["doc_id"].to_numpy(dtype=np.int64), b["source"]):
            d = int(did)
            base = _synth_page_base(d, src)
            seen: dict = {}
            for href, text in extract_links(_synth_page_html(d, src)):
                u = resolve_reference(base, href)
                if not (u.startswith("http://") or u.startswith("https://")):
                    continue
                key = (u, text)
                seen[key] = seen.get(key, 0) + 1
            for (u, text), c in seen.items():
                urls.append(u)
                anchors.append(text)
                counts.append(c)
        return pd.DataFrame(
            {
                "url": pd.Series(urls, dtype="object"),
                "anchor": pd.Series(anchors, dtype="object"),
                "c": np.asarray(counts, dtype=np.int64),
            }
        )

    link_rows = read_documents(
        sf_dir, columns=["doc_id", "source"]
    ).map_batches(rows, batch_format="pandas", batch_size=8192)

    def per_url(g: pd.DataFrame) -> pd.DataFrame:
        out = []
        for u, grp in g.groupby("url", sort=False):
            out.append(
                {
                    "url": u,
                    "n_links": int(grp["c"].sum()),
                    "anchors": "|".join(sorted(set(grp["anchor"]))),
                }
            )
        f = pd.DataFrame(out)
        return f.astype({"n_links": "int64"})

    return salted_groupby(link_rows, _url_salt("url"), per_url)


ANCHOR_TEXT_INDEX_SQL = (
    _OUTLINKS_UNION_SQL.replace(
        "SELECT doc_id, CAST(0 AS BIGINT) AS link_idx,\n"
        "               'https://ext' || m5 || '.com/x' AS url FROM v",
        "SELECT doc_id, CAST(0 AS BIGINT) AS link_idx,\n"
        "               'https://ext' || m5 || '.com/x' AS url,\n"
        "               'ext site ' || m5 || ' ref ' || m7 AS anchor FROM v",
    )
    .replace(
        "SELECT doc_id, 1, 'https://cdn.' || source || '.org/lib.js' FROM v",
        "SELECT doc_id, 1, 'https://cdn.' || source || '.org/lib.js',"
        " 'cdn lib' FROM v",
    )
    .replace(
        "SELECT doc_id, 2, 'https://' || source || '.org/top/' || m3 FROM v",
        "SELECT doc_id, 2, 'https://' || source || '.org/top/' || m3,"
        " 'top nav ' || m3 FROM v",
    )
    .replace(
        "SELECT doc_id, 3, 'https://' || source || '.org/a/' || m7\n"
        "               || '/up/' || m4 FROM v",
        "SELECT doc_id, 3, 'https://' || source || '.org/a/' || m7\n"
        "               || '/up/' || m4, 'up ' || m4 || ' from ' || m7 FROM v",
    )
    .replace(
        "SELECT doc_id, 4, 'https://' || source || '.org/a/' || m7\n"
        "               || '/b/page' || m50 || '.html?q=' || m9 || '&r=2' FROM v",
        "SELECT doc_id, 4, 'https://' || source || '.org/a/' || m7\n"
        "               || '/b/page' || m50 || '.html?q=' || m9 || '&r=2',"
        " 'query ' || m9 FROM v",
    )
    .replace(
        "SELECT doc_id, 5, 'https://' || source || '.org/a/' || m7\n"
        "               || '/b/page' || m50 || '.html#sec' || m2 FROM v",
        "SELECT doc_id, 5, 'https://' || source || '.org/a/' || m7\n"
        "               || '/b/page' || m50 || '.html#sec' || m2,"
        " 'frag ' || m2 FROM v",
    )
    .replace(
        "SELECT doc_id, 6, 'https://' || source || '.org/d/' || md FROM v",
        "SELECT doc_id, 6, 'https://' || source || '.org/d/' || md,"
        " 'see doc ' || md FROM v",
    )
    + """
    SELECT url, CAST(count(*) AS BIGINT) AS n_links,
           string_agg(DISTINCT anchor, '|' ORDER BY anchor) AS anchors
    FROM links GROUP BY url
"""
)


def frontier_next_urls(
    sf_dir: str, per_host_k: int = 3, max_broadcast_urls: int = 5_000_000
):
    """CLOSE THE CRAWL LOOP — the frontier selection step: outlinks
    that are NOT already crawled (anti-join against the corpus' own
    canonical URL set), aggregated per target URL, then the top-k per
    host by (in-link count DESC, url ASC) — what a politeness-
    partitioned fetcher queues next. Returns
    (host, rank, url, n_links).

    Scale shape — the ``paragraph_dedup``/``semdedup_keep`` threshold
    switch: the crawled set is one canonical URL per page, so it is
    CORPUS-sized, not small. At or under ``max_broadcast_urls`` it is
    read to the driver once and broadcast via ray.put (probed per
    batch, the decontamination shape); past the threshold it never
    materializes — crawled URLs ride as TAGGED rows through the same
    url-salted exchange as the candidates, and a url whose partition
    holds any crawled row is dropped in-partition (exact: co-location
    by url). Both paths share the per-URL count and host-ranking
    stages and a forced-distributed == broadcast equality gate. A
    Bloom prefilter (bloom_semijoin shape) can prune the candidate
    stream before the exchange; exactness never depends on it."""
    import ray

    from open_parse_ray.functions.urlref import host_of
    from open_parse_ray.stages.analysis import read_documents
    from open_parse_ray.stages.dedup import salted_groupby

    def canon(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"u": [canonicalize_url(u) for u in _messy_urls(b)]}
        )

    crawled_ds = read_documents(
        sf_dir, columns=["doc_id", "source"]
    ).map_batches(canon, batch_format="pandas", batch_size=65536)

    links = extract_outlinks(sf_dir)

    # canon is a 1:1 map over documents, so the threshold decision only
    # needs |documents| — a parquet-footer metadata count, never a
    # corpus-sized synth+canonicalize pass
    n_crawled = read_documents(sf_dir, columns=["doc_id"]).count()
    if n_crawled <= max_broadcast_urls:
        crawled_ref = ray.put(frozenset(crawled_ds.to_pandas()["u"]))

        def survive(b: pd.DataFrame) -> pd.DataFrame:
            cs = ray.get(crawled_ref)
            m = np.fromiter(
                (u not in cs for u in b["url"]), dtype=bool, count=len(b)
            )
            out = b.loc[m, ["url"]].copy()
            out["crawled"] = np.int64(0)
            return out

        tagged = links.map_batches(
            survive, batch_format="pandas", batch_size=16384
        )
    else:
        # distributed anti-join: crawled rows tagged 1 ride the SAME
        # url-salted exchange; nothing ever materializes driver-side
        def tag_candidates(b: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {
                    "url": b["url"].to_numpy(dtype=object),
                    "crawled": np.zeros(len(b), dtype=np.int64),
                }
            )

        def tag_crawled(b: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {
                    "url": b["u"].to_numpy(dtype=object),
                    "crawled": np.ones(len(b), dtype=np.int64),
                }
            )

        tagged = links.map_batches(
            tag_candidates, batch_format="pandas", batch_size=16384
        ).union(
            crawled_ds.map_batches(
                tag_crawled, batch_format="pandas", batch_size=16384
            )
        )

    def count_urls(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("url", as_index=False).agg(
            n_links=("crawled", "size"), n_crawled=("crawled", "sum")
        )
        # candidate rows only survive (crawled rows carry no weight)
        keep = agg[agg["n_crawled"] == 0]
        return keep[["url", "n_links"]].reset_index(drop=True)

    per_url = salted_groupby(tagged, _url_salt("url"), count_urls)

    def add_host(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["host"] = pd.Series(
            [host_of(u) for u in b["url"]], index=b.index, dtype="object"
        )
        return b

    hosted = per_url.map_batches(
        add_host, batch_format="pandas", batch_size=16384
    )

    def topk(g: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for h, grp in g.groupby("host", sort=False):
            s = grp.sort_values(
                ["n_links", "url"], ascending=[False, True], kind="stable"
            ).head(per_host_k)
            s = s.assign(rank=np.arange(1, len(s) + 1, dtype=np.int64))
            frames.append(s[["host", "rank", "url", "n_links"]])
        return pd.concat(frames, ignore_index=True)

    return salted_groupby(hosted, _url_salt("host"), topk)


def frontier_next_urls_sql(per_host_k: int = 3) -> str:
    """Oracle: the same union, minus URLs whose (source, md) pair is
    actually crawled — /d/{md} on {source}.org is the canonical page of
    any doc with doc_id%50 == md AND doc_id%3 <> 0 (docs with %3 == 0
    canonicalize WITH a ?page= query, so the bare URL stays uncrawled);
    only link variant 6 can ever hit the crawled set (the others live
    on paths/hosts the corpus never crawls)."""
    return (
        _OUTLINKS_UNION_SQL
        + f"""
        , alive AS (
          SELECT l.url FROM links l
          WHERE NOT EXISTS (
            SELECT 1 FROM documents d2, v v2
            WHERE v2.doc_id = l.doc_id
              AND l.link_idx = 6
              AND d2.source = v2.source
              AND CAST(d2.doc_id % 50 AS VARCHAR) = v2.md
              AND d2.doc_id % 3 <> 0
          )
        ),
        cnt AS (
          SELECT url, CAST(count(*) AS BIGINT) AS n_links
          FROM alive GROUP BY url
        ),
        ranked AS (
          SELECT lower(CASE
                   WHEN url LIKE 'https://%' THEN
                     split_part(split_part(substr(url, 9), '/', 1), '#', 1)
                   ELSE split_part(split_part(substr(url, 8), '/', 1), '#', 1)
                 END) AS host,
                 url, n_links,
                 row_number() OVER (
                   PARTITION BY CASE
                     WHEN url LIKE 'https://%' THEN
                       lower(split_part(split_part(substr(url, 9), '/', 1), '#', 1))
                     ELSE lower(split_part(split_part(substr(url, 8), '/', 1), '#', 1))
                   END
                   ORDER BY n_links DESC, url
                 ) AS rank
          FROM cnt
        )
        SELECT host, CAST(rank AS BIGINT) AS rank, url, n_links
        FROM ranked WHERE rank <= {per_host_k}
    """
    )
