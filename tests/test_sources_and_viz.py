"""Source-format invariance (Parquet vs JSON-lines vs CSV) and the SVG
bbox-overlay visualization sink."""

import xml.etree.ElementTree as ET

import pandas as pd
import pytest


def _extract_texts(ds):
    from open_parse_ray.pipelines.extraction import extract

    df = extract(ds, pipeline="basic", output="docs").to_pandas()
    return df.sort_values("url")[["url", "extracted_text"]].reset_index(drop=True)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_source_format_invariance(ray_session, tmp_path, fmt):
    """The same corpus read from JSON-lines/CSV (base64 html) extracts
    byte-identically to the Parquet path."""
    from open_parse_ray.sources.pages import (
        export_pages,
        read_pages,
        read_pages_csv,
        read_pages_json,
    )

    out = str(tmp_path / fmt)
    export_pages(0.001, out, format=fmt)
    reader = read_pages_json if fmt == "json" else read_pages_csv
    got = _extract_texts(reader(out, columns=["url", "html"]))
    want = _extract_texts(read_pages(0.001, columns=["url", "html"]))
    pd.testing.assert_frame_equal(got, want)


def test_bbox_svg_overlay(ray_session):
    from open_parse_ray.functions.viz import render_bbox_overlays
    from open_parse_ray.sources.pages import read_pages

    df = render_bbox_overlays(read_pages(0.001, columns=["url", "html"])).to_pandas()
    assert len(df) > 0
    assert set(df.columns) == {"url", "page", "svg", "n_boxes"}
    # every svg is well-formed XML with one rect per box + the page frame
    for _, row in df.head(20).iterrows():
        root = ET.fromstring(row["svg"])
        rects = root.findall("{http://www.w3.org/2000/svg}rect")
        assert len(rects) == row["n_boxes"] + 1
    # deterministic: second render identical
    again = render_bbox_overlays(read_pages(0.001, columns=["url", "html"])).to_pandas()
    pd.testing.assert_frame_equal(
        df.sort_values(["url", "page"]).reset_index(drop=True),
        again.sort_values(["url", "page"]).reset_index(drop=True),
    )


def test_svg_coordinates_flip():
    """Bottom-left bbox → SVG top-left rect (reference pdf.py:44-63)."""
    from open_parse_ray.functions.viz import node_boxes_to_svg

    svg = node_boxes_to_svg(
        [{"x0": 10, "y0": 20, "x1": 110, "y1": 70, "variant": "text", "node_idx": 0}],
        page_width=612,
        page_height=792,
    )
    # y_svg = 792 - y1 = 722; height = y1 - y0 = 50
    assert 'x="10.00" y="722.00" width="100.00" height="50.00"' in svg
    assert 'stroke="#1f77b4"' in svg


def test_display_cells_svg_reference_semantics():
    """Cell overlay analog (reference tables/utils.py:78-115): type
    filter, confidence gate, blank-image mode."""
    from open_parse_ray.functions.viz import display_cells_svg

    cells = [
        {"x0": 1, "y0": 1, "x1": 10, "y1": 5, "kind": "header", "confidence": 0.99},
        {"x0": 1, "y0": 6, "x1": 10, "y1": 9, "kind": "row", "confidence": 0.99},
        {"x0": 1, "y0": 1, "x1": 4, "y1": 9, "kind": "column", "confidence": 0.5},
    ]
    svg = display_cells_svg(cells, 20, 10)
    assert svg.count('stroke="red"') == 2  # low-confidence column dropped
    assert display_cells_svg(cells, 20, 10, show_cell_types="headers").count(
        'stroke="red"'
    ) == 1
    blank = display_cells_svg(cells, 20, 10, use_blank_image=True)
    assert 'fill="white"' in blank and display_cells_svg(cells, 20, 10).count(
        'fill="#eee"'
    ) == 1
    # deterministic
    assert svg == display_cells_svg(cells, 20, 10)


def test_weight_staging_roundtrip(tmp_path):
    """Staged weight files reproduce the in-code models EXACTLY, and
    re-staging skips existing files (the reference CLI contract)."""
    import numpy as np

    from open_parse_ray.stages.dedup import FastMinHasher, _word_shingles
    from open_parse_ray.stages.ocr_vision import FONT, _TEMPLATES
    from open_parse_ray.stages.similarity import HyperplaneLSH
    from open_parse_ray.state.weights import (
        lsh_from_file,
        minhasher_from_file,
        load_typeface,
        stage_weights,
        templates_from_file,
    )

    dest = str(tmp_path / "weights")
    paths = stage_weights(dest, verbose=False)
    assert len(paths) == 3 and all(p.endswith(".npz") for p in paths)

    tf = load_typeface(f"{dest}/ocr_typeface.npz")
    assert set(tf) == set(FONT)
    assert all(np.array_equal(tf[c], FONT[c]) for c in FONT)
    assert templates_from_file(f"{dest}/ocr_typeface.npz") == _TEMPLATES

    mh = minhasher_from_file(f"{dest}/minhash_params.npz")
    ref = FastMinHasher(128)
    sh = _word_shingles("the quick brown fox jumps over the lazy dog " * 5)
    assert np.array_equal(mh.signature(sh), ref.signature(sh))

    lsh = lsh_from_file(f"{dest}/lsh_hyperplanes.npz")
    ref_lsh = HyperplaneLSH(dim=64, n_bits=12)
    v = np.arange(64, dtype=np.float64)[None, :] / 64.0
    assert lsh.bucket(v)[0] == ref_lsh.bucket(v)[0]

    # skip-if-present: mtimes unchanged on second staging
    import os

    before = [os.path.getmtime(p) for p in paths]
    stage_weights(dest, verbose=False)
    assert [os.path.getmtime(p) for p in paths] == before


def test_weight_broadcast_to_object_store(ray_session, tmp_path):
    import ray

    from open_parse_ray.state.weights import stage_to_object_store

    refs = stage_to_object_store(str(tmp_path / "w"))
    assert set(refs) == {
        "ocr_typeface.npz",
        "minhash_params.npz",
        "lsh_hyperplanes.npz",
    }
    got = ray.get(refs["minhash_params.npz"])
    assert len(got["a"]) == 128


def test_explain_condense_stats():
    """tools/explain.py's stats parser: one record per operator with
    task/block/wall extraction and cached markers."""
    import sys, os
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tools"))
    from explain import condense_stats

    stats = (
        "Operator 1 ReadParquet->SplitBlocks(64): 1 tasks executed, "
        "64 blocks produced in 2.09s\n"
        "* Remote wall time: 1.1ms min, 80ms max, 65.64ms total\n"
        "\n"
        "Operator 2 MapBatches(tag_li): 10 tasks executed, 10 blocks "
        "produced in 0.99s\n"
        "* Remote wall time: 2ms min, 30ms max, 142.91ms total\n"
        "\n"
        "Operator 3 ReadParquet->SplitBlocks(64): [execution cached]\n"
    )
    recs = condense_stats(stats)
    assert [r["op"] for r in recs] == [1, 2, 3]
    assert recs[0]["tasks"] == 1 and recs[0]["blocks"] == 64
    assert recs[0]["wall"] == "65.64ms"
    assert recs[1]["tasks"] == 10 and recs[1]["wall"] == "142.91ms"
    assert recs[2].get("cached") is True and recs[2]["tasks"] is None


def test_explain_parse_args():
    """tools/explain.py's command line, Ray-free: the value after a
    space-separated ``--repeat`` is consumed (never taken as sf_dir), and
    a bare trailing ``--repeat`` exits with the usage message."""
    import os
    import sys

    import pytest

    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tools"))
    from explain import USAGE, parse_args

    name, sf_dir, repeat = parse_args(["q", "--repeat", "3"])
    assert (name, sf_dir, repeat) == ("q", parse_args(["q"])[1], 3)
    assert parse_args(["q", "--repeat", "3", "sf"]) == ("q", "sf", 3)
    assert parse_args(["q", "sf", "--repeat=5"]) == ("q", "sf", 5)
    assert parse_args(["q", "sf"]) == ("q", "sf", 2)
    for argv in (["q", "--repeat"], ["q", "--repeat", "x"], ["--repeat", "3"]):
        with pytest.raises(SystemExit) as exc:
            parse_args(argv)
        assert exc.value.code == USAGE, argv
