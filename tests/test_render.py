"""SVG output: structure and byte-level determinism."""

import pytest

from aztecbridge.engine import enumerate_tilings
from aztecbridge.regions import ConstraintError, build_aztec_diamond, build_double_rectangle, parse_spec
from aztecbridge.render import render_tiling
from aztecbridge.stats import minimal_tiling


def test_two_domino_picture():
    region = build_aztec_diamond(1)
    t = next(enumerate_tilings(region))
    svg = render_tiling(region, t)
    assert svg.startswith("<?xml")
    assert svg.count("<rect") == 3  # background plus two dominoes
    assert svg.rstrip().endswith("</svg>")


def test_byte_identical_across_runs():
    region = build_double_rectangle(1, 2, 0, 1, 2)
    tilings = list(enumerate_tilings(region))
    for t in (tilings[0], tilings[3]):
        assert render_tiling(region, t, True) == render_tiling(region, t, True)
        assert render_tiling(region, t) == render_tiling(region, t)


def test_path_overlay_elements():
    from aztecbridge.regions import boundary_markers

    region = build_double_rectangle(1, 2, 0, 1, 2)
    t = minimal_tiling(region)
    svg = render_tiling(region, t, overlay_paths=True)
    markers = boundary_markers(region)
    assert svg.count("<polyline") == len(markers.u)
    assert svg.count("<circle") == len(markers.u) + len(markers.v)
    assert "u1" in svg and "v1" in svg


def test_integer_coordinates_only():
    import re

    region = build_double_rectangle(2, 3, 1, 2, 3)
    svg = render_tiling(region, minimal_tiling(region), overlay_paths=True)
    # no fractional pixel positions anywhere outside the XML version header
    body = svg.split("\n", 1)[1]
    assert not re.search(r"\d\.\d", body)


def test_a_mask_that_does_not_cover_the_region_once_is_not_drawn():
    region = parse_spec("ad:2")
    lat = region.lattice
    # two dominoes on cell 0: the one up from it and the one right of it
    first, second = (k for k, (i, _) in enumerate(lat.pairs) if i == 0)
    for mask, message in ((1 << 999, "a bit past the 16 pieces"), (1 << first | 1 << second, "covered twice")):
        for overlay in (False, True):
            with pytest.raises(ConstraintError, match=message):
                render_tiling(region, mask, overlay)
