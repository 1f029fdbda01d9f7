import xml.etree.ElementTree as ET

import pytest

from secloc.cli import main
from secloc.svgplot import render_line_plot


def axis_labels(svg, x_label="x"):
    """The tick labels of the x and y axes (the texts before the two axis
    titles) and the number of polylines."""
    root = ET.fromstring(svg)
    texts = [el.text for el in root.iter() if el.tag.endswith("text")]
    polylines = sum(el.tag.endswith("polyline") for el in root.iter())
    return texts[: texts.index(x_label)], polylines


@pytest.mark.parametrize(
    "series, labels, polylines",
    [
        # nothing to draw: both axes span [0, 1]
        ({"ls": [(2, None)], "crlb": [(2, None)]}, ["0", "0.5", "1"] * 2, 0),
        # one axis value: x spans [4, 5]
        ({"ls": [(4, 1.5)]}, ["4", "4.5", "5", "0", "0.5", "1", "1.5"], 1),
        # every RMSE 0: y spans [0, 1]
        ({"ls": [(2, 0.0), (4, 0.0)]}, ["2", "2.5", "3", "3.5", "4", "0", "0.5", "1"], 1),
        # one axis value where adding 1 does not move it: x spans [1e17, 2e17]
        ({"ls": [(1e17, 1.0)]}, ["1e+17", "1.5e+17", "2e+17", "0", "0.5", "1"], 1),
        # two axis values 16 apart at 1e17, where a 5-wide tick step is below
        # the resolution: five ticks, not an endless loop
        (
            {"ls": [(1e17, 1.0), (1e17 + 16, 2.0)]},
            ["1e+17"] * 5 + ["0", "0.5", "1", "1.5", "2"],
            1,
        ),
    ],
    ids=["no-points", "one-x", "flat-zero-y", "one-huge-x", "narrow-huge-x"],
)
def test_degenerate_ranges(series, labels, polylines):
    assert axis_labels(render_line_plot(series, "x")) == (labels, polylines)


def test_sweep_of_one_value(tmp_path):
    # sweep --values 4 --svg: one axis value per series
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "attack.kind = uncoordinated\nattack.sigma_att = 8\nmalicious.fraction = 0.28\n"
        "estimators = ls, wls\ntrials = 5\n"
    )
    svg = tmp_path / "sweep.svg"
    args = ["--axis", "sigma_att", "--values", "4", "--out", str(tmp_path / "s.csv")]
    assert main(["sweep", "--config", str(cfg), *args, "--svg", str(svg)]) == 0
    labels, polylines = axis_labels(svg.read_text(), "sigma_att")
    assert labels[:3] == ["4", "4.5", "5"] and polylines == 3
