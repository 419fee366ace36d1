import itertools
import json
from fractions import Fraction

import pytest

from spacecross.drawing import (Graph, SpatialDrawing, decode_drawing,
                                encode_drawing)
from spacecross.errors import ValidationError
from spacecross.geometry import point3


def square_drawing():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    pts = [point3(0, 0, 0), point3(1, 0, 0), point3(1, 1, 0), point3(0, 1, 0)]
    return SpatialDrawing(g, pts, {(0, 1): [point3(Fraction(1, 2), Fraction(1, 3), 1)]})


def test_graph_validation():
    with pytest.raises(ValidationError):
        Graph(3, ((0, 0),))
    with pytest.raises(ValidationError):
        Graph(3, ((0, 3),))
    with pytest.raises(ValidationError):
        Graph(3, ((0, 1), (0, 1)))
    g = Graph.from_edges(4, [(2, 1), (1, 2), (0, 3)])
    assert g.edges == ((0, 3), (1, 2))
    assert g.degree(1) == 1 and g.adjacency()[1] == [2]


def test_codec_round_trip():
    d = square_drawing()
    data = encode_drawing(d)
    back = decode_drawing(data)
    assert encode_drawing(back) == data
    assert back.graph == d.graph
    assert back.positions == d.positions
    assert back.polylines == d.polylines
    assert decode_drawing(encode_drawing(d)).graph == d.graph


def test_codec_parses_exact_scalars():
    doc = {"n": 1, "vertices": [{"id": 0, "pos": ["1/3", "0/1", "2/1"]}],
           "edges": []}
    d = decode_drawing(json.dumps(doc))
    assert d.positions[0] == (Fraction(1, 3), Fraction(0), Fraction(2))


def test_codec_rejects_loop_with_location():
    doc = {"n": 2, "vertices": [{"id": 0, "pos": ["0/1", "0/1", "0/1"]},
                                {"id": 1, "pos": ["1/1", "0/1", "0/1"]}],
           "edges": [{"u": 0, "v": 0, "polyline": []}]}
    with pytest.raises(ValidationError) as err:
        decode_drawing(json.dumps(doc))
    assert "edges[0]" in str(err.value)


def test_codec_rejects_bad_scalar_and_missing_vertex():
    doc = {"n": 1, "vertices": [{"id": 0, "pos": ["0.5", "0/1", "0/1"]}],
           "edges": []}
    with pytest.raises(ValidationError):
        decode_drawing(json.dumps(doc))
    with pytest.raises(ValidationError):
        decode_drawing(json.dumps({"n": 2, "vertices": [], "edges": []}))


def test_polyline_orientation_normalized():
    # documents may list an edge as (v, u); interior points are reversed
    doc = {"n": 2, "vertices": [{"id": 0, "pos": ["0/1", "0/1", "0/1"]},
                                {"id": 1, "pos": ["3/1", "0/1", "0/1"]}],
           "edges": [{"u": 1, "v": 0,
                      "polyline": [["2/1", "1/1", "0/1"], ["1/1", "1/1", "0/1"]]}]}
    d = decode_drawing(json.dumps(doc))
    pts = d.edge_points((0, 1))
    assert pts[1] == (Fraction(1), Fraction(1), Fraction(0))
    assert pts[2] == (Fraction(2), Fraction(1), Fraction(0))


def test_repeated_polyline_point_rejected():
    g = Graph.from_edges(2, [(0, 1)])
    pts = [point3(0, 0, 0), point3(1, 0, 0)]
    with pytest.raises(ValidationError):
        SpatialDrawing(g, pts, {(0, 1): [point3(0, 0, 0)]})


def test_edge_segments_split_polylines():
    d = square_drawing()
    assert len(d.edge_segments((0, 1))) == 2
    assert len(d.edge_segments((1, 2))) == 1
    assert not d.is_straight()
    assert not d.is_flat()
