"""The record classes of the package: constructor defaults, repr, equality,
hashing and immutability, one instance of each class.

The reprs are pinned byte for byte: the witness and filter digests hash the
reprs of `QuadExt` and `PluckerLine` values, and reports print the others.
"""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

import spacecross
from spacecross.counting import CrossingReport, CrossingWitness
from spacecross.drawing import Graph, SpatialDrawing
from spacecross.geometry import PluckerLine, Segment3, SegmentTransversal
from spacecross.linking import (ConwayGordonResult, LinkedCyclePair,
                                PolygonalCycle)
from spacecross.pipeline import (Bisection, HexGrid, HexGridConstruction,
                                 SubdivisionEmbedding)
from spacecross.scalars import QuadExt
from spacecross.stairs import IntervalMatching, StairCrossing, StretchedGrid


def _graph():
    return Graph(3, ((0, 1), (1, 2)))


def _line():
    return PluckerLine((1, 0, 0), (0, 0, Fraction(1, 2)))


def _cycle(z=0):
    return PolygonalCycle(((0, 0, z), (1, 0, z), (0, Fraction(1, 3), z)))


def _drawing():
    return SpatialDrawing(_graph(), [(0, 0, 0), (1, 0, 0), (1, 1, 0)])


def _grid():
    return HexGrid(0, _graph(), [(0, 0), (1, 0), (1, 1)], [[0, 1, 2]])


# name -> (a function that builds one instance, frozen)
RECORDS = {
    "QuadExt": (lambda: QuadExt(1, Fraction(2, 3), 5), True),
    "Segment3": (lambda: Segment3((0, 0, 0), (1, Fraction(1, 2), 2)), True),
    "PluckerLine": (_line, True),
    "SegmentTransversal": (
        lambda: SegmentTransversal(True, _line(), [Fraction(1, 2), 0]), False),
    "Graph": (_graph, True),
    "SpatialDrawing": (_drawing, False),
    "CrossingWitness": (
        lambda: CrossingWitness(((0, 1), (2, 3)), _line(),
                                [((0, 1), 0, Fraction(1, 4))]), False),
    "CrossingReport": (lambda: CrossingReport(4, 2, elapsed=0.5), False),
    "PolygonalCycle": (_cycle, True),
    "ConwayGordonResult": (
        lambda: ConwayGordonResult(((0, 1, 2), (3, 4, 5)), 1,
                                   {((0, 1, 2), (3, 4, 5)): 1}), False),
    "LinkedCyclePair": (
        lambda: LinkedCyclePair(_cycle(), _cycle(1), (0, 1, 2), (3, 4, 5),
                                (0, 1, 2), (3, 4, 5), -1), False),
    "Bisection": (lambda: Bisection((0, 2), (1, 3), 1, 0, 7), False),
    "SubdivisionEmbedding": (
        lambda: SubdivisionEmbedding((0, 1, 2, 3, 4, 5), {(0, 1): [0, 6, 1]}),
        False),
    "HexGrid": (_grid, False),
    "HexGridConstruction": (
        lambda: HexGridConstruction(_graph(), (0, 2), _drawing(), _grid()),
        False),
    "StretchedGrid": (
        lambda: StretchedGrid(2, ((Fraction(1), Fraction(2)),) * 3), True),
    "StairCrossing": (lambda: StairCrossing(True, 2, (1, 2, 3)), False),
    "IntervalMatching": (
        lambda: IntervalMatching(((1, 2), (3, 4), (5, 8), (6, 7)), 3), True),
}

REPRS = {
    'Bisection': 'Bisection(side1=(0, 2), side2=(1, 3), edges1=1, edges2=0, retries=7)',
    'ConwayGordonResult': 'ConwayGordonResult(odd_pair=((0, 1, 2), (3, 4, 5)), parity_sum=1, linking_numbers={((0, 1, 2), (3, 4, 5)): 1})',
    'CrossingReport': 'CrossingReport(k=4, count=2, witnesses=None, elapsed=0.5, tuples_total=0, tuples_after_prefilter=0, stages=[])',
    'CrossingWitness': 'CrossingWitness(edges=((0, 1), (2, 3)), line=PluckerLine(direction=(1, 0, 0), moment=(0, 0, Fraction(1, 2))), contacts=[((0, 1), 0, Fraction(1, 4))])',
    'Graph': 'Graph(n=3, edges=((0, 1), (1, 2)))',
    'HexGrid': 'HexGrid(k=0, graph=Graph(n=3, edges=((0, 1), (1, 2))), coords=[(0, 0), (1, 0), (1, 1)], faces=[[0, 1, 2]])',
    'HexGridConstruction': 'HexGridConstruction(graph=Graph(n=3, edges=((0, 1), (1, 2))), special_edge=(0, 2), drawing=SpatialDrawing(graph=Graph(n=3, edges=((0, 1), (1, 2))), positions=[(0, 0, 0), (1, 0, 0), (1, 1, 0)], polylines={}), grid=HexGrid(k=0, graph=Graph(n=3, edges=((0, 1), (1, 2))), coords=[(0, 0), (1, 0), (1, 1)], faces=[[0, 1, 2]]))',
    'IntervalMatching': 'IntervalMatching(pairs=((1, 2), (3, 4), (5, 8), (6, 7)), components=3)',
    'LinkedCyclePair': 'LinkedCyclePair(cycle1=PolygonalCycle(points=((0, 0, 0), (1, 0, 0), (0, Fraction(1, 3), 0))), cycle2=PolygonalCycle(points=((0, 0, 1), (1, 0, 1), (0, Fraction(1, 3), 1))), loop1=(0, 1, 2), loop2=(3, 4, 5), tri1=(0, 1, 2), tri2=(3, 4, 5), lk=-1)',
    'PluckerLine': 'PluckerLine(direction=(1, 0, 0), moment=(0, 0, Fraction(1, 2)))',
    'PolygonalCycle': 'PolygonalCycle(points=((0, 0, 0), (1, 0, 0), (0, Fraction(1, 3), 0)))',
    'QuadExt': 'QuadExt(1 + 2/3*sqrt(5))',
    'Segment3': 'Segment3(p=(Fraction(0, 1), Fraction(0, 1), Fraction(0, 1)), q=(Fraction(1, 1), Fraction(1, 2), Fraction(2, 1)))',
    'SegmentTransversal': 'SegmentTransversal(exists=True, line=PluckerLine(direction=(1, 0, 0), moment=(0, 0, Fraction(1, 2))), params=[Fraction(1, 2), 0])',
    'SpatialDrawing': 'SpatialDrawing(graph=Graph(n=3, edges=((0, 1), (1, 2))), positions=[(0, 0, 0), (1, 0, 0), (1, 1, 0)], polylines={})',
    'StairCrossing': 'StairCrossing(exists=True, kind=2, coords=(1, 2, 3))',
    'StretchedGrid': 'StretchedGrid(n=2, coords=((Fraction(1, 1), Fraction(2, 1)), (Fraction(1, 1), Fraction(2, 1)), (Fraction(1, 1), Fraction(2, 1))))',
    'SubdivisionEmbedding': 'SubdivisionEmbedding(branch_vertices=(0, 1, 2, 3, 4, 5), paths={(0, 1): [0, 6, 1]})',
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_repr_equality_and_hashing(name):
    make, frozen = RECORDS[name]
    a, b = make(), make()
    assert type(a).__name__ == name
    assert repr(a) == REPRS[name]
    assert a == b and not a != b
    assert a != object()
    if frozen:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)


@pytest.mark.parametrize("name", sorted(n for n in RECORDS if RECORDS[n][1]))
def test_frozen_records_refuse_assignment(name):
    a = RECORDS[name][0]()
    field = next(iter(vars(a)))
    with pytest.raises(AttributeError):
        setattr(a, field, 0)
    with pytest.raises(AttributeError):
        delattr(a, field)


def test_record_defaults_are_fresh_per_instance():
    r1, r2 = CrossingReport(4, 0), CrossingReport(4, 0)
    assert r1.stages == [] and r1.stages is not r2.stages
    assert (r1.witnesses, r1.elapsed, r1.tuples_total,
            r1.tuples_after_prefilter) == (None, 0.0, 0, 0)
    d1, d2 = _drawing(), _drawing()
    assert d1.polylines == {} and d1.polylines is not d2.polylines
    assert SegmentTransversal(False) == SegmentTransversal(False, None, None)
    assert StairCrossing(False) == StairCrossing(False, None, None)


def test_records_take_fields_by_keyword():
    line = _line()
    assert PluckerLine(direction=line.direction, moment=line.moment) == line
    assert Segment3(q=(1, 1, 1), p=(0, 0, 0)) == Segment3((0, 0, 0), (1, 1, 1))
    assert Graph(edges=((0, 1),), n=2) == Graph(2, ((0, 1),))
    assert CrossingReport(k=3, count=1, stages=[("a", 1, 1, 0.0)]).stages \
        == [("a", 1, 1, 0.0)]


def test_polygonal_cycle_derived_fields_stay_out_of_comparison():
    small, other = _cycle(), _cycle()
    object.__setattr__(other, "int_points", ())
    object.__setattr__(other, "scale", 7)
    assert small == other and hash(small) == hash(other)
    assert "int_points" not in repr(small) and "scale" not in repr(small)
    assert small.scale == 3
    assert small.ends is small.ends
    assert PolygonalCycle(((0, 0, 0), (2, 0, 0), (0, 2, 0))).scale == 1


def test_unequal_fields_compare_unequal():
    assert Graph(3, ()) != Graph(4, ())
    assert Bisection((0,), (1,), 0, 0, 1) != Bisection((0,), (1,), 0, 0, 2)
    assert _cycle() != _cycle(1)


def test_importing_the_cli_loads_no_dataclasses():
    code = ("import sys, spacecross.cli; "
            "print('dataclasses' in sys.modules)")
    src = os.path.dirname(os.path.dirname(os.path.abspath(spacecross.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.strip() == "False"
