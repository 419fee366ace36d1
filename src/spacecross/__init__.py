"""Exact space-crossing toolkit for spatial graph drawings."""

from .counting import (CrossingReport, CrossingWitness, count_line_crossings,
                       count_planar_crossings, enumerate_disjoint_tuples,
                       lift_to_sphere)
from .drawing import Graph, SpatialDrawing, decode_drawing, drawing_codec, encode_drawing
from .errors import (DegenerateInput, DegeneratePosition, NotDisjoint,
                     PreconditionViolated, RetryExhausted, ValidationError)
from .geometry import (PluckerLine, Segment3, plucker_from_segment, point3,
                       segments_intersect_2d, side_product,
                       transversal_exists_segments)
from .linking import (PolygonalCycle, conway_gordon_check, find_linked_pair,
                      linking_number, transversal_through_cycles)
from .pipeline import (Bisection, SubdivisionEmbedding, boost_witness_pipeline,
                       extract_disjoint_subdivisions, find_k6_subdivision,
                       hexgrid_construction, random_bisection)
from .sametype import (PointMultiset, SparsePolynomial, block_term_count,
                       brute_force_same_type, linearize_last_block,
                       same_type_refine, yao_yao_partition)
from .scalars import QuadExt
from .stairs import (StretchedGrid, count_candidate_quadruples,
                     enumerate_order_types, grid_distance, interval_graph,
                     stair_crossing_exists, stair_path, standard_stair_drawing)

__version__ = "0.1.0"
