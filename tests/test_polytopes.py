"""d = 3 verdicts above the rational oracles' reach: the edge frameworks of
convex simplicial polytopes (`oracles.convex_polytope`) and their images in
S^3 and H^3, whose counts Dehn's theorem gives exactly."""

import numpy as np
import pytest

import rigidkit as rk
from rigidkit import cli
from rigidkit import transforms as tr

import oracles as oc


@pytest.fixture(scope="module")
def polytope():
    pytest.importorskip("scipy.spatial")
    return oc.convex_polytope(300)


def _framework(points, edges, kind):
    """The framework in E^3, or its image in S^3/H^3 after the shrink by 0.3
    that the grids get."""
    fw = rk.build_framework(rk.graph(len(points), edges), rk.euclidean(3), points)
    if kind == "E":
        return fw
    return rk.geodesic_project(tr.apply_map(tr.affine_map(np.eye(3) * 0.3), fw),
                               rk.Space(rk.SpaceKind(kind), 3))


def _check_dehn_counts(points, edges, kind):
    """The polytope rigid with independent edges, minus an edge one dof,
    plus a diagonal one self-stress; dim V0 = 6 in each."""
    n = len(points)
    assert len(edges) == 3 * n - 6
    neighbours = set(edges[edges[:, 0] == 0, 1])
    diagonal = (0, min(set(range(1, n)) - neighbours))
    for label, graph_edges, dof, stresses in (
            ("polytope", edges, 0, 0),
            ("minus an edge", edges[1:], 1, 0),
            ("plus a diagonal", np.vstack([edges, diagonal]), 0, 1)):
        report = cli.analyze_framework(_framework(points, graph_edges, kind)).to_dict()
        assert report["rigid"] == (dof == 0), label
        assert report["kinematic_dof"] == report["static_dof"] == dof, label
        assert report["dim_V0"] == 6, label
        assert report["self_stress_count"] == stresses, label


@pytest.fixture(scope="module")
def polytope_2000():
    pytest.importorskip("scipy.spatial")
    return oc.convex_polytope(2000)


@pytest.mark.parametrize("kind", ["E", "S", "H"])
def test_dehn_counts_on_a_300_vertex_polytope(polytope, kind):
    _check_dehn_counts(*polytope, kind)


@pytest.mark.parametrize("kind", ["E", "S", "H"])
def test_dehn_counts_on_a_2000_vertex_polytope(polytope_2000, kind):
    # sigma_min sits only 4.9x above the cutoff here
    _check_dehn_counts(*polytope_2000, kind)
