import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rigidkit as rk
from rigidkit.cli import analyze_framework
from rigidkit.errors import AntipodalEdge, DegenerateEdge, GraphMismatch, RigidkitError

import oracles as oc


def test_build_validates_edges():
    g = rk.graph(2, [(0, 1)])
    with pytest.raises(DegenerateEdge):
        rk.build_framework(g, rk.euclidean(2), [(1.0, 2.0), (1.0, 2.0)])
    with pytest.raises(AntipodalEdge):
        rk.build_framework(g, rk.spherical(2), [(0, 1, 0), (0, -1, 0)])


def test_edge_lengths_right_triangle(right_triangle):
    lengths = rk.edge_lengths(right_triangle)
    assert sorted(np.round(lengths.values, 12)) == pytest.approx([1.0, 1.0, np.sqrt(2)])
    assert lengths[(1, 2)] == pytest.approx(np.sqrt(2))


@pytest.mark.parametrize("t", [0.3, 0.5, 0.7])
def test_jessen_edge_lengths(t):
    fw = rk.gallery.fixture("jessen:%s" % t).framework
    lengths = rk.edge_lengths(fw)
    expected = {2.0, np.sqrt(2 * (t * t - t + 1))}
    got = set(np.round(lengths.values, 12))
    assert len(got) == 2
    for val in got:
        assert min(abs(val - e) for e in expected) < 1e-12
    # 6 long rectangle sides, 24 triangle edges
    assert np.sum(np.abs(lengths.values - 2.0) < 1e-12) == 6
    assert fw.m == 30


def test_is_isometric_reflexive_and_family(right_triangle):
    assert rk.is_isometric(right_triangle, right_triangle)
    p3 = rk.gallery.fixture("jessen:0.3").framework
    p7 = rk.gallery.fixture("jessen:0.7").framework
    assert rk.is_isometric(p3, p7)
    scaled = rk.build_framework(
        right_triangle.graph, right_triangle.space, right_triangle.coords[:, 1:] * 2.0
    )
    assert not rk.is_isometric(right_triangle, scaled)


def test_is_isometric_under_random_isometries(rng):
    fw = rk.gallery.fixture("prism3-concurrent").framework
    # random planar rotation + translation
    th = rng.uniform(0, 2 * np.pi)
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    moved = rk.build_framework(
        fw.graph, fw.space, fw.coords[:, 1:] @ rot.T + rng.standard_normal(2)
    )
    assert rk.is_isometric(fw, moved, tol=1e-9)

    # hyperbolic: a Lorentz boost
    fwh = rk.build_framework(
        rk.graph(2, [(0, 1)]), rk.hyperbolic(2),
        [(1.0, 0.0, 0.0), (np.cosh(0.7), np.sinh(0.7), 0.0)],
    )
    a = 0.43
    boost = np.array([[np.cosh(a), np.sinh(a), 0], [np.sinh(a), np.cosh(a), 0], [0, 0, 1]])
    moved = rk.build_framework(fwh.graph, fwh.space, fwh.coords @ boost.T,
                               renormalize=True)
    assert rk.is_isometric(fwh, moved, tol=1e-9)


def test_is_isometric_graph_mismatch(right_triangle):
    other = rk.build_framework(rk.graph(3, [(0, 1), (1, 2)]), rk.euclidean(2),
                               [(0, 0), (1, 0), (0, 1)])
    with pytest.raises(GraphMismatch):
        rk.is_isometric(right_triangle, other)


def test_is_spanning(right_triangle):
    assert rk.is_spanning(right_triangle)
    collinear = rk.build_framework(rk.graph(3, [(0, 1), (1, 2)]), rk.euclidean(2),
                                   [(0, 0), (1, 0), (2, 0)])
    assert not rk.is_spanning(collinear)
    # four points on a great circle of S^2: rank 3 fails in ambient R^3? No:
    # the great circle spans only a 2-dim subspace, so rank < 3.
    angles = [0.1, 1.0, 2.0, 4.0]
    coords = [(np.cos(a), np.sin(a), 0.0) for a in angles]
    ring = rk.build_framework(rk.graph(4, [(0, 1), (1, 2), (2, 3)]), rk.spherical(2),
                              [(c[2], c[0], c[1]) for c in coords])
    assert not rk.is_spanning(ring)


def test_json_roundtrip(tmp_path, prism_doc):
    fw = prism_doc.framework
    path = tmp_path / "prism.json"
    rk.save_framework(path, fw, stress=prism_doc.stress, description="x")
    doc = rk.load_framework(path)
    assert doc.framework.graph == fw.graph
    assert np.array_equal(doc.framework.coords, fw.coords)
    assert doc.stress == prism_doc.stress
    assert doc.framework.embedding.faces == fw.embedding.faces
    # shortest-roundtrip float formatting keeps numbers bit-identical
    second = tmp_path / "prism2.json"
    rk.save_framework(second, doc.framework, stress=doc.stress, description="x")
    assert path.read_text() == second.read_text()


def test_a_load_reads_the_coordinate_rows_once(prism_doc, monkeypatch):
    from rigidkit import frameworks

    calls = []
    real = frameworks._ambient_rows

    def ambient_rows(coords, space):
        calls.append(space)
        return real(coords, space)

    monkeypatch.setattr(frameworks, "_ambient_rows", ambient_rows)
    fw = prism_doc.framework
    doc = rk.framework_from_dict(rk.framework_to_dict(fw))
    assert len(calls) == 1
    assert np.array_equal(doc.framework.coords, fw.coords)


def test_json_euclidean_vertices_may_carry_leading_one():
    data = {
        "space": "E", "dim": 2,
        "vertices": [[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]],
        "edges": [[0, 1]],
    }
    doc = rk.framework_from_dict(data)
    assert doc.framework.coords.shape == (2, 3)
    data["vertices"] = [[0.0, 0.0], [1.0, 0.0]]
    doc2 = rk.framework_from_dict(data)
    assert np.array_equal(doc.framework.coords, doc2.framework.coords)


def test_json_euclidean_rows_of_mixed_width():
    data = {"space": "E", "dim": 2, "vertices": [[0, 0], [1, 0, 2]], "edges": [[0, 1]]}
    fw = rk.framework_from_dict(data).framework
    assert np.array_equal(fw.coords, [[1.0, 0.0, 0.0], [1.0, 0.0, 2.0]])


@pytest.mark.parametrize("code", "ESH")
def test_an_ndarray_of_coordinates_is_read_as_an_array(code, rng):
    # bit for bit as the same rows given as lists; only the dtype is checked
    fw = oc.random_framework(rng, rk.spaces.space_from_code(code, 2), 5)
    arrays = [fw.coords]
    if code == "E":
        arrays += [fw.coords.astype(np.float32), fw.coords[:, 1:],
                   (fw.coords[:, 1:] * 4).astype(int)]
    for arr in arrays:
        from_array = rk.build_framework(fw.graph, fw.space, arr).coords
        assert np.array_equal(from_array, rk.build_framework(fw.graph, fw.space,
                                                             arr.tolist()).coords)
    for arr in (fw.coords > 0, fw.coords.astype(object), fw.coords.astype(str)):
        with pytest.raises(TypeError, match="coordinates must be numbers"):
            rk.build_framework(fw.graph, fw.space, arr)
    with pytest.raises(rk.errors.DimensionMismatch):
        rk.build_framework(fw.graph, fw.space, fw.coords[:, :1])


@pytest.mark.parametrize("keys", [["0-1,1-2", "0-2"], ["0-1-2", "1"], ["0-1", ""]])
def test_stress_keys_split_across_keys_are_refused(keys):
    data = {"space": "E", "dim": 2, "vertices": [[0, 0], [1, 0], [0, 1]],
            "edges": [[0, 1], [1, 2], [0, 2]], "stress": dict.fromkeys(keys, 1.0)}
    with pytest.raises(rk.errors.GraphError, match="stress keys must read i-j"):
        rk.framework_from_dict(data)


def _analysis(fw):
    """Every count and verdict of `analyze`, or the error it raises."""
    try:
        return analyze_framework(fw).to_dict()
    except RigidkitError as exc:
        return type(exc).__name__


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), space=st.sampled_from("ESH"), d=st.integers(1, 3),
       n=st.integers(2, 7))
def test_json_roundtrip_keeps_the_analysis(seed, space, d, n):
    fw = oc.random_framework(np.random.RandomState(seed), rk.spaces.space_from_code(space, d), n)
    back = rk.framework_from_dict(json.loads(json.dumps(rk.framework_to_dict(fw)))).framework
    assert back.graph == fw.graph and back.space == fw.space
    assert _analysis(back) == _analysis(fw)


def test_is_isometric_under_spherical_rotation(rng):
    raw = rng.standard_normal((4, 3))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    fw = rk.build_framework(rk.graph(4, [(0, 1), (1, 2), (2, 3)]),
                            rk.spherical(2), raw)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    moved = rk.build_framework(fw.graph, fw.space, fw.coords @ q.T, renormalize=True)
    assert rk.is_isometric(fw, moved, tol=1e-9)


def test_edge_lengths_on_a_repeated_edge_are_refused():
    with pytest.raises(rk.errors.GraphError, match=r"duplicate edge \(0, 1\)"):
        rk.EdgeLengthMap([(0, 1), (1, 0)], [1.0, 2.0])


def test_bad_attachments_rejected():
    data = {"space": "E", "dim": 2, "vertices": [[0, 0], [1, 0]],
            "edges": [[0, 1]], "stress": {"0-5": 1.0}}
    with pytest.raises(rk.errors.GraphError):
        rk.framework_from_dict(data)
    data2 = {"space": "E", "dim": 2, "vertices": [[0, 0], [1, 0]],
             "edges": [[0, 1]], "load": [[0.0, 1.0]]}
    with pytest.raises(rk.errors.GraphError):
        rk.framework_from_dict(data2)


def test_stress_keys_in_either_orientation():
    data = {"space": "E", "dim": 2, "vertices": [[0, 0], [1, 0], [0, 1]],
            "edges": [[0, 1], [1, 2], [0, 2]],
            "stress": {"1-0": 1.5, "2-1": -2.0, "0-2": 0.25}}
    doc = rk.framework_from_dict(data)
    assert doc.stress == {(0, 1): 1.5, (1, 2): -2.0, (0, 2): 0.25}
    w = rk.stress_from_dict(doc.framework, {(1, 0): 1.5, (2, 1): -2.0, (2, 0): 0.25})
    assert w.edges == doc.framework.graph.edges
    assert w[(2, 1)] == w[(1, 2)] == -2.0
    data["stress"]["2-3"] = 1.0
    with pytest.raises(rk.errors.GraphError):
        rk.framework_from_dict(data)
    with pytest.raises(rk.errors.GraphError):
        rk.stress_from_dict(doc.framework, {(3, 1): 1.0})


def test_a_stress_given_twice_on_one_edge_is_an_input_error(tmp_path, prism_doc):
    data = rk.framework_to_dict(prism_doc.framework, stress=prism_doc.stress)
    data["stress"]["1-0"] = 123.0  # beside "0-1"
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(data, indent=1))
    with pytest.raises(rk.errors.GraphError, match="stress on edge 0-1 given twice"):
        rk.load_framework(path)
    with pytest.raises(rk.errors.GraphError, match="stress on edge 0-1 given twice"):
        rk.stress_from_dict(prism_doc.framework, {(0, 1): 1.0, (1, 0): 2.0})


_JSON_KEYS = st.text(max_size=8)
_JSON_LEAVES = (st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats()
                | st.text(max_size=12))
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(_JSON_KEYS, inner, max_size=5),
    max_leaves=40)


@settings(max_examples=200, deadline=None)
@given(data=_JSON_VALUES)
def test_json_text_is_json_dumps_with_indent_1(data):
    assert rk.frameworks.json_text(data) == json.dumps(data, indent=1)


@pytest.mark.parametrize("value", [
    [], {}, [[], {}], {"a": [], "b": {}}, [[[1.5]], {"k": [None, True, False]}],
    2**63, -2**63 - 1, 2**100, -0.0, 5e-324, 1e16, 1e22, 0.1 + 0.2, -1e-7,
    float("nan"), float("inf"), -float("inf"), np.float64(0.1), (1, 2.5),
    {"é中\U0001f600": "\x00\x1f\t\n\"\\/ ", "": ""},
])
def test_json_text_on_edge_values(value):
    assert rk.frameworks.json_text(value) == json.dumps(value, indent=1)


def test_written_framework_files_are_json_dump_with_indent_1(tmp_path, prism_doc):
    path = tmp_path / "prism.json"
    description = "café 中\U0001f600 \x00\x07 tab\there \"quoted\" back\\slash"
    rk.save_framework(path, prism_doc.framework, stress=prism_doc.stress,
                      description=description)
    data = rk.framework_to_dict(prism_doc.framework, stress=prism_doc.stress,
                                description=description)
    assert path.read_text() == json.dumps(data, indent=1) + "\n"
    assert rk.load_framework(path).description == description
