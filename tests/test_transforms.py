import numpy as np
import pytest

import rigidkit as rk
from rigidkit import transforms as tr
from rigidkit.errors import (
    DegenerateMidpoint,
    InvalidMapSpec,
    NotIsometric,
    OutsideChart,
    VertexAtInfinity,
)

from conftest import scaled_into_chart
from test_sparse import grid
import oracles as oc


def _random_invertible(rng, n, min_det=0.1):
    while True:
        m = rng.standard_normal((n, n))
        if abs(np.linalg.det(m)) > min_det:
            return m


def _random_equilibrium_load(rng, fw):
    raw = rng.standard_normal((fw.n, fw.space.ambient_dim))
    stacked = oc.equilibrium_stack(fw).toarray()
    corr, *_ = np.linalg.lstsq(stacked, stacked @ raw.ravel(), rcond=None)
    return rk.load(fw, (raw.ravel() - corr).reshape(fw.n, -1), eps=1e-7)


def test_apply_projective_identity(prism_doc):
    fw = prism_doc.framework
    img = rk.apply_projective(fw, np.eye(3))
    assert np.allclose(img.coords, fw.coords)


def test_apply_projective_affine_consistency(rng, prism_doc):
    fw = prism_doc.framework
    a = _random_invertible(rng, 2)
    b = rng.standard_normal(2)
    via_affine = tr.apply_map(tr.affine_map(a, b), fw)
    m = np.zeros((3, 3))
    m[0, 0] = 1.0
    m[1:, 0] = b
    m[1:, 1:] = a
    via_projective = rk.apply_projective(fw, m)
    assert np.allclose(via_affine.coords, via_projective.coords)


def test_projective_dof_invariance(rng, prism_doc):
    fw = prism_doc.framework
    for _ in range(8):
        m = _random_invertible(rng, 3) + 2.0 * np.eye(3)
        try:
            img = rk.apply_projective(fw, m)
        except VertexAtInfinity:
            continue
        assert rk.kinematic_dof(img) == 1


def test_vertex_at_infinity():
    fw = rk.gallery.fixture("triangle").framework
    m = np.array([[0.0, 1.0, 0.0],  # sends the line x = 0 to infinity
                  [1.0, 0.0, 0.0],
                  [0.0, 0.0, 1.0]])
    with pytest.raises(VertexAtInfinity):
        rk.apply_projective(fw, m)  # vertex 0 sits at the origin


def test_geodesic_project_examples():
    fw = rk.build_framework(rk.graph(1, []), rk.euclidean(2), [(0.0, 0.0)])
    for target in ("S", "H"):
        img = rk.geodesic_project(fw, rk.Space(rk.SpaceKind(target), 2))
        assert np.allclose(img.coords[0], [1.0, 0.0, 0.0])
    pt = rk.build_framework(rk.graph(1, []), rk.euclidean(2), [(0.6, 0.0)])
    img = rk.geodesic_project(pt, rk.hyperbolic(2))
    expected = np.array([1.0, 0.6, 0.0]) / np.sqrt(1 - 0.36)
    assert np.allclose(img.coords[0], expected)
    assert rk.signed_inner(img.coords[0], img.coords[0], img.space) == pytest.approx(-1.0)


def test_geodesic_outside_chart():
    fw = rk.gallery.fixture("prism3-concurrent").framework  # radius 4 > 1
    with pytest.raises(OutsideChart):
        rk.geodesic_project(fw, rk.hyperbolic(2))
    with pytest.raises(InvalidMapSpec):
        rk.geodesic_project(fw, rk.euclidean(2))  # E -> E is not geodesic-chart


def test_geodesic_dof_invariance(prism_doc):
    fw = scaled_into_chart(prism_doc.framework)
    assert rk.kinematic_dof(fw) == 1
    for target in (rk.spherical(2), rk.hyperbolic(2)):
        img = rk.geodesic_project(fw, target)
        assert rk.kinematic_dof(img) == 1
        back = rk.geodesic_project(img, rk.euclidean(2))
        assert np.max(np.abs(back.coords - fw.coords)) < 1e-12


def test_pogorelov_identity_spec(prism_doc, rng):
    fw = prism_doc.framework
    f = _random_equilibrium_load(rng, fw)
    report = tr.FrameworkMap(tr.affine_map(np.eye(2)), fw)
    out = report.static(f)
    assert np.allclose(out.vecs, f.vecs)
    assert report.global_scale == 1.0


def test_pogorelov_geodesic_origin_factor():
    # at the chart tangency point e0 the static map is the bare differential
    fw = rk.build_framework(rk.graph(2, [(0, 1)]), rk.euclidean(2),
                            [(0.0, 0.0), (0.3, 0.0)])
    f = rk.load(fw, [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    out = tr.FrameworkMap(tr.geodesic_map("S"), fw).static(f)
    assert np.allclose(out.vecs[0], [0.0, 0.0, 1.0])


@pytest.mark.parametrize("make_spec", [
    lambda rng: tr.projective_map(_random_invertible(rng, 3) + 2.5 * np.eye(3)),
    lambda rng: tr.affine_map(_random_invertible(rng, 2), rng.standard_normal(2)),
    lambda rng: tr.geodesic_map("S"),
    lambda rng: tr.geodesic_map("H"),
])
def test_pogorelov_preserves_statics(make_spec, rng, prism_doc):
    fw = scaled_into_chart(prism_doc.framework)
    fmap = tr.FrameworkMap(make_spec(rng), fw)
    # equilibrium verdicts preserved bit-for-bit
    f_eq = _random_equilibrium_load(rng, fw)
    raw = rng.standard_normal((fw.n, 3))
    raw[:, 0] = 0.0
    f_raw = rk.load(fw, raw)
    for f, expect in ((f_eq, True), (f_raw, rk.is_equilibrium_load(fw, f_raw))):
        out = fmap.static(f)
        assert rk.is_equilibrium_load(out.framework, out) == expect
    # resolvability verdicts preserved
    w = rk.Stress(fw.graph.edges, rng.standard_normal(fw.m))
    f_res = rk.apply_stress(fw, w)
    out = fmap.static(f_res)
    assert not isinstance(rk.resolve_load(out.framework, out), rk.Unresolvable)
    out_eq = fmap.static(f_eq)
    assert isinstance(rk.resolve_load(fw, f_eq), rk.Unresolvable) == \
        isinstance(rk.resolve_load(out_eq.framework, out_eq), rk.Unresolvable)


@pytest.mark.parametrize("make_spec", [
    lambda rng: tr.projective_map(_random_invertible(rng, 3) + 2.5 * np.eye(3)),
    lambda rng: tr.geodesic_map("S"),
    lambda rng: tr.geodesic_map("H"),
])
def test_pogorelov_duality_virtual_work(make_spec, rng, prism_doc):
    fw = scaled_into_chart(prism_doc.framework)
    fmap = tr.FrameworkMap(make_spec(rng), fw)
    raw = rng.standard_normal((fw.n, 3))
    raw[:, 0] = 0.0
    f = rk.load(fw, raw)
    q = rk.motion_spaces(fw).basis_V[0]
    f1 = fmap.static(f)
    q1 = fmap.kinematic(q)
    vw0 = rk.virtual_work(q, f)
    vw1 = rk.virtual_work(q1, f1)
    assert vw1 == pytest.approx(vw0, rel=1e-8)


def test_pogorelov_kinematic_preserves_spaces(rng, prism_doc):
    fw = scaled_into_chart(prism_doc.framework)
    fmap = tr.FrameworkMap(tr.projective_map(_random_invertible(rng, 3) + 2.5 * np.eye(3)), fw)
    # flexes map to flexes
    for q in rk.motion_spaces(fw).basis_V:
        q1 = fmap.kinematic(q)
        op = rk.rigidity_operator(q1.framework)
        assert np.max(op.edge_residuals(q1)) <= 1e-8
    # Killing fields map to Killing fields
    fmap_a = tr.FrameworkMap(tr.affine_map(_random_invertible(rng, 2), rng.standard_normal(2)), fw)
    for q in rk.motion_spaces(fw).basis_V0:
        q1 = fmap_a.kinematic(q)
        basis = rk.motion_spaces(q1.framework).basis_V0
        flat = q1.vecs.ravel().copy()
        for b in basis:
            flat -= (flat @ b.vecs.ravel()) * b.vecs.ravel()
        assert np.linalg.norm(flat) <= 1e-8 * max(q1.norm(), 1e-12)


def test_pogorelov_stress_commutes_with_load_transport(rng, prism_doc):
    fw = scaled_into_chart(prism_doc.framework)
    for spec in (tr.geodesic_map("S"), tr.geodesic_map("H"),
                 tr.projective_map(_random_invertible(rng, 3) + 2.5 * np.eye(3))):
        w = rk.Stress(fw.graph.edges, rng.standard_normal(fw.m))
        fmap = tr.FrameworkMap(spec, fw)
        w1 = fmap.stress(w)
        f_direct = rk.apply_stress(fw, w)
        f_image = fmap.static(f_direct)
        f_from_stress = rk.apply_stress(f_image.framework, w1)
        scale = max(np.max(np.abs(f_image.vecs)), 1e-12)
        assert np.max(np.abs(f_image.vecs - f_from_stress.vecs)) <= 1e-9 * scale


def test_average_identity_is_trivial(prism_doc):
    fw = prism_doc.framework
    res = tr.average(fw, fw)
    assert res.field.norm() == 0.0
    assert not res.nontrivial


def test_average_requires_isometric(prism_doc):
    fw = prism_doc.framework
    scaled = rk.build_framework(fw.graph, fw.space, fw.coords[:, 1:] * 2)
    with pytest.raises(NotIsometric):
        tr.average(fw, scaled)


def test_average_jessen_family():
    p3 = rk.gallery.fixture("jessen:0.3").framework
    p7 = rk.gallery.fixture("jessen:0.7").framework
    p5 = rk.gallery.fixture("jessen:0.5").framework
    res = tr.average(p3, p7)
    assert np.max(np.abs(res.framework.coords - p5.coords)) <= 1e-10
    assert res.nontrivial
    op = rk.rigidity_operator(res.framework)
    assert np.max(op.edge_residuals(res.field)) <= 1e-8


def test_average_factors_only_the_killing_matrix(monkeypatch):
    # the V_0 projection needs the Killing evaluation matrix's rank and basis,
    # not the midpoint's rigidity operator
    p3 = rk.gallery.fixture("jessen:0.3").framework
    p7 = rk.gallery.fixture("jessen:0.7").framework
    real = np.linalg.svd
    calls = []

    def svd(a, full_matrices=True, compute_uv=True, hermitian=False):
        calls.append((np.shape(a), compute_uv))
        return real(a, full_matrices=full_matrices, compute_uv=compute_uv,
                    hermitian=hermitian)

    monkeypatch.setattr(np.linalg, "svd", svd)
    res = tr.average(p3, p7)
    killing = rk.kinematics.killing_evaluation_matrix(res.framework).shape
    assert res.nontrivial
    assert sorted(calls) == [(killing, False), (killing, True)]


def test_deaverage_trivial_translation(prism_doc):
    fw = prism_doc.framework
    vecs = np.zeros((fw.n, 3))
    vecs[:, 1] = 0.25  # translation Killing field
    q = rk.vector_field(fw, vecs)
    plus, minus = tr.deaverage(fw, q, 1.0)
    assert rk.is_isometric(plus, minus, tol=1e-12)


def test_deaverage_flex_gives_isometric_pair(prism_doc):
    fw = prism_doc.framework
    flex = rk.motion_spaces(fw).basis_V[0]
    plus, minus = tr.deaverage(fw, flex, 0.1)
    lp = rk.edge_lengths(plus).values
    lm = rk.edge_lengths(minus).values
    assert np.max(np.abs(lp - lm)) <= 1e-12


def test_deaverage_retries_with_the_next_c_of_its_schedule():
    # q_j = (p_i - p_j)/c on the first edge (i, j) and zero elsewhere moves
    # p_j onto p_i at c: that edge collapses, so the pair comes from 0.9 c,
    # the schedule's second entry.
    fw = rk.gallery.fixture("square4bar").framework
    c = 0.5
    i, j = fw.graph.edges[0]
    vecs = np.zeros((fw.n, 3))
    vecs[j] = (fw.coords[i] - fw.coords[j]) / c
    plus, minus = tr.deaverage(fw, rk.vector_field(fw, vecs), c)
    assert np.array_equal(plus.coords, fw.coords + 0.9 * c * vecs)
    assert np.array_equal(minus.coords, fw.coords - 0.9 * c * vecs)


def test_average_deaverage_roundtrip(prism_doc):
    fw = prism_doc.framework
    flex = rk.motion_spaces(fw).basis_V[2]
    plus, minus = tr.deaverage(fw, flex, 1.0)
    res = tr.average(plus, minus)
    assert np.max(np.abs(res.framework.coords - fw.coords)) <= 1e-10
    assert np.max(np.abs(res.field.vecs - flex.vecs)) <= 1e-10


def test_spherical_average_norm_identity(rng):
    # ||p + q|| = ||p - q|| when <p, q> = 0
    space = rk.spherical(2)
    fw = oc.random_framework(rng, space, 5)
    basis = rk.motion_spaces(fw).basis_V
    if basis:
        q = basis[0]
        for i in range(fw.n):
            plus = np.linalg.norm(fw.coords[i] + q.vecs[i])
            minus = np.linalg.norm(fw.coords[i] - q.vecs[i])
            assert plus == pytest.approx(minus, rel=1e-12)


def test_curved_deaverage_average_roundtrip(rng, prism_doc):
    from rigidkit import transforms
    fw = transforms.geodesic_project(scaled_into_chart(prism_doc.framework),
                                     rk.spherical(2))
    flex = rk.motion_spaces(fw).basis_V[0]
    plus, minus = tr.deaverage(fw, flex, 0.3)
    assert rk.is_isometric(plus, minus, tol=1e-9)
    res = tr.average(plus, minus)
    assert np.max(np.abs(res.framework.coords - fw.coords)) <= 1e-10


def _per_vertex_normalize(vec, space):
    """The per-vertex scaling onto the model that `average` and `deaverage`
    did before they worked on rows; the reference for the row-wise form."""
    if space.is_euclidean:
        return vec, 1.0
    n = float(np.sqrt(abs(rk.signed_inner(vec, vec, space))))
    return vec / n, n


@pytest.mark.parametrize("kind", ["E", "S", "H"])
def test_average_and_deaverage_match_per_vertex_loop(kind, prism_doc):
    fw = prism_doc.framework
    if kind != "E":
        fw = tr.geodesic_project(scaled_into_chart(fw), rk.Space(rk.SpaceKind(kind), 2))
    flex = rk.motion_spaces(fw).basis_V[0]
    plus, minus = tr.deaverage(fw, flex, 0.3)
    for out, sign in ((plus, 1.0), (minus, -1.0)):
        for i in range(fw.n):
            ref, _ = _per_vertex_normalize(fw.coords[i] + sign * 0.3 * flex.vecs[i], fw.space)
            assert np.array_equal(out.coords[i], ref)
    res = tr.average(plus, minus)
    for i in range(fw.n):
        s, d = plus.coords[i] + minus.coords[i], plus.coords[i] - minus.coords[i]
        if kind == "E":
            mid, q = s / 2.0, d / 2.0
        else:
            mid, n = _per_vertex_normalize(s, fw.space)
            q = d / n
        assert np.array_equal(res.framework.coords[i], mid)
        assert np.array_equal(res.field.vecs[i], q)


def test_degenerate_midpoint():
    fw = rk.build_framework(rk.graph(1, []), rk.spherical(2), [(1.0, 0.0, 0.0)])
    fw2 = rk.build_framework(rk.graph(1, []), rk.spherical(2), [(-1.0, 0.0, 0.0)])
    with pytest.raises(DegenerateMidpoint):
        tr.average(fw, fw2)


def test_map_spec_json_roundtrip(rng):
    specs = [
        tr.affine_map(_random_invertible(rng, 2), rng.standard_normal(2)),
        tr.projective_map(_random_invertible(rng, 3)),
        tr.geodesic_map("H"),
    ]
    for spec in specs:
        back = tr.map_spec_from_dict(spec.to_dict())
        assert back.kind == spec.kind
        if spec.matrix is not None:
            assert np.allclose(back.matrix, spec.matrix)


def test_singular_map_rejected(prism_doc):
    with pytest.raises(InvalidMapSpec):
        tr.apply_map(tr.projective_map(np.ones((3, 3))), prism_doc.framework)


def test_transport_report_fields(rng, prism_doc):
    fw = scaled_into_chart(prism_doc.framework)
    raw = rng.standard_normal((fw.n, 3))
    raw[:, 0] = 0.0
    report = tr.FrameworkMap(tr.geodesic_map("H"), fw)
    report.static(rk.load(fw, raw))
    assert report.factors.shape == (fw.n,)
    assert np.all(np.isfinite(report.factors)) and np.all(report.factors != 0)
    assert report.condition >= 1.0


def test_pogorelov_kinematic_identity(prism_doc):
    fw = prism_doc.framework
    q = rk.motion_spaces(fw).basis_V[0]
    out = tr.FrameworkMap(tr.affine_map(np.eye(2)), fw).kinematic(q)
    assert np.max(np.abs(out.vecs - q.vecs)) <= 1e-12


def test_pogorelov_kinematic_from_curved_sources(prism_doc, rng):
    # transport flexes S -> E and H -> E: exercises the curved tangent bases
    fw = scaled_into_chart(prism_doc.framework)
    for target in (rk.spherical(2), rk.hyperbolic(2)):
        fwx = tr.geodesic_project(fw, target)
        report = tr.FrameworkMap(tr.geodesic_map("E"), fwx)
        for q in rk.motion_spaces(fwx).basis_V[:2]:
            q_e = report.kinematic(q)
            op = rk.rigidity_operator(q_e.framework)
            assert np.max(op.edge_residuals(q_e)) <= 1e-8
            assert report.differentials.shape == (fw.n, 3, 3)
        # the differentials reproduce the static transport
        raw = np.zeros((fwx.n, 3))
        raw[0] = _random_tangent(rng, fwx, 0)
        f = rk.load(fwx, raw)
        out = report.static(f)
        assert np.allclose(report.differentials[0] @ raw[0], out.vecs[0])


def _random_tangent(rng, fw, i):
    v = rng.standard_normal(fw.space.ambient_dim)
    p, g = fw.coords[i], fw.space.metric_signs
    if fw.space.is_euclidean:
        v[0] = 0.0
    else:
        v -= (v @ (g * p)) / (p @ (g * p)) * p
    return v


_SPECS = {
    "affine": tr.affine_map([[1.2, 0.3], [-0.1, 0.9]], [0.1, -0.2]),
    "projective": tr.projective_map([[1.0, 0.3, -0.2], [0.1, 1.1, 0.2], [-0.2, 0.1, 0.9]]),
    "E->S": tr.geodesic_map("S"), "E->H": tr.geodesic_map("H"),
    "S->E": tr.geodesic_map("E"), "H->E": tr.geodesic_map("E"),
}


def _mapped_source(case, fw):
    """`fw` as the source of `case`: its S or H image for S->E and H->E."""
    if case in ("S->E", "H->E"):
        return tr.apply_map(tr.geodesic_map(case[0]), fw)
    return fw


@pytest.mark.parametrize("case", list(_SPECS))
def test_per_vertex_transport_is_adjoint(case, rng, prism_doc):
    fw = _mapped_source(case, scaled_into_chart(prism_doc.framework))
    fmap = tr.FrameworkMap(_SPECS[case], fw)
    img, g_src, g_img = fmap.image, fw.space.metric_signs, fmap.target_space.metric_signs
    for i in range(fw.n):
        q, f = _random_tangent(rng, fw, i), _random_tangent(rng, fw, i)
        q1, f1 = fmap.kinematic_at(i, q), fmap.static_at(i, f)
        assert abs(q1 @ (g_img * f1) - q @ (g_src * f)) <= 1e-12
        assert np.array_equal(f1, fmap.differentials[i] @ f)
        for u in (q1, f1):
            normal = u[0] if img.space.is_euclidean else u @ (g_img * img.coords[i])
            assert abs(normal) <= 1e-12


def _per_vertex_reference(fmap, loads, fields):
    """The image coordinates and the static and kinematic transport of
    `loads` and `fields` as FrameworkMap computed them one vertex at a time,
    before it worked on stacked arrays: the reference for the stacked form."""
    src, tgt = fmap.source_space, fmap.target_space

    def covector(space, p):
        if space.is_euclidean:
            return np.eye(space.ambient_dim)[0]
        gp = np.atleast_2d(p) * space.metric_signs
        return (gp / np.einsum("ia,ia->i", gp, np.atleast_2d(p))[:, None])[0]

    coords = []
    for x in fmap.source.coords:
        y = fmap.linear @ x
        if tgt.is_euclidean:
            n = float(y[0])
        else:
            n = float(np.sqrt(abs(rk.signed_inner(y, y, tgt))))
            n = -n if tgt.is_hyperbolic and not y[0] > 0 else n
        coords.append(y / n)
    image = rk.build_framework(fmap.source.graph, tgt, coords, fmap.source.embedding,
                               renormalize=True)
    amb = src.ambient_dim
    static, kinematic = [], []
    for i in range(fmap.source.n):
        static.append(fmap.differentials[i] @ loads[i])
        system = np.zeros((amb + 1, amb + 1))
        system[:amb, :amb] = fmap.differentials[i].T * tgt.metric_signs
        system[:amb, amb] = -covector(src, fmap.source.coords[i])
        system[amb, :amb] = covector(tgt, image.coords[i])
        rhs = np.append(src.metric_signs * fields[i], 0.0)
        kinematic.append(np.linalg.solve(system, rhs)[:amb])
    return image.coords, np.array(static), np.array(kinematic)


@pytest.mark.parametrize("source", ["prism", "grid-30"])
@pytest.mark.parametrize("case", list(_SPECS))
def test_stacked_transport_matches_per_vertex_loop(case, source, rng, prism_doc):
    fw = _mapped_source(case, scaled_into_chart(prism_doc.framework) if source == "prism"
                        else scaled_into_chart(grid(30), 0.3))
    ld = rk.load(fw, [_random_tangent(rng, fw, i) for i in range(fw.n)], eps=1e-7)
    q = rk.vector_field(fw, [_random_tangent(rng, fw, i) for i in range(fw.n)], eps=1e-7)
    fmap = tr.FrameworkMap(_SPECS[case], fw)
    coords, static, kinematic = _per_vertex_reference(fmap, ld.vecs, q.vecs)
    assert np.array_equal(fmap.image.coords, coords)
    assert np.array_equal(fmap.static(ld).vecs, static)
    assert np.array_equal(fmap.kinematic(q).vecs, kinematic)


def test_kinematic_transport_is_one_solve(monkeypatch, rng):
    fw = grid(30)
    fmap = tr.FrameworkMap(tr.geodesic_map("S"), fw)
    field = rk.vector_field(fw, np.column_stack([np.zeros(fw.n), rng.standard_normal((fw.n, 2))]))
    real, calls = np.linalg.solve, []

    def solve(a, b):
        calls.append(np.shape(a))
        return real(a, b)

    monkeypatch.setattr(np.linalg, "solve", solve)
    fmap.kinematic(field)
    assert calls == [(fw.n, 4, 4)]


def test_outside_chart_names_the_lowest_vertex():
    with pytest.raises(OutsideChart, match=r"^vertex 19 lies outside"):
        tr.FrameworkMap(tr.geodesic_map("H"), grid(5))
