"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
All tolerances are fixed here, not tuned elsewhere.
"""

import numpy as np

import rigidkit as rk
from rigidkit import maxwell_cremona as mc, transforms as tr

import oracles as oc

RANK_TOL = 1e-9

GALLERY = tuple(rk.gallery.GALLERY_NAMES)


def _passed(label):
    print("ACCEPTANCE %s: PASS" % label)


def _scaled_to_chart(fw, margin=0.45):
    reach = float(np.max(np.abs(fw.coords[:, 1:])))
    factor = margin / max(reach, 1e-9)
    d = fw.dim
    return tr.apply_map(tr.affine_map(np.eye(d) * factor), fw)


def _random_equilibrium_load(rng, fw):
    raw = rng.standard_normal((fw.n, fw.space.ambient_dim))
    stacked = oc.equilibrium_stack(fw).toarray()
    corr, *_ = np.linalg.lstsq(stacked, stacked @ raw.ravel(), rcond=None)
    return rk.load(fw, (raw.ravel() - corr).reshape(fw.n, -1), eps=1e-6)


def _criterion_01_frameworks():
    """The gallery fixtures, then 50 seeded random frameworks per space and d."""
    for name in GALLERY:
        yield name, rk.gallery.fixture(name).framework
    rng = np.random.RandomState(20240817)
    for kind in ("E", "S", "H"):
        for d in (2, 3):
            space = rk.Space(rk.SpaceKind(kind), d)
            for k in range(50):
                n = int(rng.randint(3, 13))
                yield "%s %d #%d" % (space, n, k), oc.random_framework(rng, space, n)


def test_criterion_01_static_equals_kinematic():
    """static_dof == kinematic_dof on all fixtures and seeded random frameworks."""
    count = 0
    for label, fw in _criterion_01_frameworks():
        assert rk.static_dof(fw, RANK_TOL) == rk.kinematic_dof(fw, RANK_TOL), label
        count += 1
    assert count == len(GALLERY) + 300
    _passed("1 (static dof == kinematic dof: 11 fixtures + 300 random frameworks)")


def test_lazy_bases_have_the_counted_dimensions():
    """The bases computed on request match the values-only SVD counts."""
    for label, fw in _criterion_01_frameworks():
        ms = rk.motion_spaces(fw, RANK_TOL)
        ss = rk.static_spaces(fw, RANK_TOL)
        assert len(ms.basis_V) == ms.dim_V, label
        assert len(ms.basis_V0) == ms.dim_V0, label
        assert len(ss.self_stress_basis) == ss.self_stress_count, label


def test_criterion_02_projective_invariance():
    """kinematic_dof invariant under 50 seeded random projective maps."""
    cases = {
        "prism3-concurrent": 1,
        "prism3-generic": 0,
        "k33-circle": None,   # >= 1; invariance compared against the source
        "k4-centroid": 0,
    }
    rng = np.random.RandomState(98321)
    for name, expected in cases.items():
        doc = rk.gallery.fixture(name)
        fw = doc.framework
        source_dof = rk.kinematic_dof(fw, RANK_TOL)
        if expected is not None:
            assert source_dof == expected, name
        else:
            assert source_dof >= 1, name
        source_stresses = len(rk.static_spaces(fw, RANK_TOL).self_stress_basis)
        applied = 0
        while applied < 50:
            m = rng.standard_normal((3, 3))
            if abs(np.linalg.det(m)) < 0.05:
                continue
            m += 2.0 * np.sign(np.linalg.det(m)) * np.eye(3)
            try:
                img = rk.apply_projective(fw, m)
            except rk.errors.VertexAtInfinity:
                continue
            assert rk.kinematic_dof(img, RANK_TOL) == source_dof, name
            if name == "k4-centroid":
                assert len(rk.static_spaces(img, RANK_TOL).self_stress_basis) == source_stresses == 1
            applied += 1
    _passed("2 (dof exactly invariant under 50 projective maps x 4 fixtures)")


def test_criterion_03_geodesic_invariance_and_pogorelov_transport():
    """dof invariant under geodesic projection; transport preserves statics."""
    rng = np.random.RandomState(555)
    for name in GALLERY:
        fw = _scaled_to_chart(rk.gallery.fixture(name).framework)
        source_dof = rk.kinematic_dof(fw, RANK_TOL)
        for target in ("S", "H"):
            fmap = tr.FrameworkMap(tr.geodesic_map(target), fw)
            img = fmap.image
            assert rk.kinematic_dof(img, RANK_TOL) == source_dof, (name, target)
            # Pogorelov transport of three load types
            f_eq = _random_equilibrium_load(rng, fw)
            raw = rng.standard_normal((fw.n, fw.space.ambient_dim))
            raw[:, 0] = 0.0
            f_any = rk.load(fw, raw)
            w = rk.Stress(fw.graph.edges, rng.standard_normal(fw.m))
            f_res = rk.apply_stress(fw, w)
            for f in (f_eq, f_any, f_res):
                if f.norm() < 1e-9:
                    continue
                out = fmap.static(f)
                assert rk.is_equilibrium_load(out.framework, out, 1e-8) == \
                    rk.is_equilibrium_load(fw, f, 1e-8), (name, target)
                assert isinstance(rk.resolve_load(out.framework, out), rk.Unresolvable) == \
                    isinstance(rk.resolve_load(fw, f), rk.Unresolvable), (name, target)
            # virtual work preserved
            basis = rk.motion_spaces(fw, RANK_TOL).basis_V
            q = basis[0]
            q_img = fmap.kinematic(q)
            vw0 = rk.virtual_work(q, f_any)
            vw1 = rk.virtual_work(q_img, fmap.static(f_any))
            assert abs(vw1 - vw0) <= 1e-8 * max(abs(vw0), 1.0), (name, target)
    _passed("3 (geodesic dof invariance + Pogorelov transport preserves statics)")


def test_criterion_04_three_prism():
    doc = rk.gallery.fixture("prism3-concurrent")
    fw = doc.framework
    assert rk.kinematic_dof(fw, RANK_TOL) == 1
    basis = rk.static_spaces(fw, RANK_TOL).self_stress_basis
    assert len(basis) == 1
    assert np.min(np.abs(basis[0].values)) > 1e-6 * np.max(np.abs(basis[0].values))
    generic = rk.gallery.fixture("prism3-generic").framework
    assert rk.kinematic_dof(generic, RANK_TOL) == 0
    _passed("4 (3-prism: concurrent dof 1 with everywhere-nonzero self-stress; "
            "perturbed dof 0)")


def test_criterion_05_k33():
    assert rk.kinematic_dof(rk.gallery.fixture("k33-circle").framework, RANK_TOL) >= 1
    assert rk.kinematic_dof(rk.gallery.fixture("k33-generic").framework, RANK_TOL) == 0
    _passed("5 (K33: circle configuration flexible, generic rigid)")


def test_criterion_06_jessen():
    for t in (0.3, 0.5, 0.7):
        fw = rk.gallery.fixture("jessen:%s" % t).framework
        lengths = rk.edge_lengths(fw).values
        tri = np.sqrt(2 * (t * t - t + 1))
        for val in lengths:
            assert min(abs(val - 2.0), abs(val - tri)) <= 1e-12
    p3 = rk.gallery.fixture("jessen:0.3").framework
    p7 = rk.gallery.fixture("jessen:0.7").framework
    p5 = rk.gallery.fixture("jessen:0.5").framework
    assert rk.is_isometric(p3, p7, tol=1e-9)
    res = tr.average(p3, p7)
    assert np.max(np.abs(res.framework.coords - p5.coords)) <= 1e-10
    assert res.nontrivial
    assert rk.kinematic_dof(p5, RANK_TOL) >= 1
    _passed("6 (Jessen: lengths {2, sqrt(2(t^2-t+1))}, isometry, averaging, flexibility)")


def test_criterion_07_blaschke_liebmann():
    assert rk.kinematic_dof(rk.gallery.fixture("octa-blaschke").framework, RANK_TOL) >= 1
    assert rk.kinematic_dof(rk.gallery.fixture("octa-generic").framework, RANK_TOL) == 0
    _passed("7 (Blaschke-Liebmann: concurrent white planes flexible, generic rigid)")


def test_criterion_08_maxwell_cremona_roundtrips():
    doc = rk.gallery.fixture("prism3-concurrent")
    small = _scaled_to_chart(doc.framework)

    def check_euclid(fw, w):
        rec = mc.convert(fw, w, to="reciprocal")
        assert np.max(rec.perpendicularity_residuals()) <= 1e-9
        w1 = mc.convert(fw, rec, to="stress")
        scale = np.max(np.abs(w.values))
        assert np.max(np.abs(w1.values - w.values)) <= 1e-8 * scale
        lift = mc.convert(fw, rec, to="lift")
        assert np.max(lift.incidence_residuals()) <= 1e-9
        w2 = mc.convert(fw, mc.convert(fw, lift, to="reciprocal"), to="stress")
        assert np.max(np.abs(w2.values - w.values)) <= 1e-8 * scale

    w_small = rk.static_spaces(small, RANK_TOL).self_stress_basis[0]
    check_euclid(small, w_small)

    for target in ("S", "H"):
        fwx = tr.apply_map(tr.geodesic_map(target), small)
        w = rk.static_spaces(fwx, RANK_TOL).self_stress_basis[0]
        lift = mc.convert(fwx, w, to="lift")
        scale = lift.stress_scale
        assert np.max(lift.incidence_residuals()) <= 1e-9
        rec = mc.convert(fwx, lift, to="reciprocal")
        assert np.max(rec.perpendicularity_residuals()) <= 1e-9
        w2 = mc.convert(fwx, mc.convert(fwx, rec, to="lift"), to="stress")
        ref = scale * w.values
        assert np.max(np.abs(w2.values - ref)) <= 1e-8 * np.max(np.abs(ref))

    # Euclidean convex case: the three convex-variant booleans agree
    k4 = rk.gallery.fixture("k4-centroid")
    fw4 = k4.framework
    w4 = rk.stress_from_dict(fw4, k4.stress)  # interior-positive normalization
    rec4 = mc.convert(fw4, w4, to="reciprocal")
    lift4 = mc.convert(fw4, rec4, to="lift")
    report = mc.euclid_convexity_classify(fw4, stress=w4, reciprocal=rec4, lift=lift4)
    assert report.stress_pattern is True
    assert report.reciprocal_pattern is True
    assert report.lift_convex is True
    _passed("8 (Maxwell-Cremona roundtrips in E/S/H at 1e-8; convex case classified)")


def test_criterion_09_rational_oracle_equivalence():
    mismatches = []
    for name in rk.gallery.EXACT_RATIONAL:
        fw = rk.gallery.fixture(name).framework
        checks = {
            "rigidity rank": (rk.motion_spaces(fw, RANK_TOL).operator.rank,
                              oc.rational_rank(oc.rational_rigidity_matrix(fw))),
            "dim V": (len(rk.motion_spaces(fw, RANK_TOL).basis_V), oc.rational_motion_dim(fw)),
            "dim V0": (len(rk.motion_spaces(fw, RANK_TOL).basis_V0),
                       oc.rational_killing_rank(fw)),
            "dim F": (rk.static_spaces(fw, RANK_TOL).dim_F,
                      oc.rational_equilibrium_dim(fw)),
            "dim F0": (rk.static_spaces(fw, RANK_TOL).dim_F0,
                       oc.rational_rank(oc.rational_resolution_matrix(fw))),
            "self-stress": (len(rk.static_spaces(fw, RANK_TOL).self_stress_basis),
                            oc.rational_self_stress_dim(fw)),
        }
        for what, (num, exact) in checks.items():
            if num != exact:
                mismatches.append((name, what, num, exact))
    assert mismatches == []
    _passed("9 (numerical ranks == exact rational ranks on %d fixtures, 0 mismatches)"
            % len(rk.gallery.EXACT_RATIONAL))


def test_criterion_10_laman_pebble_vs_bruteforce():
    rng = np.random.RandomState(77)
    checked = 0
    while checked < 200:
        n = int(rng.randint(3, 9))
        edges = oc.random_graph(rng, n)
        g = rk.graph(n, edges)
        assert rk.graphs.is_23_sparse(g) == oc.brute_force_23_sparse(n, edges)
        if g.edge_count >= 2:
            assert rk.laman_check(g) == oc.brute_force_laman(n, edges)
        checked += 1
    assert rk.laman_check(rk.graph(3, [(0, 1), (1, 2), (0, 2)]))
    prism_graph = rk.gallery.fixture("prism3-concurrent").framework.graph
    assert rk.laman_check(prism_graph)
    k4 = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    assert not rk.laman_check(rk.graph(4, k4))
    joined = k4 + [(i + 4, j + 4) for i, j in k4] + [(0, 4)]
    assert not rk.laman_check(rk.graph(8, joined))
    _passed("10 (Laman pebble game == subset brute force on 200 random graphs)")
