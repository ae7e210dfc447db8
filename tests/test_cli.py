import json
import os
import re

import numpy as np
import pytest

import rigidkit as rk
from rigidkit.cli import main


def run(tmp_path, *argv):
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        return main(list(argv))
    finally:
        os.chdir(cwd)


def test_analyze_exit_codes(tmp_path, capsys):
    assert run(tmp_path, "example", "triangle") == 0
    assert run(tmp_path, "analyze", "triangle.json") == 0
    assert run(tmp_path, "example", "prism3-concurrent") == 0
    assert run(tmp_path, "analyze", "prism3-concurrent.json") == 10
    out = capsys.readouterr().out
    assert "flexible" in out
    (tmp_path / "bad.json").write_text("{broken")
    assert run(tmp_path, "analyze", "bad.json") == 2


def test_analyze_json_output(tmp_path, capsys):
    run(tmp_path, "example", "k4-centroid")
    capsys.readouterr()  # drain the example command's output
    code = run(tmp_path, "analyze", "k4-centroid.json", "--json")
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["kinematic_dof"] == report["static_dof"] == 0
    assert report["self_stress_count"] == 1
    assert report["laman"] is False  # m = 6 > 2n - 3


def test_example_unknown_name(tmp_path, capsys):
    assert run(tmp_path, "example", "nonesuch") == 2
    err = capsys.readouterr().err
    assert "available" in err


def test_example_writes_reparseable_file(tmp_path):
    run(tmp_path, "example", "jessen:0.5")
    doc = rk.load_framework(tmp_path / "jessen-0.5.json")
    assert doc.framework.m == 30
    # serialization roundtrip is bit-identical
    second = tmp_path / "again.json"
    rk.save_framework(second, doc.framework, stress=doc.stress, load=doc.load,
                      field=doc.field, description=doc.description)
    assert (tmp_path / "jessen-0.5.json").read_text() == second.read_text()


def test_env_var_tolerance(tmp_path, monkeypatch, capsys):
    run(tmp_path, "example", "triangle")
    monkeypatch.setenv("RIGIDKIT_TOL", "1e-3")
    assert run(tmp_path, "analyze", "triangle.json") == 0
    monkeypatch.delenv("RIGIDKIT_TOL")


def test_transform_projective_keeps_dof(tmp_path):
    run(tmp_path, "example", "prism3-concurrent")
    spec = {"kind": "projective",
            "M": [[1.0, 0.01, 0.02], [0.1, 1.1, -0.2], [-0.3, 0.2, 0.9]]}
    (tmp_path / "map.json").write_text(json.dumps(spec))
    assert run(tmp_path, "transform", "prism3-concurrent.json", "--map", "map.json",
               "-o", "img.json") == 0
    assert run(tmp_path, "analyze", "img.json") == 10


def test_transform_outside_chart_is_input_error(tmp_path, capsys):
    run(tmp_path, "example", "prism3-concurrent")
    assert run(tmp_path, "transform", "prism3-concurrent.json",
               "--to-space", "H", "-o", "h.json") == 2
    assert "vertex" in capsys.readouterr().err


def test_transform_carry_stress(tmp_path):
    run(tmp_path, "example", "prism3-concurrent")
    data = json.loads((tmp_path / "prism3-concurrent.json").read_text())
    data["vertices"] = [[0.2 * x, 0.2 * y] for x, y in data["vertices"]]
    (tmp_path / "small.json").write_text(json.dumps(data))
    assert run(tmp_path, "transform", "small.json", "--to-space", "S",
               "--carry", "stress", "-o", "sph.json") == 0
    doc = rk.load_framework(tmp_path / "sph.json")
    assert doc.framework.space.is_spherical
    w = rk.stress_from_dict(doc.framework, doc.stress)
    assert rk.apply_stress(doc.framework, w).norm() <= 1e-9  # still a self-stress


def test_mc_file_roundtrip(tmp_path, capsys):
    run(tmp_path, "example", "prism3-concurrent")
    assert run(tmp_path, "mc", "prism3-concurrent.json",
               "--direction", "stress2rec", "-o", "rec.json") == 0
    assert run(tmp_path, "mc", "prism3-concurrent.json",
               "--direction", "rec2stress", "--object", "rec.json",
               "-o", "back.json") == 0
    original = rk.load_framework(tmp_path / "prism3-concurrent.json").stress
    recovered = rk.load_framework(tmp_path / "back.json").stress
    for e, w in original.items():
        assert recovered[e] == pytest.approx(w, abs=1e-10)


def test_mc_missing_stress_is_input_error(tmp_path):
    run(tmp_path, "example", "triangle")
    assert run(tmp_path, "mc", "triangle.json", "--direction", "stress2rec") == 2


def test_mc_conversion_failure_exit_code(tmp_path):
    run(tmp_path, "example", "prism3-concurrent")
    data = json.loads((tmp_path / "prism3-concurrent.json").read_text())
    data["stress"]["0-3"] = 5.0  # no longer a self-stress
    (tmp_path / "broken.json").write_text(json.dumps(data))
    assert run(tmp_path, "mc", "broken.json", "--direction", "stress2rec") == 3


def _parse_svg_lines(text, color):
    out = []
    for m in re.finditer(r'<line x1="([-\d.]+)" y1="([-\d.]+)" x2="([-\d.]+)" '
                         r'y2="([-\d.]+)" stroke="%s"' % color, text):
        x1, y1, x2, y2 = map(float, m.groups())
        out.append(((x1, y1), (x2, y2)))
    return out


def test_render_reciprocal_perpendicular(tmp_path):
    run(tmp_path, "example", "prism3-concurrent")
    assert run(tmp_path, "mc", "prism3-concurrent.json",
               "--direction", "stress2rec", "-o", "rec.json") == 0
    assert run(tmp_path, "render", "prism3-concurrent.json", "-o", "out.svg",
               "--flex", "--reciprocal", "rec.json") == 0
    text = (tmp_path / "out.svg").read_text()
    primal = _parse_svg_lines(text, "#222")
    dual = _parse_svg_lines(text, "#27b")
    assert len(primal) == 9 and len(dual) == 9
    fw = rk.load_framework(tmp_path / "prism3-concurrent.json").framework
    rec = json.loads((tmp_path / "rec.json").read_text())
    from rigidkit import maxwell_cremona as mc
    diagram = mc.reciprocal_from_dict(fw, rec)
    # screen coordinates scale both pictures equally, so the reciprocal
    # segments stay perpendicular to their primal partners (within 0.01 rad)
    assert diagram.positions.shape == (5, 2)
    for k in range(9):
        u = np.array(primal[k][1]) - np.array(primal[k][0])
        v = np.array(dual[k][1]) - np.array(dual[k][0])
        cosang = abs(float(u @ v)) / (np.linalg.norm(u) * np.linalg.norm(v))
        assert cosang <= 0.01


def test_render_klein_clips_to_disk(tmp_path):
    run(tmp_path, "example", "prism3-concurrent")
    data = json.loads((tmp_path / "prism3-concurrent.json").read_text())
    data["vertices"] = [[0.2 * x, 0.2 * y] for x, y in data["vertices"]]
    (tmp_path / "small.json").write_text(json.dumps(data))
    assert run(tmp_path, "transform", "small.json", "--to-space", "H",
               "-o", "h.json") == 0
    assert run(tmp_path, "render", "h.json", "-o", "h.svg", "--model", "klein") == 0
    text = (tmp_path / "h.svg").read_text()
    assert "clipPath" in text and 'clip-path="url(#disk)"' in text


def test_render_lift_shading(tmp_path):
    run(tmp_path, "example", "prism3-concurrent")
    run(tmp_path, "mc", "prism3-concurrent.json", "--direction", "stress2lift",
        "-o", "lift.json")
    assert run(tmp_path, "render", "prism3-concurrent.json", "-o", "lift.svg",
               "--lift", "lift.json") == 0
    assert "<polygon" in (tmp_path / "lift.svg").read_text()


def test_transform_carry_load_and_field(tmp_path):
    run(tmp_path, "example", "k33-circle")
    data = json.loads((tmp_path / "k33-circle.json").read_text())
    # central forces through the origin: an equilibrium load
    verts = np.array(data["vertices"])
    data["load"] = [[0.0, -x, -y] for x, y in verts]
    (tmp_path / "with-load.json").write_text(json.dumps(data))
    assert run(tmp_path, "transform", "with-load.json", "--to-space", "S",
               "--carry", "load", "--carry", "field", "-o", "sph.json") == 0
    doc = rk.load_framework(tmp_path / "sph.json")
    fw = doc.framework
    assert rk.is_equilibrium_load(fw, rk.load(fw, doc.load))
    q = rk.vector_field(fw, doc.field)
    from rigidkit import kinematics
    assert np.max(kinematics.rigidity_operator(fw).edge_residuals(q)) <= 1e-9


def test_render_hemisphere_model(tmp_path):
    run(tmp_path, "example", "k33-circle")
    data = json.loads((tmp_path / "k33-circle.json").read_text())
    data["vertices"] = [[0.4 * x, 0.4 * y] for x, y in data["vertices"]]
    del data["field"]
    (tmp_path / "small.json").write_text(json.dumps(data))
    run(tmp_path, "transform", "small.json", "--to-space", "S", "-o", "s.json")
    assert run(tmp_path, "render", "s.json", "-o", "s.svg",
               "--model", "hemisphere", "--flex") == 0
    text = (tmp_path / "s.svg").read_text()
    assert "<circle" in text and "stroke-dasharray" in text


def test_analyze_non_spanning_warning():
    from rigidkit.cli import analyze_framework
    fw = rk.build_framework(rk.graph(3, [(0, 1), (1, 2)]), rk.euclidean(2),
                            [(0, 0), (1, 0), (2, 0)])
    report = analyze_framework(fw)
    assert not report.spanning
    assert any("geodesic subspace" in w for w in report.warnings)
    assert report.kinematic_dof == report.static_dof == 1


@pytest.mark.parametrize("kind", ["E", "S", "H"])
def test_analyze_factors_each_matrix_once_without_vectors(kind, monkeypatch):
    from rigidkit import kinematics, statics
    from rigidkit.cli import analyze_framework
    fw = rk.gallery.fixture("prism3-generic").framework
    if kind != "E":
        fw = rk.geodesic_project(rk.transforms.apply_map(
            rk.affine_map(np.eye(2) * 0.1), fw), rk.Space(rk.SpaceKind(kind), 2))
    expected = sorted([
        kinematics.rigidity_operator(fw).matrix.shape,
        kinematics.killing_evaluation_matrix(fw).shape,
        (statics.bivector_map_matrix(fw).shape[0] + fw.n, fw.n * 3),
        statics.resolution_matrix(fw).shape,
        fw.coords.shape,                # the spanning test
    ])
    real = np.linalg.svd
    calls = []

    def svd(a, full_matrices=True, compute_uv=True, hermitian=False):
        calls.append((np.shape(a), compute_uv))
        return real(a, full_matrices=full_matrices, compute_uv=compute_uv,
                    hermitian=hermitian)

    monkeypatch.setattr(np.linalg, "svd", svd)
    report = analyze_framework(fw)
    assert report.rigid and report.self_stress_count == 0
    assert not any(uv for _, uv in calls)
    assert sorted(shape for shape, _ in calls) == expected
