import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rigidkit as rk
from rigidkit.cli import main

from test_mc_random_wheels import make_wheel

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

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


@pytest.mark.parametrize("name", rk.gallery.GALLERY_NAMES)
def test_example_files_are_json_dump_with_indent_1(tmp_path, name):
    assert run(tmp_path, "example", name, "-o", "out.json") == 0
    _json_dump_text((tmp_path / "out.json").read_text())


def test_mc_refuses_a_stress_given_twice_on_one_edge(tmp_path, capsys):
    run(tmp_path, "example", "prism3-concurrent")
    data = json.loads((tmp_path / "prism3-concurrent.json").read_text())
    data["stress"]["1-0"] = 123.0  # beside "0-1"
    (tmp_path / "twice.json").write_text(json.dumps(data, indent=1))
    capsys.readouterr()
    assert run(tmp_path, "mc", "twice.json", "--direction", "stress2rec") == 2
    assert capsys.readouterr().err == "error: stress on edge 0-1 given twice\n"
    assert not (tmp_path / "stress2rec.json").exists()


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


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf", "env:abc"])
def test_tolerance_must_be_finite_and_positive(tmp_path, monkeypatch, capsys, tol):
    run(tmp_path, "example", "prism3-concurrent")
    argv = ["analyze", "prism3-concurrent.json"]
    if tol.startswith("env:"):
        monkeypatch.setenv("RIGIDKIT_TOL", tol[4:])
    else:
        argv += ["--tol", tol]
    capsys.readouterr()
    assert run(tmp_path, *argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: tolerance must be a finite number > 0")
    assert "Traceback" not in err


@pytest.mark.parametrize("env, code", [("nan", 2), ("1e-3", 0)])
def test_render_flex_reads_the_env_tolerance(tmp_path, monkeypatch, capsys, env, code):
    from rigidkit import cli
    run(tmp_path, "example", "prism3-concurrent")
    tols = []
    real = cli._pick_flex

    def pick_flex(fw, tol):
        tols.append(tol)
        return real(fw, tol)

    monkeypatch.setattr(cli, "_pick_flex", pick_flex)
    monkeypatch.setenv("RIGIDKIT_TOL", env)
    capsys.readouterr()
    assert run(tmp_path, "render", "prism3-concurrent.json", "--flex", "-o", "x.svg") == code
    if code:
        assert capsys.readouterr().err.startswith("error: tolerance must be a finite number > 0")
    assert tols == ([] if code else [1e-3])


def test_render_flex_on_a_rigid_framework_draws_no_arrows(tmp_path, capsys):
    run(tmp_path, "example", "triangle")
    capsys.readouterr()
    assert run(tmp_path, "render", "triangle.json", "-o", "tri.svg", "--flex") == 0
    assert capsys.readouterr().err == (
        "note: framework is infinitesimally rigid; no flex arrows drawn\n")


@pytest.mark.parametrize("first, code", [([0, 0.1, 0], 0), ([1, 0.1, 0], 2)],
                         ids=["tangent", "not tangent"])
def test_render_flex_draws_the_field_attachment(tmp_path, capsys, first, code):
    run(tmp_path, "example", "square4bar")
    data = json.loads((tmp_path / "square4bar.json").read_text())
    data["field"] = [first, [0, 0, 0], [0, 0, 0], [0, 0, 0]]
    (tmp_path / "field.json").write_text(json.dumps(data))
    capsys.readouterr()
    assert run(tmp_path, "render", "field.json", "-o", "field.svg", "--flex") == code
    assert capsys.readouterr().err == (
        "" if code == 0 else "error: vectors at vertices [0] are not tangent\n")


def test_analyze_warns_when_all_vertices_coincide(tmp_path, capsys):
    (tmp_path / "dot.json").write_text(json.dumps(
        {"space": "E", "dim": 2, "vertices": [[0, 0], [0, 0], [0, 0]], "edges": []}))
    assert run(tmp_path, "analyze", "dot.json", "--json") == 10
    report = json.loads(capsys.readouterr().out)
    assert (report["dim_V"], report["dim_V0"]) == (6, 2)
    assert report["warnings"] == [
        "vertices lie in a proper geodesic subspace; dim V0 computed from the evaluation rank",
        "all vertices coincide"]


def test_small_cli_calls_never_import_scipy(tmp_path):
    # Below _linalg.SPARSE_MIN_SIDE the rank is one dense SVD; importing
    # scipy would cost a fresh process about 0.4 s.
    for name in ("triangle", "prism3-concurrent", "k4-centroid", "square4bar"):
        run(tmp_path, "example", name)
    script = (
        "import sys\n"
        "from rigidkit.cli import main\n"
        "codes = [main(['analyze', 'triangle.json', '--json']),\n"
        "         main(['transform', 'prism3-concurrent.json', '--to-space', 'S',\n"
        "               '--carry', 'stress', '-o', 'sph.json']),\n"
        "         main(['mc', 'k4-centroid.json', '--direction', 'stress2rec',\n"
        "               '-o', 'rec.json']),\n"
        "         main(['render', 'square4bar.json', '--flex', '-o', 'sq.svg'])]\n"
        "print(codes, 'scipy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    out = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == "[0, 0, 0, 0] False"


@pytest.mark.parametrize("command", ["mc", "render"])
def test_mc_and_render_tolerance_checked(tmp_path, capsys, command):
    run(tmp_path, "example", "prism3-concurrent")
    argv = [command, "prism3-concurrent.json", "--tol", "nan", "-o", "out"]
    if command == "mc":
        argv += ["--direction", "stress2rec"]
    assert run(tmp_path, *argv) == 2
    assert "tolerance must be" in capsys.readouterr().err


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


def test_transform_projective_map_at_any_scale(tmp_path):
    # c M is the map M: a power-of-two c gives the identity's file bit for bit,
    # and no scale overflows or sends a vertex to infinity
    run(tmp_path, "example", "prism3-concurrent")
    outputs = {}
    for c in (1.0, 2.0 ** -1000, 2.0 ** -43, 2.0 ** 515, 2.0 ** 997, 1e-13, 1e155):
        (tmp_path / "map.json").write_text(json.dumps({"kind": "projective",
                                                       "M": (c * np.eye(3)).tolist()}))
        assert run(tmp_path, "transform", "prism3-concurrent.json", "--map", "map.json",
                   "--carry", "stress", "-o", "img.json") == 0, c
        outputs[c] = (tmp_path / "img.json").read_bytes()
    for c in (2.0 ** -1000, 2.0 ** -43, 2.0 ** 515, 2.0 ** 997):
        assert outputs[c] == outputs[1.0], c


@pytest.mark.parametrize("fixture, spec", [
    ("prism3-generic", '{"kind": "projective", "M": [[1, 0, 0], [0, NaN, 0], [0, 0, 1]]}'),
    ("prism3-generic", '{"kind": "affine", "A": [[1, 0], [NaN, 1]], "b": [0, 0]}'),
    (None, '{"kind": "affine", "A": [[1, 0], [NaN, 1]], "b": [0, 0]}'),
    ("prism3-generic", '{"kind": "affine", "A": [[1, 0], [0, 1]], "b": [Infinity, 0]}'),
    ("prism3-generic", '{"kind": "projective", "M": [[1, 0, 0], [0, 1, 0], [0, 0, Infinity]]}'),
], ids=["nan-projective", "nan-affine", "nan-affine-empty", "inf-offset", "inf-projective"])
def test_transform_non_finite_map_is_input_error(tmp_path, capsys, fixture, spec):
    if fixture is None:
        (tmp_path / "fw.json").write_text(
            json.dumps({"space": "E", "dim": 2, "vertices": [], "edges": []}))
    else:
        run(tmp_path, "example", fixture, "-o", "fw.json")
    (tmp_path / "map.json").write_text(spec)
    capsys.readouterr()
    assert run(tmp_path, "transform", "fw.json", "--map", "map.json", "-o", "img.json") == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "img.json").exists()


@pytest.mark.parametrize("spec", [
    '{"kind": "geodesic", "to": ["S"]}', '{"kind": "geodesic", "to": 7}', '{"a": 1}', 'true',
], ids=["to-list", "to-number", "no-kind", "not-an-object"])
def test_transform_malformed_map_spec_is_input_error(tmp_path, capsys, spec):
    run(tmp_path, "example", "prism3-generic", "-o", "fw.json")
    (tmp_path / "map.json").write_text(spec)
    capsys.readouterr()
    assert run(tmp_path, "transform", "fw.json", "--map", "map.json", "-o", "img.json") == 2
    assert capsys.readouterr().err.startswith("error: malformed map spec")
    assert not (tmp_path / "img.json").exists()


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


def test_mc_stress2rec_on_a_spherical_wheel_never_imports_numpy_random(tmp_path):
    # The seeded perturbation of the spherical walk's base normal is drawn
    # only when a first walk leaves some c_i at zero; importing numpy.random
    # costs a fresh process about 20 ms.
    fw = make_wheel(np.random.RandomState(3), 12)
    sph = rk.apply_map(rk.geodesic_map("S"), rk.apply_map(rk.affine_map(np.eye(2) * 0.3), fw))
    rk.save_framework(tmp_path / "wheel.json", sph,
                      stress=rk.static_spaces(sph).self_stress_basis[0].as_dict())
    script = (
        "import sys\n"
        "from rigidkit.cli import main\n"
        "code = main(['mc', sys.argv[1], '--direction', 'stress2rec', '-o', sys.argv[2]])\n"
        "print(code, 'numpy.random' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    out = subprocess.run([sys.executable, "-c", script, str(tmp_path / "wheel.json"),
                          str(tmp_path / "rec.json")], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.splitlines()[-1] == "0 False"


def test_mc_missing_stress_is_input_error(tmp_path):
    run(tmp_path, "example", "triangle")
    assert run(tmp_path, "mc", "triangle.json", "--direction", "stress2rec") == 2


def test_mc_from_a_reciprocal_needs_the_object(tmp_path, capsys):
    run(tmp_path, "example", "square4bar")
    capsys.readouterr()
    assert run(tmp_path, "mc", "square4bar.json", "--direction", "rec2lift") == 2
    assert capsys.readouterr().err == "error: direction rec2lift needs --object\n"


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


@pytest.mark.parametrize("first", [[0, 1, 0], [-0.6, 0.8, 0]], ids=["equator", "lower"])
def test_render_refuses_s_vertices_off_the_upper_hemisphere(tmp_path, capsys, first):
    # The chart x / x0 has no point for x0 = 0 (the SVG was all nan) and
    # draws x0 < 0 at its antipode's point.
    (tmp_path / "s.json").write_text(json.dumps({
        "space": "S", "dim": 2, "vertices": [first, [0.6, 0, 0.8], [0.6, 0.8, 0]],
        "edges": [[0, 1], [1, 2], [0, 2]]}))
    assert run(tmp_path, "render", "s.json", "-o", "s.svg") == 2
    assert "vertex 0 not in the open upper hemisphere" in capsys.readouterr().err
    assert not (tmp_path / "s.svg").exists()


@pytest.mark.parametrize("equator", [False, True], ids=["as-written", "equator"])
def test_render_draws_a_spherical_reciprocal_projectively(tmp_path, capsys, equator):
    # Four of the five positions have x0 < 0 and are drawn at the chart point
    # of -m, which is perpendicular to the same primal edges.  x0 = 0 has no
    # chart point (the SVG was drawn with nan coordinates).
    run(tmp_path, "example", "prism3-concurrent")
    assert run(tmp_path, "transform", "prism3-concurrent.json", "--to-space", "S",
               "--carry", "stress", "-o", "s.json") == 0
    assert run(tmp_path, "mc", "s.json", "--direction", "stress2rec", "-o", "rec.json") == 0
    rec = json.loads((tmp_path / "rec.json").read_text())
    assert sum(p[0] < 0 for p in rec["positions"]) == 4
    if equator:
        rec["positions"][1] = [0.0, 0.6, 0.8]
        (tmp_path / "rec.json").write_text(json.dumps(rec))
    capsys.readouterr()
    code = run(tmp_path, "render", "s.json", "--reciprocal", "rec.json", "-o", "out.svg")
    if equator:
        assert code == 2
        assert "error: reciprocal position of face 1 has x0 = 0" in capsys.readouterr().err
        assert not (tmp_path / "out.svg").exists()
    else:
        assert code == 0
        text = (tmp_path / "out.svg").read_text()
        assert "nan" not in text and len(_parse_svg_lines(text, "#27b")) == 9


def test_render_a_framework_without_vertices(tmp_path):
    # A file `analyze` and `transform` accept: `render` draws an empty
    # canvas, with no min/max over the empty point array.
    (tmp_path / "empty.json").write_text('{"space":"E","dim":2,"vertices":[],"edges":[]}')
    assert run(tmp_path, "analyze", "empty.json") == 0
    assert run(tmp_path, "render", "empty.json", "-o", "empty.svg") == 0
    text = (tmp_path / "empty.svg").read_text()
    assert text.startswith("<svg") and "<circle" not in text and "<line" not in text


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
    pairs = statics.bivector_map_matrix(fw).shape[0]
    expected = sorted([
        kinematics.rigidity_operator(fw).matrix.shape,
        kinematics.killing_evaluation_matrix(fw).shape,
        (min(fw.n, pairs) + fw.n * 2, pairs + min(fw.n, pairs)),  # [[R^T, B_T], [I, 0]]^T
        fw.coords.shape,                # the spanning test
    ])  # the resolution rank is the operator's, in every geometry; the
    # equilibrium stack is reduced by an R-only QR before its one SVD
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


@pytest.mark.parametrize("kind", ["E", "S", "H"])
def test_each_basis_is_one_svd_with_vectors_at_the_stored_rank(kind, monkeypatch):
    from rigidkit import kinematics, statics
    fw = rk.gallery.fixture("prism3-generic").framework
    if kind != "E":
        fw = rk.geodesic_project(rk.transforms.apply_map(
            rk.affine_map(np.eye(2) * 0.1), fw), rk.Space(rk.SpaceKind(kind), 2))
    ms, ss = rk.motion_spaces(fw), rk.static_spaces(fw)
    real = np.linalg.svd
    calls = []

    def svd(a, full_matrices=True, compute_uv=True, hermitian=False):
        calls.append((np.shape(a), compute_uv))
        return real(a, full_matrices=full_matrices, compute_uv=compute_uv,
                    hermitian=hermitian)

    monkeypatch.setattr(np.linalg, "svd", svd)
    for spaces, attr, matrix, count in (
            (ms, "basis_V", kinematics.rigidity_operator(fw).matrix, ms.dim_V),
            (ms, "basis_V0", kinematics.killing_evaluation_matrix(fw), ms.dim_V0),
            (ss, "self_stress_basis", statics.resolution_matrix(fw), ss.self_stress_count)):
        calls.clear()
        basis = getattr(spaces, attr)
        assert calls == [(matrix.shape, True)]
        assert len(basis) == count
        assert getattr(spaces, attr) is basis and len(calls) == 1


def _prism_in(space):
    """prism3-concurrent with its self-stress; on S/H its image after the
    shrink into the chart of criterion 08."""
    fw = rk.gallery.fixture("prism3-concurrent").framework
    if space != "E":
        reach = float(np.max(np.abs(fw.coords[:, 1:])))
        small = rk.apply_map(rk.affine_map(np.eye(2) * 0.45 / reach), fw)
        fw = rk.apply_map(rk.geodesic_map(space), small)
    return fw, rk.static_spaces(fw).self_stress_basis[0]


@pytest.fixture(scope="module")
def mc_dir(tmp_path_factory):
    """prism-E/S/H.json with their reciprocal (rec-*.json) and lift (lift-*.json)."""
    path = tmp_path_factory.mktemp("mc")
    for space in "ESH":
        fw, w = _prism_in(space)
        rk.save_framework(path / ("prism-%s.json" % space), fw, stress=w.as_dict())
        for direction, source in (("stress2rec", "rec"), ("stress2lift", "lift")):
            assert run(path, "mc", "prism-%s.json" % space, "--direction", direction,
                       "-o", "%s-%s.json" % (source, space)) == 0
    return path


def _object(mc_dir, source, space="E"):
    return json.loads((mc_dir / ("%s-%s.json" % (source, space))).read_text())


def _without(data, key):
    return {k: v for k, v in data.items() if k != key}


@pytest.mark.parametrize("source, corrupt", [
    ("rec", lambda d: _without(d, "positions")),
    ("rec", lambda d: dict(d, positions=d["positions"][:2])),
    ("rec", lambda d: dict(d, positions=[row[:1] for row in d["positions"]])),
    ("lift", lambda d: dict(d, kind="bogus")),
    ("lift", lambda d: _without(d, "face_planes")),
    ("lift", lambda d: dict(d, vertex_points=d["vertex_points"][:2])),
    ("rec", lambda d: [d]),
], ids=["no-positions", "positions-2-rows", "positions-rows-of-1", "bogus-kind",
        "no-face-planes", "vertex-points-2-rows", "top-level-list"])
def test_mc_malformed_object_is_input_error(mc_dir, source, corrupt, capsys):
    (mc_dir / "bad.json").write_text(json.dumps(corrupt(_object(mc_dir, source))))
    assert run(mc_dir, "mc", "prism-E.json", "--direction", "%s2stress" % source,
               "--object", "bad.json", "-o", "out.json") == 2
    assert "error:" in capsys.readouterr().err


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from([kind.value for kind in rk.LiftKind]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=8,
)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mc_mutated_object_exit_codes(mc_dir, data):
    # random key deletion, row truncation and retyping of a valid object file
    space = data.draw(st.sampled_from("ESH"))
    source = data.draw(st.sampled_from(["rec", "lift"]))
    obj = _object(mc_dir, source, space)
    key = data.draw(st.sampled_from(sorted(obj)))
    op = data.draw(st.sampled_from(["delete", "truncate", "retype", "retype-entry"]))
    value = obj[key]
    if op == "delete":
        del obj[key]
    elif op == "retype":
        obj[key] = data.draw(_JSON_VALUES)
    elif isinstance(value, list) and value:
        if op == "truncate":
            obj[key] = value[:data.draw(st.integers(0, len(value) - 1))]
        else:
            row = data.draw(st.integers(0, len(value) - 1))
            if isinstance(value[row], list) and data.draw(st.booleans()):
                value[row][data.draw(st.integers(0, len(value[row]) - 1))] = \
                    data.draw(_JSON_VALUES)
            else:
                value[row] = data.draw(_JSON_VALUES)
    (mc_dir / "mutated.json").write_text(json.dumps(obj))
    target = data.draw(st.sampled_from(["stress", "lift" if source == "rec" else "rec"]))
    code = run(mc_dir, "mc", "prism-%s.json" % space, "--direction",
               "%s2%s" % (source, target), "--object", "mutated.json", "-o", "out.json")
    assert code in (0, 2, 3)


@pytest.mark.parametrize("direction", ["stress2rec", "rec2stress", "stress2lift",
                                       "lift2rec", "rec2lift", "lift2stress"])
def test_mc_checks_3_connectivity_once_per_call(mc_dir, direction, monkeypatch):
    # the conversion's precondition and the convexity summary share one verdict
    from rigidkit import graphs
    real = graphs._polyhedral
    calls = []

    def counted(emb):
        calls.append(emb)
        return real(emb)

    monkeypatch.setattr(graphs, "_polyhedral", counted)
    source = direction.split("2")[0]
    argv = ["mc", "prism-E.json", "--direction", direction, "-o", "out.json"]
    if source != "stress":
        argv += ["--object", "%s-E.json" % source]
    assert run(mc_dir, *argv) == 0
    assert len(calls) == 1


def _json_dump_text(text):
    """The data of a written file, which must read as json.dump(data, indent=1)
    and a newline wrote it."""
    data = json.loads(text)
    assert text == json.dumps(data, indent=1) + "\n"
    return data


@pytest.mark.parametrize("space", ["E", "S", "H"])
def test_mc_all_directions(mc_dir, space):
    fw, w = _prism_in(space)
    rec, lift = _object(mc_dir, "rec", space), _object(mc_dir, "lift", space)

    def mc(direction, source):
        assert run(mc_dir, "mc", "prism-%s.json" % space, "--direction", direction,
                   "--object", "%s-%s.json" % (source, space), "-o", "out.json") == 0
        return _json_dump_text((mc_dir / "out.json").read_text())

    assert lift["kind"] in {"E": ("vertical",), "S": ("spherical-weak", "spherical-strong"),
                            "H": ("hyperbolic-minkowski",)}[space]
    ref = lift["stress_scale"] * w.values
    for stress in (mc("rec2stress", "rec")["stress"], mc("lift2stress", "lift")["stress"]):
        got = np.array([stress["%d-%d" % e] for e in fw.graph.edges])
        assert np.max(np.abs(got - ref)) <= 1e-8 * np.max(np.abs(ref))
    assert np.allclose(mc("lift2rec", "lift")["positions"], rec["positions"], atol=1e-9)
    relifted = mc("rec2lift", "rec")
    assert relifted["kind"] == lift["kind"]
    assert np.allclose(relifted["face_planes"], lift["face_planes"], atol=1e-9)


def _with(key, value):
    return lambda d: dict(d, **{key: value})


def _stress_with(key, value):
    return lambda d: dict(d, stress=dict(d["stress"], **{key: value}))


@pytest.mark.parametrize("command", ["analyze", "transform"])
@pytest.mark.parametrize("corrupt", [
    _with("stress", [1, 2]),
    _stress_with("0-x", 1.0),
    _stress_with("0-1-2", 1.0),
    _stress_with("0-1", [1]),
    _with("faces", [1, 2, 3]),
    _with("exterior_face", "a"),
    _with("vertices", "abcdef"),
    _with("load", "x"),
], ids=["stress-list", "stress-key-0-x", "stress-key-0-1-2", "stress-value-list",
        "faces-of-ints", "exterior-face-string", "vertices-string", "load-string"])
def test_malformed_framework_is_input_error(tmp_path, command, corrupt, capsys):
    run(tmp_path, "example", "prism3-concurrent")
    data = json.loads((tmp_path / "prism3-concurrent.json").read_text())
    (tmp_path / "bad.json").write_text(json.dumps(corrupt(data)))
    argv = [command, "bad.json"] + (["--to-space", "S", "-o", "out.json"]
                                    if command == "transform" else [])
    assert run(tmp_path, *argv) == 2
    assert "malformed framework data" in capsys.readouterr().err


def _small_prism_with_attachments():
    """prism3-concurrent scaled by 0.2, with its self-stress, an equilibrium
    load (central forces) and a field (an infinitesimal rotation)."""
    doc = rk.gallery.fixture("prism3-concurrent")
    data = rk.framework_to_dict(doc.framework, stress=doc.stress)
    xy = 0.2 * np.array(data["vertices"])
    data["vertices"] = xy.tolist()
    data["load"] = [[0.0, -x, -y] for x, y in xy]
    data["field"] = [[0.0, -y, x] for x, y in xy]
    return data


@pytest.mark.parametrize("carry, row", [("load", [1.0, 0.5, 0.0]), ("field", [0.7, 0.0, 1.0])],
                         ids=["load", "field"])
def test_transform_carry_rejects_non_tangent_vectors(tmp_path, carry, row, capsys):
    data = _small_prism_with_attachments()
    data[carry][0] = row
    (tmp_path / "bent.json").write_text(json.dumps(data))
    assert run(tmp_path, "transform", "bent.json", "--to-space", "S",
               "--carry", carry, "-o", "out.json") == 2
    assert "not tangent" in capsys.readouterr().err


def _prism_with_nan_load():
    data = _small_prism_with_attachments()
    data["load"][0][1] = float("nan")
    return data, ["transform", "--to-space", "S", "--carry", "load", "-o", "out.json"]


def _prism_with_nan_vertex():
    data = _small_prism_with_attachments()
    data["vertices"][0][0] = float("nan")
    return data, ["analyze"]


def _prism_with_inf_stress():
    doc = rk.gallery.fixture("prism3-concurrent")
    data = rk.framework_to_dict(doc.framework, stress=doc.stress)
    data["stress"]["0-1"] = float("inf")
    return data, ["mc", "--direction", "stress2rec", "-o", "rec.json"]


@pytest.mark.parametrize("case", [_prism_with_nan_load, _prism_with_nan_vertex,
                                  _prism_with_inf_stress],
                         ids=["nan-load", "nan-vertex", "inf-stress"])
def test_non_finite_input_is_input_error(tmp_path, case, capsys):
    # exit 0 (NaN load carried), 2 with "SVD ... did not converge" and 3
    # ("self-stress vanishes") before non-finite numbers were rejected
    data, (command, *options) = case()
    (tmp_path / "bad.json").write_text(json.dumps(data))
    assert run(tmp_path, command, "bad.json", *options) == 2
    err = capsys.readouterr().err
    assert "must be finite" in err and "SVD" not in err


def test_transform_builds_one_map(tmp_path, monkeypatch):
    from rigidkit import transforms
    (tmp_path / "small.json").write_text(json.dumps(_small_prism_with_attachments()))
    real = transforms.FrameworkMap.__init__
    calls = []

    def counted(self, spec, fw):
        calls.append(spec)
        real(self, spec, fw)

    monkeypatch.setattr(transforms.FrameworkMap, "__init__", counted)
    assert run(tmp_path, "transform", "small.json", "--to-space", "H", "--carry", "load",
               "--carry", "field", "--carry", "stress", "-o", "h.json") == 0
    assert len(calls) == 1
    doc = rk.load_framework(tmp_path / "h.json")
    assert doc.load is not None and doc.field is not None and doc.stress is not None


@pytest.fixture(scope="module")
def mutation_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_framework_exit_codes(mutation_dir, data):
    # random key deletion, row truncation and retyping of a valid framework
    # file with stress, load and field attachments
    doc = _small_prism_with_attachments()
    key = data.draw(st.sampled_from(sorted(doc)))
    op = data.draw(st.sampled_from(["delete", "truncate", "retype", "retype-entry"]))
    value = doc[key]
    if op == "delete":
        del doc[key]
    elif op == "retype":
        doc[key] = data.draw(_JSON_VALUES)
    elif isinstance(value, dict) and value:
        entry = data.draw(st.sampled_from(sorted(value)))
        if op == "truncate":
            del value[entry]
        else:
            value[entry] = data.draw(_JSON_VALUES)
    elif isinstance(value, list) and value:
        if op == "truncate":
            doc[key] = value[:data.draw(st.integers(0, len(value) - 1))]
        else:
            row = data.draw(st.integers(0, len(value) - 1))
            if isinstance(value[row], list) and value[row] and data.draw(st.booleans()):
                value[row][data.draw(st.integers(0, len(value[row]) - 1))] = \
                    data.draw(_JSON_VALUES)
            else:
                value[row] = data.draw(_JSON_VALUES)
    (mutation_dir / "mutated.json").write_text(json.dumps(doc))
    if data.draw(st.booleans()):
        argv = ["analyze", "mutated.json"]
    else:
        argv = ["transform", "mutated.json", "--to-space", data.draw(st.sampled_from("SH")),
                "--carry", "load", "--carry", "field", "--carry", "stress", "-o", "out.json"]
    assert run(mutation_dir, *argv) in (0, 10, 2, 3)


@pytest.mark.parametrize("dim", [rk.spaces.MAX_DIM + 1, 3000, 100000])
@pytest.mark.parametrize("argv", [["analyze", "--json"], ["transform", "--to-space", "S"],
                                  ["transform", "--to-space", "H"],
                                  ["render", "--flex", "-o", "out.svg"]],
                         ids=["analyze", "transform-S", "transform-H", "render"])
def test_a_large_dimension_is_an_input_error(tmp_path, capsys, dim, argv):
    # Killing fields and force bivectors have C(d+1, 2) components: without
    # the bound, an empty framework in E^3000 asked for (d+1) C(d+1, 2)
    # floats (101 GiB) and ended in a MemoryError traceback.
    (tmp_path / "wide.json").write_text(json.dumps(
        {"space": "E", "dim": dim, "vertices": [], "edges": []}))
    assert run(tmp_path, argv[0], "wide.json", *argv[1:]) == 2
    assert capsys.readouterr().err == "error: space dimension must be in 1..%d, got %d\n" % (
        rk.spaces.MAX_DIM, dim)


def test_an_empty_framework_at_the_largest_dimension_is_analyzed(tmp_path, capsys):
    (tmp_path / "wide.json").write_text(json.dumps(
        {"space": "E", "dim": rk.spaces.MAX_DIM, "vertices": [], "edges": []}))
    assert run(tmp_path, "analyze", "wide.json", "--json") == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["space"], report["n"], report["dim_V"]) == ("E^%d" % rk.spaces.MAX_DIM, 0, 0)


def test_an_svd_out_of_memory_is_an_input_error_naming_the_shape(tmp_path, capsys,
                                                                   monkeypatch):
    # A MemoryError from LAPACK's SVD, here raised by a stand-in before any
    # allocation, ends in exit 2 and one `error:` line, not a traceback.
    def svd(a, *args, **kwargs):
        raise MemoryError

    run(tmp_path, "example", "triangle")
    monkeypatch.setattr(np.linalg, "svd", svd)
    assert run(tmp_path, "analyze", "triangle.json", "--json") == 2
    assert capsys.readouterr().err == (
        "error: out of memory for the dense SVD of a 3 x 6 matrix\n")


def test_a_killing_matrix_over_the_budget_is_an_input_error(tmp_path, capsys):
    # 20 vertices and 60 edges in E^100 (a 40 KB file) ask for a 2000 x 5050
    # Killing matrix and as large a bivector map: refused before either is
    # built, where `analyze` took 7.6 s and 444 MB.
    edges = [(i, j) for i in range(20) for j in range(i + 1, 20)][:60]
    (tmp_path / "tall.json").write_text(json.dumps(
        {"space": "E", "dim": 100,
         "vertices": np.random.default_rng(0).random((20, 100)).tolist(), "edges": edges}))
    assert run(tmp_path, "analyze", "tall.json", "--json") == 2
    assert capsys.readouterr().err == (
        "error: 20 vertices in dimension 100 need a 2000 x 5050 Killing matrix, over the "
        "budget of %d entries\n" % rk.kinematics.KILLING_BUDGET)
