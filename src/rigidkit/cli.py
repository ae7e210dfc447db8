"""Command-line surface: analyze, transform, mc, example, render.

Exit codes are a stable contract: 0 = rigid (or success for non-verdict
commands), 10 = flexible, 2 = input error, 3 = conversion failure.
"""

import argparse
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import gallery, kinematics, maxwell_cremona as mc, statics, svg, transforms
from ._linalg import RANK_TOL
from .errors import (
    InternalInvariantError,
    MaxwellCremonaError,
    NumericalError,
    RigidkitError,
)
from .frameworks import (
    Framework,
    framework_to_dict,
    is_spanning,
    load_framework,
    read_json,
    write_json,
)
from .graphs import Stress, laman_check

EXIT_RIGID = 0
EXIT_OK = 0
EXIT_FLEXIBLE = 10
EXIT_INPUT = 2
EXIT_CONVERSION = 3


def tolerance(text) -> float:
    """A tolerance given as text: a finite number > 0, else RigidkitError."""
    try:
        tol = float(text)
    except ValueError:
        tol = np.nan
    if not (np.isfinite(tol) and tol > 0):
        raise RigidkitError("tolerance must be a finite number > 0, got %r" % text)
    return tol


def default_tol() -> float:
    env = os.environ.get("RIGIDKIT_TOL")
    return tolerance(env) if env else RANK_TOL


@dataclass
class AnalysisReport:
    """Everything cmd_analyze prints; kinematic and static dof must agree
    (static-kinematic duality), enforced as an internal self-check.
    `smallest_sigma` holds the two smallest of the rigidity operator's
    min(m, n*d) singular values (see `MotionSpaces.smallest_sigma`)."""

    n: int
    m: int
    space: str
    spanning: bool
    dim_V: int
    dim_V0: int
    dim_F: int
    dim_F0: int
    kinematic_dof: int
    static_dof: int
    self_stress_count: int
    smallest_sigma: tuple
    rigid: bool
    laman: bool = None
    warnings: tuple = ()

    def to_dict(self) -> dict:
        d = dict(self.__dict__)
        d["warnings"] = list(self.warnings)
        d["smallest_sigma"] = [None if np.isnan(s) else float(s) for s in self.smallest_sigma]
        return d

    def to_text(self) -> str:
        lines = [
            "framework: %s, %d vertices, %d edges%s"
            % (self.space, self.n, self.m, "" if self.spanning else " (not spanning)"),
            "kinematic: dim V = %d, dim V0 = %d, dof = %d"
            % (self.dim_V, self.dim_V0, self.kinematic_dof),
            "static:    dim F = %d, dim F0 = %d, dof = %d, self-stresses = %d"
            % (self.dim_F, self.dim_F0, self.static_dof, self.self_stress_count),
            "smallest singular values: %s"
            % ", ".join("%.3e" % s for s in self.smallest_sigma if not np.isnan(s)),
            "verdict: %s" % ("infinitesimally rigid" if self.rigid else "flexible"),
        ]
        if self.laman is not None:
            lines.append("Laman graph: %s" % ("yes" if self.laman else "no"))
        for w in self.warnings:
            lines.append("warning: %s" % w)
        return "\n".join(lines)


def analyze_framework(fw: Framework, tol=None) -> AnalysisReport:
    """Counts, margins and verdict of `fw`, read from the spectra of
    `motion_spaces` and `static_spaces` and the vertex coordinates (the
    spanning test): one rank decision per matrix and no basis.

    In tangent frames the resolution matrix is the transposed rigidity
    operator up to invertible factors, in every geometry, so the static
    side holds the very operator Spectrum that `motion_spaces` decided,
    with its Killing columns on the sparse path (`_linalg._sparse_spectrum`):
    three spectra in all, the equilibrium stack's on its small reduction,
    never the sparse path.  The duality check kinematic dof == static dof
    then compares dim F with dim V0.  When they disagree, some rank decision
    is wrong at this tolerance (coordinates spread over more orders of
    magnitude than it resolves): no verdict.
    """
    tol = default_tol() if tol is None else tol
    ms = kinematics.motion_spaces(fw, tol)
    ss = statics.static_spaces(fw, tol, operator=ms.operator)
    if ms.kinematic_dof != ss.static_dof:
        raise NumericalError(
            "kinematic dof %d != static dof %d: the rank decisions disagree at tol %g"
            % (ms.kinematic_dof, ss.static_dof, tol)
        )
    warnings = []
    spanning = is_spanning(fw, tol)
    if not spanning:
        warnings.append("vertices lie in a proper geodesic subspace; "
                        "dim V0 computed from the evaluation rank")
    if fw.n and np.allclose(fw.coords, fw.coords[0]):
        warnings.append("all vertices coincide")
    return AnalysisReport(
        n=fw.n, m=fw.m, space=str(fw.space), spanning=spanning,
        dim_V=ms.dim_V, dim_V0=ms.dim_V0, dim_F=ss.dim_F, dim_F0=ss.dim_F0,
        kinematic_dof=ms.kinematic_dof, static_dof=ss.static_dof,
        self_stress_count=ss.self_stress_count,
        smallest_sigma=tuple(ms.smallest_sigma), rigid=ms.kinematic_dof == 0,
        laman=laman_check(fw.graph) if (fw.dim == 2 and fw.n >= 2) else None,
        warnings=tuple(warnings),
    )


def cmd_analyze(args) -> int:
    doc = load_framework(args.path)
    report = analyze_framework(doc.framework, args.tol)
    if args.json:
        print(json.dumps(report.to_dict(), indent=1))
    else:
        print(report.to_text())
    return EXIT_RIGID if report.rigid else EXIT_FLEXIBLE


def _map_spec_from_args(args) -> transforms.MapSpec:
    if args.map:
        return transforms.map_spec_from_dict(read_json(args.map))
    if args.to_space:
        return transforms.geodesic_map(args.to_space)
    raise RigidkitError("transform needs --map or --to-space")


def cmd_transform(args) -> int:
    doc = load_framework(args.path)
    fw = doc.framework
    fmap = transforms.FrameworkMap(_map_spec_from_args(args), fw)
    attachments = {}
    for carry in args.carry or ():
        raw = getattr(doc, carry)
        if raw is None:
            raise RigidkitError("--carry %s: input file has no %s" % (carry, carry))
        if carry == "load":
            attachments["load"] = fmap.static(statics.load(fw, raw)).vecs
        elif carry == "field":
            attachments["field"] = fmap.kinematic(kinematics.vector_field(fw, raw)).vecs
        else:
            attachments["stress"] = fmap.stress(raw)
    out = args.output or "transformed.json"
    write_json(out, framework_to_dict(fmap.image, description=doc.description, **attachments))
    print("wrote %s (%s)" % (out, fmap.image.space))
    return EXIT_OK


_MC_DIRECTIONS = ("stress2rec", "rec2stress", "stress2lift",
                  "lift2rec", "rec2lift", "lift2stress")
_MC_OBJECTS = {"stress": "stress", "rec": "reciprocal", "lift": "lift"}


def _print_mc_summary(fw, first, result, written):
    if isinstance(result, mc.ReciprocalDiagram):
        print("reciprocal diagram: %d dual vertices, perpendicularity residual %.3e"
              % (len(result.positions), result.residuals["perpendicularity"]))
        if result.strength:
            print("strength: %s" % result.strength)
    elif isinstance(result, mc.PolyhedralLift):
        print("polyhedral lift (%s): incidence residual %.3e"
              % (result.kind.value, result.residuals["incidence"]))
    elif isinstance(result, Stress):
        print("stress: %s" % json.dumps(written["stress"]))
    # a halved hyperbolic stress: the factor is on the lift or reciprocal,
    # made or read, and the stress recovered from either is the scaled one
    scale = getattr(result, "stress_scale", getattr(first, "stress_scale", 1.0))
    if scale != 1.0:
        print("stress scaled by %.6g for cone admissibility" % scale)
    if fw.space.is_euclidean:
        try:
            report = mc.euclid_convexity_classify(
                fw,
                stress=result if isinstance(result, Stress) else None,
                reciprocal=result if isinstance(result, mc.ReciprocalDiagram) else None,
                lift=result if isinstance(result, mc.PolyhedralLift) and
                result.kind is mc.LiftKind.VERTICAL else None,
            )
            for key, val in report.classifications.items():
                if val is not None:
                    print("convex classification (%s): %s" % (key, val))
        except MaxwellCremonaError as exc:
            print("convex classification: not applicable (%s)" % exc)


def cmd_mc(args) -> int:
    doc = load_framework(args.path)
    fw = doc.framework
    source, target = (_MC_OBJECTS[name] for name in args.direction.split("2"))
    if source == "stress":
        if doc.stress is None:
            raise RigidkitError("direction %s needs a stress attachment" % args.direction)
        first = doc.stress
    else:
        if not args.object:
            raise RigidkitError("direction %s needs --object" % args.direction)
        data = read_json(args.object)
        if not isinstance(data, dict) or data.get("type") != source:
            raise RigidkitError("direction %s needs a %s object" % (args.direction, source))
        parse = mc.reciprocal_from_dict if source == "reciprocal" else mc.lift_from_dict
        first = parse(fw, data)
    result = mc.convert(fw, first, to=target, tol=args.tol or mc.MC_TOL)
    out = args.output or ("%s.json" % args.direction)
    if isinstance(result, Stress):
        written = framework_to_dict(fw, stress=result, description=doc.description)
    else:
        written = result.to_dict()
    write_json(out, written)
    _print_mc_summary(fw, first, result, written)
    print("wrote %s" % out)
    return EXIT_OK


def cmd_example(args) -> int:
    try:
        doc = gallery.fixture(args.name)
    except (KeyError, ValueError) as exc:
        raise RigidkitError(str(exc)) from None
    out = args.output or ("%s.json" % args.name.replace(":", "-"))
    write_json(out, framework_to_dict(
        doc.framework, stress=doc.stress, load=doc.load, field=doc.field,
        description=doc.description,
    ))
    print("wrote %s" % out)
    return EXIT_OK


def _pick_flex(fw: Framework, tol) -> np.ndarray:
    """A unit nontrivial flex: the V basis vector furthest from V_0, projected."""
    ms = kinematics.motion_spaces(fw, tol)
    flexes = [kinematics.nontrivial_part(ms.basis_V0, q.vecs) for q in ms.basis_V]
    norms = [float(np.linalg.norm(flat)) for flat in flexes]
    if not flexes or max(norms) < 1e-8:
        return None
    k = int(np.argmax(norms))
    return (flexes[k] / norms[k]).reshape(fw.n, -1)


def cmd_render(args) -> int:
    doc = load_framework(args.path)
    fw = doc.framework
    flex = None
    if args.flex:
        if doc.field is not None:
            flex = kinematics.validate_tangent_field(fw, doc.field)
        else:
            flex = _pick_flex(fw, args.tol or default_tol())
        if flex is None:
            print("note: framework is infinitesimally rigid; no flex arrows drawn",
                  file=sys.stderr)
    reciprocal = None
    if args.reciprocal:
        reciprocal = mc.reciprocal_from_dict(fw, read_json(args.reciprocal))
    lift = None
    if args.lift:
        lift = mc.lift_from_dict(fw, read_json(args.lift))
    text = svg.render_framework(fw, model=args.model, flex=flex,
                                reciprocal=reciprocal, lift=lift)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(text)
    print("wrote %s" % args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rigidkit",
        description="Rigidity analysis of bar-and-joint frameworks in E/S/H.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="rigidity report; exit 0 rigid, 10 flexible")
    pa.add_argument("path")
    pa.add_argument("--tol", type=tolerance, help="rank tolerance (default RIGIDKIT_TOL or 1e-9)")
    pa.add_argument("--json", action="store_true")
    pa.set_defaults(func=cmd_analyze)

    pt = sub.add_parser("transform", help="projective/affine/geodesic images")
    pt.add_argument("path")
    pt.add_argument("--map", help="map spec JSON file")
    pt.add_argument("--to-space", choices=["E", "S", "H"], dest="to_space")
    pt.add_argument("--carry", action="append", choices=["load", "field", "stress"])
    pt.add_argument("-o", "--output")
    pt.set_defaults(func=cmd_transform)

    pm = sub.add_parser("mc", help="Maxwell-Cremona conversions")
    pm.add_argument("path")
    pm.add_argument("--direction", required=True, choices=_MC_DIRECTIONS)
    pm.add_argument("--object", help="reciprocal/lift JSON input for rec2*/lift2*")
    pm.add_argument("-o", "--output")
    pm.add_argument("--tol", type=tolerance, help="absolute Maxwell-Cremona construction "
                    "tolerance (default 1e-9; RIGIDKIT_TOL is not read)")
    pm.set_defaults(func=cmd_mc)

    pe = sub.add_parser("example", help="write a named example framework file")
    pe.add_argument("name")
    pe.add_argument("-o", "--output")
    pe.set_defaults(func=cmd_example)

    pr = sub.add_parser("render", help="static SVG rendering (d = 2)")
    pr.add_argument("path")
    pr.add_argument("-o", "--output", required=True)
    pr.add_argument("--model", default="chart", choices=["chart", "klein", "hemisphere"])
    pr.add_argument("--flex", action="store_true")
    pr.add_argument("--reciprocal")
    pr.add_argument("--lift")
    pr.add_argument("--tol", type=tolerance, help="--flex rank tolerance (RIGIDKIT_TOL or 1e-9)")
    pr.set_defaults(func=cmd_render)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # finite input numbers too large to compute with are an input error
        with np.errstate(over="raise"):
            return args.func(args)
    except InternalInvariantError:
        raise  # a bug, not bad input: crash loudly
    except MaxwellCremonaError as exc:
        print("conversion failed: %s" % exc, file=sys.stderr)
        return EXIT_CONVERSION
    except (RigidkitError, OSError, FloatingPointError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
