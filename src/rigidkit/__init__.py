"""rigidkit: statics and kinematics of bar-and-joint frameworks in
Euclidean, spherical and hyperbolic space, with Maxwell-Cremona
conversions between self-stresses, reciprocal diagrams and polyhedral
lifts in dimension 2.
"""

from . import errors
from ._linalg import RANK_TOL
from .spaces import (
    Space,
    SpaceKind,
    cross3,
    distances,
    euclidean,
    hyperbolic,
    signed_inner,
    spherical,
    validate_points,
    wedges,
)
from .graphs import (
    Graph,
    PlanarEmbedding,
    dual_graph,
    generic_dof_count,
    graph,
    is_3_connected,
    laman_check,
    validate_embedding,
)
from .frameworks import (
    EdgeLengthMap,
    Framework,
    build_framework,
    edge_lengths,
    framework_from_dict,
    framework_to_dict,
    is_isometric,
    is_spanning,
    load_framework,
    save_framework,
)
from .kinematics import (
    MotionSpaces,
    VectorField,
    edge_residuals,
    is_infinitesimally_rigid,
    kinematic_dof,
    motion_spaces,
    rigidity_operator,
    vector_field,
)
from .statics import (
    Load,
    StaticSpaces,
    Stress,
    Unresolvable,
    apply_stress,
    is_equilibrium_load,
    load,
    resolve_load,
    static_dof,
    static_spaces,
    stress_from_dict,
    virtual_work,
)
from .transforms import (
    MapSpec,
    affine_map,
    apply_map,
    apply_projective,
    average,
    deaverage,
    geodesic_map,
    geodesic_project,
    projective_map,
)
from .maxwell_cremona import (
    ConvexityReport,
    LiftKind,
    PolyhedralLift,
    ReciprocalDiagram,
    convert,
    euclid_convexity_classify,
    radial_vertical_convert,
)
from . import gallery

__version__ = "0.1.0"
