"""Exception hierarchy.

Every validation or construction failure raises a subclass of
:class:`RigidkitError`; numerical verdicts (rigid/flexible, resolvable or
not) are returned as values, never as exceptions.
"""


class RigidkitError(Exception):
    """Base class for all rigidkit errors."""


# --- model space -----------------------------------------------------------

class DimensionMismatch(RigidkitError):
    """Vector length does not match the ambient dimension d+1."""


class WrongDimension(RigidkitError):
    """Operation only defined in a specific dimension (e.g. cross products in d=2)."""


class OffModel(RigidkitError):
    """Coordinates are not finite or violate the quadratic-form constraint of the
    model surface."""


class WrongSheet(RigidkitError):
    """Hyperbolic point lies on the lower sheet (x0 <= 0)."""


class NotTangent(RigidkitError):
    """Vector is not tangent to the model surface at its base point."""


class DegenerateEdge(RigidkitError):
    """Edge endpoints coincide."""


# --- graphs and embeddings -------------------------------------------------

class GraphError(RigidkitError):
    """Invalid graph data (loops, duplicate edges, bad indices)."""


class EulerViolation(RigidkitError):
    """Face data violates n - m + f = 2."""


class EdgeFaceMismatch(RigidkitError):
    """Some edge is not on the boundary of exactly two faces."""


class OrientationInconsistent(RigidkitError):
    """Some directed edge is used by zero or by two face cycles."""


# --- frameworks ------------------------------------------------------------

class AntipodalEdge(RigidkitError):
    """Spherical framework has an edge between antipodal points."""


class GraphMismatch(RigidkitError):
    """Two frameworks do not share the same graph (or space)."""


class FrameworkMismatch(RigidkitError):
    """Field/load attached to a different framework than expected."""


class NotIsometric(RigidkitError):
    """Frameworks expected to be isometric have different edge lengths."""


# --- transforms ------------------------------------------------------------

class InvalidMapSpec(RigidkitError):
    """Map specification is malformed or not applicable to this framework."""


class VertexAtInfinity(RigidkitError):
    """Projective image of a vertex lies on the hyperplane sent to infinity."""


class OutsideChart(RigidkitError):
    """Vertex falls outside the domain of the geodesic chart."""


class DegenerateMidpoint(RigidkitError):
    """Averaged point has zero or non-normalizable coordinate sum."""


# --- Maxwell-Cremona -------------------------------------------------------

class MaxwellCremonaError(RigidkitError):
    """Base class for reciprocal/lift conversion failures."""


class NotSelfStress(MaxwellCremonaError):
    """Input stress does not resolve the zero load."""


class ZeroOnEdge(MaxwellCremonaError):
    """Self-stress vanishes on some edge, so no reciprocal exists."""


class ClosureFailure(MaxwellCremonaError):
    """Recursive construction is path-dependent: some cycle does not close."""


class NotPerpendicular(MaxwellCremonaError):
    """Reciprocal diagram violates the dual-edge perpendicularity condition."""


class CollinearFace(MaxwellCremonaError):
    """Face vertices lie on a single geodesic; no lift plane exists."""


class NonPlanarFace(MaxwellCremonaError):
    """Lifted face vertices are not coplanar."""


class UnremovableIncidence(MaxwellCremonaError):
    """No vertical shift removes the incidence with the critical plane."""


class NotEmbedded(MaxwellCremonaError):
    """Geodesic/rectilinear extension is not an embedding with convex faces."""


class NoExteriorFace(MaxwellCremonaError):
    """No (or no unique) exterior face can be identified."""


class OriginPlane(MaxwellCremonaError):
    """Face plane passes through the origin; spherical normalization fails."""


class NotMultiple(MaxwellCremonaError):
    """Face-normal difference is not a multiple of the edge cross product."""


class ConeFailure(MaxwellCremonaError):
    """No stress scale places all face normals inside the upper light cone."""


class BasePerturbationExhausted(MaxwellCremonaError):
    """All base perturbation retries left some incidence value at zero."""


# --- numerics --------------------------------------------------------------

class NumericalError(RigidkitError):
    """A LAPACK factorization failed to converge, also on the fallback route,
    ran out of memory, or two independent rank computations disagree."""


class TooLarge(RigidkitError):
    """A dense matrix that the input asks for exceeds a fixed size budget."""


# --- reports ---------------------------------------------------------------

class InternalInvariantError(RigidkitError):
    """An identity that holds for every valid input failed; a bug, not bad data."""
