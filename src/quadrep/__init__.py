"""quadrep: exact construction and certification of polynomial maps between
complex affine quadrics, with numeric invariant checks (degree, Hopf
invariant, suspension structure) on top."""

from .exact import GaussianRational, Polynomial
from .coefficients import (
    SuspensionTriple,
    inverse_sqrt_series,
    series_pair,
    suspension_triple,
    verify_triple,
)
from .maps import (
    BlendedMap,
    CatalogError,
    Certificate,
    DimensionMismatch,
    InfeasibleError,
    MapError,
    PolyMap,
    PreconditionError,
    bilinear_pairing,
    blend_homotopy,
    catalog,
    certify_order,
    circle_pair,
    compose_maps,
    constant_map,
    hopf_pair,
    quadratic_form,
    suspend,
)
from .numeric import (
    DegreeResult,
    HemisphereResult,
    HopfResult,
    NumericError,
    QuadricPoint,
    TracedCurve,
    even_order_nullhomotopy_residual,
    gauss_linking,
    hemisphere_check,
    hopf_invariant,
    quadric_residual,
    quadric_residual_scan,
    retraction_homotopy_residual,
    sample_quadric,
    sample_sphere,
    sphere_degree,
    sphere_retraction,
    tangent_lift,
    tangent_unlift,
    winding_degree,
)
from .serialize import (
    DocumentError,
    document_to_map,
    map_to_document,
    read_document,
    write_document,
)

__version__ = "0.1.0"
