"""gaugelab: numerics for gauge norms, boundary measures, and distance sets."""

from .bodies import (
    BoundaryMesh,
    CapFamily,
    ConvexBody,
    Ellipsoid,
    HPolytope,
    RadialBody,
    ball_body,
    cube_body,
    geodesic_distance,
    load_body,
    regular_polygon_body,
    random_symmetric_polytope,
    save_body,
    triangulate_boundary,
)
from .correlation import (
    BourgainConstants,
    GridIndicator,
    LacunaryPlan,
    SplitResult,
    direct_correlation,
    indicator_from_balls,
    indicator_from_cells,
    lacunary_search,
    pigeonhole_count,
    random_indicator,
    split_integrals,
)
from .distances import (
    GapReport,
    PointSet,
    distance_set,
    gap_scan,
    lattice_points,
    sparsify,
    thicken,
)
from .errors import (
    BadInputError,
    BudgetExceededError,
    GaugeLabError,
    HypothesisViolationError,
)
from .goodness import (
    GoodnessReport,
    construct_good_measure,
    goodness_profile,
    polytope_bound_audit,
    stabilized_goodness,
)
from .measures import (
    AtomicMeasure,
    LineMeasure,
    decay_scan,
    from_mesh,
    ft_many,
    ft_measure,
    ft_profile,
    project_measure,
    segment_measure,
    wiener_atom_mass,
)
from .spectra import (
    ZeroLedger,
    ball_indicator_profile,
    chi_hat,
    chi_hat_many,
    orthogonality_residual,
    radial_zero_scan,
    spectrum_gap_pipeline,
)

__version__ = "0.1.0"
