"""flaglab: numerical laboratory for gap certificates, hyperconvexity
diagnostics and limit-set geometry of matrix representations."""

from .boxdim import (
    AreaEstimate,
    DimensionEstimate,
    box_dimension_sphere,
    cantor_cloud,
    circle_cloud,
    eps_area,
    grassmann_dimension,
    uniform_cloud,
)
from .certify import (
    AnosovCertificate,
    FlagSample,
    GapSweep,
    boundary_sample,
    certify_anosov,
    flag_dist,
    gap_sweep,
    limit_set_sample,
    transport_flag,
)
from .errors import (
    CapacityError,
    ConditioningError,
    FlaglabError,
    InputError,
    NotAnosovError,
    PrecisionError,
    TransversalityError,
)
from .fibers import (
    FiberPoint,
    FoliatedSample,
    HyperconvexityReport,
    TripleSpec,
    Trivialization,
    check_Hk,
    check_hyperconvex,
    fiber_wedge_line,
    foliated_limit_sample,
    mobius_cocycle,
    plucker,
    tangent_project,
    wedge_fiber_point,
    wedge_hyperplane,
    wedge_pencil,
)
from .reps import (
    Representation,
    contragredient,
    direct_sum,
    perturb,
    preset,
    preset_names,
    schottky2,
    sym_power,
    wedge_rep,
)
from .sphere import (
    MassEstimate,
    VisualMeasure,
    ahlfors_bound,
    cross_ratio,
    quasimobius_constant,
    visual_mass,
)
from .subspaces import (
    GapProfile,
    Subspace,
    fubini_study,
    hausdorff_subspace_dist,
    intersect,
    singular_gaps,
    subspace_sum,
    transversality_gap,
)
from .words import (
    GroupPresentation,
    Word,
    enumerate_ball,
    free_group,
    random_geodesic_word,
    reduce,
    surface_group,
)

__version__ = "0.3.0"
