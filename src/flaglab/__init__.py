"""flaglab: numerical laboratory for gap certificates, hyperconvexity
diagnostics and limit-set geometry of matrix representations."""

from .boxdim import (
    DimensionEstimate,
    box_dimension_sphere,
    cantor_cloud,
    circle_cloud,
    grassmann_dimension,
    uniform_cloud,
)
from .certify import (
    AnosovCertificate,
    FlagSample,
    GapSweep,
    boundary_samples,
    certify_anosov,
    gap_sweep,
    limit_set_sample,
    transport_flag,
)
from .errors import (
    CapacityError,
    FlaglabError,
    InputError,
    NotAnosovError,
    PrecisionError,
    TransversalityError,
)
from .fibers import (
    FoliatedSample,
    HyperconvexityReport,
    TripleSpec,
    Trivialization,
    check_Hk,
    chart_points,
    check_hyperconvex,
    fiber_wedge_line,
    foliated_limit_sample,
    grassmann_charts,
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
from .subspaces import hausdorff_subspace_dist
from .words import (
    GroupPresentation,
    Word,
    free_group,
    reduce,
    surface_group,
)

__version__ = "0.12.0"
