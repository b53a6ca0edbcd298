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
    FlagStack,
    GapSweep,
    boundary_samples,
    certificates,
    gap_sweep,
    limit_set_sample,
)
from .errors import (
    CapacityError,
    FlaglabError,
    InputError,
    NotAnosovError,
    PrecisionError,
)
from .fibers import (
    FoliatedSample,
    HyperconvexityReport,
    TripleSpec,
    Trivialization,
    check_transversality,
    foliated_limit_sample,
    grassmann_charts,
    tangent_project,
)
from .reps import (
    Representation,
    direct_sum,
    preset,
    preset_names,
    schottky2,
    sym_power,
)
from .sphere import (
    MassEstimate,
    VisualMeasure,
    cross_ratio,
    visual_mass,
)
from .words import (
    GroupPresentation,
    Word,
    free_group,
    reduce,
    surface_group,
)

__version__ = "0.21.0"
