"""Exact rank-2 Schubert calculus, stability cones, and building experiments."""

__version__ = "0.1.0"

from .field import (
    FieldDescriptor,
    FieldElement,
    field_init,
    real_cyclotomic,
    sign_of,
    t_binomial,
    t_factorial,
    t_number,
)
from .weyl import DihedralGroup, WeylElement
from .algebra import AlgebraContext
from .chevalley import KacMoodyContext
from .prering import FlagPreRing, GrassPreRing
from .filtration import ConcaveWeighting, concavity_audit, limit_table
from .cones import (
    DominantWeight,
    InequalitySystem,
    cone_equal,
    gen_km,
    gen_sti,
    gen_wti,
    is_member,
    redundancy_audit,
    row_values,
    theta_system,
)
from .building import (
    ChamberGraph,
    WeightedConfiguration,
    bar_step,
    census_rounds,
    construct_semistable,
    find_antipodal_tuple,
    min_slope_scan,
    slope_at,
)

__all__ = [
    "AlgebraContext",
    "ChamberGraph",
    "ConcaveWeighting",
    "DihedralGroup",
    "DominantWeight",
    "FieldDescriptor",
    "FieldElement",
    "FlagPreRing",
    "GrassPreRing",
    "InequalitySystem",
    "KacMoodyContext",
    "WeightedConfiguration",
    "WeylElement",
    "bar_step",
    "census_rounds",
    "concavity_audit",
    "cone_equal",
    "construct_semistable",
    "field_init",
    "find_antipodal_tuple",
    "gen_km",
    "gen_sti",
    "gen_wti",
    "is_member",
    "limit_table",
    "min_slope_scan",
    "real_cyclotomic",
    "redundancy_audit",
    "row_values",
    "sign_of",
    "slope_at",
    "t_binomial",
    "t_factorial",
    "t_number",
    "theta_system",
    "__version__",
]
