"""Verification and search toolkit for Beauville structures on finite groups."""

from .core import (
    CapacityExceeded,
    Group,
    InconsistencyError,
    MalformedElementError,
    PreconditionError,
    UndecidedError,
    conjugacy_class,
    conjugate,
    element_order,
    generated_subgroup,
    generates,
)
from .constructions import (
    Abelian2,
    Cyclic,
    DirectProduct,
    H4,
    Metacyclic,
    Wallpaper,
    catalogue,
    dicyclic,
    dihedral,
    group_from_descriptor,
    parse_descriptor,
    wallpaper_quotient,
)
from .matgroups import PSL2Group, SL2Group, sl2_constants
from .perms import (
    AlternatingGroup,
    SymmetricGroup,
    bsgs_order,
    conjugator_search,
    parity,
    parse_cycles,
)
from .reality import (
    RealityVerdict,
    apply_sigma,
    backend_for,
    iota_pair,
    it_orbit,
    lemma_case_table,
    reality_mixed,
    reality_unmixed,
)
from .search import (
    SearchConstraints,
    count_abelian,
    enumerate_unmixed,
    hunt_reality,
    lower_bound_abelian,
    scan_catalogue,
    wallpaper_scan,
)
from .structures import (
    CheckReport,
    MixedQuadruple,
    PairMetrics,
    UnmixedStructure,
    check_mixed,
    check_unmixed,
    genus,
    pair_metrics,
    sigma_set,
)

__version__ = "0.1.0"
