"""Tables of marks, orbit censuses on finite modules, and character reports."""

from .census import (
    CensusReport,
    ModuleAction,
    census_brute_force,
    census_from_tom,
    fixed_space_dim_dual,
    validate_action_homomorphism,
)
from .chartab import (
    CharacterRow,
    CharacterTable,
    field_of_definition_size,
    galois_partition_by_degree,
    rational_degree_census,
)
from .cohomology import (
    GroupModulePair,
    h1_dimension,
    h2_dimension,
    splits_implies,
)
from .cyclotomic import Cyclotomic, galois, is_rational, is_rational_integer, zeta
from .ffield import ExtField, FFMatrix, PrimeField, blow_up, default_modulus
from .permgroup import (
    Perm,
    PermGroup,
    is_conjugate_subgroup,
    mulclose,
    subgroup_classes,
)
from .slp import SLProgram, evaluate
from .tom import (
    DecompositionError,
    TableOfMarks,
    compute_tom,
    decompose_fixed_vector,
    orders_of,
)

__all__ = [
    "CensusReport",
    "CharacterRow",
    "CharacterTable",
    "Cyclotomic",
    "DecompositionError",
    "ExtField",
    "FFMatrix",
    "GroupModulePair",
    "ModuleAction",
    "Perm",
    "PermGroup",
    "PrimeField",
    "SLProgram",
    "TableOfMarks",
    "blow_up",
    "census_brute_force",
    "census_from_tom",
    "compute_tom",
    "decompose_fixed_vector",
    "default_modulus",
    "evaluate",
    "field_of_definition_size",
    "fixed_space_dim_dual",
    "galois",
    "galois_partition_by_degree",
    "h1_dimension",
    "h2_dimension",
    "is_conjugate_subgroup",
    "is_rational",
    "is_rational_integer",
    "mulclose",
    "orders_of",
    "rational_degree_census",
    "splits_implies",
    "subgroup_classes",
    "validate_action_homomorphism",
    "zeta",
]

__version__ = "0.1.0"
