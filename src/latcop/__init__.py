"""Coproduct analysis for finitely generated quasivarieties of
distributive-lattice-based finite algebras.

The library decides whether the forgetful functor into bounded distributive
lattices preserves coproducts (and the finer E/S classification), builds
multisorted piggyback dualities, computes coproducts of finite algebras via
the natural hom-functors, and recovers Priestley duals from natural duals.
"""

__version__ = "0.1.0"

from .algebra import (
    FiniteAlgebra,
    Homomorphism,
    Signature,
    Term,
    app,
    direct_product,
    embeds,
    free_algebra,
    hom_enumerate,
    in_isp,
    induced_subalgebra,
    isomorphic,
    subuniverse_closure,
    subuniverses,
    var,
)
from .catalog import CatalogEntry, make, make_id, table1_suite
from .classify import (
    ClassificationReport,
    find_single_generator,
    flowchart_classify,
    simplify_generators,
)
from .distlat import (
    DReductSpec,
    DistLatticeReduct,
    FinitePoset,
    PrimeFilter,
    d_reduct,
    prime_filters,
    priestley_dual,
)
from .duality import (
    AlterEgo,
    CoproductResult,
    MultisortedStructure,
    coproduct,
    e_functor,
    natural_dual,
    reveng_priestley,
    structure_product,
)
from .errors import (
    CapExceeded,
    InternalError,
    LatcopError,
    LatticeAxiomError,
    MembershipError,
    ParseError,
    SeparationError,
    SignatureMismatch,
)
from .piggyback import (
    SortedRelation,
    build_alter_ego,
    carrier_from_filter,
    carriers_of,
    maximal_subuniverses_in,
    minimal_omega_certified,
    sep_condition,
)
