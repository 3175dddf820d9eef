"""Exact desk-scale calculus for finite dimensionality in a graded tensor
category with a nilpotent layer.

Modules:

* ``symgroup``: partitions, permutations, S_n characters, central
  group-algebra idempotents
* ``supercat``: graded spaces over Q[eps]/(eps^k) with Koszul-signed
  symmetry, duals, trace, and the eps -> 0 realization functor
* ``karoubi``: idempotent completion, Schur functors, exterior/symmetric
  powers, finite-dimensionality classification, weight shifts
* ``lifting``: Newton lifting of idempotents and families, the corner
  calculus for summand uniqueness, nilpotency, rigidity
* ``motives``: concrete curve / surface / abelian models with projector
  families, the zero-cycle filtration, and the wedge calculus
* ``cli``: the ``finmot`` command-line harness
* ``cmdline``: the table-driven parser of its command line
"""

from .errors import InvariantError, ModelFileError, SizeCapError
from .symgroup import (
    GroupAlgebraElement,
    Partition,
    Permutation,
    all_permutations,
    character,
    conjugacy_class_size,
    hook_dimension,
    partitions,
    young_idempotent,
)
from .supercat import (
    EVEN,
    ODD,
    SuperMorphism,
    SuperSpace,
    TruncatedScalar,
    braiding,
    coevaluation,
    dim,
    dual,
    evaluation,
    exp_nilpotent,
    invert_unit,
    permutation_action,
    tensor,
    tensor_power,
)
from .karoubi import (
    FiniteDimReport,
    KaroubiObject,
    assemble_summand,
    classify,
    direct_sum,
    dual_k,
    s_wedge,
    schur_apply,
    schur_super_dimension,
    split_parity,
    sym,
    tate_twist,
    tensor_k,
    wedge,
)
from .lifting import (
    CornerReport,
    MurreRigidityReport,
    ProjectorFamily,
    conjugating_unit,
    corner_unit_check,
    lift_family,
    lift_idempotent,
    murre_rigidity,
    nilpotency_index,
)
from .motives import (
    ChowModel,
    MotiveSpec,
    abelian_multiplication_action,
    albanese_wedge,
    build_realization,
    chow_kunneth,
    murre_filtration,
    pg_zero_conclusion,
    split_middle,
    surface_projector_relations,
)

__version__ = "0.1.0"
