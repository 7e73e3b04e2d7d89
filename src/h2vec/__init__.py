"""Hierarchical vectors over cluster trees.

Adaptively compressed vectors with nested cluster bases, exact
refinement/coarsening/projection error control, and H2-matrix products
that run in time proportional to the active subtree size.
"""

from .basis import (
    ClusterBasis,
    coarsening_factors,
    cross_gram_family,
    gram_family,
    nested_orthogonalize,
    orthogonalize,
    polynomial_basis,
    projection_factors,
)
from .convert import (
    ConversionReport,
    CoordinateMap,
    ToleranceBudget,
    coarsen_pass,
    convert,
    materialize_induced,
)
from .h2matrix import (
    BlockTree,
    H2Matrix,
    build_block_tree,
    random_h2,
    sparsity_constant,
)
from .hvector import HVector, axpy, coarsen, dot, from_dense, norm, refine, scale, to_dense
from .kernels import FlopCounter, count_flops
from .matvec import (
    InducedHVector,
    MatvecPlan,
    build_plan,
    induced_to_dense,
    multiply,
)
from .poisson import PoissonProblem, assemble_lshape
from .tree import ClusterTree, Subtree, build_cluster_tree, validate_tree

__version__ = "0.1.0"
