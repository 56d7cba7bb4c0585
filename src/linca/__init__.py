"""Exact linear cellular automata over finitely generated groups.

The library provides exact GF(p) window calculus for linear cellular
automata: inverse-rule synthesis with self-verifying certificates,
closed-image preimage extraction through stabilizing projective sequences
of affine window fibers, restriction/induction between a group and its
subgroups, and an executable gallery of infinite-dimensional
counterexamples (a bijective automaton with no finite-memory inverse and
an automaton with non-closed image) with machine-checkable witnesses.

Importing the package pins BLAS to one thread unless the caller chose a
count: the products here are small, and on a few cores a thread hand-off
costs more than it saves.  The variables only act if numpy is not yet
imported.  Child processes inherit them, and so does every OpenMP or MKL
library imported after this package in the same process (torch,
scikit-learn, numexpr), which then also starts with one thread.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .ca import (
    ConstantConfig,
    FiniteSupportConfig,
    LinearCA,
    Pattern,
    PeriodicConfig,
    WindowMap,
    compose,
    config_equal,
    constant,
    equals_identity,
    equivariance_check,
    finite_support,
    identity_ca,
    normalize_rule,
    periodic,
    push_forward,
    shift_config,
)
from .groups import (
    FiniteGroup,
    FreeGroup,
    Group,
    IntegerGroup,
    LatticeGroup,
    Subgroup,
    cyclic_group,
    interior,
    subgroup_generated,
    symmetric_group_3,
)
from .linalg import (
    AffineSubspace,
    Subspace,
    image_of_affine,
    image_of_subspace,
    kernel_basis,
    rref,
    solve_affine,
)
from .solver import (
    EmptyFiberWitness,
    KernelWitness,
    NotInvertible,
    PreimageResult,
    ProjectiveAffineSequence,
    ReversibilityCertificate,
    SolverUnknown,
    UniversalChain,
    WindowSystem,
    extract_limit_prefix,
    invert_ca,
    kernel_sequence,
    kernel_witness,
    lift_element,
    preimage_extract,
    surjectivity_counterexample,
    universal_spaces,
)
from .transfer import induce, restrict

__version__ = "0.1.0"


def backend() -> str:
    """Name of the elimination backend, recorded with benchmark runs: the
    numpy kernel ``linalg.rref_inplace`` is the only one."""
    return "py"
