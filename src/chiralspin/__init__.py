"""Angular-momentum Hamiltonians, anticommuting rotation symmetries, and
radical-solvable spectra.

Build spin operator matrices for any half-integer j, assemble the model
Hamiltonians, certify operators that anticommute with them (and hence force
mirror-symmetric spectra), and cross-check closed-form eigenvalues from the
characteristic polynomial against the numeric spectrum from LAPACK.
hbar = 1 throughout.
"""

from .angmom import SpinLabel, SpinOperators, build_spin_operators, embed
from .charpoly import (
    CharPoly,
    PolySolveReport,
    ReducedPoly,
    SolveMethod,
    characteristic_polynomial,
    classify_solvability,
    full_solve,
    parity_reduce,
    solve_reduced,
)
from .chiral import (
    PairingReport,
    Symmetry,
    SymmetryVerdict,
    classify,
    pairing_check,
    search_partners,
)
from .linalg import (
    EigenDecomposition,
    anticommutator,
    commutator,
    hermitian_eigensolve,
    kron,
    unitary_exp,
)
from .models import (
    BuiltModel,
    CrossedFields,
    CrossedFieldsShifted,
    GeneralField,
    OHMolecule,
    ToyCoupled,
    TriaxialRotor,
    build,
    load_model_file,
    parameter_sweep,
    parse_model,
    shifted_hamiltonian,
)
from .rotations import (
    CompositeRotation,
    RotationSpec,
    composite_matrix,
    rotation_identity_residual,
    rotation_matrix,
)

__version__ = "0.1.0"
