"""Memory-N repeated donation games.

Markov-chain models of two-player repeated games with finite memory:
transition matrices and payoffs, the eight admissible relabeling
permutations, adaptive-dynamics vector fields, and a battery of mechanical
checks of their structural identities.
"""

__version__ = "0.1.0"

from .core import (
    GameParams,
    StrategyVector,
    bar_index,
    build_payoff_vector,
    complement_index,
    counting_to_full,
    decode_history,
    encode_history,
    k_constant,
    label_swap,
    n_states,
    payoff_parts,
    reactive_strategy,
    tft_strategy,
)
from .errors import (
    BoundaryMarginError,
    ConvergenceError,
    DegeneracyError,
    InvarianceViolationError,
    MemnError,
)
from .markov import (
    build_transition_matrix,
    decompose_payoff,
    dense_matrix,
    payoff,
    reactive_payoff,
)
from .symmetry import (
    build_j,
    check_admissible,
    conjugate_matrix,
    j2_eigenvalue_multiplicities,
    payoff_vector_reflection_residual,
)
from .dynamics import (
    Ensemble,
    FieldSpec,
    Trajectory,
    adaptive_field,
    conserved_quantities_memory1,
    counting_field,
    field_batch,
    integrate,
    perturbation_experiment,
    reactive_fields,
    z2_mirror_check,
)
