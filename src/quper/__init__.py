"""quper: permutation-spanning variational circuits and the QuPer heuristic."""

from .gf2 import (
    AffineMap,
    BruhatFactors,
    Gf2Matrix,
    Permutation,
    Transvection,
    borel_subword,
    bruhat_decompose,
    bruhat_span_size,
    recognize_affine,
    word_to_matrix,
)
from .circuits import (
    Circuit,
    CircuitStats,
    Gate,
    QubitBudgetError,
    build_ansatz,
    circuit_stats,
    eval_permutation,
    eval_unitary,
    lower_to_linear_topology,
    reverse_sweep,
    solver_ansatz,
    synthesize_params,
)
from .dsm import (
    BirkhoffDecomposition,
    adjoint_gradient,
    birkhoff_decompose,
    extract_dsm,
    statevector_oracle,
    unitary_and_dsm,
)
from .projection import project_hungarian, project_random_order
from .optimizer import (
    AdamState,
    QuperConfig,
    QuperTrace,
    adam_nesterov_step,
    best_projection,
    fd_gradient,
    quper_solve,
    random_baseline,
    regularizers,
)
from .problems import (
    GipInstance,
    QapInstance,
    gip_cost,
    gip_cost_and_grad,
    gip_map_costs,
    gip_to_qap,
    load_qaplib,
    parse_qaplib,
    parse_sln,
    qap_cost,
    qap_cost_and_grad,
    qap_map_costs,
    random_gip,
    random_qap,
)

__all__ = [name for name in dir() if not name.startswith("_")]
