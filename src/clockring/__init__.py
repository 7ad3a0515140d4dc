"""clockring: verifier circuits as translationally invariant ring Hamiltonians.

Compile a nearest-neighbor circuit, packed into back-and-forth sweep
cycles, into a 2-local Hamiltonian on a ring of qudits whose ground space
encodes the computation's history, then certify ground energy, gap,
degeneracy, and yes/no promise separation against an independent
simulation oracle.
"""

from .basis import (
    HEAD,
    ClockDescriptor,
    Data,
    SpinBasis,
    enumerate_legal_orbit,
    initial_config,
    is_legal,
    orbit_label_walk,
    slot_edges,
)
from .circuit import (
    GatePlacement,
    ProblemShape,
    SweepSchedule,
    force_reject_gate,
    parse_circuit_text,
    random_schedule,
    schedule_from_gate_list,
    schedule_from_placements,
    visitation_order,
)
from .hamiltonian import (
    CouplingConstants,
    LocalTerm,
    RingOperator,
    assemble,
    assemble_part,
    assemble_sector,
    assemble_total,
    build_h_comp_bond,
    build_h_form_bond,
    build_h_input_bond,
    build_h_output_bond,
    build_shift_operator,
    check_translation_invariance,
    export_triplets,
    standard_parts,
)
from .oracle import (
    HistoryState,
    expectations,
    reject_probability,
    run_plain_circuit,
    simulate_history,
    symmetrize_over_head,
)
from .promise import (
    LemmaBounds,
    PromiseParameters,
    auto_constants,
    choose_alpha,
    choose_j,
    decide,
    projection_bounds,
    separation_experiment,
    verify_lemma_numeric,
)
from .spectral import (
    GapReport,
    SolverOptions,
    SpectralReport,
    chain_models,
    detect_frozen,
    gap,
    ground_energy,
    low_spectrum,
    orbit_block_indices,
    path_gap,
    path_laplacian,
    path_laplacian_eigenvalues,
    restrict,
)

__version__ = "0.1.0"
