"""minorkit: exact strong box representations and stealthy flow-attack analysis.

Two engines share a small exact-rational graph core:

* box side: verify and construct representations where every vertex's box
  meets exactly its neighbours' boxes and keeps an exclusive boundary point,
  growing dimension one step per inverted deletion and two per inverted
  contraction;
* flow side: gain matrices, differential state recovery, and stealthy
  false-data injections on target edge sets, with the edge variation factor
  bracketed by component and colouring bounds.
"""

from .boxes import (
    Box,
    C1Report,
    C2Report,
    Representation,
    Witness,
    boundary_covered,
    check_witness,
    exposed_witness,
    rep_from_json,
    rep_to_json,
    verify_c1,
    verify_c2,
    witness_radii,
    witness_radius,
)
from .build import (
    ConstructionTrace,
    OracleResult,
    TraceStep,
    brute_force_strong_boxicity,
    build_from_edit_sequence,
    build_threshold_rep,
    build_tree_rep,
    drop_edge,
    lift_edge_add,
    lift_uncontract,
    lift_vertex_add,
    threshold_graph,
    trace_to_json,
    tree_pipeline,
)
from .flow import (
    GainMatrix,
    assemble_gain_matrix,
    flows,
    matrix_to_json,
    recover_states,
    vector_from_json,
    vector_to_json,
)
from .graph import (
    Contract,
    EdgeDelete,
    EditSequence,
    Graph,
    VertexDelete,
    apply_edit,
    apply_edits,
    components,
    enumerate_cycles,
    graph_from_json,
    graph_to_json,
    invert_edit,
    is_connected,
    is_tree,
    reduce_to_spanning_tree,
    replay_edits,
)
from .stealth import (
    AttackSpec,
    AttackVector,
    Infeasibility,
    StealthVector,
    best_constructive_ratio,
    build_robust_stealth,
    build_stealth,
    build_stealth_colored,
    color_assignment,
    component_graph,
    feasibility,
    ratio_bound,
    robust_attack_audit,
    robust_lambda_threshold,
    theta_bounds,
    theta_oracle,
    variation_limit_schedule,
    variation_ratio,
)

__version__ = "0.1.0"
