"""Bounded-depth treewidth via the placement-limited cops-and-robber game.

The package decides membership in the class of graphs admitting a tree
decomposition of width <= k-1 and depth <= q by solving the game exactly,
and certifies cop wins by exactifying a strategy tree into a tree
decomposition with those bounds.
"""

from .errors import (
    BdtwError,
    BudgetExceededError,
    ConsistencyError,
    FormatError,
    NotApplicableError,
    StrategyError,
)
from .graphs import (
    Graph,
    boundary,
    closure,
    connected_components,
    loads_graph,
    read_graph,
    write_graph,
)
from .partitions import (
    EdgePartition,
    check_submodularity_instance,
    f_extension,
    partition_boundary,
    partition_width,
)
from .tree_decomp import (
    RootedTree,
    TreeDecomposition,
    check_connected_trace,
    read_td,
    td_depth,
    td_width,
    tighten,
    validate_td,
    write_td,
)
from .pre_tree import (
    PreTreeDecomposition,
    check_exact_path_nesting,
    check_exact_subtree_depth,
    check_exact_subtree_partition,
    from_tree_decomposition,
    is_exact,
    is_exact_edge,
    local_partition,
    ptd_depth,
    ptd_width,
    read_ptd,
    to_tree_decomposition,
    validate_ptd,
    write_ptd,
)
from .game import (
    GameConfig,
    SolveResult,
    Strategy,
    minimum_placements,
    replay_cop_strategy,
    solve,
    variant_costs,
)
from .strategy_tree import (
    StrategyTree,
    build,
    check_monotone_exact,
    check_self_loop_cones,
    depth_iff_winning,
    fuzz_nonmonotone,
)
from .monotonize import (
    ExtensionChoice,
    PipelineResult,
    StepState,
    apply_step,
    check_branching_depth_bound,
    choose_extensions,
    monotonize_pipeline,
    run,
    verify_step,
)

__version__ = "0.1.0"
