"""MILP toolkit: LP solving with duals, branch and bound, diving heuristics,
and a learned graph-network diver with a duality-guided tightening rule."""

__version__ = "0.1.0"

from .instances import (  # noqa: F401
    GeneratorConfig,
    MilpInstance,
    StandardLp,
    generate,
    make_instance,
    read_instance,
    to_standard_form,
    write_instance,
)
from .simplex import (  # noqa: F401
    Basis,
    DualValues,
    LpSolution,
    check_complementary_slackness,
    solve_lp,
)
from .bnb import (  # noqa: F401
    BnbResult,
    SolutionPool,
    SolveConfig,
    SolveTrace,
    branch_and_bound,
    enumerate_optima,
    round_solution,
)
from .diving import DiveResult, ScoreDecision, dive, make_scorer  # noqa: F401
from .graphnet import (  # noqa: F401
    BipartiteGraph,
    GraphNet,
    TrainingConfig,
    extract_graph,
    load_model,
    save_model,
    target_distribution,
)
from .l2dive import (  # noqa: F401
    L2DiveScorer,
    TightenSet,
    compute_tighten_set,
    verify_tightening_optimality,
)
from .harness import (  # noqa: F401
    primal_dual_gap,
    primal_dual_integral,
    primal_gap,
)
