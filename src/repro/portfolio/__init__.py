"""Portfolio search: concurrent strategy arms over one shared frontier.

COMPI (§V, Fig. 4) compares search strategies one campaign at a time and
crowns two-phase DFS; but no single strategy dominates every target, and
committing to one up front wastes the others entirely.  This subsystem
runs several strategies **as bandit arms of one campaign**:

* every arm's strategy reads and writes one shared
  :class:`~repro.search.base.ExecutionTree` + coverage frontier (and the
  one counterexample cache), so work one arm did is never re-derived by
  a sibling;
* a deterministic UCB bandit (:mod:`.bandit`) reallocates the iteration
  budget toward the arm currently buying the most coverage per unit of
  (deterministic, event-count-proxied) cost;
* the :class:`~.scheduler.PortfolioScheduler` multiplexes the N
  arm-schedulers into the staged engine's commit loop — multiple
  schedulers, one executor, one collector — with
  commit-order attribution of which arm produced each iteration.

Determinism: the bandit never reads wall-clock time (see
``docs/ARCHITECTURE.md``), so portfolio campaigns keep the engine's
crown-jewel invariants — fixed seed ⇒ same campaign, cache-on ≡
cache-off, and ``--resume`` ≡ uninterrupted.
"""

from .arms import (ARM_NAMES, DEFAULT_PORTFOLIO, build_arm_strategy,
                   canonical_arm, parse_portfolio)
from .bandit import UcbBandit
from .scheduler import (ArmState, ArmStats, PortfolioScheduler,
                        build_portfolio_scheduler, iteration_cost)

__all__ = [
    "ARM_NAMES", "ArmState", "ArmStats", "DEFAULT_PORTFOLIO",
    "PortfolioScheduler", "UcbBandit", "build_arm_strategy",
    "build_portfolio_scheduler", "canonical_arm", "iteration_cost",
    "parse_portfolio",
]
