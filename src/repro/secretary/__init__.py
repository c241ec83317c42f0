"""Online (secretary) algorithms — Chapter 3.

The online side of the paper: processors/secretaries arrive in uniformly
random order and must be irrevocably accepted or rejected.  Implements

* the classical 1/e stopping rule (Dynkin) used as a subroutine,
* Algorithm 1 — the monotone submodular secretary algorithm
  (1/(7e)-competitive, Theorem 3.1.1),
* Algorithm 2 — the non-monotone extension (8e^2-competitive),
* Algorithm 3 — the (multi-)matroid version (O(l log^2 r), Thm 3.1.2),
* the knapsack-constrained version (O(l), Theorem 3.1.3),
* the subadditive secretary problem: the O(sqrt(n)) algorithm and the
  hidden-set hard function behind the Omega(sqrt(n)) lower bound
  (Theorem 3.5.1),
* the bottleneck (min-value) rule of Section 3.6.

All of them consume a :class:`repro.secretary.stream.SecretaryStream`
(an arrival source over the paper's uniform order) and run their
decision rule, a :mod:`repro.online.policies` state machine, through
:func:`repro.online.driver.run_online` — the one driver the engine,
sessions and serve use too.  Its :class:`ArrivalOracle` refuses queries
about not-yet-arrived elements — the paper's marriage of the
value-oracle model with online arrival.
"""

# stream imports repro.online, which reaches the algorithm modules below
# through the engine's task adapters before SecretaryStream exists; they
# import it for type checking only.
from repro.secretary.stream import SecretaryStream
from repro.online.driver import ArrivalOracle
from repro.secretary.classical import classical_secretary, dynkin_threshold
from repro.secretary.submodular_secretary import (
    monotone_submodular_secretary,
    nonmonotone_submodular_secretary,
)
from repro.secretary.matroid_secretary import matroid_submodular_secretary
from repro.secretary.knapsack_secretary import (
    knapsack_submodular_secretary,
    reduce_knapsacks_to_one,
)
from repro.secretary.subadditive import (
    HiddenSetFunction,
    subadditive_secretary,
)
from repro.secretary.bottleneck import bottleneck_secretary
from repro.secretary.online_scheduling import (
    ProcessorMarket,
    ProcessorUtility,
    online_processor_selection,
)
from repro.secretary.robust import gamma_objective, robust_topk_secretary
from repro.secretary.baselines import (
    first_k_baseline,
    greedy_no_observation_baseline,
    random_k_baseline,
)

__all__ = [
    "first_k_baseline",
    "random_k_baseline",
    "greedy_no_observation_baseline",
    "ProcessorMarket",
    "ProcessorUtility",
    "online_processor_selection",
    "robust_topk_secretary",
    "gamma_objective",
    "ArrivalOracle",
    "SecretaryStream",
    "classical_secretary",
    "dynkin_threshold",
    "monotone_submodular_secretary",
    "nonmonotone_submodular_secretary",
    "matroid_submodular_secretary",
    "knapsack_submodular_secretary",
    "reduce_knapsacks_to_one",
    "HiddenSetFunction",
    "subadditive_secretary",
    "bottleneck_secretary",
]
