"""The paper's arrival model as an arrival source.

Chapter 3's secretaries arrive in a uniformly random order, and the
value oracle answers only about sets of secretaries that have already
arrived (Section 3.2.1).  :class:`SecretaryStream` is that order: a
:class:`~repro.online.arrivals.ScheduleSource` over the ``uniform``
process (or over an explicit order), one arrival per batch.  Every
:mod:`repro.secretary` algorithm runs it through
:class:`~repro.online.driver.OnlineRun`, whose
:class:`~repro.online.driver.ArrivalOracle` enforces the no-peeking
contract: querying an unseen element raises
:class:`repro.errors.OracleError`.  The offline benchmark code uses
the *unrestricted* base function to compute optima.
"""

from __future__ import annotations

from typing import Hashable, Sequence

from repro.core.submodular import SetFunction
from repro.errors import OracleError
from repro.online.arrivals import ArrivalSchedule, ScheduleSource, uniform_process

__all__ = ["SecretaryStream"]


class SecretaryStream(ScheduleSource):
    """A uniformly random arrival order over a utility's ground set.

    With no *order*, the schedule is the ``uniform`` process drawn from
    *rng* at construction, so a live Generator shared with an
    algorithm's coin keeps its draws, and an integer seed gives the
    schedule ``build_arrival_schedule("uniform", utility, seed)`` gives.
    An explicit *order* must enumerate the ground set exactly.
    """

    def __init__(self, utility: SetFunction, rng=None,
                 order: Sequence[Hashable] | None = None):
        if order is None:
            schedule = uniform_process(utility, rng)
        else:
            order = list(order)
            if frozenset(order) != utility.ground_set:
                raise OracleError("explicit order must enumerate the ground set exactly")
            schedule = ArrivalSchedule(
                process="explicit", seed=None, order=order,
                batch_sizes=[1] * len(order),
            )
        super().__init__(schedule)
        self.utility = utility
