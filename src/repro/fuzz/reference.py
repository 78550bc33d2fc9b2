"""The per-tuple reference executor: the work oracle of the production tree.

:class:`ReferenceExecutor` is a :class:`~repro.engine.executor.PlanExecutor`
that compiles every tree from the original per-tuple operators
(:mod:`repro.physical.operators`): ``list[Delta]`` segments end to end,
private hash tables on every join side, table streams fed through
:meth:`~repro.engine.stream.TableStream.deltas_until`.  The production
operators must match it bit for bit -- results, WorkMeter charges, every
execution record.  Only tests, the fuzzer
and the hot-path micro benchmark construct it; no production module
imports this one.
"""

from ..engine.executor import PlanExecutor
from ..physical.operators import AggregateExec, JoinExec, SourceExec


class PerTupleFamily:
    """The reference operators, built without arrangements."""

    label = "reference"
    source = SourceExec
    join = JoinExec
    aggregate = AggregateExec
    arranges = False

    @staticmethod
    def feed(stream, point):
        return stream.deltas_until(point)


class ReferenceExecutor(PlanExecutor):
    """A :class:`PlanExecutor` whose trees are the per-tuple reference."""

    family = PerTupleFamily
