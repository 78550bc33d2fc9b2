"""Exception hierarchy for the repro (iShare) library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class.  Subclasses partition errors into
the layers of the system: schema/expression problems, plan construction
problems, optimization problems, and execution problems.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro library.

    Errors raised while replaying a fuzz case carry the generating seed
    and the on-disk case path (:meth:`attach_fuzz_context`), so a crash
    is actionable from any entry point -- including when it crosses a
    worker-process boundary (:mod:`repro.workers` re-raises
    these errors verbatim, attributes included).
    """

    #: fuzz provenance, attached by :mod:`repro.fuzz` when the error is
    #: raised while executing a generated case
    fuzz_seed = None
    fuzz_case_path = None

    def attach_fuzz_context(self, seed=None, case_path=None):
        """Record the fuzz seed / case path that produced this error."""
        if seed is not None:
            self.fuzz_seed = seed
        if case_path is not None:
            self.fuzz_case_path = str(case_path)
        return self

    def __str__(self):
        base = super().__str__()
        extras = []
        if self.fuzz_seed is not None:
            extras.append("fuzz seed %s" % (self.fuzz_seed,))
        if self.fuzz_case_path is not None:
            extras.append("case %s" % self.fuzz_case_path)
        if extras:
            return "%s [%s]" % (base, ", ".join(extras))
        return base


class SchemaError(ReproError):
    """A schema is malformed or a referenced column does not exist."""


class ExpressionError(ReproError):
    """An expression is malformed or cannot be bound to a schema."""


class PlanError(ReproError):
    """A logical or physical plan is malformed."""


class ParseError(ReproError):
    """The SQL subset parser rejected its input."""

    def __init__(self, message, position=None):
        if position is not None:
            message = "%s (at position %d)" % (message, position)
        super().__init__(message)
        self.position = position


class OptimizationError(ReproError):
    """An optimizer precondition was violated."""


class ExecutionError(ReproError):
    """The incremental executor hit an inconsistent state."""


class CostModelError(ReproError):
    """The cost model was asked about an operator it has no statistics for."""


class ServiceError(ReproError):
    """A service request (registration, schedule, configuration) is invalid."""
