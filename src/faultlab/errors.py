"""Shared exception types.

Every error raised by the library derives from FaultlabError so batch
drivers can isolate per-version failures without catching SystemExit or
genuine programming bugs.
"""


class FaultlabError(Exception):
    pass


class ParseError(FaultlabError):
    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", col {col}" if col is not None else "") + ")"
        super().__init__(message + where)


class InvalidTarget(FaultlabError):
    pass


class InvalidInput(FaultlabError):
    pass


class CriterionNotExecuted(FaultlabError):
    pass


class NoFailingTests(FaultlabError):
    pass


class EmptySuite(FaultlabError):
    pass


class NonFiniteScore(FaultlabError):
    pass


class NotSymmetric(FaultlabError):
    pass


class NoConvergence(FaultlabError):
    pass


class DegenerateData(FaultlabError):
    pass


class InsufficientContext(FaultlabError):
    pass


class ShapeMismatch(FaultlabError):
    pass


class NonFiniteGradient(FaultlabError):
    pass


class InvalidRange(FaultlabError):
    pass


class TimestepOutOfRange(FaultlabError):
    pass


class EmptyBatch(FaultlabError):
    pass


class InvalidOrder(FaultlabError):
    pass


class NonFinite(FaultlabError):
    pass


class SingleClassDataset(FaultlabError):
    pass


class MissingFaults(FaultlabError):
    pass


class ZeroBaseline(FaultlabError):
    pass


class TemplateError(FaultlabError):
    pass


class IoError(FaultlabError):
    pass


class InvalidConfig(FaultlabError):
    pass
