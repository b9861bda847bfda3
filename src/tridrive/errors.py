"""Exception types shared across the toolkit."""


class TridriveError(Exception):
    """Base class for all toolkit errors."""


class FormatError(TridriveError):
    """A document could not be parsed (malformed JSON, wrong structure)."""


class ValidationError(TridriveError):
    """A parsed document or in-memory object violates an invariant."""


class SchemaError(TridriveError):
    """A reference does not resolve against the declared schema."""


class DegenerateStatisticError(TridriveError):
    """A statistic is undefined for the given inputs (e.g. zero variance)."""


class ConfigError(TridriveError):
    """A configuration object is internally inconsistent or infeasible."""


class LlmClientError(TridriveError):
    """The LLM client failed after exhausting its retry budget."""


class PipelineError(TridriveError):
    """A pipeline stage failed; the message says how far the run got."""
