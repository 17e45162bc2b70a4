"""Error taxonomy shared across the package.

The CLI maps these onto process exit codes, so raising the right class
matters more than the message text: ConfigError and DimensionError are
usage problems, DataError covers bad or missing inputs, NonFiniteError
signals numerical failure at run time, and WorkerDiedError a fan-out
worker process (a fit's, or one scoring `evaluate`'s batches) that ended
without returning its result.
"""


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


class DimensionError(ValueError):
    """Array shapes incompatible with the declared contract."""


class DataError(ValueError):
    """Input data missing, malformed, or too short to use."""


class CheckpointError(DataError):
    """Checkpoint file corrupt, truncated, or of the wrong format."""


class NonFiniteError(ArithmeticError):
    """A forward value or gradient stopped being finite."""


class WorkerDiedError(RuntimeError):
    """A fan-out worker process died (a signal, or out of memory): one
    fitting a combo of `train`, `ablate` or `noise`, or one scoring
    batches of `evaluate`. The message names which."""
