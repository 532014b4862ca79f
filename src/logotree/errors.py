"""Exception hierarchy shared across the package."""


class LogotreeError(Exception):
    """Base class for all package errors."""

    category = "error"


class IoError(LogotreeError):
    """Unreadable or unwritable input/output file."""

    category = "io"


class ParseError(LogotreeError):
    """Malformed decomposition expression."""

    category = "parse"


class CycleError(LogotreeError):
    """Rule set contains a substitution cycle."""

    category = "cycle"

    def __init__(self, cycle):
        self.cycle = tuple(cycle)
        super().__init__("cyclic decomposition through: " + " -> ".join(self.cycle))


class ExpansionError(LogotreeError):
    """Recursive expansion exceeded the depth bound."""

    category = "expansion"


class StructureError(LogotreeError):
    """Tree node with an unsupported arity."""

    category = "structure"


class SegmentationError(LogotreeError):
    """Syllable that does not split into onset/nucleus/coda."""

    category = "segmentation"


class DataError(LogotreeError):
    """Corpus or split does not satisfy a data precondition."""

    category = "data"


class ShapeError(LogotreeError):
    """Tensor operands with non-conforming shapes."""

    category = "shape"


class ContractError(LogotreeError):
    """API called outside its contract."""

    category = "contract"


class NumericsError(LogotreeError):
    """Non-finite loss or gradient norm in a training step."""

    category = "numerics"


class ConfigError(LogotreeError):
    """Invalid run configuration."""

    category = "config"


class CheckpointError(LogotreeError):
    """Unreadable or incompatible checkpoint file."""

    category = "checkpoint"
