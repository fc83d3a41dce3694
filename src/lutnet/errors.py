"""Exception hierarchy shared across the toolkit."""


class LutNetError(Exception):
    """Base class for all toolkit errors."""


class DimensionError(LutNetError, ValueError):
    """Tensor shapes do not compose."""


class ConfigError(LutNetError, ValueError):
    """Invalid configuration value or combination."""


class StageError(LutNetError):
    """Operation applied to a checkpoint in the wrong pipeline stage."""


class NonFiniteError(LutNetError, FloatingPointError):
    """NaN or Inf encountered where finite values are required."""


class TrainingDivergedError(LutNetError):
    """Training loss became non-finite."""


class FoldError(LutNetError):
    """Batch-norm parameters cannot be folded into a threshold."""


class ExpansionError(LutNetError):
    """Logic expansion cannot be applied to a layer."""


class LoweringError(LutNetError):
    """Network cannot be lowered to a netlist with the given fixed-point spec."""


class PackingError(LutNetError):
    """Logical LUT too wide for the physical packing model."""


class PortError(LutNetError, ValueError):
    """Simulation input does not match netlist ports."""


class FormatError(LutNetError, ValueError):
    """Malformed external file (IDX, config, Verilog parse-back)."""


class SchemaError(LutNetError, ValueError):
    """Checkpoint schema version or structure mismatch."""
