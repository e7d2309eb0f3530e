"""Exception types shared across the package."""


class FormatError(ValueError):
    """A binary container is malformed.

    Carries the file path, the byte offset at which the problem was
    detected, and a short reason; all three appear in the message.
    """

    def __init__(self, path, offset, reason):
        self.path = path
        self.offset = offset
        self.reason = reason
        super().__init__(f"{path}: byte {offset}: {reason}")


class DivergenceError(RuntimeError):
    """Training produced a non-finite value.

    Names the offending tensor and, when an epoch is given, the epoch and
    the step within it at which the value appeared.
    """

    def __init__(self, tensor_name, reason="value is not finite",
                 epoch=None, step=None):
        self.tensor_name = tensor_name
        self.epoch = epoch
        self.step = step
        where = "" if epoch is None else f" at epoch {epoch}, step {step}"
        super().__init__(f"training diverged{where}: {reason} "
                         f"(tensor: {tensor_name})")
