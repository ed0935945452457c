"""Shared exception types."""


class ConfigError(Exception):
    """Invalid or missing experiment configuration; carries the offending field."""

    def __init__(self, field: str, message: str):
        # both in args, so the error pickles (decoding shards cross a process boundary)
        super().__init__(field, message)
        self.field = field

    def __str__(self) -> str:
        return f"{self.args[0]}: {self.args[1]}"


class NumericsError(RuntimeError):
    """Training produced a non-finite loss; message carries diagnostics."""
