"""Exception types shared across the package."""


class VidembedError(Exception):
    """Base class for all package errors."""


class ShapeMismatch(VidembedError):
    pass


class IndexOutOfRange(VidembedError):
    pass


class TapeConsumed(VidembedError):
    pass


class NonScalarLoss(VidembedError):
    pass


class NormUnderflow(VidembedError):
    pass


class BadMagic(VidembedError):
    pass


class UnsupportedVersion(VidembedError):
    pass


class ChecksumMismatch(VidembedError):
    pass


class TruncatedFile(VidembedError):
    pass


class MalformedContainer(VidembedError):
    pass


class ConfigInvalid(VidembedError):
    pass


class DimMismatch(VidembedError):
    pass


class NonFiniteInput(VidembedError):
    pass


class DuplicateId(VidembedError):
    pass


class EmptyDataset(VidembedError):
    pass


class HeadNotTrainable(VidembedError):
    pass


class HeadNotEmbedding(VidembedError):
    pass


class EmptyResult(VidembedError):
    pass


class DegenerateData(VidembedError):
    pass


class InsufficientData(VidembedError):
    pass
