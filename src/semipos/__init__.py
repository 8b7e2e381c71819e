"""Exact-arithmetic tools for semipositive matrix classes, constructive
witnesses, and linear preserver checks."""

from .ratmat import (
    DimensionError,
    InvalidInputError,
    Matrix,
    MatrixParseError,
    SingularMatrixError,
    Vector,
)

__version__ = "0.1.0"

__all__ = [
    "DimensionError",
    "InvalidInputError",
    "Matrix",
    "MatrixParseError",
    "SingularMatrixError",
    "Vector",
    "__version__",
]
