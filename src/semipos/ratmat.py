"""Exact rational vectors, matrices, and elimination-based linear algebra.

Every scalar is a ``fractions.Fraction`` in canonical reduced form, so all
sign tests, comparisons, and equalities used elsewhere in the package are
exact decisions.  Binary floating point never enters: decimal strings such
as ``"0.5"`` are converted digit-exactly.

A ``Matrix`` is its rows, each integer numerators over one positive
denominator, in lowest terms; its ``Fraction`` entries are built from them
at each read and never kept.  An ``int`` entry given to the constructor is
stored as its own numerator over 1 with no ``Fraction`` built; a ``bool``, a
``float`` or any other entry goes through ``rat``, so ``True`` is 1 and a
float is refused.  Products, elimination, sign tests and equality
run on those integers: row i of X Y is x_i (L Y) / (d_i L), with L the lcm of
Y's row denominators, reduced by one gcd per row.

One step, ``_pivot``, makes every fraction-free update, both here and in
``lp``'s simplex.  Each row is held as an integer scale times a reduced
integer row, whose product is the row the Edmonds step would give, so a
factor common to a whole row is carried once, in its scale, instead of in
every entry.  ``_eliminate`` runs fraction-free Gauss-Jordan on the stored
numerators with it, dropping each pivot column once its step is done, so the
grid it returns holds only the non-pivot columns.  The determinant, the rank,
the inverse and the kernel vector are read from its result.

``Vector`` and ``Matrix`` are written by hand, not with ``@dataclass``:
their ``==`` and ``hash`` compare the stored fields, another class gets
``NotImplemented``, and assignment or deletion of an attribute raises
``AttributeError``.  Importing ``dataclasses`` loads a dozen more stdlib
modules (``inspect``, ``ast``, ``dis``, ``tokenize``, ...), 13 to 16 ms of
start-up on a 2-vCPU host with Python 3.11, and the CLI commands built on
``ratmat``, ``lp``, ``classify`` and ``construct`` alone load none of them;
the records those modules return are ``typing.NamedTuple``s for the same
reason.  Do not bring ``@dataclass`` back into these four modules.

Intended scale is dense matrices up to roughly 12x12; the text formats refuse
more than ``MAX_DIM`` rows or columns and entries over ``MAX_ENTRY_BITS``
bits.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

RationalLike = Union[Fraction, int, str]

_ZERO = Fraction(0)
_ONE = Fraction(1)

# a stored matrix row: (positive denominator, integer numerators)
_Row = tuple[int, tuple[int, ...]]


class DimensionError(ValueError):
    """Operand shapes do not fit the requested operation."""


class SingularMatrixError(ValueError):
    """A matrix required to be invertible has determinant zero."""


class InvalidInputError(ValueError):
    """An argument violates a documented precondition."""


class MatrixParseError(ValueError):
    """Matrix or vector text is malformed."""


# an optional sign, then an integer, p/q or an exact decimal, in ASCII digits;
# Fraction alone would also take exponents, "_" separators and non-ASCII digits
_RATIONAL = re.compile(r"[+-]?(?:[0-9]+(?:/[0-9]+)?|[0-9]+\.[0-9]*|\.[0-9]+)")


def parse_rational(text: str) -> Fraction:
    """Parse ``"3"``, ``"-4/7"``, or an exact decimal such as ``"0.125"``."""
    token = text.strip()
    if not _RATIONAL.fullmatch(token):
        raise MatrixParseError(
            f"bad rational {token!r}: expected an integer, p/q or exact decimal"
            " in ASCII digits"
        )
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise MatrixParseError(f"bad rational {token!r}: zero denominator") from None


def rat(value: RationalLike) -> Fraction:
    """Coerce an int, string, or Fraction to a Fraction; floats are rejected."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot convert {type(value).__name__} to an exact rational")


class _Frozen:
    """Refuses assignment and deletion of attributes, so a value is read-only
    once its constructor has stored it with ``object.__setattr__``."""

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r} of {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r} of {type(self).__name__}")


class Vector(_Frozen):
    """A nonempty rational vector: ``entries``, a tuple of ``Fraction``s."""

    entries: tuple[Fraction, ...]

    def __init__(self, entries: Iterable[RationalLike]):
        tup = tuple(x if type(x) is Fraction else rat(x) for x in entries)
        if not tup:
            raise DimensionError("a vector needs at least one entry")
        object.__setattr__(self, "entries", tup)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"Vector(entries={self.entries!r})"

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.entries)

    def __getitem__(self, i: int) -> Fraction:
        return self.entries[i]

    def __add__(self, other: "Vector") -> "Vector":
        if self.dim != other.dim:
            raise DimensionError("vector dimensions differ")
        return Vector(a + b for a, b in zip(self.entries, other.entries))

    def __neg__(self) -> "Vector":
        return Vector(-a for a in self.entries)

    def __mul__(self, c: RationalLike) -> "Vector":
        f = rat(c)
        return Vector(a * f for a in self.entries)

    __rmul__ = __mul__

    def dot(self, other: "Vector") -> Fraction:
        if self.dim != other.dim:
            raise DimensionError("vector dimensions differ")
        return sum((a * b for a, b in zip(self.entries, other.entries)), _ZERO)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def is_nonneg(self) -> bool:
        return all(a >= 0 for a in self.entries)

    def is_positive(self) -> bool:
        return all(a > 0 for a in self.entries)

    def has_mixed_signs(self) -> bool:
        return any(a > 0 for a in self.entries) and any(a < 0 for a in self.entries)

    def to_strings(self) -> list[str]:
        return [str(a) for a in self.entries]

    def __str__(self) -> str:
        return " ".join(self.to_strings())


def _integer_row(row: Sequence[Fraction | int]) -> _Row:
    """(lcm of the row's denominators, the row times that lcm); an ``int`` is
    its own numerator over 1.

    For reduced fractions the pair is in lowest terms: a prime p with p^k
    exactly dividing the lcm divides some denominator b exactly k times, so p
    divides neither that entry's numerator nor lcm / b."""
    lcm = math.lcm(*(x.denominator for x in row))
    return lcm, tuple(x.numerator * (lcm // x.denominator) for x in row)


def _fractions(den: int, nums: Sequence[int]) -> tuple[Fraction, ...]:
    """The entries nums / den as ``Fraction``s."""
    if den == 1:
        return tuple(Fraction(x) for x in nums)
    return tuple(Fraction(x, den) for x in nums)


def _reduced(den: int, nums: Iterable[int]) -> _Row:
    """The row nums / den in lowest terms, over a positive denominator."""
    nums = tuple(nums)
    g = math.gcd(den, *nums)
    if den < 0:
        g = -g
    if g == 1:
        return den, nums
    return den // g, tuple(x // g for x in nums)


def _over_lcm(m: Matrix) -> tuple[int, list[Sequence[int]]]:
    """(L, the integer rows of L * M), L the lcm of M's row denominators."""
    lcm = math.lcm(*m._dens)
    return lcm, [
        nums if den == lcm else [x * (lcm // den) for x in nums] for den, nums in m.integer_rows()
    ]


def _integer_product(x: Matrix, y: Matrix) -> tuple[int, list[list[int]]]:
    """(L, integer rows x_i (L Y)), L as in ``_over_lcm(y)``.

    Row i of X Y is x_i (L Y) / (d_i L), for row i of X stored as x_i / d_i."""
    lcm, scaled = _over_lcm(y)
    cols = list(zip(*scaled))
    return lcm, [[sum(map(operator.mul, nums, col)) for col in cols] for nums in x._nums]


def _pivot(grid: list[list[int]], scales: list[int], r: int, k: int, d: int) -> int:
    """One fraction-free pivot on ``grid[r][k]``, in place; returns the next ``d``.

    Row i is held as ``scales[i] * grid[i]``, where the product is the row
    that the fraction-free step of Edmonds (1967) and Bareiss (1968), applied
    to every row but the pivot row and divided exactly by the previous pivot
    ``d``, would hold.  The step first moves the content g of the pivot row
    into its scale (``P_t / g``, ``s_t * g``).  Every other row takes
    ``T = P_i * p_t - h_i * P_t``, with ``p_t`` the pivot and ``h_i`` the row's
    entry in the pivot column; with ``G = gcd(d, s_i * s_t)`` the row becomes
    ``T / (d / G)`` and its scale ``s_i * s_t / G``.  The next divisor is the
    true pivot ``d = s_t * p_t``.  A row with a zero head has ``T = P_i * p_t``,
    so its ``p_t`` goes to the scale instead, with G = gcd(d, s_i * s_t * p_t).

    The divisions are exact, for any order of pivots: ``s_i * s_t * T / d`` is
    the Edmonds row, an integer vector because each of its entries is a minor
    of the starting grid.  With ``a = s_i * s_t / G`` and ``q = d / G``,
    gcd(a, q) = 1, so q divides every entry of T.  A common factor of a row,
    such as the power of det(D) that every leading minor of an
    inverse-nonnegative Z = D^-1 carries, thus sits in one scale instead of in
    every entry.
    """
    top = grid[r]
    g = math.gcd(*top)
    if g != 1:
        top = grid[r] = [x // g for x in top]
        scales[r] *= g
    s_t, pivot = scales[r], top[k]
    for i, row in enumerate(grid):
        if i == r:
            continue
        head = row[k]
        a = scales[i] * s_t if head else scales[i] * s_t * pivot
        g = math.gcd(d, a)
        q = d // g
        scales[i] = a // g
        if head:
            grid[i] = [(x * pivot - head * y) // q for x, y in zip(row, top)]
        elif q != 1:
            grid[i] = [x // q for x in row]
    return s_t * pivot


def _eliminate(
    rows: Iterable[_Row],
) -> tuple[list[list[int]], list[int], list[int], int, int, int]:
    """Fraction-free Gauss-Jordan elimination: (grid, scales, pivots, d, sign, scale).

    Each row arrives as a positive denominator and integer numerators, and
    the elimination runs on the numerators (``scale`` is the product of the
    denominators).  Each column with a nonzero entry at or below the next
    pivot row takes one ``_pivot`` step there, so row i is held as
    ``scales[i] * grid[i]``, the Edmonds row.

    After its step a pivot column is ``d`` times a unit vector in the true
    rows and stays so; it is dropped, and the returned grid holds only the
    non-pivot columns, in order.  A pivot row's true diagonal is ``d``, so its
    scale divides d and ``grid[i] / (d / scales[i])`` is row i of the non-pivot
    part of the reduced row echelon form.  ``sign`` is the parity of the row
    swaps, and a square matrix with a full ``pivots`` list has determinant
    sign * d / scale.
    """
    grid: list[list[int]] = []
    scale = 1
    for den, nums in rows:
        scale *= den
        grid.append(list(nums))
    scales = [1] * len(grid)
    pivots: list[int] = []
    d = sign = 1
    for c in range(len(grid[0])):
        r = len(pivots)
        k = c - r  # column c's position, with the r earlier pivot columns dropped
        p = next((i for i in range(r, len(grid)) if grid[i][k] != 0), None)
        if p is None:
            continue
        if p != r:
            grid[r], grid[p] = grid[p], grid[r]
            scales[r], scales[p] = scales[p], scales[r]
            sign = -sign
        d = _pivot(grid, scales, r, k, d)
        for row in grid:
            del row[k]
        pivots.append(c)
    return grid, scales, pivots, d, sign, scale


class Matrix(_Frozen):
    """A dense rational matrix, stored as integer rows over one denominator each.

    Row i is held as ``_dens[i]``, a positive integer d_i, and ``_nums[i]``, a
    tuple of integer numerators, the row being ``_nums[i] / d_i``.  Every row
    is in lowest terms, gcd(d_i, *nums_i) == 1, so a rational row has exactly
    one stored form and ``==`` and ``hash``, which compare the stored rows,
    mean value equality.  Products, elimination, sign tests and equality run
    on these integers.
    ``entries``, the grid of ``Fraction`` values, is built from them at each
    read, so no matrix holds its value twice.
    """

    _dens: tuple[int, ...]
    _nums: tuple[tuple[int, ...], ...]

    def __init__(self, rows: Iterable[Iterable[RationalLike]]):
        grid = tuple(tuple(x if type(x) is int else rat(x) for x in row) for row in rows)
        if not grid or not grid[0]:
            raise DimensionError("a matrix needs at least one row and one column")
        width = len(grid[0])
        if any(len(row) != width for row in grid):
            raise DimensionError("rows have unequal lengths")
        self._store(_integer_row(row) for row in grid)

    def _store(self, rows: Iterable[_Row]) -> None:
        dens, nums = zip(*rows)
        object.__setattr__(self, "_dens", dens)
        object.__setattr__(self, "_nums", nums)

    @classmethod
    def _from_integer_rows(cls, rows: Iterable[_Row]) -> "Matrix":
        """A matrix from (denominator, numerators) rows already in lowest terms,
        over positive denominators."""
        m = object.__new__(cls)
        m._store(rows)
        return m

    @classmethod
    def from_integer_rows(cls, rows: Iterable[tuple[int, Iterable[int]]]) -> "Matrix":
        """The matrix whose row i is nums_i / den_i, for the pairs (den_i, nums_i)
        of ``rows``: nonzero integer denominators of either sign and integer
        numerators, every row of one length.  Each row is brought to its stored
        form, lowest terms over a positive denominator, with no ``Fraction``
        built."""
        return cls._from_integer_rows(_reduced(den, nums) for den, nums in rows)

    def integer_rows(self) -> Iterator[_Row]:
        """The stored rows, each as (positive denominator, integer numerators)."""
        return zip(self._dens, self._nums)

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """The grid of ``Fraction`` entries, built at each read."""
        return tuple(_fractions(den, nums) for den, nums in self.integer_rows())

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._dens == other._dens and self._nums == other._nums

    def __hash__(self) -> int:
        return hash((self._dens, self._nums))

    def __repr__(self) -> str:
        return f"Matrix(entries={self.entries!r})"

    # -- construction helpers -------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[int(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, m: int, n: int) -> "Matrix":
        return cls([[0] * n for _ in range(m)])

    @classmethod
    def ones(cls, m: int, n: int) -> "Matrix":
        return cls([[1] * n for _ in range(m)])

    @classmethod
    def from_cols(cls, cols: Sequence[Vector]) -> "Matrix":
        if not cols:
            raise DimensionError("need at least one column")
        m = cols[0].dim
        if any(c.dim != m for c in cols):
            raise DimensionError("columns have unequal lengths")
        return cls([[c[i] for c in cols] for i in range(m)])

    @classmethod
    def from_rows(cls, rows: Sequence[Vector]) -> "Matrix":
        return cls([list(r.entries) for r in rows])

    # -- shape and access -----------------------------------------------------

    @property
    def rows(self) -> int:
        return len(self._dens)

    @property
    def cols(self) -> int:
        return len(self._nums[0])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def row(self, i: int) -> Vector:
        return Vector(_fractions(self._dens[i], self._nums[i]))

    def col(self, j: int) -> Vector:
        return Vector(Fraction(nums[j], den) for den, nums in self.integer_rows())

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return Fraction(self._nums[i][j], self._dens[i])

    # -- arithmetic -----------------------------------------------------------

    def __neg__(self) -> "Matrix":
        return Matrix._from_integer_rows(
            (den, tuple(-x for x in nums)) for den, nums in self.integer_rows()
        )

    def __mul__(self, c: RationalLike) -> "Matrix":
        f = rat(c)
        p, q = f.numerator, f.denominator
        return Matrix._from_integer_rows(
            _reduced(den * q, (x * p for x in nums)) for den, nums in self.integer_rows()
        )

    __rmul__ = __mul__

    def __matmul__(self, other: "Matrix | Vector"):
        if isinstance(other, Vector):
            if other.dim != self.cols:
                raise DimensionError(f"cannot apply {self.shape} matrix to {other.dim}-vector")
            lcm, v = _integer_row(other.entries)
            return Vector(
                Fraction(sum(map(operator.mul, nums, v)), den * lcm)
                for den, nums in self.integer_rows()
            )
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise DimensionError(f"cannot multiply {self.shape} by {other.shape}")
            lcm, rows = _integer_product(self, other)
            return Matrix._from_integer_rows(
                _reduced(den * lcm, row) for den, row in zip(self._dens, rows)
            )
        return NotImplemented

    def transpose(self) -> "Matrix":
        lcm, scaled = _over_lcm(self)
        return Matrix._from_integer_rows(_reduced(lcm, col) for col in zip(*scaled))

    def delete_col(self, j: int) -> "Matrix":
        if self.cols == 1:
            raise DimensionError("cannot delete the only column")
        return Matrix._from_integer_rows(
            _reduced(den, nums[:j] + nums[j + 1 :]) for den, nums in self.integer_rows()
        )

    def take_rows(self, k: int) -> "Matrix":
        if not 1 <= k <= self.rows:
            raise DimensionError(f"cannot take {k} rows from {self.rows}")
        return Matrix._from_integer_rows(zip(self._dens[:k], self._nums[:k]))

    # -- sign predicates, on numerators over positive denominators -------------

    def is_nonneg(self) -> bool:
        return all(x >= 0 for nums in self._nums for x in nums)

    def is_nonpos(self) -> bool:
        return all(x <= 0 for nums in self._nums for x in nums)

    def is_positive(self) -> bool:
        return all(x > 0 for nums in self._nums for x in nums)

    def has_zero_row(self) -> bool:
        return any(not any(nums) for nums in self._nums)

    def has_nonpositive_row(self) -> bool:
        """Some row has no positive entry, so its product with any x >= 0 is
        <= 0 and the matrix is not semipositive."""
        return any(max(nums) <= 0 for nums in self._nums)

    # -- elimination, read from _eliminate -------------------------------------

    def det(self) -> Fraction:
        """Exact determinant; 0 when some column has no pivot."""
        if not self.is_square:
            raise DimensionError("determinant requires a square matrix")
        _, _, pivots, d, sign, scale = _eliminate(self.integer_rows())
        if len(pivots) < self.rows:
            return _ZERO
        return Fraction(sign * d, scale)

    def rank(self) -> int:
        """Exact rank: the number of pivots."""
        return len(_eliminate(self.integer_rows())[2])

    def inverse(self) -> "Matrix":
        """Exact inverse; raises SingularMatrixError if det = 0."""
        if not self.is_square:
            raise DimensionError("inverse requires a square matrix")
        n = self.rows
        # [A | I] is stored row by row as [DA | D], whose reduced form is
        # [I | A^-1]; the pivot columns are dropped, so row i of A^-1 is
        # grid[i] / q_i with q_i = d / scales[i], negative when d is
        grid, scales, pivots, d, _, _ = _eliminate(
            (den, nums + tuple(den if i == j else 0 for j in range(n)))
            for i, (den, nums) in enumerate(self.integer_rows())
        )
        if pivots != list(range(n)):
            raise SingularMatrixError("matrix is singular")
        inv = Matrix._from_integer_rows(_reduced(d // s, row) for row, s in zip(grid, scales))
        # self-check A A^-1 = I exactly in integers: (DA) (L A^-1) == L D, with
        # L the lcm of the stored denominators of A^-1
        lcm, rows = _integer_product(self, inv)
        for i, (den, row) in enumerate(zip(self._dens, rows)):
            if any(x != (lcm * den if i == j else 0) for j, x in enumerate(row)):
                raise ArithmeticError("inverse self-check failed")
        return inv

    def kernel_vector(self) -> "Vector | None":
        """One nonzero x with Ax = 0, or None if the columns are independent.

        x is 1 at the first free (pivotless) column and 0 at the other free
        columns, so it is read off the reduced row echelon form."""
        grid, scales, pivots, d, _, _ = _eliminate(self.integer_rows())
        free = next((c for c in range(self.cols) if c not in pivots), None)
        if free is None:
            return None
        x = [_ZERO] * self.cols
        x[free] = _ONE
        # every column before the first free one is a pivot column and dropped,
        # so the free column is the grid's first
        for row, s, c in zip(grid, scales, pivots):
            x[c] = Fraction(-row[0], d // s)
        return Vector(x)

    def to_strings(self) -> list[list[str]]:
        return [[str(x) for x in row] for row in self.entries]

    def __str__(self) -> str:
        return "\n".join(" ".join(cell for cell in row) for row in self.to_strings())


# -- free constructors and helpers -------------------------------------------


def ones_vector(n: int) -> Vector:
    return Vector([_ONE] * n)


def basis_vector(n: int, i: int) -> Vector:
    if not 0 <= i < n:
        raise DimensionError(f"basis index {i} out of range for dimension {n}")
    return Vector([_ONE if j == i else _ZERO for j in range(n)])


def outer(u: Vector, v: Vector) -> Matrix:
    return Matrix([[a * b for b in v.entries] for a in u.entries])


def permutation_matrix(perm: Sequence[int]) -> Matrix:
    """P with (P x)_i = x[perm[i]]; perm must be a permutation of 0..n-1."""
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise InvalidInputError(f"{perm!r} is not a permutation of 0..{n - 1}")
    return Matrix([[int(j == perm[i]) for j in range(n)] for i in range(n)])


def permutation_sign(perm: Sequence[int]) -> int:
    inversions = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


# -- text formats --------------------------------------------------------------


# caps on text input, so that no file can make the exact arithmetic run away
MAX_DIM = 64
MAX_ENTRY_BITS = 1024
# a matrix file of MAX_DIM rows of MAX_DIM entries, each entry in at most
# 2 * MAX_ENTRY_BITS characters and followed by one separator
MAX_FILE_BYTES = MAX_DIM * MAX_DIM * (2 * MAX_ENTRY_BITS + 1)


def _parse_entries(tokens: list[str]) -> list[Fraction]:
    """One line's entries, under the dimension and bit-length caps.

    A token longer than ``2 * MAX_ENTRY_BITS`` characters is refused unread:
    any entry within the cap is written as p/q in fewer."""
    if len(tokens) > MAX_DIM:
        raise MatrixParseError(f"{len(tokens)} entries, more than the cap of {MAX_DIM}")
    entries = []
    for tok in tokens:
        shown = tok if len(tok) <= 24 else f"{tok[:12]}...{tok[-8:]}"
        if len(tok) > 2 * MAX_ENTRY_BITS:
            raise MatrixParseError(
                f"entry {shown!r} is longer than {2 * MAX_ENTRY_BITS} characters"
            )
        x = parse_rational(tok)
        if max(x.numerator.bit_length(), x.denominator.bit_length()) > MAX_ENTRY_BITS:
            raise MatrixParseError(
                f"entry {shown!r} has a numerator or denominator of more than"
                f" {MAX_ENTRY_BITS} bits"
            )
        entries.append(x)
    return entries


def parse_vector_text(text: str, source: str = "<vector>") -> Vector:
    """Whitespace-separated entries, e.g. ``"1 0 -5/2 0.25"``."""
    tokens = text.split()
    if not tokens:
        raise MatrixParseError(f"{source}: empty vector")
    try:
        return Vector(_parse_entries(tokens))
    except MatrixParseError as exc:
        raise MatrixParseError(f"{source}: {exc}") from None


def parse_matrix_text(text: str, source: str = "<matrix>") -> Matrix:
    """One row per line; blank lines and ``#`` comments ignored."""
    rows: list[list[Fraction]] = []
    first_width: int | None = None
    first_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if len(rows) == MAX_DIM:
            raise MatrixParseError(
                f"{source}, line {lineno}: more than the cap of {MAX_DIM} rows"
            )
        try:
            row = _parse_entries(line.split())
        except MatrixParseError as exc:
            raise MatrixParseError(f"{source}, line {lineno}: {exc}") from None
        if first_width is None:
            first_width = len(row)
            first_line = lineno
        elif len(row) != first_width:
            raise MatrixParseError(
                f"{source}, line {lineno}: row has {len(row)} entries, "
                f"but line {first_line} has {first_width}"
            )
        rows.append(row)
    if not rows:
        raise MatrixParseError(f"{source}: no matrix rows found")
    return Matrix(rows)
