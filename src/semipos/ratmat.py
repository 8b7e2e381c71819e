"""Exact rational vectors, matrices, and elimination-based linear algebra.

Every scalar is a ``fractions.Fraction`` in canonical reduced form, so all
sign tests, comparisons, and equalities used elsewhere in the package are
exact decisions.  Binary floating point never enters: decimal strings such
as ``"0.5"`` are converted digit-exactly.

A ``Matrix`` is its rows, each integer numerators over one positive
denominator, in lowest terms, and a ``Vector`` is one such row; their
``Fraction`` entries are built from them at each read and never kept.  An
``int`` entry given to either constructor is stored as its own numerator over
1 with no ``Fraction`` built; a ``bool``, a ``float`` or any other entry goes
through ``rat``, so ``True`` is 1 and a float is refused.  Products,
elimination, sign tests, equality and the row moves (``row``, ``col``,
``from_rows``, ``from_cols``) run on those integers: row i of X Y is
x_i (L Y) / (d_i L), with L the lcm of Y's row denominators, reduced by one
gcd per row, and X v is the dot products of the rows of X with v's numerators
over L times v's denominator, L now the lcm of X's row denominators.  An
identity X Y = I, the check behind every inverse, left inverse and builder's
B B^-1 in the package, is decided by ``_is_identity_product`` without forming
X Y: each integer row of L Y is packed into one integer (Kronecker
substitution), in slots wide enough that no entry of the product spills into
the next, so each row of X takes one big-integer dot product.

One step, ``_pivot``, makes every fraction-free update, both here and in
``lp``'s simplex.  Each row is held as an integer scale times a reduced
integer row, whose product is the row the Edmonds step would give, so a
factor common to a whole row is carried once, in its scale, instead of in
every entry.  ``_eliminate`` runs fraction-free Gauss-Jordan on the stored
numerators with it, dropping each pivot column once its step is done, so the
grid it returns holds only the non-pivot columns.  For an inverse it runs on
[DA | D] without holding D's columns up front: a column of D joins the grid
at the pivot step of its row, with the value the full grid would hold there,
so an n x n inverse never has more than n + 1 columns.  The determinant, the
rank, the inverse and the kernel vector are read from its result.

``Vector`` and ``Matrix`` are written by hand, not with ``@dataclass``, on
one base, ``_Rows``, which alone stores the rows, compares and hashes them,
negates and scales them and sign-tests them: ``==`` and ``hash`` compare the
stored rows, another class gets ``NotImplemented``, and assignment or
deletion of an attribute raises ``AttributeError``.  Importing ``dataclasses`` loads a dozen more stdlib
modules (``inspect``, ``ast``, ``dis``, ``tokenize``, ...), 13 to 16 ms of
start-up on a 2-vCPU host with Python 3.11, and the CLI commands built on
``ratmat``, ``lp``, ``classify``, ``construct`` and ``genfuzz`` alone load
none of them; the records those modules return (``genfuzz``'s ``GenConfig``
and ``CampaignResult`` among them) are ``typing.NamedTuple``s for the same
reason.  Do not bring ``@dataclass`` back into these five modules.

Intended scale is dense matrices up to roughly 12x12; the text formats refuse
more than ``MAX_DIM`` rows or columns and entries over ``MAX_ENTRY_BITS``
bits.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

RationalLike = Union[Fraction, int, str]

_ZERO = Fraction(0)

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


def _is_identity_product(x: Matrix, y: Matrix) -> bool:
    """X Y == I, decided exactly without forming X Y; DimensionError if the
    shapes do not multiply, as for ``@``, and False if the product is not
    square.

    With L and the integer rows S_k of L Y as in ``_over_lcm(y)``, row i of
    X Y is c_i / (d_i L), c_ij = sum_k x_ik S_kj, for row i of X stored as
    x_i / d_i.  So X Y = I iff c_ij = t_ij for all i, j, where t_ii = d_i L
    and t_ij = 0 off the diagonal.  Each S_k is packed into one integer
    P_k = sum_j S_kj 2^(w j) (Kronecker substitution), which makes
    x_i . P = sum_j c_ij 2^(w j): one big-integer dot product per row of X,
    compared with t_ii 2^(w i) = sum_j t_ij 2^(w j).

    The slot width w is 1 plus the larger of bits(max_i sum_k |x_ik| *
    max_kj |S_kj|) and bits(max_i d_i L), bits(m) being m's bit length, so
    every |c_ij| and every t_ij is below 2^(w-1).  Then the two packed values
    of a row are equal only if its digits are: otherwise let j be the least
    index with e_j = c_ij - t_ij nonzero; sum_l e_l 2^(w l) = 0 makes e_j a
    multiple of 2^w, yet 0 < |e_j| < 2^w.  So the check is exact, with no
    float and no chance in it.  One bit narrower, a digit can carry: a row 0
    with c_0 = (t_00 - 2^(w-1), 1, 0, ..) packs to t_00 in slots of w - 1
    bits, and there are such X and Y whose bound that narrower width meets
    (t_00 = 2^(w-2), Y = I).
    """
    if x.cols != y.rows:
        raise DimensionError(f"cannot multiply {x.shape} by {y.shape}")
    if x.rows != y.cols:
        return False
    lcm, scaled = _over_lcm(y)
    top = max(map(abs, itertools.chain.from_iterable(scaled)))
    reach = max(sum(map(abs, nums)) for nums in x._nums)
    w = max((reach * top).bit_length(), (max(x._dens) * lcm).bit_length()) + 1
    shifts = range(0, w * y.cols, w)
    packed = [sum(map(operator.lshift, nums, shifts)) for nums in scaled]
    for den, nums, shift in zip(x._dens, x._nums, shifts):
        if sum(map(operator.mul, nums, packed)) != (den * lcm) << shift:
            return False
    return True


def _pivot(grid: list[list[int]], scales: list[int], r: int, k: int, d: int) -> int:
    """One fraction-free pivot on ``grid[r][k]``, in place; returns the next ``d``.

    Row i is held as ``scales[i] * grid[i]``, where the product is the row
    that the fraction-free step of Edmonds (1967) and Bareiss (1968), applied
    to every row but the pivot row and divided exactly by the previous pivot
    ``d``, would hold.  The step first moves the content g of the pivot row
    into its scale (``P_t / g``, ``s_t * g``).  Every other row takes
    ``T = P_i * p_t - h_i * P_t``, with ``p_t`` the pivot and ``h_i`` the row's
    entry in the pivot column, and the Edmonds row is ``s_i * f * T / d`` for
    the factor ``f = s_t``.  A row with a zero head has ``T = P_i * p_t``, so
    its ``p_t`` moves into the factor instead: ``T = P_i`` and
    ``f = s_t * p_t``, the true pivot and next divisor ``d``.  With
    ``G = gcd(d, s_i * f)`` and ``q = d / G``, the row becomes ``T / q`` and
    its scale ``s_i * f / G``.

    G is not formed row by row.  Once per pivot, for each of the two factors,
    ``c = gcd(d, f)``, ``rest = d / c`` and ``keep = f / c``; row i then takes
    ``g = gcd(rest, s_i)``, ``q = rest / g`` and the scale ``(s_i / g) * keep``.
    These are the same integers, signs included: at each prime, with v its
    valuation, both q have v(q) = max(0, v(d) - v(f) - v(s_i)), and both
    scales are s_i * f / (d / q).  So the per-row gcd reads ``rest``, a few
    bits on average, in place of ``d`` against a product of two scales, which
    both grow with the pivots.

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
    d_next = s_t * pivot
    c, c0 = math.gcd(d, s_t), math.gcd(d, d_next)
    rest, keep = d // c, s_t // c
    rest0, keep0 = d // c0, d_next // c0
    for i, row in enumerate(grid):
        if i == r:
            continue
        head = row[k]
        rest_i, keep_i = (rest, keep) if head else (rest0, keep0)
        s = scales[i]
        g = math.gcd(rest_i, s)
        q = rest_i // g
        scales[i] = s // g * keep_i
        if head:
            grid[i] = [(x * pivot - head * y) // q for x, y in zip(row, top)]
        elif q != 1:
            grid[i] = [x // q for x in row]
    return d_next


def _eliminate(
    rows: Iterable[_Row], origin: list[int] | None = None
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

    Given ``origin``, the starting index of each row (``list(range(n))``),
    the rows are those of DA and the elimination runs on [DA | D], D the
    diagonal of their denominators, without holding D's columns until they
    are needed; ``origin`` is permuted with the rows.  Until row o pivots,
    its column of D is 0 in every other row, since each step sends such a 0
    to (0 p_t - h_i 0) / q: the pivot row's entry is 0 too.  In row o its
    Edmonds value is den_o d, the minor on the pivot rows and row o and on
    the pivot columns and that column, which expands along that column to
    den_o times the pivots' minor d; so each step only multiplies it by the
    next d over the last.  At the step where row o pivots, the column joins
    the grid, last, as den_o d / scales[o] in row o and 0 elsewhere.  That
    is the integer the full grid holds there, so ``_pivot`` sees the same
    values and leaves the same scales and d, on a grid at most n + 1 columns
    wide instead of 2n - c after c pivots.  After the non-pivot columns of
    DA, the j-th column of the returned grid is the column of D of starting
    row ``origin[j]``.
    """
    grid: list[list[int]] = []
    dens: list[int] = []
    for den, nums in rows:
        dens.append(den)
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
        if origin is not None:
            origin[r], origin[p] = origin[p], origin[r]
            for row in grid:
                row.append(0)
            grid[r][-1] = dens[origin[r]] * d // scales[r]
        d = _pivot(grid, scales, r, k, d)
        for row in grid:
            del row[k]
        pivots.append(c)
    return grid, scales, pivots, d, sign, math.prod(dens)


class _Rows(_Frozen):
    """Rational rows stored as integers: the one stored form of ``Vector`` and
    ``Matrix``.

    Row i is held as ``_dens[i]``, a positive integer d_i, and ``_nums[i]``, a
    tuple of integer numerators, the row being ``_nums[i] / d_i``.  Every row
    is in lowest terms, gcd(d_i, *nums_i) == 1, so a rational row has exactly
    one stored form and ``==`` and ``hash``, which compare the stored rows,
    mean value equality; a value of another class gets ``NotImplemented``.
    Negation, scaling and the sign tests run on these integers too.
    """

    _dens: tuple[int, ...]
    _nums: tuple[tuple[int, ...], ...]

    def _store(self, rows: Iterable[_Row]) -> None:
        dens, nums = zip(*rows)
        object.__setattr__(self, "_dens", dens)
        object.__setattr__(self, "_nums", nums)

    @classmethod
    def _from_integer_rows(cls, rows: Iterable[_Row]):
        """A value from (denominator, numerators) rows already in lowest terms,
        over positive denominators."""
        m = object.__new__(cls)
        m._store(rows)
        return m

    def integer_rows(self) -> Iterator[_Row]:
        """The stored rows, each as (positive denominator, integer numerators)."""
        return zip(self._dens, self._nums)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._dens == other._dens and self._nums == other._nums

    def __hash__(self) -> int:
        return hash((self._dens, self._nums))

    def __neg__(self):
        return self._from_integer_rows(
            (den, tuple(-x for x in nums)) for den, nums in self.integer_rows()
        )

    def __mul__(self, c: RationalLike):
        f = rat(c)
        p, q = f.numerator, f.denominator
        return self._from_integer_rows(
            _reduced(den * q, (x * p for x in nums)) for den, nums in self.integer_rows()
        )

    __rmul__ = __mul__

    # -- sign predicates, on numerators over positive denominators -------------
    # (every stored row is nonempty, so each has a min and a max)

    def is_nonneg(self) -> bool:
        return min(map(min, self._nums)) >= 0

    def is_nonpos(self) -> bool:
        return max(map(max, self._nums)) <= 0

    def is_positive(self) -> bool:
        return min(map(min, self._nums)) > 0


class Vector(_Rows):
    """A nonempty rational vector, stored as one row: integer numerators
    ``_nums[0]`` over the positive denominator ``_dens[0]``.  ``entries``, the
    tuple of ``Fraction`` values, is built from them at each read."""

    def __init__(self, entries: Iterable[RationalLike]):
        row = tuple(x if type(x) is int else rat(x) for x in entries)
        if not row:
            raise DimensionError("a vector needs at least one entry")
        self._store([_integer_row(row)])

    @property
    def entries(self) -> tuple[Fraction, ...]:
        """The ``Fraction`` entries, built at each read."""
        return _fractions(self._dens[0], self._nums[0])

    def __repr__(self) -> str:
        return f"Vector(entries={self.entries!r})"

    @property
    def dim(self) -> int:
        return len(self._nums[0])

    def __len__(self) -> int:
        return len(self._nums[0])

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.entries)

    def __getitem__(self, i: int) -> Fraction:
        return Fraction(self._nums[0][i], self._dens[0])

    def __add__(self, other: "Vector") -> "Vector":
        if self.dim != other.dim:
            raise DimensionError("vector dimensions differ")
        ((d, u),), ((e, w),) = self.integer_rows(), other.integer_rows()
        return Vector._from_integer_rows([_reduced(d * e, (a * e + b * d for a, b in zip(u, w)))])

    def dot(self, other: "Vector") -> Fraction:
        if self.dim != other.dim:
            raise DimensionError("vector dimensions differ")
        ((d, u),), ((e, w),) = self.integer_rows(), other.integer_rows()
        return Fraction(sum(map(operator.mul, u, w)), d * e)

    def is_zero(self) -> bool:
        return not any(self._nums[0])

    def has_mixed_signs(self) -> bool:
        return any(x > 0 for x in self._nums[0]) and any(x < 0 for x in self._nums[0])

    def to_strings(self) -> list[str]:
        return [str(a) for a in self.entries]

    def __str__(self) -> str:
        return " ".join(self.to_strings())


class Matrix(_Rows):
    """A dense rational matrix, stored as integer rows over one denominator
    each (see ``_Rows``).  Products and elimination run on these integers.
    ``entries``, the grid of ``Fraction`` values, is built from them at each
    read, so no matrix holds its value twice.
    """

    def __init__(self, rows: Iterable[Iterable[RationalLike]]):
        grid = tuple(tuple(x if type(x) is int else rat(x) for x in row) for row in rows)
        if not grid or not grid[0]:
            raise DimensionError("a matrix needs at least one row and one column")
        width = len(grid[0])
        if any(len(row) != width for row in grid):
            raise DimensionError("rows have unequal lengths")
        self._store(_integer_row(row) for row in grid)

    @classmethod
    def from_integer_rows(cls, rows: Iterable[tuple[int, Iterable[int]]]) -> "Matrix":
        """The matrix whose row i is nums_i / den_i, for the pairs (den_i, nums_i)
        of ``rows``: nonzero integer denominators of either sign and integer
        numerators, every row of one length.  Each row is brought to its stored
        form, lowest terms over a positive denominator, with no ``Fraction``
        built."""
        return cls._from_integer_rows(_reduced(den, nums) for den, nums in rows)

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """The grid of ``Fraction`` entries, built at each read."""
        return tuple(_fractions(den, nums) for den, nums in self.integer_rows())

    def __repr__(self) -> str:
        return f"Matrix(entries={self.entries!r})"

    # -- construction helpers -------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        if n < 1:
            raise DimensionError("a matrix needs at least one row and one column")
        return cls._from_integer_rows((1, (0,) * i + (1,) + (0,) * (n - 1 - i)) for i in range(n))

    @classmethod
    def zeros(cls, m: int, n: int) -> "Matrix":
        return cls([[0] * n for _ in range(m)])

    @classmethod
    def ones(cls, m: int, n: int) -> "Matrix":
        return cls([[1] * n for _ in range(m)])

    @classmethod
    def from_cols(cls, cols: Sequence[Vector]) -> "Matrix":
        return cls.from_rows(cols).transpose()

    @classmethod
    def from_rows(cls, rows: Sequence[Vector]) -> "Matrix":
        if not rows or any(r.dim != rows[0].dim for r in rows):
            raise DimensionError("need at least one row, all of one length")
        return cls._from_integer_rows(row for r in rows for row in r.integer_rows())

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
        return Vector._from_integer_rows([(self._dens[i], self._nums[i])])

    def col(self, j: int) -> Vector:
        lcm = math.lcm(*self._dens)
        return Vector._from_integer_rows(
            [_reduced(lcm, (nums[j] * (lcm // den) for den, nums in self.integer_rows()))]
        )

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return Fraction(self._nums[i][j], self._dens[i])

    # -- arithmetic -----------------------------------------------------------

    def __matmul__(self, other: "Matrix | Vector"):
        if isinstance(other, Vector):
            if other.dim != self.cols:
                raise DimensionError(f"cannot apply {self.shape} matrix to {other.dim}-vector")
            # (A v)_i = (a_i . u) / (d_i e), for row i of A stored as a_i / d_i
            # and v as u / e; over L e, L the lcm of the d_i
            ((e, u),) = other.integer_rows()
            lcm = math.lcm(*self._dens)
            dots = (
                sum(map(operator.mul, nums, u)) * (lcm // den) for den, nums in self.integer_rows()
            )
            return Vector._from_integer_rows([_reduced(lcm * e, dots)])
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
        if not 0 <= j < self.cols:
            raise DimensionError(f"cannot delete column {j} of {self.cols}")
        if self.cols == 1:
            raise DimensionError("cannot delete the only column")
        return Matrix._from_integer_rows(
            _reduced(den, nums[:j] + nums[j + 1 :]) for den, nums in self.integer_rows()
        )

    def take_rows(self, k: int) -> "Matrix":
        if not 1 <= k <= self.rows:
            raise DimensionError(f"cannot take {k} rows from {self.rows}")
        return Matrix._from_integer_rows(zip(self._dens[:k], self._nums[:k]))

    # -- row sign predicates --------------------------------------------------

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
        """Exact inverse; raises SingularMatrixError if det = 0.

        [A | I] is stored row by row as [DA | D], whose reduced form is
        [I | A^-1].  ``_eliminate`` carries D's columns only from the pivot
        step of their row on, so the grid is never wider than n + 1, and
        returns them in the order they joined; they are read back in
        starting-row order.  Row i of A^-1 is then grid[i] / q_i with
        q_i = d / scales[i], negative when d is.  The result is checked
        exactly, A A^-1 = I by ``_is_identity_product``: one packed
        big-integer dot product per row of A, no product formed."""
        if not self.is_square:
            raise DimensionError("inverse requires a square matrix")
        n = self.rows
        origin = list(range(n))
        grid, scales, pivots, d, _, _ = _eliminate(self.integer_rows(), origin)
        if len(pivots) < n:
            raise SingularMatrixError("matrix is singular")
        at = sorted(range(n), key=origin.__getitem__)
        inv = Matrix._from_integer_rows(
            _reduced(d // s, [row[j] for j in at]) for row, s in zip(grid, scales)
        )
        if not _is_identity_product(self, inv):
            raise ArithmeticError("inverse self-check failed")
        return inv

    def kernel_vector(self) -> "Vector | None":
        """One nonzero x with Ax = 0, or None if the columns are independent.

        x is 1 at the first free (pivotless) column and 0 at the other free
        columns, so it is read off the reduced row echelon form; it is stored
        as the integers d x over d."""
        grid, scales, pivots, d, _, _ = _eliminate(self.integer_rows())
        free = next((c for c in range(self.cols) if c not in pivots), None)
        if free is None:
            return None
        x = [0] * self.cols
        x[free] = d
        # every column before the first free one is a pivot column and dropped,
        # so the free column is the grid's first; x_c = -grid[i][0] / (d / s_i)
        for row, s, c in zip(grid, scales, pivots):
            x[c] = -row[0] * s
        return Vector._from_integer_rows([_reduced(d, x)])

    def to_strings(self) -> list[list[str]]:
        return [[str(x) for x in row] for row in self.entries]

    def __str__(self) -> str:
        return "\n".join(" ".join(cell for cell in row) for row in self.to_strings())


# -- free constructors and helpers -------------------------------------------


def ones_vector(n: int) -> Vector:
    return Vector([1] * n)


def basis_vector(n: int, i: int) -> Vector:
    if not 0 <= i < n:
        raise DimensionError(f"basis index {i} out of range for dimension {n}")
    return Vector([int(j == i) for j in range(n)])


def outer(u: Vector, v: Vector) -> Matrix:
    ((d, p),), ((e, w),) = u.integer_rows(), v.integer_rows()
    return Matrix._from_integer_rows(_reduced(d * e, [a * b for b in w]) for a in p)


def permutation_matrix(perm: Sequence[int]) -> Matrix:
    """P with (P x)_i = x[perm[i]]; perm must be a permutation of 0..n-1."""
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise InvalidInputError(f"{perm!r} is not a permutation of 0..{n - 1}")
    return Matrix([[int(j == perm[i]) for j in range(n)] for i in range(n)])


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
