"""Decide whether A -> X A Y preserves (minimally) semipositive matrices.

Verdicts are three-valued.  A "no" always carries a certificate: a concrete
matrix inside the preserved class whose image verifiably leaves it (or, for
onto questions with a singular X, a class member with no preimage at all).
Each certificate is verified exactly once, with the classify deciders, before
it is returned, so the falsifiers are checked constructions rather than
trusted formulas.  One helper, ``_leaves``, builds every certificate of the
first kind: it forms the image X A Y of the class member A and checks it.

A square image is minimally semipositive iff it is invertible with a
nonnegative inverse (Johnson, Kerr & Stanford 1994).  When the certificate
stores a probe u with a negative entry and a nonnegative image X A Y u, the
check needs no inverse: a nonnegative inverse would give u = (X A Y)^{-1}
(X A Y u) >= 0.  Only a square image without such a probe is inverted.

A map acts on the space (rows of X) x (rows of Y); the space is read from X
and Y and never passed separately.

Every decision rule holds for (X, Y) or for (-X, -Y).  X and Y are inverted
at most once per verdict; the inverses and their signs are passed down to the
falsifiers as values.

The only undecided regimes are the rectangular into-preserver questions for
minimal semipositivity: for more rows than columns (width at least 2) the
known condition is sufficient but not necessary, so failing it yields either
a randomized counterexample or "unknown"; for more columns than rows the
question is outside the decided territory entirely and "unknown" is returned.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from . import classify, genfuzz
from .construct import build_np, build_pos, mixed_sign_vector
from .ratmat import (
    DimensionError,
    InvalidInputError,
    Matrix,
    SingularMatrixError,
    Vector,
    basis_vector,
    column_matrix,
    ones_vector,
    outer,
    vstack,
)


class Verdict(enum.Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


CLASS_SP = "semipositive"
CLASS_MSP = "minimally-semipositive"

REASON_SP_PAIR = "x-row-positive-y-inverse-nonnegative"
REASON_MSP_PAIR = "x-y-inverse-nonnegative"
REASON_TALL_PAIR = "x-monomial-y-inverse-nonnegative"
REASON_COLUMN_PAIR = "y-positive-x-row-positive"
REASON_MONOMIAL_PAIR = "monomial-pair"
REASON_NEGATED_PAIR = "negated-pair"
REASON_FALSIFIED = "falsified"
REASON_X_SINGULAR = "x-singular"
REASON_Y_SINGULAR = "y-singular"
REASON_INVERSE_NOT_INTO = "inverse-not-into"
REASON_OUTSIDE_REGIME = "outside-decided-regime"


@dataclass(frozen=True)
class PreserverMap:
    """The pair (X, Y) defining A -> X A Y on the space of (rows of X) x (rows of Y)."""

    x: Matrix
    y: Matrix

    def __post_init__(self) -> None:
        if not self.x.is_square or not self.y.is_square:
            raise DimensionError("X and Y must both be square")

    @property
    def space(self) -> tuple[int, int]:
        return (self.x.rows, self.y.rows)

    def inverse_map(self) -> "PreserverMap":
        return PreserverMap(self.x.inverse(), self.y.inverse())


def apply(lmap: PreserverMap, a: Matrix) -> Matrix:
    if a.rows != lmap.x.cols or a.cols != lmap.y.rows:
        raise DimensionError(
            f"map on {lmap.space} space cannot act on a {a.shape} matrix"
        )
    return lmap.x @ a @ lmap.y


@dataclass(frozen=True)
class FalsifyCertificate:
    """Evidence that the map (x, y) fails to preserve the named class.

    kind "image-leaves-class": ``a`` is in the class, ``image`` equals
    x @ a @ y and is not; optionally a probe vector u with image @ u =
    probe_image exhibits the violation directly.  For the minimally
    semipositive class and a square image, a probe with a negative entry and
    a nonnegative probe_image proves it alone: image^{-1} >= 0 would give
    u = image^{-1} probe_image >= 0.  Otherwise the image goes through the
    classify deciders.

    kind "no-preimage": ``a`` is in the class but x M y = a has no solution M,
    witnessed by a left-null vector q of x (stored as probe_image) with
    q^T a != 0; ``a`` is z 1^T y for the vector z stored as probe.
    """

    kind: str
    class_name: str
    x: Matrix
    y: Matrix
    a: Matrix
    image: Matrix | None = None
    probe: Vector | None = None
    probe_image: Vector | None = None
    note: str = ""

    # set by _checked once verify() has passed; never a constructor argument
    verified: bool = field(default=False, init=False, compare=False)

    def _member(self, m: Matrix) -> bool:
        if self.class_name == CLASS_SP:
            return classify.is_semipositive(m)[0]
        if m.is_square:
            # square: minimally semipositive iff invertible with nonnegative inverse
            return classify.is_inverse_nonnegative(m)[0]
        return classify.is_minimally_semipositive(m)

    def verify(self) -> bool:
        """True iff the certificate proves its claim; False, never an error,
        when it does not, including when its shapes do not fit."""
        try:
            return self._verify()
        except DimensionError:
            return False

    def _verify(self) -> bool:
        if not self._member(self.a):
            return False
        if self.kind == "image-leaves-class":
            image, u, image_u = self.image, self.probe, self.probe_image
            if image is None or image != self.x @ self.a @ self.y:
                return False
            if u is not None:
                if image_u is None or image @ u != image_u:
                    return False
                if (
                    self.class_name == CLASS_MSP
                    and image.is_square
                    and image_u.is_nonneg()
                    and not u.is_nonneg()
                ):
                    # image^-1 >= 0 would give u = image^-1 (image u) >= 0
                    return True
            return not self._member(image)
        if self.kind == "no-preimage":
            q = self.probe_image
            z = self.probe
            if q is None or z is None or q.is_zero():
                return False
            if any(v != 0 for v in (self.x.transpose() @ q).entries):
                return False
            if self.a != outer(z, ones_vector(self.y.rows)) @ self.y:
                return False
            # x M y = a would give q^T a = (x^T q)^T M y = 0
            return not (self.a.transpose() @ q).is_zero()
        return False


@dataclass(frozen=True)
class PreserverVerdict:
    status: Verdict
    reason: str
    certificate: FalsifyCertificate | None = None

    def __post_init__(self) -> None:
        if self.status is Verdict.NO:
            if self.certificate is None:
                raise InvalidInputError("a negative verdict requires a certificate")
            if not self.certificate.verified:
                _checked(self.certificate)


# -- decision rules -------------------------------------------------------------

# M^{-1} (None when M is singular) and its sign, see _signed
Inverse = tuple[Matrix | None, int]
# X's and Y's, with None for Y's when X is singular, see _msp_inverses
MspInverses = tuple[Inverse, Inverse | None]


def _signed(inv: Matrix | None) -> Inverse:
    """An inverse with its sign: +1 when nonnegative, -1 when nonpositive (so
    (-M)^{-1} = -M^{-1} is nonnegative), 0 otherwise or when singular."""
    if inv is None:
        return None, 0
    return inv, 1 if inv.is_nonneg() else -1 if inv.is_nonpos() else 0


def _signed_inverse(m: Matrix) -> Inverse:
    """Invert M once; every inverse a verdict needs comes from here."""
    try:
        return _signed(m.inverse())
    except SingularMatrixError:
        return None, 0


def _sign(test: Callable[[Matrix], bool], m: Matrix) -> int:
    """+1 when M passes ``test``, -1 when -M does, 0 otherwise."""
    if test(m):
        return 1
    return -1 if test(-m) else 0


def _pair_sign(x_sign: int, y_sign: int) -> int:
    """The sign symmetry of every rule: +1 when (X, Y) satisfies it, -1 when
    (-X, -Y) does, 0 when neither."""
    return x_sign if x_sign == y_sign else 0


def _yes(sign: int, reason: str) -> PreserverVerdict:
    return PreserverVerdict(Verdict.YES, reason if sign > 0 else REASON_NEGATED_PAIR)


def _sp_inverse(x: Matrix, y: Matrix) -> Inverse | None:
    """Y's signed inverse, or None when neither X nor -X is row positive: then
    the rule fails and the counterexample does not use Y^{-1}."""
    return _signed_inverse(y) if _sign(classify.is_row_positive, x) else None


def _msp_inverses(x: Matrix, y: Matrix) -> MspInverses:
    """X's signed inverse and Y's, or None for Y's when X is singular: then
    the rule fails and the identity is a counterexample."""
    x_inv = _signed_inverse(x)
    return x_inv, _signed_inverse(y) if x_inv[0] is not None else None


def into_sp_condition(x: Matrix, y: Matrix, y_inv: Inverse | None = None) -> int:
    """X row positive and Y inverse nonnegative: +1, -1 for (-X, -Y), else 0.

    ``y_inv`` is ``_sp_inverse(x, y)`` when the caller already has it.
    """
    x_sign = _sign(classify.is_row_positive, x)
    if not x_sign:
        return 0
    if y_inv is None:
        y_inv = _signed_inverse(y)
    return _pair_sign(x_sign, y_inv[1])


def into_msp_square_condition(
    x: Matrix, y: Matrix, inverses: MspInverses | None = None
) -> int:
    """X and Y inverse nonnegative: +1, -1 for (-X, -Y), else 0.

    ``inverses`` is ``_msp_inverses(x, y)`` when the caller already has it.
    """
    x_inv, y_inv = inverses or _msp_inverses(x, y)
    if y_inv is None:
        return 0
    return _pair_sign(x_inv[1], y_inv[1])


def _monomial_sign(x: Matrix, y: Matrix) -> int:
    return _pair_sign(_sign(classify.is_monomial, x), _sign(classify.is_monomial, y))


def into_sp_preserver(lmap: PreserverMap) -> PreserverVerdict:
    """Does A -> X A Y map every semipositive matrix to a semipositive one?"""
    x, y = lmap.x, lmap.y
    y_inv = _sp_inverse(x, y)
    sign = into_sp_condition(x, y, y_inv)
    if sign:
        return _yes(sign, REASON_SP_PAIR)
    return PreserverVerdict(Verdict.NO, REASON_FALSIFIED, falsify_into_sp(lmap, y_inv))


def onto_sp_preserver(lmap: PreserverMap) -> PreserverVerdict:
    """Does A -> X A Y map the semipositive matrices onto themselves?"""
    x, y = lmap.x, lmap.y
    sign = _monomial_sign(x, y)
    if sign:
        return _yes(sign, REASON_MONOMIAL_PAIR)
    y_inv = _sp_inverse(x, y)
    sign = into_sp_condition(x, y, y_inv)
    if not sign:
        return PreserverVerdict(Verdict.NO, REASON_FALSIFIED, falsify_into_sp(lmap, y_inv))
    x_inv, _ = _signed_inverse(x)
    if x_inv is None:
        return PreserverVerdict(
            Verdict.NO, REASON_X_SINGULAR, _no_preimage_certificate(lmap, sign)
        )
    inverse = PreserverMap(x_inv, y_inv[0])
    return PreserverVerdict(
        Verdict.NO, REASON_INVERSE_NOT_INTO, falsify_into_sp(inverse, _signed(y))
    )


def into_msp_preserver(
    lmap: PreserverMap, *, seed: int = 0, trials: int = 40
) -> PreserverVerdict:
    """Does A -> X A Y map every minimally semipositive matrix into the class?

    The space is (rows of X) x (rows of Y).  Fully decided when it is square
    or a single column.  For strictly more rows than columns (width >= 2) the
    known pair condition is sufficient only, so its failure triggers a search
    of ``trials`` matrices drawn with ``seed`` for a counterexample and,
    failing that, "unknown".  For more columns than rows the question is
    undecided and "unknown" is returned directly.
    """
    x, y = lmap.x, lmap.y
    rows, cols = lmap.space
    if trials < 1:
        raise InvalidInputError(f"trials must be at least 1, got {trials}")

    if rows == cols:
        inverses = _msp_inverses(x, y)
        sign = into_msp_square_condition(x, y, inverses)
        if sign:
            return _yes(sign, REASON_MSP_PAIR)
        return PreserverVerdict(
            Verdict.NO, REASON_FALSIFIED, falsify_into_msp(lmap, inverses)
        )

    if rows > cols == 1:
        # a 1x1 Y is inverse nonnegative iff positive: the into-SP pair rule
        sign = into_sp_condition(x, y)
        if sign:
            return _yes(sign, REASON_COLUMN_PAIR)
        return PreserverVerdict(
            Verdict.NO, REASON_FALSIFIED, _falsify_column_map(lmap)
        )

    if rows > cols:
        y_inv, y_sign = _signed_inverse(y)
        sign = _pair_sign(_sign(classify.is_monomial, x), y_sign)
        if sign:
            return _yes(sign, REASON_TALL_PAIR)
        if y_inv is None:
            a = vstack(Matrix.identity(cols), Matrix.ones(rows - cols, cols))
            cert = _leaves(CLASS_MSP, lmap, a, "y-singular-image-rank-deficient")
            return PreserverVerdict(Verdict.NO, REASON_Y_SINGULAR, cert)
        cfg = genfuzz.GenConfig(seed)
        for a in genfuzz.iter_msp_mixture(rows, cols, cfg, trials):
            if not classify.is_minimally_semipositive(x @ a @ y):
                cert = _leaves(CLASS_MSP, lmap, a, "randomized-counterexample")
                return PreserverVerdict(Verdict.NO, REASON_FALSIFIED, cert)

    return PreserverVerdict(Verdict.UNKNOWN, REASON_OUTSIDE_REGIME)


def onto_msp_preserver(lmap: PreserverMap) -> PreserverVerdict:
    """Does A -> X A Y map the minimally semipositive matrices onto themselves?

    Supported on square spaces only.
    """
    x, y = lmap.x, lmap.y
    if x.rows != y.rows:
        raise InvalidInputError(
            "onto preservation of minimal semipositivity is decided for square spaces only"
        )
    sign = _monomial_sign(x, y)
    if sign:
        return _yes(sign, REASON_MONOMIAL_PAIR)
    inverses = _msp_inverses(x, y)
    if not into_msp_square_condition(x, y, inverses):
        return PreserverVerdict(
            Verdict.NO, REASON_FALSIFIED, falsify_into_msp(lmap, inverses)
        )
    (x_inv, _), (y_inv, _) = inverses
    return PreserverVerdict(
        Verdict.NO,
        REASON_INVERSE_NOT_INTO,
        falsify_into_msp(PreserverMap(x_inv, y_inv), (_signed(x), _signed(y))),
    )


# -- falsifiers -------------------------------------------------------------------


def falsify_into_msp(
    lmap: PreserverMap, inverses: MspInverses | None = None
) -> FalsifyCertificate:
    """Counterexample for a square map failing the minimal-semipositivity rule.

    Three constructions, by how the pair condition fails:

    * X or Y singular: the identity works, since the image is singular.
    * neither X nor -X inverse nonnegative: take a both-signs vector v with
      X v >= 0; send the inverse of the nonnegative invertible B mapping v to
      Y w (with w a negated basis vector).  The image maps w, which has a
      negative entry, to the nonnegative X v, so its inverse cannot be
      nonnegative.
    * X inverse nonnegative up to sign but Y not: a small positive shift of a
      basis vector w keeps the inverse image u = Y^{-1} w negative somewhere;
      the inverse of the nonnegative invertible B mapping X^{-1} w to w gives
      an image sending u, with a negative entry, to a positive vector.

    ``inverses`` is ``_msp_inverses(x, y)`` when the caller already has it.
    """
    x, y = lmap.x, lmap.y
    if x.rows != y.rows:
        raise DimensionError("square falsifier needs matching X and Y sizes")
    x_inv, y_inv = inverses or _msp_inverses(x, y)
    if into_msp_square_condition(x, y, (x_inv, y_inv)):
        raise InvalidInputError("the pair condition holds; nothing to falsify")
    n = x.rows

    if x_inv[0] is None or y_inv[0] is None:
        return _leaves(CLASS_MSP, lmap, Matrix.identity(n), "x-or-y-singular")

    sign = x_inv[1]
    if not sign:
        v = mixed_sign_vector(x, x_inv[0])
        w = -basis_vector(n, 0)
        b, _ = build_np(v, y @ w)
        note = "x-not-inverse-nonnegative-either-sign"
        return _leaves(CLASS_MSP, lmap, b.inverse(), note, w, x @ v)

    xs = x * sign
    c = y_inv[0] * sign  # (sign Y)^{-1}
    i, j = next(
        (i, j) for i in range(n) for j in range(n) if c.entries[i][j] < 0
    )
    shifted = c @ ones_vector(n)
    delta = abs(c.entries[i][j]) / (2 * (1 + max(abs(v) for v in shifted.entries)))
    w = basis_vector(n, j) + delta * ones_vector(n)
    u = c @ w
    v = (x_inv[0] * sign) @ w
    if u.entries[i] >= 0 or not w.is_positive() or not v.is_nonneg():
        raise ArithmeticError("shift construction lost its sign pattern")
    a = build_pos(v, w).inverse()
    return _leaves(CLASS_MSP, lmap, a, "y-not-inverse-nonnegative", u, xs @ v)


def falsify_into_sp(lmap: PreserverMap, y_inv: Inverse | None = None) -> FalsifyCertificate:
    """Counterexample for a map failing the semipositivity rule.

    Four constructions, by how the pair condition fails:

    * X has a zero row: the all-ones matrix maps to something with a zero row.
    * some row of X has entries of both signs: a positive vector v tuned to
      zero that row's image, replicated as every column, maps to something
      with a zero row.
    * otherwise X has a nonpositive row and a nonnegative row: the matrix with
      an all-ones first column maps to columns proportional to the both-signs
      vector X 1, so no image vector is positive.
    * X row positive up to sign but Y not inverse nonnegative: if Y is
      singular, rows copying a left-null vector of Y give image zero; else a
      negative inverse entry yields rows whose product with Y is nonpositive.

    ``y_inv`` is ``_sp_inverse(x, y)`` when the caller already has it.
    """
    x, y = lmap.x, lmap.y
    if y_inv is None:
        y_inv = _sp_inverse(x, y)
    if into_sp_condition(x, y, y_inv):
        raise InvalidInputError("the pair condition holds; nothing to falsify")
    m, n = lmap.space

    sign = _sign(classify.is_row_positive, x)
    if not sign:
        if x.has_zero_row():
            a = Matrix.ones(m, n)
            note = "zero-row"
        else:
            mixed_row = next(
                (i for i in range(m) if x.row(i).has_mixed_signs()), None
            )
            if mixed_row is not None:
                v = _positive_vector_zeroing_row(x, mixed_row)
                a = Matrix.from_cols([v] * n)
                note = "mixed-row"
            else:
                first = [ones_vector(m)] + [
                    Vector([Fraction(0)] * m) for _ in range(n - 1)
                ]
                a = Matrix.from_cols(first)
                note = "uniform-sign-rows"
        return _leaves(CLASS_SP, lmap, a, note)

    if y_inv[0] is None:
        q = (y * sign).transpose().kernel_vector()
        if q is None:
            raise ArithmeticError("singular Y has no left-null vector")
        lead = next(i for i in range(n) if q[i] != 0)
        if q[lead] < 0:
            q = -q
        a = Matrix.from_rows([q] * m)
        note = "y-singular"
    else:
        c = y_inv[0] * sign  # (sign Y)^{-1}
        i, _j = next(
            (i, j) for i in range(n) for j in range(n) if c.entries[i][j] < 0
        )
        a = Matrix.from_rows([-c.row(i)] * m)
        note = "y-inverse-negative-entry"
    return _leaves(CLASS_SP, lmap, a, note)


def _positive_vector_zeroing_row(x: Matrix, i: int) -> Vector:
    """Strictly positive v with (X v)_i = 0, for a row with both signs.

    Weight t goes on a negative entry when the row sum is nonnegative and on a
    positive entry otherwise, which forces the solution t of the single linear
    equation to be positive.
    """
    row = x.row(i)
    total = sum(row.entries, Fraction(0))
    if total >= 0:
        p = next(j for j in range(row.dim) if row[j] < 0)
    else:
        p = next(j for j in range(row.dim) if row[j] > 0)
    t = 1 - total / row[p]
    entries = [Fraction(1)] * row.dim
    entries[p] = t
    v = Vector(entries)
    if not v.is_positive() or (x @ v)[i] != 0:
        raise ArithmeticError("row-zeroing vector construction failed")
    return v


def _falsify_column_map(lmap: PreserverMap) -> FalsifyCertificate:
    """Counterexample for a single-column map: a positive column whose image
    has a nonpositive entry."""
    x, y = lmap.x, lmap.y
    m = x.rows
    scalar = y.entries[0][0]
    if scalar == 0:
        col = ones_vector(m)
        note = "y-zero"
    else:
        xs = x if scalar > 0 else -x
        neg = next(
            ((i, j) for i in range(m) for j in range(m) if xs.entries[i][j] < 0),
            None,
        )
        if neg is None:
            col = ones_vector(m)  # xs has a zero row
            note = "x-zero-row"
        else:
            i, j = neg
            row_total = sum(xs.entries[i], Fraction(0))
            t = 1 + (max(row_total, Fraction(0)) + 1) / (-xs.entries[i][j])
            entries = [Fraction(1)] * m
            entries[j] = t
            col = Vector(entries)
            note = "x-negative-entry"
    return _leaves(CLASS_MSP, lmap, column_matrix(col), note)


def _no_preimage_certificate(lmap: PreserverMap, sign: int) -> FalsifyCertificate:
    """For singular X (with sign Y inverse nonnegative): a semipositive matrix
    outside the image of the map, witnessed by a left-null vector of X.

    A = z c^T with c = (sign Y)^T 1, which has a positive entry because
    1^T = c^T (sign Y)^{-1} with (sign Y)^{-1} >= 0; so A = (sign z) 1^T Y,
    and q^T A != 0 because q^T z != 0."""
    x, y = lmap.x, lmap.y
    m, n = lmap.space
    q = x.transpose().kernel_vector()
    if q is None:
        raise InvalidInputError("X is invertible; no such certificate exists")
    lead = next(i for i in range(m) if q[i] != 0)
    z = ones_vector(m)
    if q.dot(z) == 0:
        z = z + basis_vector(m, lead)
    c = (y * sign).transpose() @ ones_vector(n)
    a = outer(z, c)
    return _checked(
        FalsifyCertificate(
            "no-preimage",
            CLASS_SP,
            x,
            y,
            a,
            probe=z * sign,
            probe_image=q,
            note="x-singular-no-preimage",
        )
    )


def _leaves(
    class_name: str,
    lmap: PreserverMap,
    a: Matrix,
    note: str,
    probe: Vector | None = None,
    probe_image: Vector | None = None,
) -> FalsifyCertificate:
    """The checked certificate that A is in the class and X A Y is not."""
    x, y = lmap.x, lmap.y
    cert = FalsifyCertificate(
        "image-leaves-class", class_name, x, y, a, x @ a @ y, probe, probe_image, note
    )
    return _checked(cert)


def _checked(cert: FalsifyCertificate) -> FalsifyCertificate:
    """Verify a certificate and mark it, so nothing verifies it again."""
    if not cert.verify():
        raise ArithmeticError(f"falsification certificate failed ({cert.note})")
    object.__setattr__(cert, "verified", True)
    return cert
