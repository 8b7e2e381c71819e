"""Decide whether A -> X A Y preserves (minimally) semipositive matrices.

Verdicts are three-valued.  A "no" always carries a certificate: a concrete
matrix inside the preserved class whose image verifiably leaves it (or, for
onto questions with a singular X, a class member with no preimage at all).
The verdicts are the only route from a pair to a certificate (the public
falsifiers return an into-verdict's), and the "no" verdict verifies it once,
so the falsifiers are checked constructions rather than trusted formulas.
Every construction but the tall search stores the evidence it already holds
for A's membership: a semipositivity witness x >= 0 with A x > 0 and, for the
minimally semipositive class, a nonnegative left inverse N with N A = I.  The
check multiplies the evidence out with ``classify.is_sp_witness`` and
``classify.is_nonneg_left_inverse`` and never re-decides A with an LP; evidence
that fails fails the certificate, a semipositive A must carry its witness, and
only a minimally semipositive A without evidence (a search draw, or one built
by hand) is decided by the classify decider.  The square minimal-semipositivity
counterexamples are A = B^{-1} for a nonnegative B from ``construct``, whose
builders return B^{-1} with B, read off B's block-triangular form and proved
there by B B^{-1} = I, so no verdict eliminates B; the evidence B 1 and B is
multiplied out again by ``verify()``, so the closed form is trusted nowhere.
One helper, ``_leaves``, builds every certificate of the first kind, with no
image: ``verify()`` is the only place the image X A Y of the class member A is
formed, once a check.  It compares a stored image with that product and
stores the product in a certificate built without one, so a search draw that
stays in the class costs one X A Y, not two.

Every semipositivity counterexample has an image with a row p that has no
positive entry, so y = e_p gives y^T (X A Y) <= 0 and the check refutes the
image by that row sign alone (Ville 1938).  A matrix is minimally
semipositive iff it is semipositive with a nonnegative left inverse N
(Johnson, Kerr & Stanford 1994).  When the certificate stores a probe u with
a negative entry and a nonnegative image X A Y u (``classify.is_msp_probe``),
the check needs nothing more, on any shape: N >= 0 with N (X A Y) = I would
give u = N (X A Y u) >= 0.  A minimally semipositive image without such a
probe goes through the classify decider, and a singular one fails there on
its rank before any LP, so the check inverts no matrix and only the search's
draws reach an LP.

On a single column the two classes coincide (an m x 1 matrix is in either one
iff it is a positive column), so into-preservation of minimal semipositivity
there is the semipositivity question, with its rule and certificates.

A map acts on the space (rows of X) x (rows of Y); the space is read from X
and Y and never passed separately.

Every decision rule holds for (X, Y) or for (-X, -Y).  The map holds X^-1
and Y^-1, each computed on its first read and kept, so the rules, the
constructions of their counterexamples and the inverse map read them there
and a verdict inverts X and Y at most once.

The only undecided regime is into-preservation of minimal semipositivity on
spaces with more rows than columns (width at least 2): the known condition is
sufficient only, so failing it yields either a counterexample from a fixed
search (``TALL_SEARCH_DRAWS`` draws from seed ``TALL_SEARCH_SEED``) or
"unknown".
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from . import classify
from .construct import build_np, build_pos, mixed_sign_vector
from .ratmat import (
    DimensionError,
    InvalidInputError,
    Matrix,
    SingularMatrixError,
    Vector,
    basis_vector,
    ones_vector,
    outer,
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
REASON_MONOMIAL_PAIR = "monomial-pair"
REASON_NEGATED_PAIR = "negated-pair"
REASON_FALSIFIED = "falsified"
REASON_X_SINGULAR = "x-singular"
REASON_Y_SINGULAR = "y-singular"
REASON_INVERSE_NOT_INTO = "inverse-not-into"
REASON_OUTSIDE_REGIME = "outside-decided-regime"
REASON_EMPTY_CLASS = "class-empty-on-wide-space"

# the falsifier notes, one a construction: a certificate's ``note``
NOTE_ZERO_ROW = "zero-row"
NOTE_MIXED_ROW = "mixed-row"
NOTE_UNIFORM_SIGN_ROWS = "uniform-sign-rows"
NOTE_Y_SINGULAR = "y-singular"
NOTE_Y_INVERSE_NEGATIVE_ENTRY = "y-inverse-negative-entry"
NOTE_X_SINGULAR_NO_PREIMAGE = "x-singular-no-preimage"
NOTE_X_OR_Y_SINGULAR = "x-or-y-singular"
NOTE_X_NOT_INVERSE_NONNEGATIVE = "x-not-inverse-nonnegative-either-sign"
NOTE_Y_NOT_INVERSE_NONNEGATIVE = "y-not-inverse-nonnegative"
NOTE_Y_SINGULAR_IMAGE = "y-singular-image-rank-deficient"
NOTE_RANDOMIZED_COUNTEREXAMPLE = "randomized-counterexample"

# the counterexample search of the tall into-MSP regime
TALL_SEARCH_SEED = 0
TALL_SEARCH_DRAWS = 40


@dataclass(frozen=True)
class PreserverMap:
    """The pair (X, Y) defining A -> X A Y on the space of (rows of X) x (rows of Y),
    with ``x_inv`` and ``y_inv``, X^-1 and Y^-1 (None when singular), computed
    on first read and kept."""

    x: Matrix
    y: Matrix

    def __post_init__(self) -> None:
        if not self.x.is_square or not self.y.is_square:
            raise DimensionError("X and Y must both be square")

    @property
    def space(self) -> tuple[int, int]:
        return (self.x.rows, self.y.rows)

    @functools.cached_property
    def x_inv(self) -> Matrix | None:
        return _inverse(self.x)

    @functools.cached_property
    def y_inv(self) -> Matrix | None:
        return _inverse(self.y)

    def inverse_map(self) -> "PreserverMap":
        """(X^-1, Y^-1), holding X and Y as its inverses; raises
        SingularMatrixError when X or Y is singular."""
        if self.x_inv is None or self.y_inv is None:
            raise SingularMatrixError("matrix is singular")
        inverse = PreserverMap(self.x_inv, self.y_inv)
        object.__setattr__(inverse, "x_inv", self.x)
        object.__setattr__(inverse, "y_inv", self.y)
        return inverse


def _inverse(m: Matrix) -> Matrix | None:
    try:
        return m.inverse()
    except SingularMatrixError:
        return None


def apply(lmap: PreserverMap, a: Matrix) -> Matrix:
    if a.rows != lmap.x.cols or a.cols != lmap.y.rows:
        raise DimensionError(
            f"map on {lmap.space} space cannot act on a {a.shape} matrix"
        )
    return lmap.x @ a @ lmap.y


@dataclass(frozen=True)
class FalsifyCertificate:
    """Evidence that the map (x, y) fails to preserve the named class.

    kind "image-leaves-class": ``a`` is in the class and its image x @ a @ y
    is not.  ``verify()`` forms x @ a @ y once: a stored ``image`` must equal
    it, and a certificate built with ``image=None`` (every verdict's is) has
    the product stored there, the way ``verified`` is set.  Optionally a
    probe vector u with image @ u = probe_image exhibits the violation
    directly; image @ u is formed once, for that check.  A semipositive image
    is refuted by a row with no positive entry, and fails verification
    without one.  For the minimally semipositive class, a probe with a
    negative entry and a nonnegative probe_image (``classify.is_msp_probe``,
    given the checked probe_image as the product) proves it alone, on any
    shape: a left inverse N >= 0 of the image would give u = N probe_image >= 0.
    Otherwise the image goes through ``classify.is_minimally_semipositive``.

    kind "no-preimage": ``a`` is in the class but x M y = a has no solution M,
    witnessed by a left-null vector q of x (stored as probe_image) with
    q^T a != 0; ``a`` is z 1^T y for the vector z stored as probe.

    ``a``'s membership is proved by the evidence its construction holds, by
    multiplication only: a ``witness`` x >= 0 with a x > 0
    (``classify.is_sp_witness``) proves it semipositive, and together with a
    ``left_inverse`` N >= 0 with N a = I (``classify.is_nonneg_left_inverse``)
    it proves it minimally semipositive, square or tall (Johnson, Kerr &
    Stanford 1994).  Evidence that is present but fails (or lacks the left
    inverse a minimally semipositive claim needs) makes ``verify()`` False,
    and so does a semipositive claim without its witness; only a minimally
    semipositive certificate without evidence (the tall search's draws) has
    ``a`` decided by ``classify.is_minimally_semipositive``.  A
    ``class_name`` other than ``CLASS_SP`` and ``CLASS_MSP`` makes
    ``verify()`` False.
    """

    kind: str
    class_name: str
    x: Matrix
    y: Matrix
    a: Matrix
    # left out of the hash, so filling it in verify() keeps the hash
    image: Matrix | None = field(default=None, hash=False)
    probe: Vector | None = None
    probe_image: Vector | None = None
    note: str = ""
    witness: Vector | None = None
    left_inverse: Matrix | None = None

    # set by verify() when it passes; never a constructor argument
    verified: bool = field(default=False, init=False, compare=False)

    def verify(self) -> bool:
        """True iff the certificate proves its claim; False, never an error,
        when it does not, including when its shapes do not fit.

        The image side is checked before ``a``'s membership, so a search
        candidate whose image stays in the class costs one membership test.
        Passing sets ``verified``, the only place that mark is set; forming
        the image stores it when the certificate holds none.
        """
        try:
            proved = self._verify()
        except DimensionError:
            return False
        if proved:
            object.__setattr__(self, "verified", True)
        return proved

    def _verify(self) -> bool:
        if self.class_name not in (CLASS_SP, CLASS_MSP):
            return False
        if self.kind == "image-leaves-class":
            image = self.x @ self.a @ self.y
            u, image_u = self.probe, self.probe_image
            if self.image is None:
                object.__setattr__(self, "image", image)
            elif self.image != image:
                return False
            if u is not None and (image_u is None or image @ u != image_u):
                return False
            if self.class_name == CLASS_SP:
                # y = e_p of a row p with no positive entry: y^T image <= 0
                if not image.has_nonpositive_row():
                    return False
            # image_u is image @ u, checked above
            elif u is None or not classify.is_msp_probe(image, u, image_u):
                if classify.is_minimally_semipositive(image):
                    return False
        elif self.kind == "no-preimage":
            q, z = self.probe_image, self.probe
            # x M y = a would give q^T a = (x^T q)^T M y = 0
            if (
                q is None
                or z is None
                or q.is_zero()
                or not (self.x.transpose() @ q).is_zero()
                or self.a != outer(z, ones_vector(self.y.rows)) @ self.y
                or (self.a.transpose() @ q).is_zero()
            ):
                return False
        else:
            return False
        return self._a_is_member()

    def _a_is_member(self) -> bool:
        """``a`` is in the class: by its evidence, or by the classify decider
        for a minimally semipositive claim without any."""
        x, n, a = self.witness, self.left_inverse, self.a
        if x is None and n is None and self.class_name == CLASS_MSP:
            return classify.is_minimally_semipositive(a)
        if x is None or not classify.is_sp_witness(a, x):
            return False
        if self.class_name == CLASS_SP:
            return True
        return n is not None and classify.is_nonneg_left_inverse(a, n)


@dataclass(frozen=True)
class PreserverVerdict:
    status: Verdict
    reason: str
    certificate: FalsifyCertificate | None = None

    def __post_init__(self) -> None:
        if self.status is Verdict.NO:
            cert = self.certificate
            if cert is None:
                raise InvalidInputError("a negative verdict requires a certificate")
            if not (cert.verified or cert.verify()):
                raise ArithmeticError(f"falsification certificate failed ({cert.note})")


# -- decision rules -------------------------------------------------------------


def _sign(test: Callable[[Matrix], bool], m: Matrix) -> int:
    """+1 when M passes ``test``, -1 when -M does, 0 otherwise."""
    if test(m):
        return 1
    return -1 if test(-m) else 0


def _inverse_sign(inv: Matrix | None) -> int:
    """The sign of M^{-1}: +1 when nonnegative, -1 when nonpositive (so
    (-M)^{-1} = -M^{-1} is nonnegative), 0 otherwise or when M is singular."""
    if inv is None:
        return 0
    return 1 if inv.is_nonneg() else -1 if inv.is_nonpos() else 0


def _pair_sign(x_sign: int, y_sign: int) -> int:
    """The sign symmetry of every rule: +1 when (X, Y) satisfies it, -1 when
    (-X, -Y) does, 0 when neither."""
    return x_sign if x_sign == y_sign else 0


def _yes(sign: int, reason: str) -> PreserverVerdict:
    return PreserverVerdict(Verdict.YES, reason if sign > 0 else REASON_NEGATED_PAIR)


def _no(reason: str, cert: FalsifyCertificate) -> PreserverVerdict:
    return PreserverVerdict(Verdict.NO, reason, cert)


def _sp_sign(lmap: PreserverMap) -> int:
    """The semipositivity rule: X row positive and Y inverse nonnegative.  Y
    is inverted only when X passes up to sign."""
    x_sign = _sign(classify.is_row_positive, lmap.x)
    return x_sign and _pair_sign(x_sign, _inverse_sign(lmap.y_inv))


def _msp_sign(lmap: PreserverMap) -> int:
    """The square minimal-semipositivity rule: X and Y inverse nonnegative.  Y
    is inverted only when X^{-1} is nonnegative up to sign."""
    x_sign = _inverse_sign(lmap.x_inv)
    return x_sign and _pair_sign(x_sign, _inverse_sign(lmap.y_inv))


def into_sp_condition(x: Matrix, y: Matrix) -> int:
    """X row positive and Y inverse nonnegative: +1, -1 for (-X, -Y), else 0."""
    return _sp_sign(PreserverMap(x, y))


def into_msp_square_condition(x: Matrix, y: Matrix) -> int:
    """X and Y inverse nonnegative: +1, -1 for (-X, -Y), else 0."""
    return _msp_sign(PreserverMap(x, y))


def _monomial_sign(x: Matrix, y: Matrix) -> int:
    return _pair_sign(_sign(classify.is_monomial, x), _sign(classify.is_monomial, y))


def into_sp_preserver(lmap: PreserverMap) -> PreserverVerdict:
    """Does A -> X A Y map every semipositive matrix to a semipositive one?"""
    sign = _sp_sign(lmap)
    if sign:
        return _yes(sign, REASON_SP_PAIR)
    return _no(REASON_FALSIFIED, _falsify_into_sp(lmap))


def onto_sp_preserver(lmap: PreserverMap) -> PreserverVerdict:
    """Does A -> X A Y map the semipositive matrices onto themselves?"""
    return _onto(lmap, into_sp_preserver)


def into_msp_preserver(lmap: PreserverMap) -> PreserverVerdict:
    """Does A -> X A Y map every minimally semipositive matrix into the class?

    The space is (rows of X) x (rows of Y).  With fewer rows than columns the
    class is empty (see ``classify.is_minimally_semipositive``), so the answer
    is a vacuous yes.  Fully decided also when the space is square or a single
    column.  On a single column the class is the semipositive one, so the
    verdict is ``into_sp_preserver``'s: its rule, X row positive and the 1 x 1
    Y inverse nonnegative (y > 0) up to sign, is exactly the condition for
    positive columns to map to positive columns.  For more rows than columns
    (width >= 2) the known pair condition is sufficient only, so its failure
    triggers a search of ``TALL_SEARCH_DRAWS`` matrices from
    ``genfuzz.iter_msp_mixture`` with seed ``TALL_SEARCH_SEED``: each draw
    becomes a candidate certificate, its ``verify()`` decides it, and the
    first that passes is returned; failing that, "unknown".  The search is
    this module's only use of ``genfuzz``, which is imported there, so every
    other verdict leaves it unloaded.
    """
    rows, cols = lmap.space

    if rows < cols:
        return PreserverVerdict(Verdict.YES, REASON_EMPTY_CLASS)

    if rows == cols:
        sign = _msp_sign(lmap)
        if sign:
            return _yes(sign, REASON_MSP_PAIR)
        return _no(REASON_FALSIFIED, _falsify_into_msp(lmap))

    if cols == 1:
        return into_sp_preserver(lmap)

    sign = _pair_sign(_sign(classify.is_monomial, lmap.x), _inverse_sign(lmap.y_inv))
    if sign:
        return _yes(sign, REASON_TALL_PAIR)
    if lmap.y_inv is None:
        return _no(REASON_Y_SINGULAR, _lift(lmap, NOTE_Y_SINGULAR_IMAGE))
    from . import genfuzz

    cfg = genfuzz.GenConfig(TALL_SEARCH_SEED)
    for a in genfuzz.iter_msp_mixture(rows, cols, cfg, TALL_SEARCH_DRAWS):
        cert = _leaves(CLASS_MSP, lmap, a, NOTE_RANDOMIZED_COUNTEREXAMPLE)
        if cert.verify():
            return _no(REASON_FALSIFIED, cert)
    return PreserverVerdict(Verdict.UNKNOWN, REASON_OUTSIDE_REGIME)


def onto_msp_preserver(lmap: PreserverMap) -> PreserverVerdict:
    """Does A -> X A Y map the minimally semipositive matrices onto themselves?

    Decided on square spaces, on a single column, where the class is the
    semipositive one and ``into_msp_preserver`` gives ``into_sp_preserver``'s
    verdict, and on spaces with fewer rows than columns, where the class is
    empty (a vacuous yes, as for ``into_msp_preserver``).
    """
    rows, cols = lmap.space
    if rows < cols:
        return PreserverVerdict(Verdict.YES, REASON_EMPTY_CLASS)
    if rows > cols >= 2:
        raise InvalidInputError(
            "onto preservation of minimal semipositivity is not decided for rows > cols >= 2"
        )
    return _onto(lmap, into_msp_preserver)


def _onto(lmap: PreserverMap, into: Callable[[PreserverMap], PreserverVerdict]) -> PreserverVerdict:
    """Onto by way of into: a map onto a class that spans the space is
    invertible, and its inverse maps the class into itself.  So a monomial pair
    is a yes; otherwise the map's into verdict when it is a no, the no-preimage
    certificate when X is singular (only the semipositivity rule allows that),
    else the inverse map's into verdict, a no because only monomial pairs map
    the class onto itself."""
    sign = _monomial_sign(lmap.x, lmap.y)
    if sign:
        return _yes(sign, REASON_MONOMIAL_PAIR)
    verdict = into(lmap)
    if verdict.status is not Verdict.YES:
        return verdict
    if lmap.x_inv is None:
        return _no(REASON_X_SINGULAR, _no_preimage_certificate(lmap))
    cert = into(lmap.inverse_map()).certificate
    if cert is None:
        raise ArithmeticError("the inverse of a non-monomial into pair is into")
    return _no(REASON_INVERSE_NOT_INTO, cert)


# -- falsifiers -------------------------------------------------------------------


def falsify_into_sp(lmap: PreserverMap) -> FalsifyCertificate:
    """The certificate of ``into_sp_preserver(lmap)``; see ``_falsify_into_sp``
    for the constructions.  A "yes" verdict raises InvalidInputError."""
    return _certificate(into_sp_preserver(lmap))


def falsify_into_msp(lmap: PreserverMap) -> FalsifyCertificate:
    """The certificate of ``into_msp_preserver(lmap)``, on any space; see
    ``_falsify_into_msp`` for the square constructions and
    ``into_msp_preserver`` for the others.  A "yes" or "unknown" verdict
    raises InvalidInputError."""
    return _certificate(into_msp_preserver(lmap))


def _certificate(verdict: PreserverVerdict) -> FalsifyCertificate:
    if verdict.status is Verdict.UNKNOWN:
        raise InvalidInputError("no certificate was found; the verdict is unknown")
    if verdict.certificate is None:
        raise InvalidInputError("the pair condition holds; nothing to falsify")
    return verdict.certificate


def _falsify_into_msp(lmap: PreserverMap) -> FalsifyCertificate:
    """Counterexample for a square map failing the minimal-semipositivity rule,
    from the map's inverses.

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
    """
    x, y = lmap.x, lmap.y
    n = x.rows

    if lmap.x_inv is None or lmap.y_inv is None:
        return _lift(lmap, NOTE_X_OR_Y_SINGULAR)

    sign = _inverse_sign(lmap.x_inv)
    if not sign:
        v = mixed_sign_vector(x, lmap.x_inv)
        w = -basis_vector(n, 0)
        b, trace = build_np(v, y @ w)
        return _leaves_as_inverse(lmap, b, trace.inverse, NOTE_X_NOT_INVERSE_NONNEGATIVE, w, x @ v)

    c = lmap.y_inv * sign  # (sign Y)^{-1}
    i, j = _negative_entry(c)
    shifted = c @ ones_vector(n)
    delta = abs(c[i, j]) / (2 * (1 + max(abs(shifted[t]) for t in range(n))))
    w = basis_vector(n, j) + delta * ones_vector(n)
    u = c @ w
    v = (lmap.x_inv * sign) @ w
    if u[i] >= 0 or not w.is_positive() or not v.is_nonneg():
        raise ArithmeticError("shift construction lost its sign pattern")
    b, b_inv = build_pos(v, w)
    # the image sends u to (sX)(sX)^{-1} w = w
    return _leaves_as_inverse(lmap, b, b_inv, NOTE_Y_NOT_INVERSE_NONNEGATIVE, u, w)


def _falsify_into_sp(lmap: PreserverMap) -> FalsifyCertificate:
    """Counterexample for a map failing the semipositivity rule.  Each image
    has a row p with no positive entry, so y = e_p gives y^T (X A Y) <= 0 and
    the image is not semipositive (Ville 1938).

    Two constructions, by the rows of X:

    * X has a zero row or a row with both signs (the first zero row, else the
      first mixed row, row i): a positive vector v with (X v)_i = 0 (all ones
      for a zero row) as every column gives A = [v ... v], semipositive by
      e_0, whose image has row i zero.
    * every row of X is one-signed and nonzero: let s be the rule's sign of X
      (sX row positive, so sY fails the rule), or s = 1 when X has rows of
      both signs, so that X 1 has both signs.  A = 1 r^T is semipositive by
      e_j at the first positive entry j of r, and its image is (X 1)(r^T Y).
      If Y is singular, r is a left-null vector of sY with its first nonzero
      entry positive, and the image is 0.  Otherwise let c = (sY)^{-1}: with
      the first negative entry, row by row, in row i, r = -(row i of c) gives
      r^T Y = -s e_i^T and the image -(sX 1) e_i^T, whose row p is
      nonpositive wherever (sX 1)_p > 0, every row when sX is row positive.
      If c >= 0, which the rule allows only when s was set to 1, r = row 0 of
      c is nonnegative and nonzero, r^T Y = e_0^T, and the image (X 1) e_0^T
      has row p nonpositive wherever (X 1)_p < 0.
    """
    x, y = lmap.x, lmap.y
    m, n = lmap.space

    # (has a negative entry, has a positive entry) for each row of X
    signs = [(min(nums) < 0, max(nums) > 0) for _, nums in x.integer_rows()]
    for note, row_sign in ((NOTE_ZERO_ROW, (False, False)), (NOTE_MIXED_ROW, (True, True))):
        if row_sign in signs:
            v = _positive_vector_zeroing_row(x, signs.index(row_sign))
            a = Matrix.from_cols([v] * n)
            return _leaves(CLASS_SP, lmap, a, note, witness=basis_vector(n, 0))

    x_sign = _sign(classify.is_row_positive, x)
    s = x_sign or 1
    if lmap.y_inv is None:
        r = (y * s).transpose().kernel_vector()
        if r is None:
            raise ArithmeticError("singular Y has no left-null vector")
        if next(v for _, nums in r.integer_rows() for v in nums if v) < 0:
            r = -r
        note = NOTE_Y_SINGULAR
    else:
        c = lmap.y_inv * s  # (sY)^{-1}
        entry = _negative_entry(c)
        r = c.row(0) if entry is None else -c.row(entry[0])
        note = NOTE_Y_INVERSE_NEGATIVE_ENTRY
    if not x_sign:
        note = NOTE_UNIFORM_SIGN_ROWS
    j = next(j for j in range(n) if r[j] > 0)
    return _leaves(CLASS_SP, lmap, Matrix.from_rows([r] * m), note, witness=basis_vector(n, j))


def _positive_vector_zeroing_row(x: Matrix, i: int) -> Vector:
    """Strictly positive v with (X v)_i = 0, for a zero row (all ones) or a
    row with both signs.

    Weight t goes on a negative entry when the row sum is nonnegative and on a
    positive entry otherwise, which forces the solution t of the single linear
    equation to be positive.
    """
    # row i is nums / d, so its sum is total / d and t = 1 - total / nums[p]
    ((_, nums),) = x.row(i).integer_rows()
    if not any(nums):
        return ones_vector(len(nums))
    total = sum(nums)
    if total >= 0:
        p = next(j for j, a in enumerate(nums) if a < 0)
    else:
        p = next(j for j, a in enumerate(nums) if a > 0)
    entries = [1] * len(nums)
    entries[p] = Fraction(nums[p] - total, nums[p])
    v = Vector(entries)
    if not v.is_positive() or (x @ v)[i] != 0:
        raise ArithmeticError("row-zeroing vector construction failed")
    return v


def _negative_entry(c: Matrix) -> tuple[int, int] | None:
    """The first (i, j), row by row, with c_ij < 0, read from the numerators;
    None when c >= 0."""
    return next(
        ((i, j) for i, (_, nums) in enumerate(c.integer_rows()) for j, v in enumerate(nums) if v < 0),
        None,
    )


def _no_preimage_certificate(lmap: PreserverMap) -> FalsifyCertificate:
    """For singular X (with sign Y inverse nonnegative): a semipositive matrix
    outside the image of the map, witnessed by a left-null vector of X.

    A = z c^T with c = (sign Y)^T 1, which has a positive entry because
    1^T = c^T (sign Y)^{-1} with (sign Y)^{-1} >= 0; so A = (sign z) 1^T Y,
    and q^T A != 0 because q^T z != 0."""
    x, y = lmap.x, lmap.y
    m, n = lmap.space
    sign = _inverse_sign(lmap.y_inv)
    q = x.transpose().kernel_vector()
    if q is None:
        raise InvalidInputError("X is invertible; no such certificate exists")
    lead = next(i for i in range(m) if q[i] != 0)
    z = ones_vector(m)
    if q.dot(z) == 0:
        z = z + basis_vector(m, lead)
    c = (y * sign).transpose() @ ones_vector(n)
    a = outer(z, c)
    # z > 0, so column j of A is positive where c_j is
    j = next(j for j in range(n) if c[j] > 0)
    return FalsifyCertificate(
        "no-preimage",
        CLASS_SP,
        x,
        y,
        a,
        probe=z * sign,
        probe_image=q,
        note=NOTE_X_SINGULAR_NO_PREIMAGE,
        witness=basis_vector(n, j),
    )


def _leaves(
    class_name: str, lmap: PreserverMap, a: Matrix, note: str, **evidence: Vector | Matrix
) -> FalsifyCertificate:
    """The certificate, not yet verified, that A is in the class and X A Y is
    not, with the evidence its construction holds (``FalsifyCertificate``'s
    ``probe``, ``probe_image``, ``witness`` and ``left_inverse``); the "no"
    verdict that carries it verifies it, which forms and stores the image."""
    return FalsifyCertificate(
        "image-leaves-class", class_name, lmap.x, lmap.y, a, note=note, **evidence
    )


def _leaves_as_inverse(
    lmap: PreserverMap, b: Matrix, b_inv: Matrix, note: str, probe: Vector, probe_image: Vector
) -> FalsifyCertificate:
    """``_leaves`` for A = B^{-1} with B >= 0 invertible, given as the builder
    returned it: A (B 1) = 1 > 0 and B A = I, so B 1 and B are A's evidence of
    minimal semipositivity, and ``verify()`` multiplies both out, so the
    builder's closed-form inverse is checked again there."""
    return _leaves(
        CLASS_MSP,
        lmap,
        b_inv,
        note,
        probe=probe,
        probe_image=probe_image,
        witness=b @ ones_vector(b.rows),
        left_inverse=b,
    )


def _lift(lmap: PreserverMap, note: str) -> FalsifyCertificate:
    """The certificate for a map with Y singular, or X singular on a square
    space: A = [I_n; J] on the m x n space, J all ones (just I_n when m = n).
    A 1 > 0 and [I 0] A = I, so 1 and [I 0] are A's evidence of minimal
    semipositivity, while the image X A Y has rank below n and so no left
    inverse."""
    m, n = lmap.space
    a = Matrix._from_integer_rows([*Matrix.identity(n).integer_rows(), *[(1, (1,) * n)] * (m - n)])
    left = Matrix.identity(m).take_rows(n)
    return _leaves(CLASS_MSP, lmap, a, note, witness=ones_vector(n), left_inverse=left)
