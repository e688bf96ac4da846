"""Operator families over the two vector kinds.

Dense matrices act on coordinate vectors. Diagonal weight maps, coordinate
shifts, the one-sided scaled backward shift, and compositions of these act on
finitely supported bilateral sequences. Every sequence operator here sends a
basis vector to a scalar multiple of a single basis vector, so norms and
powers reduce to suprema of finite weight products. That reduction is exact
and is what the splitting and shadowing layers lean on; each sequence
operator builds it once, as its MonomialForm `monomial`.

A weight rule gives `value(k)`, the weight at index k; `features`, the
indices beyond which the modulus is constant or monotone toward its limit;
and `limits`, the complex weight limits toward -inf and +inf.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Mapping, Optional

import numpy as np

from .errors import (
    ConfigInvalid,
    KindMismatch,
    NonFinite,
    NotInvertible,
)
from .linalg import (
    L1,
    L2,
    LINF,
    DenseVector,
    SparseBiSeq,
    as_square_matrix,
    check_norm_tag,
    check_scalar,
    dense_eig,
    mat_norm,
    mat_norms,
)

# ---------------------------------------------------------------------------
# Weight rules
#
# A rule assigns a weight to every integer index. Beyond a finite feature set
# the modulus must be either constant or monotone toward a finite limit; that
# is what makes suprema over half-lines computable exactly.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SignWeights:
    """Weight a for indices <= 0, weight b for indices >= 1."""

    neg_and_zero: complex
    pos: complex

    def value(self, k: int) -> complex:
        return self.neg_and_zero if k <= 0 else self.pos

    @property
    def features(self) -> tuple[int, ...]:
        return (0, 1)

    @property
    def limits(self) -> tuple[complex, complex]:
        return complex(self.neg_and_zero), complex(self.pos)

    def to_config(self) -> dict:
        return {
            "neg_and_zero": scalar_to_json(self.neg_and_zero),
            "pos": scalar_to_json(self.pos),
        }


@dataclass(frozen=True)
class TableWeights:
    """Explicit finite table of exceptional weights over a constant default."""

    table: tuple[tuple[int, complex], ...]
    default: complex

    @classmethod
    def from_mapping(cls, table: Mapping[int, complex], default) -> "TableWeights":
        items = tuple(
            sorted((int(k), check_scalar(v)) for k, v in table.items())
        )
        return cls(table=items, default=check_scalar(default))

    def value(self, k: int) -> complex:
        for idx, v in self.table:
            if idx == k:
                return v
        return self.default

    @property
    def features(self) -> tuple[int, ...]:
        if not self.table:
            return (0,)
        return tuple(idx for idx, _ in self.table)

    @property
    def limits(self) -> tuple[complex, complex]:
        return complex(self.default), complex(self.default)

    def to_config(self) -> dict:
        return {
            "table": {str(k): scalar_to_json(v) for k, v in self.table},
            "default": scalar_to_json(self.default),
        }


@dataclass(frozen=True)
class ApproachOneWeights:
    """Negative weights whose moduli rise to 1 without reaching it.

    value(k) = -(|k| + 1) / (|k| + 2), so moduli live in [1/2, 1), the
    supremum 1 is not attained, and no weight is near +1 itself. Useful as a
    boundary case for classification: the tail limits have modulus 1, so the
    stable radius is exactly 1 and classify says Undetermined.
    """

    def value(self, k: int) -> complex:
        a = abs(int(k))
        return complex(-(a + 1) / (a + 2))

    @property
    def features(self) -> tuple[int, ...]:
        return (0,)

    @property
    def limits(self) -> tuple[complex, complex]:
        return complex(-1.0), complex(-1.0)

    def to_config(self) -> dict:
        return {"named": "approach_one"}


@dataclass(frozen=True)
class InverseWeights:
    """Pointwise reciprocal of a base rule; exists when inf |w| > 0."""

    base: object

    def value(self, k: int) -> complex:
        w = self.base.value(k)
        if w == 0:
            raise NotInvertible(f"base weight at {k} is 0; it has no reciprocal")
        return 1.0 / w

    @property
    def features(self) -> tuple[int, ...]:
        return self.base.features

    @property
    def limits(self) -> tuple[complex, complex]:
        left, right = self.base.limits
        if left == 0 or right == 0:
            raise NotInvertible("base weights tend to 0; their reciprocals are unbounded")
        return 1.0 / left, 1.0 / right

    def to_config(self) -> dict:
        raise ConfigInvalid("inverse weight rules are not serializable")


# ---------------------------------------------------------------------------
# Monomial form: L e_j = coeff(j) * e_{j + shift}
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonomialForm:
    shift: int
    coeff: Callable[[int], complex]
    features: tuple[int, ...]
    left_limit_abs: float
    right_limit_abs: float
    # Complex coefficient limits toward -inf / +inf, used by resolvent sums.
    left_limit: complex
    right_limit: complex

    @property
    def walk_limit_abs(self) -> float:
        """|coefficient limit| on the tail that every walk j, j + shift, ...
        runs into: the left one at shift < 0, the right one at shift > 0
        (meaningless at shift 0, where no walk moves)."""
        return self.left_limit_abs if self.shift < 0 else self.right_limit_abs


def _compose_monomials(outer: MonomialForm, inner: MonomialForm) -> MonomialForm:
    shift = outer.shift + inner.shift
    ic, oc, isft = inner.coeff, outer.coeff, inner.shift

    def coeff(j: int) -> complex:
        return ic(j) * oc(j + isft)

    feats = set(inner.features)
    feats.update(f - inner.shift for f in outer.features)
    return MonomialForm(
        shift=shift,
        coeff=coeff,
        features=tuple(sorted(feats)),
        left_limit_abs=inner.left_limit_abs * outer.left_limit_abs,
        right_limit_abs=inner.right_limit_abs * outer.right_limit_abs,
        left_limit=inner.left_limit * outer.left_limit,
        right_limit=inner.right_limit * outer.right_limit,
    )


def _candidate_anchors(
    mono: MonomialForm, n: int, lo: Optional[int], hi: Optional[int]
) -> tuple[list[int], bool, bool]:
    """Anchor indices whose n-step windows can touch a feature, clipped to
    [lo, hi], plus flags saying whether the range sticks out into each tail."""
    reach = abs(mono.shift) * max(n - 1, 0) + 1
    feats = mono.features or (0,)
    span_lo = min(feats) - reach - 1
    span_hi = max(feats) + reach + 1
    first = span_lo if lo is None else max(span_lo, lo)
    last = span_hi if hi is None else min(span_hi, hi)
    cands = list(range(first, last + 1))
    for e in (lo, hi):
        if e is not None and e not in cands:
            cands.append(e)
    into_left = lo is None or lo < span_lo
    into_right = hi is None or hi > span_hi
    return cands, into_left, into_right


def _power_or_inf(x: float, n: int) -> float:
    """x ** n, or inf where it overflows, as the products beside it do."""
    try:
        return x**n
    except OverflowError:
        return math.inf


class MonomialPowers:
    """n-step weight products of a monomial over the anchors in [lo, hi]:
    the table of a coordinate side (splitting.RestrictedPowers), whose terms
    (sup) and resolvent walk (abs_coeffs) read each |coeff(j)| once. Each
    anchor keeps its running product, so power n costs one factor per
    anchor that power n - 1 had. Products run left to right,
    |c(j)| * |c(j + s)| * ..., in any order of n.
    """

    def __init__(self, mono: MonomialForm, lo: Optional[int] = None, hi: Optional[int] = None):
        self.mono, self.lo, self.hi = mono, lo, hi
        self._abs: dict[int, float] = {}
        # anchor -> (factors taken, their product)
        self._runs: dict[int, tuple[int, float]] = {}

    def abs_coeffs(self, idx: np.ndarray) -> np.ndarray:
        """|coeff(i)| at each index of an integer array, read as products
        reads them: each index once, through Python abs."""
        absc, coeff = self._abs, self.mono.coeff
        out = []
        for i in idx.tolist():
            c = absc.get(i)
            if c is None:
                c = absc[i] = abs(coeff(i))
            out.append(c)
        return np.array(out)

    def products(self, n: int) -> list[float]:
        """The n-step product of every candidate anchor, in candidate order,
        then |limit|^n of each tail that [lo, hi] sticks out into."""
        mono, absc, runs = self.mono, self._abs, self._runs
        cands, into_left, into_right = _candidate_anchors(mono, n, self.lo, self.hi)
        out = []
        for j in cands:
            m, p = runs.get(j, (0, 1.0))
            if m > n:
                m, p = 0, 1.0
            for i in range(m, n):
                idx = j + i * mono.shift
                c = absc.get(idx)
                if c is None:
                    c = absc[idx] = abs(mono.coeff(idx))
                p *= c
            runs[j] = (n, p)
            out.append(p)
        if into_left:
            out.append(_power_or_inf(mono.left_limit_abs, n))
        if into_right:
            out.append(_power_or_inf(mono.right_limit_abs, n))
        return out

    def sup(self, n: int) -> float:
        """Operator norm of the n-th power restricted to the span of the basis
        vectors indexed by [lo, hi], under any of the three norm tags."""
        return 1.0 if n == 0 else max([0.0, *self.products(n)])

    def radius(self) -> float:
        """lim sup(n)^(1/n), exactly, from the weight tails. At shift 0 it is
        sup(1), the largest coefficient modulus over [lo, hi], which the
        rules make a finite maximum. Otherwise an n-step walk from an anchor
        in [lo, hi] spends all but a bounded number of its steps in the tail
        that walks run into or in a tail that [lo, hi] opens into, where the
        moduli tend to their limits; so it is the largest limit modulus of
        those tails."""
        mono = self.mono
        if mono.shift == 0:
            return self.sup(1)
        tails = [mono.walk_limit_abs]
        if self.lo is None:
            tails.append(mono.left_limit_abs)
        if self.hi is None:
            tails.append(mono.right_limit_abs)
        return max(tails)


# Fewest and most powers a MatrixPowers block computes at once.
MATRIX_BLOCK_MIN = 4
MATRIX_BLOCK_MAX = 64


class MatrixPowers:
    """n -> ||X_n|| for X_0 = P, X_{n+1} = K X_n, memoized, each power one
    product from the last. With P = I and K = M this is ||M^n||; with the
    re-projected step K = P M of a side P of M (RestrictedPowers.step) it is
    ||M^n P||, and projecting again at every step keeps rounding from
    exciting the other side.

    Powers past the memo are computed in blocks: the products one by one, as
    above, then the block's norms in one stacked call (linalg.mat_norms),
    which gives each norm as mat_norm takes it, so a norm is the same float
    whatever block it falls in. A block read by n holds as many powers as
    were computed before it, from MATRIX_BLOCK_MIN to MATRIX_BLOCK_MAX. A
    series reads its terms a block at a time (read), and sizes each block to
    end where it predicts to close (shadowing._sum_until_tail), so it
    computes few powers past its last term. A block ends before its first
    power whose product or norm is not finite, and records its index:
    reading that power, or any later one, raises NonFinite.
    """

    def __init__(self, P: np.ndarray, K: np.ndarray, tag: str):
        # a non-finite step makes power 1 non-finite, refused where it is read
        self.step, self.X, self.tag = np.asarray(K), P, tag
        self.norms = [mat_norm(P, tag)]
        self.end = None

    def __call__(self, n: int) -> float:
        while len(self.norms) <= n:
            self._extend(len(self.norms) - 1)
        return self.norms[n]

    def read(self, n: int, reach: Optional[float] = None) -> list[float]:
        """The norms from power n on, as far as they are computed once power
        n is. Blocks computed here end at power reach where it is given, and
        otherwise double as n's do."""
        while len(self.norms) <= n:
            have = len(self.norms)
            self._extend(have - 1 if reach is None else math.ceil(reach) + 1 - have)
        return self.norms[n:]

    def _extend(self, size: int) -> None:
        if len(self.norms) == self.end:
            raise NonFinite(f"power {self.end} of the matrix overflows")
        size = min(max(size, MATRIX_BLOCK_MIN), MATRIX_BLOCK_MAX)
        stack = np.empty((size, *self.X.shape), dtype=np.result_type(self.step, self.X))
        X = self.X
        with np.errstate(over="ignore", invalid="ignore"):
            for out in stack:
                X = np.matmul(self.step, X, out=out)
            finite = np.isfinite(stack).all(axis=(1, 2))
            good = size if finite.all() else int(finite.argmin())
            norms = mat_norms(stack[:good], self.tag)
        # finite entries can still sum past the largest float
        good = norms.index(math.inf) if math.inf in norms else good
        if good < size:
            self.end = len(self.norms) + good
        if good:
            self.X = stack[good - 1].copy()
            self.norms.extend(norms[:good])


def monomial_power_sup(
    mono: MonomialForm, n: int, lo: Optional[int] = None, hi: Optional[int] = None
) -> float:
    """sup over anchors j in [lo, hi] of the n-step weight product modulus.

    One term of MonomialPowers(mono, lo, hi).sup; hold that object instead
    when many powers of one monomial are needed.
    """
    return MonomialPowers(mono, lo, hi).sup(n)


# ---------------------------------------------------------------------------
# Operator classes
# ---------------------------------------------------------------------------


class LinOp:
    """Common surface: apply, powers, norms, spectral radius, inverse."""

    norm_tag: str
    kind: str = "abstract"

    # "dense" operators act on DenseVector, "seq" ones on SparseBiSeq.
    vector_kind: str = "abstract"

    # Sequence operators build their monomial form once, at construction;
    # dense operators have none.
    monomial: Optional[MonomialForm] = None

    def apply(self, v):
        raise NotImplementedError

    def invertible(self) -> bool:
        raise NotImplementedError

    def inverse(self) -> "LinOp":
        raise NotImplementedError

    def operator_norm(self) -> float:
        """||L||: the monomial sup at n = 1, else the norm of the dense matrix."""
        if self.monomial is not None:
            return monomial_power_sup(self.monomial, 1)
        return mat_norm(self.dense_matrix(), self.norm_tag)

    def to_config(self) -> dict:
        raise NotImplementedError

    def apply_power(self, n: int, v):
        """n-fold application; negative n goes through the inverse."""
        if n == 0:
            return v
        if n > 0:
            out = v
            for _ in range(n):
                out = self.apply(out)
            return out
        inv = self.inverse()
        out = v
        for _ in range(-n):
            out = inv.apply(out)
        return out

    def spectral_radius(self) -> float:
        """The spectral radius. Dense operators read it off their eigenvalues.
        A sequence operator's is exact from its weight tails
        (MonomialPowers.radius over the whole line): the largest weight
        modulus at shift 0, else the larger of the two tails' limit moduli.
        """
        if self.monomial is None:
            return max(abs(lam) for lam, _ in dense_eig(self.dense_matrix()))
        return MonomialPowers(self.monomial).radius()

    def dense_matrix(self) -> np.ndarray:
        raise KindMismatch(f"{self.kind} operator has no dense matrix")

    def power_norms(self) -> Callable[[int], float]:
        """n -> ||L^n|| for n >= 0, memoized, each power one step from the
        last (MonomialPowers, or MatrixPowers of the dense matrix), so a run
        over n = 0, 1, 2, ... costs one step a term."""
        if self.monomial is not None:
            return MonomialPowers(self.monomial).sup
        m = self.dense_matrix()
        return MatrixPowers(np.eye(m.shape[0]), m, self.norm_tag)


class DenseOp(LinOp):
    kind = "dense"
    vector_kind = "dense"

    __slots__ = ("_matrix", "norm_tag", "_invertible", "_inverse", "_split")

    def __init__(self, matrix, norm_tag: str, invertible: Optional[bool] = None):
        # read-only, as the inverse and the spectral split memoized on the
        # operator (splitting.spectral_split) are computed from it once
        self._matrix = as_square_matrix(matrix)
        self._matrix.setflags(write=False)
        self.norm_tag = check_norm_tag(norm_tag)
        sv = np.linalg.svd(self.matrix, compute_uv=False)
        detectable = bool(sv[-1] > 1e-13 * max(1.0, float(sv[0])))
        if invertible is None:
            self._invertible = detectable
        elif invertible and not detectable:
            raise NotInvertible(
                "matrix declared invertible but is singular to working precision"
            )
        else:
            self._invertible = bool(invertible)
        self._inverse = None
        self._split = None

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return int(self._matrix.shape[0])

    def dense_matrix(self) -> np.ndarray:
        return self.matrix

    def apply(self, v):
        if not isinstance(v, DenseVector):
            raise KindMismatch("dense operator expects a dense vector")
        if v.norm_tag != self.norm_tag or v.dim != self.dim:
            raise KindMismatch("vector disagrees with operator in tag or dimension")
        return DenseVector(self.matrix @ v.coords, self.norm_tag)

    def invertible(self) -> bool:
        return self._invertible

    def inverse(self) -> "DenseOp":
        if not self._invertible:
            raise NotInvertible("dense operator is not invertible")
        if self._inverse is None:
            self._inverse = DenseOp(np.linalg.inv(self.matrix), self.norm_tag, invertible=True)
        return self._inverse

    def to_config(self) -> dict:
        return {
            "kind": "dense",
            "matrix": [[scalar_to_json(z) for z in row] for row in self.matrix],
        }


class _SeqOp(LinOp):
    vector_kind = "seq"

    def _check_vec(self, v) -> None:
        if not isinstance(v, SparseBiSeq):
            raise KindMismatch(f"{self.kind} operator expects a bilateral sequence")
        if v.norm_tag != self.norm_tag:
            raise KindMismatch("sequence disagrees with operator in norm tag")


class DiagonalOp(_SeqOp):
    kind = "diag"

    __slots__ = ("rule", "norm_tag", "monomial", "_invertible")

    def __init__(self, rule, norm_tag: str):
        self.rule = rule
        self.norm_tag = check_norm_tag(norm_tag)
        self._invertible = None
        left, right = rule.limits
        self.monomial = MonomialForm(
            shift=0,
            coeff=rule.value,
            features=rule.features,
            left_limit_abs=abs(left),
            right_limit_abs=abs(right),
            left_limit=left,
            right_limit=right,
        )

    def apply(self, v):
        self._check_vec(v)
        return SparseBiSeq(
            {k: self.rule.value(k) * z for k, z in v.entries.items()}, self.norm_tag
        )

    def invertible(self) -> bool:
        """Whether the weights are bounded and bounded away from 0, decided
        on the first call from one pass over them."""
        if self._invertible is None:
            # the two limits always close the list, so it is never empty
            weights = MonomialPowers(self.monomial).products(1)
            self._invertible = min(weights) > 0.0 and math.isfinite(max(weights))
        return self._invertible

    def inverse(self) -> "DiagonalOp":
        if not self.invertible():
            raise NotInvertible("diagonal weights are not boundedly invertible")
        return DiagonalOp(InverseWeights(self.rule), self.norm_tag)

    def to_config(self) -> dict:
        return {"kind": "diag", "rule": self.rule.to_config()}


class ShiftOp(_SeqOp):
    """(L xi)_k = xi_{k + offset}; an isometry for every norm tag."""

    kind = "shift"

    __slots__ = ("offset", "norm_tag", "monomial")

    def __init__(self, offset: int, norm_tag: str):
        self.offset = int(offset)
        self.norm_tag = check_norm_tag(norm_tag)
        self.monomial = MonomialForm(
            shift=-self.offset,
            coeff=lambda _j: 1.0 + 0j,
            features=(0,),
            left_limit_abs=1.0,
            right_limit_abs=1.0,
            left_limit=1.0 + 0j,
            right_limit=1.0 + 0j,
        )

    def apply(self, v):
        self._check_vec(v)
        return SparseBiSeq(
            {k - self.offset: z for k, z in v.entries.items()}, self.norm_tag
        )

    def invertible(self) -> bool:
        return True

    def inverse(self) -> "ShiftOp":
        return ShiftOp(-self.offset, self.norm_tag)

    def to_config(self) -> dict:
        return {"kind": "shift", "offset": self.offset}


class BackwardScaledOp(_SeqOp):
    """(L xi)_k = factor * xi_{k+1} on one-sided sequences (indices >= 0).

    The index-0 information is destroyed, so this operator is never
    invertible. It is the standard hypercyclic example when |factor| > 1.
    """

    kind = "backward_scaled"

    __slots__ = ("factor", "norm_tag", "monomial")

    def __init__(self, factor, norm_tag: str):
        self.factor = fac = check_scalar(factor)
        self.norm_tag = check_norm_tag(norm_tag)
        self.monomial = MonomialForm(
            shift=-1,
            coeff=lambda j: fac if j >= 1 else 0.0 + 0j,
            features=(0, 1),
            left_limit_abs=0.0,
            right_limit_abs=abs(fac),
            left_limit=0.0 + 0j,
            right_limit=complex(fac),
        )

    def apply(self, v):
        self._check_vec(v)
        if v.entries and min(v.entries) < 0:
            raise KindMismatch(
                "one-sided operator applied to a sequence with negative support"
            )
        return SparseBiSeq(
            {k - 1: self.factor * z for k, z in v.entries.items() if k >= 1},
            self.norm_tag,
        )

    def invertible(self) -> bool:
        return False

    def inverse(self) -> LinOp:
        raise NotInvertible("scaled backward shift destroys coordinate 0")

    def to_config(self) -> dict:
        return {"kind": "backward_scaled", "factor": scalar_to_json(self.factor)}


class CompositionOp(LinOp):
    """Ordered composition; factors[0] is applied last."""

    kind = "compose"

    __slots__ = ("factors", "norm_tag", "monomial")

    def __init__(self, factors):
        factors = tuple(factors)
        if not factors:
            raise ValueError("composition needs at least one factor")
        tags = {f.norm_tag for f in factors}
        if len(tags) != 1:
            raise KindMismatch("composition factors must share a norm tag")
        kinds = {f.vector_kind for f in factors}
        if len(kinds) != 1:
            raise KindMismatch("composition factors must share a vector kind")
        if kinds == {"dense"} and len({f.dense_matrix().shape for f in factors}) != 1:
            raise KindMismatch("dense composition factors must share a dimension")
        self.factors = factors
        self.norm_tag = factors[0].norm_tag
        if kinds == {"seq"}:
            # factors[0] is applied last; build up from the right.
            self.monomial = factors[-1].monomial
            for f in reversed(factors[:-1]):
                self.monomial = _compose_monomials(f.monomial, self.monomial)
        else:
            self.monomial = None

    @property
    def vector_kind(self) -> str:  # type: ignore[override]
        return self.factors[0].vector_kind

    def apply(self, v):
        out = v
        for f in reversed(self.factors):
            out = f.apply(out)
        return out

    def invertible(self) -> bool:
        return all(f.invertible() for f in self.factors)

    def inverse(self) -> "CompositionOp":
        if not self.invertible():
            raise NotInvertible("some composition factor is not invertible")
        return CompositionOp(tuple(f.inverse() for f in reversed(self.factors)))

    def dense_matrix(self) -> np.ndarray:
        if self.vector_kind != "dense":
            raise KindMismatch("composition is not dense")
        m = self.factors[0].dense_matrix()
        with np.errstate(over="ignore", invalid="ignore"):
            for f in self.factors[1:]:
                m = m @ f.dense_matrix()
        if not np.isfinite(m).all():
            raise NonFinite("the product of the dense composition factors overflows")
        return m

    def to_config(self) -> dict:
        return {
            "kind": "compose",
            "factors": [f.to_config() for f in self.factors],
        }


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OperatorReport:
    op_norm: float
    inv_norm: Optional[float]
    spectral_radius: float


def operator_report(op: LinOp) -> OperatorReport:
    """Norm, inverse norm when available, and the spectral radius
    (LinOp.spectral_radius: exact from the weight tails on a sequence
    operator, from the eigenvalues on a dense one)."""
    op_norm = op.operator_norm()
    inv_norm = op.inverse().operator_norm() if op.invertible() else None
    return OperatorReport(op_norm=op_norm, inv_norm=inv_norm, spectral_radius=op.spectral_radius())


# ---------------------------------------------------------------------------
# JSON configuration grammar
# ---------------------------------------------------------------------------


def scalar_to_json(z) -> object:
    z = complex(z)
    if z.imag == 0.0:
        return z.real
    return [z.real, z.imag]


def scalar_from_json(x, path: str) -> complex:
    if isinstance(x, bool):
        raise ConfigInvalid(f"{path}: expected a scalar, got a bool", location=path)
    parts = x if isinstance(x, (list, tuple)) and len(x) == 2 else (x, 0.0)
    if not all(isinstance(t, (int, float)) and not isinstance(t, bool) for t in parts):
        raise ConfigInvalid(f"{path}: expected a number or [re, im] pair", location=path)
    if not all(abs(t) <= sys.float_info.max for t in parts):
        raise ConfigInvalid(f"{path}: expected finite parts", location=path)
    return complex(*parts)


def rule_from_config(cfg, path: str):
    if not isinstance(cfg, dict):
        raise ConfigInvalid(f"{path}: rule must be an object", location=path)
    if "named" in cfg:
        if cfg["named"] == "approach_one":
            return ApproachOneWeights()
        raise ConfigInvalid(
            f"{path}.named: unknown rule {cfg['named']!r}", location=path
        )
    if "table" in cfg:
        if "default" not in cfg:
            raise ConfigInvalid(f"{path}: table rule needs a default", location=path)
        tbl = cfg["table"]
        if not isinstance(tbl, dict):
            raise ConfigInvalid(f"{path}.table: must be an object", location=path)
        entries = {}
        for key, val in tbl.items():
            try:
                idx = int(key)
            except (TypeError, ValueError):
                raise ConfigInvalid(
                    f"{path}.table: key {key!r} is not an integer", location=path
                ) from None
            entries[idx] = scalar_from_json(val, f"{path}.table[{key}]")
        return TableWeights.from_mapping(
            entries, scalar_from_json(cfg["default"], f"{path}.default")
        )
    if "neg_and_zero" in cfg and "pos" in cfg:
        return SignWeights(
            neg_and_zero=scalar_from_json(cfg["neg_and_zero"], f"{path}.neg_and_zero"),
            pos=scalar_from_json(cfg["pos"], f"{path}.pos"),
        )
    raise ConfigInvalid(f"{path}: unrecognized weight rule shape", location=path)


def op_from_config(cfg, norm_tag: Optional[str] = None, path: str = "operator") -> LinOp:
    """Build an operator from its JSON form.

    At the top level the config must carry a "norm" tag; nested composition
    factors inherit it.
    """
    if not isinstance(cfg, dict):
        raise ConfigInvalid(f"{path}: operator must be an object", location=path)
    if norm_tag is None:
        tag = cfg.get("norm")
        if tag not in (L1, L2, LINF):
            raise ConfigInvalid(
                f"{path}.norm: expected one of l1, l2, linf", location=f"{path}.norm"
            )
        norm_tag = tag
    kind = cfg.get("kind")
    if kind == "dense":
        rows = cfg.get("matrix")
        if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
            raise ConfigInvalid(
                f"{path}.matrix: expected a nonempty list of rows",
                location=f"{path}.matrix",
            )
        parsed = [
            [scalar_from_json(x, f"{path}.matrix[{i}][{j}]") for j, x in enumerate(row)]
            for i, row in enumerate(rows)
        ]
        try:
            return DenseOp(parsed, norm_tag, invertible=cfg.get("invertible"))
        except ValueError as exc:
            raise ConfigInvalid(f"{path}.matrix: {exc}", location=f"{path}.matrix")
    if kind == "diag":
        return DiagonalOp(rule_from_config(cfg.get("rule"), f"{path}.rule"), norm_tag)
    if kind == "shift":
        off = cfg.get("offset")
        if not isinstance(off, int) or isinstance(off, bool):
            raise ConfigInvalid(
                f"{path}.offset: expected an integer", location=f"{path}.offset"
            )
        return ShiftOp(off, norm_tag)
    if kind == "backward_scaled":
        return BackwardScaledOp(
            scalar_from_json(cfg.get("factor"), f"{path}.factor"), norm_tag
        )
    if kind == "compose":
        factors = cfg.get("factors")
        if not isinstance(factors, list) or not factors:
            raise ConfigInvalid(
                f"{path}.factors: expected a nonempty list",
                location=f"{path}.factors",
            )
        built = [
            op_from_config(f, norm_tag, f"{path}.factors[{i}]")
            for i, f in enumerate(factors)
        ]
        try:
            return CompositionOp(built)
        except KindMismatch as exc:
            raise ConfigInvalid(f"{path}.factors: {exc}", location=f"{path}.factors")
    raise ConfigInvalid(
        f"{path}.kind: unknown operator kind {kind!r}", location=f"{path}.kind"
    )


def op_to_config(op: LinOp) -> dict:
    cfg = op.to_config()
    cfg["norm"] = op.norm_tag
    return cfg
