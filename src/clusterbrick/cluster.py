"""Cluster algebra seeds with principal coefficients, in exact arithmetic.

A seed is an extended integer matrix (2n rows by n columns: exchange block on
top, coefficient block below) together with n cluster variables; column i of
the coefficient block is the c-vector of slot i, whose coefficient is y^c_i.
Variables live in the Laurent ring Z[x1..xn, x1^-1..xn^-1, y1..yn], as
integer-coefficient polynomials in 2n variables (x slots first, then y
slots; x exponents may be negative).

Packed monomials.  `MPoly` stores each monomial as one Python int: the
exponent e of variable t sits in a 16-bit field as e + 2**14, the first
variable in the most significant field.  Every stored field lies in
[0, 2**15), so the top bit of each field is a spare guard bit and no field
ever carries into its neighbour; the integer order of two keys is then the
lexicographic order of their exponent vectors, field by field from the
first variable.  A product of monomials is k1 + k2 - bias and a quotient
k1 - k2 + bias, where bias holds 2**14 in every field.  Exponents must lie
in [-2**14, 2**14 - 1]: construction and every product check the exponent
box against that range first, so a field never wraps, and raise
ResourceLimit otherwise.  Each polynomial caches its exact exponent box
(componentwise minimum and maximum), which products and exact quotients
obtain from the boxes of their operands: Z is a domain, so the extreme
terms of a product never cancel.  The packed format is private to this
module; `MPoly.terms` gives the tuple-keyed view.

Everything is integer arithmetic; there is no Fraction and no floating
point in this module.
"""

from __future__ import annotations

import functools
import heapq
import struct
from dataclasses import dataclass, field
from operator import add, sub

from .coxeter import check_coxeter_word
from .errors import (DimensionMismatch, InexactDivision, InvariantViolation,
                     ResourceLimit)
from .roots import CartanMatrix, Vec

_WIDTH = 16
_BIAS = 1 << (_WIDTH - 2)
_MIN_EXP, _MAX_EXP = -_BIAS, _BIAS - 1


class _Layout:
    """Packing constants for one number of variables."""

    __slots__ = ("struct", "nbytes", "bias", "guard")

    def __init__(self, nvars: int):
        self.struct = struct.Struct(f">{nvars}H")
        self.nbytes = self.struct.size
        ones = sum(1 << (_WIDTH * t) for t in range(nvars))
        self.bias = _BIAS * ones
        self.guard = (1 << (_WIDTH - 1)) * ones

    def pack(self, exponents) -> int:
        return int.from_bytes(
            self.struct.pack(*[e + _BIAS for e in exponents]), "big")

    def unpack(self, key: int) -> tuple[int, ...]:
        return tuple(f - _BIAS for f in
                     self.struct.unpack(key.to_bytes(self.nbytes, "big")))


@functools.lru_cache(maxsize=64)
def _layout(nvars: int) -> _Layout:
    return _Layout(nvars)


def _box_of(exponents) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Componentwise minimum and maximum of nonempty exponent tuples."""
    cols = tuple(zip(*exponents))
    return tuple(map(min, cols)), tuple(map(max, cols))


def _check_range(lo, hi) -> None:
    if min(lo, default=0) < _MIN_EXP or max(hi, default=0) > _MAX_EXP:
        raise ResourceLimit(
            f"exponent outside the representable range [{_MIN_EXP}, {_MAX_EXP}]")


def _require_ints(*values) -> None:
    """TypeError naming the first value that is not an int (bools included)."""
    for x in values:
        if type(x) is not int:
            raise TypeError(f"exponent or coefficient {x!r} is not an int")


class MPoly:
    """Immutable sparse Laurent polynomial with int exponents and coefficients."""

    __slots__ = ("nvars", "_t", "_lo", "_hi")

    def __init__(self, nvars: int, terms: dict[tuple[int, ...], int]):
        for e, c in terms.items():
            _require_ints(*e, c)
        terms = {e: c for e, c in terms.items() if c != 0}
        if any(len(e) != nvars for e in terms):
            raise DimensionMismatch(f"exponent tuple of the wrong length, expected {nvars}")
        self.nvars, self._lo, self._hi = nvars, None, None
        if terms:
            self._lo, self._hi = _box_of(terms)
            _check_range(self._lo, self._hi)
        pack = _layout(nvars).pack
        self._t = {pack(e): c for e, c in terms.items()}

    @classmethod
    def _make(cls, nvars: int, packed: dict[int, int], lo=None, hi=None) -> "MPoly":
        """Wrap packed terms; lo and hi, when given, must be their exact box."""
        out = object.__new__(cls)
        out.nvars, out._t, out._lo, out._hi = nvars, packed, lo, hi
        return out

    @classmethod
    def constant(cls, nvars: int, value: int) -> "MPoly":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def monomial(cls, nvars: int, exponents) -> "MPoly":
        e = tuple(exponents)
        _require_ints(*e)
        if len(e) != nvars:
            raise DimensionMismatch(f"exponent tuple of length {len(e)}, expected {nvars}")
        _check_range(e, e)
        return cls._make(nvars, {_layout(nvars).pack(e): 1}, e, e)

    @property
    def terms(self) -> dict[tuple[int, ...], int]:
        """The terms keyed by exponent tuples, built on each access."""
        unpack = _layout(self.nvars).unpack
        return {unpack(k): c for k, c in self._t.items()}

    def _box(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Componentwise minimum and maximum exponents of a nonzero polynomial."""
        if self._lo is None:
            if not self._t:
                raise ValueError("exponent box of zero")
            self._lo, self._hi = _box_of(self.terms)
        return self._lo, self._hi

    def is_zero(self) -> bool:
        return not self._t

    def _check(self, other: "MPoly") -> None:
        if self.nvars != other.nvars:
            raise DimensionMismatch(f"{self.nvars} vs {other.nvars} variables")

    def __add__(self, other: "MPoly") -> "MPoly":
        self._check(other)
        if not other._t:
            return self
        if not self._t:
            return other
        out = dict(self._t)
        cancelled = False
        for k, c in other._t.items():
            v = out.get(k, 0) + c
            if v:
                out[k] = v
            else:
                del out[k]
                cancelled = True
        if cancelled:
            return MPoly._make(self.nvars, out)
        (lo1, hi1), (lo2, hi2) = self._box(), other._box()
        return MPoly._make(self.nvars, out, tuple(map(min, lo1, lo2)),
                           tuple(map(max, hi1, hi2)))

    def __neg__(self) -> "MPoly":
        return MPoly._make(self.nvars, {k: -c for k, c in self._t.items()},
                           self._lo, self._hi)

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __mul__(self, other: "MPoly") -> "MPoly":
        self._check(other)
        nv = self.nvars
        if not self._t or not other._t:
            return MPoly._make(nv, {})
        (lo1, hi1), (lo2, hi2) = self._box(), other._box()
        lo, hi = tuple(map(add, lo1, lo2)), tuple(map(add, hi1, hi2))
        _check_range(lo, hi)
        bias = _layout(nv).bias
        small, large = sorted((self._t, other._t), key=len)
        if len(small) == 1:
            (k1, c1), = small.items()
            base = k1 - bias
            return MPoly._make(nv, {base + k: c1 * c for k, c in large.items()},
                               lo, hi)
        out: dict[int, int] = {}
        get = out.get
        for k1, c1 in small.items():
            base = k1 - bias
            for k2, c2 in large.items():
                k = base + k2
                out[k] = get(k, 0) + c1 * c2
        if not all(out.values()):
            out = {k: c for k, c in out.items() if c}
        return MPoly._make(nv, out, lo, hi)

    def __pow__(self, k: int) -> "MPoly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        if k == 0:
            return MPoly.constant(self.nvars, 1)
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.nvars == other.nvars and self._t == other._t

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self._t.items())))

    def __repr__(self) -> str:
        return f"MPoly({self.nvars}, {self.terms})"


def exact_div(num: MPoly, den: MPoly) -> MPoly:
    """The quotient q with q * den == num, when it exists in the Laurent ring.

    Long division by the lex-leading term of den.  A true quotient has
    exactly the exponent box of num minus that of den (Newton polytopes add
    under multiplication), so a candidate quotient term outside that box, a
    leading coefficient that fails to divide, or a nonzero remainder all
    certify that no exact quotient exists.  A candidate lies in the box
    exactly when the leading monomial of the remainder lies in the box
    shifted by the leading monomial of den; with every field below the
    guard bit, one subtraction per bound compares all fields at once.  The
    remainder's keys sit in a max-heap (Monagan-Pearce, CASC 2007), pushed
    on entering it; entries of keys that cancelled since are skipped.
    """
    num._check(den)
    if den.is_zero():
        raise InexactDivision("division by zero polynomial")
    nv = num.nvars
    if num.is_zero():
        return MPoly._make(nv, {})
    (nlo, nhi), (dlo, dhi) = num._box(), den._box()
    lo, hi = tuple(map(sub, nlo, dlo)), tuple(map(sub, nhi, dhi))
    if any(a > b for a, b in zip(lo, hi)):
        raise InexactDivision("quotient would leave the exponent box")
    _check_range(lo, hi)
    layout = _layout(nv)
    guard = layout.guard
    den_lead = max(den._t)
    den_lc = den._t[den_lead]
    lead_exp = layout.unpack(den_lead)
    floor = layout.pack(map(add, lo, lead_exp))
    ceiling = layout.pack(map(add, hi, lead_exp)) | guard
    to_quotient = layout.bias - den_lead
    den_terms = [(k - layout.bias, c) for k, c in den._t.items() if k != den_lead]
    rem = dict(num._t)
    heap = [-k for k in rem]
    heapq.heapify(heap)
    quo: dict[int, int] = {}
    while rem:
        lead = -heapq.heappop(heap)
        lc = rem.pop(lead, 0)
        if not lc:
            continue
        if ((lead | guard) - floor) & guard != guard \
                or (ceiling - lead) & guard != guard:
            raise InexactDivision("quotient would leave the exponent box")
        q_c, r = divmod(lc, den_lc)
        if r:
            raise InexactDivision(f"coefficient {lc} not divisible by {den_lc}")
        q = lead + to_quotient
        quo[q] = q_c
        for k, c in den_terms:
            key = q + k
            val = rem.get(key)
            if val is None:
                rem[key] = -q_c * c
                heapq.heappush(heap, -key)
            elif val != q_c * c:
                rem[key] = val - q_c * c
            else:
                del rem[key]
    return MPoly._make(nv, quo, lo, hi)


class FPolynomial:
    """Polynomial in the coefficient variables y1..yn only.

    The constructor enforces the normal shape of these polynomials: all
    exponents nonnegative, all coefficients positive, constant term 1, and a
    unique maximal monomial that every other monomial divides.  Exponents
    and coefficients must be ints.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict[tuple[int, ...], int]):
        for e, c in terms.items():
            _require_ints(*e, c)
        terms = {tuple(e): c for e, c in terms.items() if c != 0}
        for e, c in terms.items():
            if len(e) != n:
                raise DimensionMismatch(f"exponent of length {len(e)}, expected {n}")
            if any(a < 0 for a in e):
                raise InvariantViolation(f"negative exponent {e}")
            if c <= 0:
                raise InvariantViolation(f"nonpositive coefficient {c} at {e}")
        if terms.get((0,) * n) != 1:
            raise InvariantViolation("constant term is not 1")
        top = tuple(max(e[t] for e in terms) for t in range(n))
        if top not in terms:
            raise InvariantViolation("no maximal monomial divisible by all others")
        self.n = n
        self.terms = terms

    def support(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(self.terms))

    def top_exponent(self) -> tuple[int, ...]:
        return tuple(max(e[t] for e in self.terms) for t in range(self.n))

    def __eq__(self, other) -> bool:
        if not isinstance(other, FPolynomial):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"FPolynomial({self.n}, {self.terms})"


@dataclass(frozen=True)
class Seed:
    """Extended exchange matrix (2n x n) and n cluster variables.

    The coefficient of slot i is the tropical monomial y^c_i, with c_i
    column i of the coefficient block (Fomin-Zelevinsky, Cluster algebras
    IV); `c_vector` reads it, and no second copy is kept.

    `memo`, when set, is the `ExchangeMemo` of the walk the seed belongs
    to: `mutate` takes the new variable from it and hands it on to the
    mutated seed.  It takes no part in equality.
    """

    matrix: tuple[tuple[int, ...], ...]
    variables: tuple[MPoly, ...]
    memo: "ExchangeMemo | None" = field(default=None, compare=False, repr=False)

    @property
    def n(self) -> int:
        return len(self.variables)


def initial_matrix(cartan: CartanMatrix, c) -> tuple[tuple[int, ...], ...]:
    """Extended matrix of the initial seed for the Coxeter word c.

    Exchange block: entry (s, t) is -a_st when s precedes t in c and +a_st
    otherwise; the coefficient block starts as the identity.  A c that
    `check_coxeter_word` rejects raises.
    """
    n = cartan.n
    check_coxeter_word(c, n)
    position = {s: k for k, s in enumerate(c)}
    top = []
    for s in range(1, n + 1):
        row = []
        for t in range(1, n + 1):
            a = cartan.rows[s - 1][t - 1]
            if s == t or a == 0:
                row.append(0)
            elif position[s] < position[t]:
                row.append(-a)
            else:
                row.append(a)
        top.append(tuple(row))
    bottom = [tuple(1 if s == t else 0 for t in range(n)) for s in range(n)]
    return tuple(top + bottom)


def initial_seed(cartan: CartanMatrix, c) -> Seed:
    n = cartan.n
    variables = tuple(
        MPoly.monomial(2 * n, tuple(1 if t == s else 0 for t in range(2 * n)))
        for s in range(n))
    return Seed(initial_matrix(cartan, c), variables)


def _check_slot(seed: Seed, i: int) -> None:
    """TypeError unless slot i is an int (not a bool), ValueError outside 1..n."""
    if type(i) is not int:
        raise TypeError(f"slot {i!r} is not an int")
    if not 1 <= i <= seed.n:
        raise ValueError(f"slot {i} out of range 1..{seed.n}")


def exchange_binomial(seed: Seed, i: int) -> MPoly:
    """The product of the variable at slot i (1-based) and its mutation.

    The two monomials of the exchange relation, with the coefficient
    monomials split off the c-vector f_i of the slot: the normalizations
    y^f_i/(y^f_i (+) 1) and 1/(y^f_i (+) 1) are the monomials
    y^(f_i - min(f_i,0)) = y^[f_i]+ and y^(-min(f_i,0)) = y^[-f_i]+.
    """
    _check_slot(seed, i)
    n = seed.n
    s = i - 1
    f_i = [row[s] for row in seed.matrix[n:]]
    pack = _layout(2 * n).pack
    monomials = []
    for e in ((0,) * n + tuple([a if a > 0 else 0 for a in f_i]),
              (0,) * n + tuple([-a if a < 0 else 0 for a in f_i])):
        _check_range(e, e)
        monomials.append(MPoly._make(2 * n, {pack(e): 1}, e, e))
    plus, minus = monomials
    for row, v in zip(seed.matrix, seed.variables):
        b = row[s]
        if b > 0:
            plus = plus * v ** b
        elif b < 0:
            minus = minus * v ** (-b)
    return plus + minus


def mutate(seed: Seed, i: int) -> Seed:
    """Mutation of the seed at slot i (1-based).

    The matrix follows the usual four-case rule on all 2n rows: entry
    (k, l) is negated when k or l is the slot s, and otherwise gains
    [b_ks]+ [b_sl]+ - [-b_ks]+ [-b_sl]+, of which at most one term is
    nonzero, so a row with b_ks = 0 is unchanged.  The new variable is the
    exchange binomial divided exactly by the old variable; a seed with a
    memo takes it, and each changed row, from the memo's pools.
    """
    _check_slot(seed, i)
    if seed.memo is not None:
        new_var = seed.memo.quotient(seed, i)
        new_row = seed.memo.row
    else:
        new_var = exact_div(exchange_binomial(seed, i), seed.variables[i - 1])
        new_row = tuple
    s = i - 1
    pivot = seed.matrix[s]
    up = [b if b > 0 else 0 for b in pivot]
    down = [-b if b < 0 else 0 for b in pivot]
    new_rows = []
    for k, row in enumerate(seed.matrix):
        a = row[s]
        if k == s:
            row = new_row([-b for b in row])
        elif a:
            shifted = [b + a * u for b, u in zip(row, up if a > 0 else down)]
            shifted[s] = -a
            row = new_row(shifted)
        new_rows.append(row)
    variables = seed.variables[:s] + (new_var,) + seed.variables[i:]
    return Seed(tuple(new_rows), variables, seed.memo)


class ExchangeMemo:
    """Hash-consed cluster variables and matrix rows, and certified exchange
    partners, of one walk.

    `intern` maps every variable to one canonical object per polynomial, so
    equal variables of the walk are identical and each has a small index.
    `row` does the same for the rows of the seeds' extended matrices, so
    equal rows of the walk's seeds are one tuple: a walk repeats a few
    hundred rows across thousands of seeds.
    An exchange relation is keyed by its exchange data: the sorted
    (index, exponent) pairs of the nonzero exchange-block entries of the
    column, the c-vector of the slot, and the index of the old variable.
    The exchange binomial depends on nothing else.  `partners` maps each
    key to the variable whose product with the old one is that binomial,
    certified by `quotient`, and the reverse key back to the old variable:
    mutation at slot s negates column s in all 2n rows and keeps the other
    slots, so the reverse key negates the column entries and the c-vector,
    and the binomial is the same.  The mutated seed's key at s is the
    reverse key, so `is_partner` certifies the inverse mutation by one
    lookup.

    Every interned variable is also filed under the x part of the low
    corner of its exponent box, its negated d-vector.  In finite type the
    d-vector determines the cluster variable (Fomin-Zelevinsky, Cluster
    algebras II), so `quotient` divides once per new variable, and
    certifies every other exchange it meets by one product check against
    the variable filed under the quotient's d-vector.
    """

    __slots__ = ("_canonical", "_index", "_by_low", "_rows", "partners")

    def __init__(self):
        self._canonical: dict[MPoly, MPoly] = {}
        self._index: dict[int, int] = {}    # id of a canonical variable -> index
        self._by_low: dict[tuple, MPoly] = {}   # x part of the box's low corner
        self._rows: dict[tuple, tuple] = {}
        self.partners: dict[tuple, MPoly] = {}

    def intern(self, p: MPoly) -> MPoly:
        """The canonical object equal to p, p itself when it is new."""
        canonical = self._canonical.setdefault(p, p)
        if canonical is p and id(p) not in self._index:
            self._index[id(p)] = len(self._index)
            if p._t:
                self._by_low.setdefault(p._box()[0][:p.nvars // 2], p)
        return canonical

    def row(self, entries) -> tuple[int, ...]:
        """The canonical tuple of the matrix row `entries`."""
        row = tuple(entries)
        return self._rows.setdefault(row, row)

    def attach(self, seed: Seed) -> Seed:
        """The seed with its variables and rows interned, carrying this memo."""
        return Seed(tuple(map(self.row, seed.matrix)),
                    tuple(map(self.intern, seed.variables)), self)

    def index(self, p: MPoly) -> int:
        """Intern index of a canonical variable."""
        try:
            return self._index[id(p)]
        except KeyError:
            raise InvariantViolation("variable is not interned in this walk") from None

    def exchange_key(self, seed: Seed, i: int) -> tuple:
        """Exchange data of slot i (1-based) of a seed of this walk."""
        s, index = i - 1, self._index
        variables, matrix = seed.variables, seed.matrix
        try:
            column = sorted([(index[id(v)], b) for v, row in zip(variables, matrix)
                             if (b := row[s])])
            old = index[id(variables[s])]
        except KeyError:
            raise InvariantViolation("variable is not interned in this walk") from None
        return (tuple(column), tuple([row[s] for row in matrix[len(variables):]]),
                old)

    def quotient(self, seed: Seed, i: int) -> MPoly:
        """The interned variable that mutation at slot i brings in.

        On a key miss the exchange binomial is built once.  The quotient's
        exponent box is the binomial's minus the old variable's, which
        names the one candidate filed under that d-vector; the candidate
        is certified by one product check.  Only with no candidate, or one
        that fails the check, is the binomial divided exactly."""
        key = self.exchange_key(seed, i)
        new_var = self.partners.get(key)
        if new_var is None:
            old = seed.variables[i - 1]
            binomial = exchange_binomial(seed, i)
            low = tuple([a - b for a, b in zip(binomial._box()[0][:seed.n],
                                               old._box()[0])])
            new_var = self._by_low.get(low)
            if new_var is None or new_var * old != binomial:
                new_var = self.intern(exact_div(binomial, old))
            column, c, _ = key
            reverse = (tuple((k, -b) for k, b in column), tuple(-a for a in c),
                       self.index(new_var))
            self.partners[key], self.partners[reverse] = new_var, old
        return new_var

    def is_partner(self, seed: Seed, i: int, new: MPoly) -> bool:
        """True when `new` is the partner recorded under the exchange key of
        slot i, with no product check: seeds of two keys can share a binomial."""
        return self.partners.get(self.exchange_key(seed, i)) is new


def c_vector(seed: Seed, i: int) -> Vec:
    """Column i (1-based) of the coefficient block, simple-root coordinates."""
    _check_slot(seed, i)
    return tuple([row[i - 1] for row in seed.matrix[seed.n:]])


def d_vector(p: MPoly, n: int) -> Vec:
    """Negated componentwise minimum of the x exponents."""
    if p.is_zero():
        raise ValueError("d-vector of zero")
    return tuple(-a for a in p._box()[0][:n])


def _low_fields(nvars: int, n: int) -> tuple[int, int]:
    """Mask of the fields after the first n, and their value at exponent 0."""
    low = nvars - n
    return (1 << (_WIDTH * low)) - 1, _layout(low).bias


def g_vector(p: MPoly, n: int) -> Vec:
    """x exponent of the unique surviving monomial at y = 0.

    Read in fundamental-weight coordinates.
    """
    mask, zero = _low_fields(p.nvars, n)
    survivors = [(k, c) for k, c in p._t.items() if k & mask == zero]
    if len(survivors) != 1:
        raise InvariantViolation(f"{len(survivors)} monomials survive at y=0")
    (key, coeff), = survivors
    if coeff != 1:
        raise InvariantViolation(f"y=0 monomial has coefficient {coeff}")
    return _layout(p.nvars).unpack(key)[:n]


def f_polynomial(p: MPoly, n: int) -> FPolynomial:
    """Specialization x1 = .. = xn = 1, collected by y exponents."""
    mask, _ = _low_fields(p.nvars, n)
    collected: dict[int, int] = {}
    for k, c in p._t.items():
        y = k & mask
        collected[y] = collected.get(y, 0) + c
    unpack = _layout(p.nvars - n).unpack
    return FPolynomial(n, {unpack(y): c for y, c in collected.items()})


def _format_monomial(exponents, names) -> str:
    parts = [name if e == 1 else f"{name}^{e}" for e, name in zip(exponents, names) if e]
    return "*".join(parts) if parts else "1"


def _format_terms(terms, names) -> str:
    if not terms:
        return "0"
    chunks = []
    for e in sorted(terms, reverse=True):
        c = terms[e]
        mon = _format_monomial(e, names)
        if mon == "1":
            body = str(abs(c))
        elif abs(c) == 1:
            body = mon
        else:
            body = f"{abs(c)}*{mon}"
        if not chunks:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(chunks)


def variable_names(n: int) -> tuple[str, ...]:
    return tuple(f"x{s}" for s in range(1, n + 1)) + tuple(f"y{s}" for s in range(1, n + 1))


def format_laurent(p: MPoly, n: int) -> str:
    """Render as numerator over a monomial denominator when x exponents dip
    below zero, else as a plain polynomial."""
    if p.is_zero():
        return "0"
    names = variable_names(n)
    d = [max(0, m) for m in d_vector(p, n)]
    if all(a == 0 for a in d):
        return _format_terms(p.terms, names)
    shift = MPoly.monomial(2 * n, tuple(d) + (0,) * n)
    num = p * shift
    den = _format_monomial(tuple(d), names[:n])
    if sum(1 for a in d if a > 0) > 1 or max(d) > 1:
        den = f"({den})"
    return f"({_format_terms(num.terms, names)})/{den}"


def format_fpoly(F: FPolynomial) -> str:
    names = tuple(f"y{s}" for s in range(1, F.n + 1))
    return _format_terms(F.terms, names)
