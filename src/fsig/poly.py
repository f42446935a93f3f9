"""Exact arithmetic layer: prime fields, monomials, term orders, sparse polynomials.

A polynomial is a dict mapping exponent tuples to coefficients in [1, p-1].
The zero polynomial has an empty term dict.  All values are immutable after
construction and safe to share.

Every other module builds on this one, so it also holds what they share:
the Record base of the package's plain records, the error classes the CLI
turns into exit codes, and the ceiling conventions of a pair system.
"""

from __future__ import annotations

from operator import add, attrgetter, neg
from typing import Dict, Tuple

Exponents = Tuple[int, ...]

CEILING_MODES = ("pminusone", "pe")  # a pair's level exponent: ceil(t*(p^e - 1)) or ceil(t*p^e)


class Record:
    """A plain record over the names in _fields, kept in __slots__.

    Records compare field by field, and only with records of the same class;
    they print as Name(field=value, ...) and are unhashable.  A FrozenRecord
    is immutable and hashes by its fields.  __init__ binds positional values
    to _fields in order, then keywords; an omitted field takes its value from
    the class's _defaults, and a surplus, unknown, repeated or missing field
    is a TypeError.  A subclass that validates does so after super().__init__.
    Each subclass gets _values, one attrgetter over its _fields.
    """

    __slots__ = ()
    _fields: Tuple[str, ...] = ()
    _defaults: Dict[str, object] = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls._fields:
            cls._values = attrgetter(*cls._fields)
        if cls._defaults.keys() - set(cls._fields):
            raise TypeError(f"{cls.__name__}._defaults names a key outside _fields {cls._fields}")

    def __init__(self, *args, **kwargs):
        name, fields = self.__class__.__qualname__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} fields but {len(args)} were given")
        given = dict(zip(fields, args))
        for key in kwargs:
            if key in given or key not in fields:
                problem = "multiple values for" if key in given else "an unexpected"
                raise TypeError(f"{name}() got {problem} field {key!r}")
        values = {**self._defaults, **given, **kwargs}
        for field in fields:
            if field not in values:
                raise TypeError(f"{name}() missing field {field!r}")
            object.__setattr__(self, field, values[field])

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    __hash__ = None

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({body})"


class FrozenRecord(Record):
    """A Record whose fields are set once, in __init__, and that hashes by them."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen record")

    def __hash__(self):
        return hash(self._values(self))


class ResourceLimitError(RuntimeError):
    """A configured pair/basis cap was hit; distinct from any mathematical failure."""

    def __init__(self, message: str, pairs_done: int = 0, basis_size: int = 0):
        super().__init__(message)
        self.pairs_done = pairs_done
        self.basis_size = basis_size


class InternalInvariantError(RuntimeError):
    """An internal consistency check failed; indicates a bug, not bad input."""


class InfeasibleError(RuntimeError):
    """The requested mode cannot be run on this input (e.g. ratio without purity)."""


class RingMismatchError(ValueError):
    """Operands belong to different polynomial rings."""


class PolyParseError(ValueError):
    """Polynomial text that does not match the grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.message = message
        self.position = position


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; exact for every modulus that fits a machine word."""
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d, r = p - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class PrimeField(FrozenRecord):
    """The field Z/pZ with canonical representatives in [0, p)."""

    __slots__ = _fields = ("p",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0 in prime field")
        return pow(a, -1, self.p)


class TermOrder(FrozenRecord):
    """Total multiplicative well-order on monomials.

    kind is "degrevlex", "lex" or "block".  A block order compares the first
    block_size exponents degrevlex-first and falls through to the inner
    order, which makes it an elimination order for the leading variables.

    key(exps), with key(a) > key(b) iff a > b, is one flat function built once:
    the degree, then the negated reversed exponents, for degrevlex; for a block
    order, those of its head, then the inner order's (inlined if degrevlex).
    key is not a field: it takes no part in equality, hashing or the repr.
    """

    _fields = ("kind", "block_size", "inner")
    __slots__ = _fields + ("key",)
    _defaults = {"kind": "degrevlex", "block_size": 0, "inner": None}

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        kind, b, inner = self._values(self)
        if kind not in ("degrevlex", "lex", "block"):
            raise ValueError(f"unknown term order {kind!r}")
        if kind == "block" and (b < 1 or inner is None):
            raise ValueError("block order needs block_size >= 1 and an inner order")
        if kind == "lex":
            key = tuple
        elif kind == "degrevlex":
            def key(exps):
                return (sum(exps), *map(neg, reversed(exps)))
        elif inner.kind == "degrevlex":
            def key(exps):
                head, tail = exps[:b], exps[b:]
                return (sum(head), *map(neg, reversed(head)), sum(tail), *map(neg, reversed(tail)))
        else:
            def key(exps, inner=inner.key):
                return (sum(exps[:b]), *map(neg, reversed(exps[:b])), *inner(exps[b:]))
        object.__setattr__(self, "key", key)

    def greater(self, a: Exponents, b: Exponents) -> bool:
        return self.key(a) > self.key(b)


DEGREVLEX = TermOrder("degrevlex")
LEX = TermOrder("lex")


class PolyRing(FrozenRecord):
    """Ring handle: modulus, ordered variable names, the term order.

    The ring owns its term order: leading terms, printing and every Groebner
    computation in the ring use it.  Variable order is declaration order; all
    iteration that reaches output is sorted, so runs are reproducible.
    """

    __slots__ = _fields = ("field", "variables", "order")
    _defaults = {"order": DEGREVLEX}

    @staticmethod
    def make(p: int, variables, order: TermOrder = DEGREVLEX) -> "PolyRing":
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        if not variables:
            raise ValueError("need at least one variable")
        return PolyRing(PrimeField(p), variables, order)

    @property
    def p(self) -> int:
        return self.field.p

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c: int) -> "Polynomial":
        return Polynomial(self, {(0,) * self.nvars: c})

    def variable(self, name: str) -> "Polynomial":
        idx = self.variables.index(name)
        exps = [0] * self.nvars
        exps[idx] = 1
        return Polynomial(self, {tuple(exps): 1})

    def monomial(self, exps, coeff: int = 1) -> "Polynomial":
        exps = tuple(exps)
        if len(exps) != self.nvars or any(e < 0 for e in exps):
            raise ValueError(f"bad exponent vector {exps}")
        return Polynomial(self, {exps: coeff})

    def parse(self, text: str) -> "Polynomial":
        return parse_polynomial(text, self)

    def extended(self) -> "PolyRing":
        """Ring with one fresh variable in front under an elimination order."""
        name = "t"
        k = 0
        while name in self.variables:
            name = f"t{k}"
            k += 1
        order = TermOrder("block", 1, self.order)
        return PolyRing(self.field, (name,) + self.variables, order)


class Polynomial:
    """Sparse multivariate polynomial over a prime field.

    Stored zero-coefficient-free; term iteration for printing is sorted by
    the ring's term order so canonical text is unique.
    """

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: PolyRing, terms: Dict[Exponents, int], reduce: bool = True):
        if reduce:
            p = ring.p
            terms = {m: c % p for m, c in terms.items() if c % p}
        self.ring = ring
        self.terms = terms
        self._hash = None

    # -- queries --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(m) for m in self.terms)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def leading_term(self) -> Tuple[Exponents, int]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms, key=self.ring.order.key)
        return m, self.terms[m]

    def sorted_terms(self):
        key = self.ring.order.key
        return sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True)

    # -- arithmetic -----------------------------------------------------

    def _check_ring(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise RingMismatchError(
                f"mixed rings: {self.ring.variables} mod {self.ring.p} vs "
                f"{other.ring.variables} mod {other.ring.p}"
            )

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        p = self.ring.p
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = (out.get(m, 0) + c) % p
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return Polynomial(self.ring, out, reduce=False)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        p = self.ring.p
        return Polynomial(self.ring, {m: p - c for m, c in self.terms.items()}, reduce=False)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        p = self.ring.p
        out: Dict[Exponents, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(map(add, m1, m2))
                v = (out.get(m, 0) + c1 * c2) % p
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
        return Polynomial(self.ring, out, reduce=False)

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def scale(self, c: int) -> "Polynomial":
        p = self.ring.p
        c %= p
        if c == 0:
            return self.ring.zero()
        return Polynomial(self.ring, {m: (v * c) % p for m, v in self.terms.items()}, reduce=False)

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        _, lc = self.leading_term()
        return self.scale(self.ring.field.inv(lc))

    def monomial_shift(self, exps: Exponents) -> "Polynomial":
        """self * x^exps, cheaper than building the factor first."""
        return Polynomial(self.ring, {tuple(map(add, m, exps)): c for m, c in self.terms.items()}, reduce=False)

    def frobenius(self, e: int) -> "Polynomial":
        """self**(p**e), via exponent scaling: coefficients in F_p are fixed."""
        if e < 1:
            raise ValueError("frobenius power needs e >= 1")
        q = self.ring.p ** e
        return Polynomial(
            self.ring, {tuple(u * q for u in m): c for m, c in self.terms.items()}, reduce=False
        )

    # -- equality / printing --------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self.terms.items())))
        return self._hash

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        names = self.ring.variables
        for m, c in self.sorted_terms():
            factors = []
            for v, e in zip(names, m):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append(f"{v}^{e}")
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            else:
                parts.append(str(c) + "*" + "*".join(factors))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"<{self} over F_{self.ring.p}[{','.join(self.ring.variables)}]>"


def poly_arith(f: Polynomial, g: Polynomial, op: str) -> Polynomial:
    """Exact add/sub/mul; results are canonical (no stored zero terms)."""
    if op == "add":
        return f + g
    if op == "sub":
        return f - g
    if op == "mul":
        return f * g
    raise ValueError(f"unknown op {op!r}")


def frobenius_power(f: Polynomial, e: int) -> Polynomial:
    return f.frobenius(e)


# -- parsing ------------------------------------------------------------

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_DIGITS = set("0123456789")  # ASCII only: str.isdigit also takes digits that int() rejects
_IDENT_CONT = _IDENT_START | _DIGITS


def is_identifier(name: str) -> bool:
    """True iff name is a whole variable name of the polynomial grammar."""
    return name[:1] in _IDENT_START and all(ch in _IDENT_CONT for ch in name[1:])


def parse_polynomial(text: str, ring: PolyRing) -> Polynomial:
    """Parse a signed sum of terms; term = coefficient? ("*"? var ("^" int)?)+.

    Integer coefficients are reduced mod p; unknown identifiers and malformed
    syntax raise PolyParseError with the offending offset.
    """
    n = len(text)
    pos = 0
    var_index = {v: i for i, v in enumerate(ring.variables)}
    terms: Dict[Exponents, int] = {}
    p = ring.p

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos] in " \t":
            pos += 1

    def parse_int() -> int:
        nonlocal pos
        start = pos
        while pos < n and text[pos] in _DIGITS:
            pos += 1
        if pos == start:
            raise PolyParseError("expected an integer", start)
        return int(text[start:pos])

    def parse_ident() -> str:
        nonlocal pos
        start = pos
        pos += 1
        while pos < n and text[pos] in _IDENT_CONT:
            pos += 1
        return text[start:pos]

    skip_ws()
    if pos == n:
        raise PolyParseError("empty polynomial", pos)
    sign = 1
    if text[pos] in "+-":
        sign = -1 if text[pos] == "-" else 1
        pos += 1

    while True:
        skip_ws()
        coeff = None
        exps = [0] * ring.nvars
        if pos < n and text[pos] in _DIGITS:
            coeff = parse_int()
        saw_factor = False
        while True:
            skip_ws()
            mark = pos
            if pos < n and text[pos] == "*":
                pos += 1
                skip_ws()
                if pos >= n or text[pos] not in _IDENT_START:
                    raise PolyParseError("expected a variable after '*'", pos)
            if pos < n and text[pos] in _IDENT_START:
                start = pos
                name = parse_ident()
                if name not in var_index:
                    raise PolyParseError(f"unknown variable {name!r}", start)
                exp = 1
                if pos < n and text[pos] == "^":
                    pos += 1
                    exp = parse_int()
                exps[var_index[name]] += exp
                saw_factor = True
            else:
                pos = mark
                break
        if coeff is None and not saw_factor:
            raise PolyParseError("expected a term", pos)
        c = (coeff if coeff is not None else 1) * sign % p
        m = tuple(exps)
        v = (terms.get(m, 0) + c) % p
        if v:
            terms[m] = v
        else:
            terms.pop(m, None)

        skip_ws()
        if pos == n:
            break
        if text[pos] == "+":
            sign = 1
        elif text[pos] == "-":
            sign = -1
        else:
            raise PolyParseError(f"unexpected character {text[pos]!r}", pos)
        pos += 1

    return Polynomial(ring, terms, reduce=False)
