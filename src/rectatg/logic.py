"""Core syntax: terms, atoms, literals, clauses, clause sets.

All values are immutable and compare structurally.  Negation is a
polarity flag on the literal, so negating twice is the identity by
construction and double negation cannot be represented.
"""

from __future__ import annotations

import re
from collections import Counter
from operator import attrgetter
from typing import AnyStr, Callable, Collection, Iterable, Iterator, Union

from .errors import EmptyClauseError, TooManyAtomsError

# The grammar's ``ident``: the parser reads names with it, and a value
# holds no other name, so every value renders as text the parser reads.
IDENT = r"[A-Za-z][A-Za-z0-9_]*"
_SYMBOL_RE = re.compile(IDENT + r"\Z")

# Field stores for the __init__ of a _Value, which refuses plain assignment.
_set = object.__setattr__


def _check_symbol(name: str, allow_eq: bool = False) -> None:
    if allow_eq and name == "=":
        return
    if not _SYMBOL_RE.match(name):
        raise ValueError(f"bad symbol name: {name!r}")


class _Value:
    """Base of the immutable value classes.

    A subclass lists its fields in ``__slots__`` and stores them in its
    ``__init__`` with ``_set``.  The fields are the public names there;
    a slot whose name starts with ``_`` is a cache, and everything below
    ignores it.  Two values are equal when they are of the same class with
    equal fields; the hash is the field tuple's, computed once and kept
    in the ``_hash`` cache.  The repr reads ``Prop(name='p')``,
    positional patterns match the fields in order, no slot can be
    assigned or deleted, and pickle and ``copy`` rebuild a value by
    calling its class with the fields, so a copy starts with empty
    caches.
    """

    __slots__ = ("_hash",)

    def __init_subclass__(cls):
        fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        get = attrgetter(*fields)
        # attrgetter of a single name gives the bare value, not a tuple.
        cls._fields = staticmethod(get if len(fields) > 1 else lambda v: (get(v),))
        cls.__match_args__ = fields

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) == other._fields(other)
        return NotImplemented

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            _set(self, "_hash", hash(self._fields(self)))
            return self._hash

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields(self)


class Constant(_Value):
    __slots__ = ("name",)

    def __init__(self, name: str):
        _check_symbol(name)
        _set(self, "name", name)

    def __str__(self) -> str:
        return self.name


class Variable(_Value):
    __slots__ = ("name",)

    def __init__(self, name: str):
        _check_symbol(name)
        _set(self, "name", name)

    def __str__(self) -> str:
        return self.name


class Function(_Value):
    __slots__ = ("name", "args")

    def __init__(self, name: str, args: Iterable[Term]):
        _check_symbol(name)
        args = tuple(args)
        if not args:
            raise ValueError("a function term needs at least one argument")
        _set(self, "name", name)
        _set(self, "args", args)

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


Term = Union[Constant, Variable, Function]


class Prop(_Value):
    """Propositional variable."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        _check_symbol(name)
        _set(self, "name", name)

    @property
    def symbol(self) -> str:
        return self.name

    def __str__(self) -> str:
        return self.name


class Pred(_Value):
    """Predicate applied to terms.  "=" is an ordinary binary predicate here."""

    __slots__ = ("predicate", "args")

    def __init__(self, predicate: str, args: Iterable[Term] = ()):
        _check_symbol(predicate, allow_eq=True)
        args = tuple(args)
        if predicate == "=" and len(args) != 2:
            raise ValueError("'=' takes exactly two arguments")
        _set(self, "predicate", predicate)
        _set(self, "args", args)

    @property
    def symbol(self) -> str:
        return self.predicate

    def __str__(self) -> str:
        if self.predicate == "=":
            return f"{self.args[0]}={self.args[1]}"
        if not self.args:
            return f"{self.predicate}()"
        return f"{self.predicate}({', '.join(str(a) for a in self.args)})"


Atom = Union[Prop, Pred]

# What ClauseSet.masks returns: atoms, one pass of (pos, neg) pairs, first-appearance clauses.
Masks = tuple[tuple[Atom, ...], Iterable[tuple[int, int]], Collection[int]]


class Literal(_Value):
    __slots__ = ("atom", "negated")

    def __init__(self, atom: Atom, negated: bool = False):
        _set(self, "atom", atom)
        _set(self, "negated", negated)

    def __str__(self) -> str:
        return f"¬{self.atom}" if self.negated else str(self.atom)


def negate_literal(lit: Literal) -> Literal:
    """Complement of a literal.  Applying it twice gives the original back."""
    return Literal(lit.atom, not lit.negated)


def complementary(a: Literal, b: Literal) -> bool:
    """True when the two literals clash: same atom, opposite polarity."""
    return a.atom == b.atom and a.negated != b.negated


# How Clause.__str__ joins literals and renders the empty clause.
OR_TEXT, BOX_TEXT = " ∨ ", "□"


class Clause:
    """Disjunction of literals.

    Literal order is kept (it mirrors the row order of the rectangle a
    clause came from) but equality and hashing treat the literals as a
    multiset, so reordered clauses compare equal.
    """

    __slots__ = ("literals", "_key")

    def __init__(self, literals: Iterable[Literal] = ()):
        self.literals: tuple[Literal, ...] = tuple(literals)
        self._key = None

    def _multiset_key(self):
        if self._key is None:
            self._key = frozenset(Counter(self.literals).items())
        return self._key

    def __eq__(self, other) -> bool:
        if not isinstance(other, Clause):
            return NotImplemented
        return self._multiset_key() == other._multiset_key()

    def __hash__(self) -> int:
        return hash(self._multiset_key())

    def __iter__(self) -> Iterator[Literal]:
        return iter(self.literals)

    def __len__(self) -> int:
        return len(self.literals)

    def __str__(self) -> str:
        if not self.literals:
            return BOX_TEXT
        return OR_TEXT.join(str(l) for l in self.literals)

    def __repr__(self) -> str:
        return f"Clause({str(self)})"


EMPTY_CLAUSE = Clause()


def negate_clause(clause: Clause) -> tuple[Literal, ...]:
    """Literal-wise complements of a clause, in clause order.

    The conjunction of the returned literals is the negation of the
    clause.  The empty clause has no negation in clause form.
    """
    if not clause.literals:
        raise EmptyClauseError("the empty clause cannot be negated literal-wise")
    return tuple(negate_literal(l) for l in clause.literals)


class ClauseSet:
    """Ordered collection of clauses.

    An empty ClauseSet (no clauses, satisfiable) is a different value
    from a ClauseSet holding just the empty clause (unsatisfiable).
    The hash is the length's: equal sets have equal lengths, and a
    rectangle view (``rectangle.ColumnSet``) knows its length without
    building a Clause.
    """

    __slots__ = ("clauses",)

    def __init__(self, clauses: Iterable[Clause] = ()):
        self.clauses: tuple[Clause, ...] = tuple(clauses)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClauseSet):
            return NotImplemented
        return self.clauses == other.clauses

    def __hash__(self) -> int:
        return hash(len(self))

    def __iter__(self) -> Iterator[Clause]:
        return iter(self.clauses)

    def __len__(self) -> int:
        return len(self.clauses)

    def __getitem__(self, i):
        return self.clauses[i]

    def blocks(
        self, token: Callable[[Literal], AnyStr], sep: AnyStr
    ) -> Iterator[tuple[list[AnyStr], AnyStr]]:
        """Each clause's literals rendered by ``token`` and joined by ``sep``,
        in clause order, in blocks ``(texts, tail)``: each clause of a
        block is one of ``texts`` followed by ``tail``.

        Here every clause is a block of its own with an empty tail, and
        the empty clause gives the empty text.  Tokens may be ``str`` or
        ``bytes``, as long as ``sep`` is of the same type; the empty
        tail is ``sep[:0]``.  A rectangle view (``rectangle.ColumnSet``)
        yields larger blocks whose clauses all have the same number of
        literals.
        """
        empty = sep[:0]
        for clause in self.clauses:
            yield [sep.join(map(token, clause.literals))], empty

    def masks(self, max_atoms: int, index: dict[Atom, int] | None = None) -> Masks:
        """The atoms in first-appearance order, one ``(pos, neg)`` bit-mask
        pair per clause, and the indices of the clauses that hold some
        atom's first appearance.

        Atom i is bit i: ``pos`` holds a clause's positive atoms and
        ``neg`` its negated ones.  A given ``index`` numbers the atoms it
        holds and is extended with the new ones.  The atom cap is checked
        as each new atom appears, so a set over too many atoms is refused
        part way.  The masks are read in one pass; a caller that needs a
        second asks again.  A rectangle view (``rectangle.ColumnSet``)
        computes them from the cell rule as they are read.

        >>> p, q = Literal(Prop("p")), Literal(Prop("q"), True)
        >>> atoms, masks, firsts = ClauseSet([Clause([q]), Clause([p, q])]).masks(24)
        >>> [str(a) for a in atoms], masks, firsts
        (['q', 'p'], [(0, 1), (2, 1)], {0, 1})
        """
        index = {} if index is None else index
        masks, firsts = [], set()
        for j, clause in enumerate(self.clauses):
            known = len(index)
            pos = neg = 0
            for lit in clause.literals:
                bit = 1 << index.setdefault(lit.atom, len(index))
                if len(index) > max_atoms:
                    raise TooManyAtomsError(len(index), max_atoms)
                if lit.negated:
                    neg |= bit
                else:
                    pos |= bit
            masks.append((pos, neg))
            if len(index) > known:
                firsts.add(j)
        return tuple(index), masks, firsts

    def __repr__(self) -> str:
        return f"ClauseSet([{', '.join(str(c) for c in self.clauses)}])"


def collect_atoms(clauses: Iterable[Clause]) -> tuple[Atom, ...]:
    """Distinct atoms in first-appearance order (clause order, then literal order)."""
    return tuple(dict.fromkeys(lit.atom for clause in clauses for lit in clause))
