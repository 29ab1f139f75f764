"""Construction trees for linear schemes and stratification combinatorics.

A scheme is described by how it is built: affine cells and tori as
leaves, open/closed decompositions, products, and stratifications as
inner nodes.  Two integer invariants are propagated up such trees.

The glue level (j_linear_level) counts construction depth: how many
decomposition steps separate the scheme from affine pieces.  The range
level (range_level) is the invariant that actually controls where the
graded step acts bijectively on cohomology; it grows strictly slower,
because closed decompositions and stratifications do not raise it.
Both recursions record which rule fired at each node so that verdicts
downstream can cite their derivation.

Stratifications come in two flavours: symbolic (a Stratified node whose
strata are scheme expressions plus a closure order) and realized (a
FinitePosetRealization partitioning an explicit finite point set).  Both
support splitting off a closed stratum at a time, which is how a
stratification is rewritten as a nested closed decomposition.
"""

from __future__ import annotations

import itertools
from operator import and_, attrgetter, invert, or_
from typing import Callable, Iterable, Sequence

from ._frozen import Frozen, replace, set_field
from .witt import TwistLabel

__all__ = [
    "SchemeError",
    "InvalidStratificationError",
    "InternalConsistencyError",
    "SchemeExpr",
    "Empty",
    "Affine",
    "TorusCell",
    "ProjTimesTorus",
    "OpenGlue",
    "ClosedGlue",
    "Product",
    "Stratified",
    "ClosureOrder",
    "RuleApplication",
    "j_linear_level_with_rules",
    "range_level_with_rules",
    "levels_with_rules",
    "split_order",
    "stratification_to_tree",
    "as_torus_cell",
    "torus_cell_as_glue_tree",
    "FinitePosetRealization",
    "VennStratum",
    "VennReport",
    "venn_stratification",
    "scheme_to_json",
    "scheme_from_json",
    "SCHEMA_VERSION",
]

SCHEMA_VERSION = 1


class SchemeError(ValueError):
    """Raised for structurally invalid scheme expressions."""


class InvalidStratificationError(SchemeError):
    """Raised when closure data is not a partial order on the strata."""


class InternalConsistencyError(RuntimeError):
    """Raised when a check that is mathematically forced fails anyway."""


class SchemeExpr(Frozen):
    """Base class for scheme construction trees.

    smooth_flag is a user assertion overriding the structural default;
    None means "derive from the construction".  It is a keyword-only
    argument of every node and the first field of its repr.  _set_shape
    stores it with dim, is_empty and smooth (the flag, or else derived
    from the children's stored values) once, at construction, so reading
    them never walks the tree.

    _subtrees names the fields that hold children (one field: a tuple of
    them), and children() is built from it per class; the other fields
    (_data) are compared node by node.  Equality and hashing walk the
    tree iteratively, so they take trees of any depth.  repr recurses;
    its text grows with the square of the depth anyway.
    """

    _fields: tuple[str, ...] = ("smooth_flag",)
    _subtrees: tuple[str, ...] = ()
    _data = attrgetter("smooth_flag")
    smooth_flag: bool | None = None
    # the class's entry in NODE_KINDS, set when the table is built
    _kind: NodeKind | None = None

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._data = attrgetter(*(f for f in cls._fields if f not in cls._subtrees))
        if cls._subtrees:
            # wrapped, since an attrgetter on a class does not bind as a method
            subtrees = attrgetter(*cls._subtrees)
            cls.children = lambda self: subtrees(self)

    def __init__(self, *, smooth_flag: bool | None = None) -> None:
        set_field(self, "smooth_flag", smooth_flag)

    def _set_shape(self, smooth_flag: bool | None, dim: int, smooth: bool,
                   is_empty: bool = False) -> None:
        set_field(self, "smooth_flag", smooth_flag)
        set_field(self, "dim", dim)
        set_field(self, "is_empty", is_empty)
        set_field(self, "smooth", smooth if smooth_flag is None else smooth_flag)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # pairs of nodes still to compare; stops at the first difference
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is b:
                continue
            if a.__class__ is not b.__class__ or a._data(a) != b._data(b):
                return False
            kids_a, kids_b = a.children(), b.children()
            if len(kids_a) != len(kids_b):
                return False
            pairs.extend(zip(kids_a, kids_b))
        return True

    def __hash__(self) -> int:
        # equal trees give the same post-order rows; type stands in for
        # kind_of, so a bare SchemeExpr hashes too
        return hash(tuple((node._data(node), cls, count)
                          for node, cls, count in derivation(self, type)))

    def assume_smooth(self) -> "SchemeExpr":
        return replace(self, smooth_flag=True)

    def children(self) -> tuple["SchemeExpr", ...]:
        return ()

    def label(self) -> str:
        """Compact form naming this node in provenance records."""
        return fold_rows(derivation(self), "label")

    def j_linear_level(self) -> int:
        """The level of j_linear_level_with_rules, with no label or rule."""
        return fold_rows(derivation(self), "j_level")

    def range_level(self) -> int:
        """The level of range_level_with_rules, with no label or rule."""
        return fold_rows(derivation(self), "range_level")


class Empty(SchemeExpr):
    """The empty scheme; dimension -1 by convention."""

    def __init__(self, *, smooth_flag: bool | None = None) -> None:
        self._set_shape(smooth_flag, -1, True, True)


class Affine(SchemeExpr):
    """Affine space of dimension n."""

    _fields = ("smooth_flag", "n")

    def __init__(self, n: int, *, smooth_flag: bool | None = None) -> None:
        if n < 0:
            raise SchemeError("affine dimension must be non-negative")
        set_field(self, "n", n)
        self._set_shape(smooth_flag, n, True)


class TorusCell(SchemeExpr):
    """A cell A^n x Gm^d: affine space times a split torus."""

    _fields = ("smooth_flag", "n", "d")

    def __init__(self, n: int, d: int, *, smooth_flag: bool | None = None) -> None:
        if n < 0 or d < 0:
            raise SchemeError("torus cell parameters must be non-negative")
        set_field(self, "n", n)
        set_field(self, "d", d)
        self._set_shape(smooth_flag, n + d, True)


class ProjTimesTorus(SchemeExpr):
    """P^c x Gm^e, carrying a line-bundle twist label on the P^c factor."""

    _fields = ("smooth_flag", "c", "e", "twist")

    def __init__(self, c: int, e: int, twist: TwistLabel = TwistLabel.trivial(), *,
                 smooth_flag: bool | None = None) -> None:
        if c < 0 or e < 0:
            raise SchemeError("projective/torus parameters must be non-negative")
        set_field(self, "c", c)
        set_field(self, "e", e)
        set_field(self, "twist", twist)
        self._set_shape(smooth_flag, c + e, True)


class OpenGlue(SchemeExpr):
    """The open complement of a closed piece inside an ambient scheme.

    The closed piece must have strictly smaller dimension than the
    ambient scheme (or be empty), so the complement is dense.
    """

    _fields = ("smooth_flag", "ambient", "closed")
    _subtrees = ("ambient", "closed")

    def __init__(self, ambient: SchemeExpr, closed: SchemeExpr, *,
                 smooth_flag: bool | None = None) -> None:
        if not closed.is_empty and closed.dim >= ambient.dim:
            raise SchemeError(
                "removed closed piece must have smaller dimension than the ambient scheme"
            )
        set_field(self, "ambient", ambient)
        set_field(self, "closed", closed)
        # an open subscheme of a smooth scheme is smooth
        self._set_shape(smooth_flag, ambient.dim, ambient.smooth, ambient.is_empty)


class ClosedGlue(SchemeExpr):
    """A scheme split into a closed piece and its open complement."""

    _fields = ("smooth_flag", "closed", "open_part")
    _subtrees = ("closed", "open_part")

    def __init__(self, closed: SchemeExpr, open_part: SchemeExpr, *,
                 smooth_flag: bool | None = None) -> None:
        set_field(self, "closed", closed)
        set_field(self, "open_part", open_part)
        # gluing a closed stratum back in usually creates singular points;
        # smoothness of the total space is an assertion, not a derivation
        self._set_shape(smooth_flag, max(closed.dim, open_part.dim), False,
                        closed.is_empty and open_part.is_empty)


class Product(SchemeExpr):
    _fields = ("smooth_flag", "left", "right")
    _subtrees = ("left", "right")

    def __init__(self, left: SchemeExpr, right: SchemeExpr, *,
                 smooth_flag: bool | None = None) -> None:
        set_field(self, "left", left)
        set_field(self, "right", right)
        is_empty = left.is_empty or right.is_empty
        self._set_shape(smooth_flag, -1 if is_empty else left.dim + right.dim,
                        left.smooth and right.smooth, is_empty)


def _bits(mask: int) -> Iterable[int]:
    """The indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _check_pairs(size: int, pairs: Iterable[tuple[int, int]]) -> None:
    for i, k in pairs:
        if not (0 <= i < size and 0 <= k < size):
            raise InvalidStratificationError("closure pair out of range")


class ClosureOrder(Frozen):
    """The closure relation on stratum indices, stored reflexively and
    transitively closed.  A pair (i, k) means stratum i lies in the
    closure of stratum k.

    Alongside the pairs, down[k] is the bitset of the strata in the
    closure of stratum k; validation and the order queries run on it.
    """

    _fields = ("size", "relation")

    def __init__(self, size: int, relation: frozenset[tuple[int, int]]) -> None:
        _check_pairs(size, relation)
        down = [0] * size
        for i, k in relation:
            down[k] |= 1 << i
        for k in range(size):
            if not down[k] >> k & 1:
                raise InvalidStratificationError("closure relation must be reflexive")
        # (a, b) and (b, d) force (a, d): down[b] lies inside down[d]
        for below in down:
            if any(down[b] & ~below for b in _bits(below)):
                raise InvalidStratificationError("closure relation must be transitive")
        for a, below in enumerate(down):
            for b in _bits(below >> (a + 1) << (a + 1)):
                if down[b] >> a & 1:
                    raise InvalidStratificationError(
                        "strata %d and %d lie in each other's closure" % (a, b)
                    )
        set_field(self, "size", size)
        set_field(self, "relation", relation)
        set_field(self, "down", tuple(down))

    @classmethod
    def from_pairs(cls, size: int, pairs: Iterable[tuple[int, int]]) -> "ClosureOrder":
        pairs = [(int(a), int(b)) for a, b in pairs]
        _check_pairs(size, pairs)
        down = [1 << i for i in range(size)]
        for a, b in pairs:
            down[b] |= 1 << a
        # transitive closure by Warshall's algorithm over the bitsets
        for k in range(size):
            bit, below = 1 << k, down[k]
            for j in range(size):
                if down[j] & bit:
                    down[j] |= below
        return cls(size, frozenset((i, k) for k in range(size) for i in _bits(down[k])))

    @classmethod
    def discrete(cls, size: int) -> "ClosureOrder":
        return cls.from_pairs(size, ())

    @classmethod
    def chain(cls, size: int) -> "ClosureOrder":
        return cls.from_pairs(size, ((i, i + 1) for i in range(size - 1)))

    def leq(self, i: int, k: int) -> bool:
        """Whether stratum i lies in the closure of stratum k."""
        return (i, k) in self.relation

    def minimal_among(self, indices: Sequence[int]) -> list[int]:
        """Indices whose closure meets no other listed stratum: the closed ones."""
        pool = 0
        for i in indices:
            pool |= 1 << i
        return [i for i in _bits(pool) if self.down[i] & pool == 1 << i]

    def cover_pairs(self) -> list[tuple[int, int]]:
        """Transitive reduction, for canonical printing."""
        strict = [below & ~(1 << b) for b, below in enumerate(self.down)]
        covers = []
        for b, below in enumerate(strict):
            # a < m < b for some m: a sits in the strict closure of such an m
            deeper = 0
            for m in _bits(below):
                deeper |= strict[m]
            covers.extend((a, b) for a in _bits(below & ~deeper))
        return sorted(covers)

    def strict_pairs(self) -> list[tuple[int, int]]:
        return sorted((a, b) for (a, b) in self.relation if a != b)


class Stratified(SchemeExpr):
    """A scheme given by finitely many locally closed strata plus the
    closure relation among them.
    """

    _fields = ("smooth_flag", "strata", "closure_order")
    _subtrees = ("strata",)

    def __init__(self, strata: tuple[SchemeExpr, ...], closure_order: ClosureOrder, *,
                 smooth_flag: bool | None = None) -> None:
        if not strata:
            raise SchemeError("a stratification needs at least one stratum")
        if any(s.is_empty for s in strata):
            raise SchemeError("strata must be nonempty")
        if closure_order.size != len(strata):
            raise InvalidStratificationError(
                "closure order is on %d strata but %d were given"
                % (closure_order.size, len(strata))
            )
        set_field(self, "strata", strata)
        set_field(self, "closure_order", closure_order)
        self._set_shape(smooth_flag, max(s.dim for s in strata), False)

    def to_glue_tree(self, order: tuple[int, ...] | None = None) -> SchemeExpr:
        """Rewrite as nested closed decompositions.

        Split off one stratum at a time, closed in what remains, in
        order, or by default in split_order(closure_order); with a
        single stratum the stratification is the stratum.
        """
        order = order or split_order(self.closure_order)
        tree = self.strata[order[-1]]
        for idx in reversed(order[:-1]):
            tree = ClosedGlue(self.strata[idx], tree)
        return tree


class RuleApplication(Frozen):
    """One rule firing at one tree node: inputs are child levels."""

    _fields = ("node", "rule", "inputs", "level")

    def __init__(self, node: str, rule: str, inputs: tuple[int, ...], level: int) -> None:
        set_field(self, "node", node)
        set_field(self, "rule", rule)
        set_field(self, "inputs", inputs)
        set_field(self, "level", level)


# JSON codecs for node fields.  Subtree fields take the children's
# dicts in children() order; data fields are (encode, JSON type,
# decode) triples, where decode gets a value of exactly that type and
# also sees the decoded children.
_CHILD = "child"
_CHILDREN = "children"
_INT = (lambda v: v, int, lambda v, kids: v)
_TWIST = (lambda t: t.name, str, lambda v, kids: TwistLabel(v))
_ORDER = (lambda o: [list(p) for p in o.strict_pairs()], list,
          lambda v, kids: ClosureOrder.from_pairs(len(kids), _json_pairs(v)))


class NodeKind(Frozen):
    """Everything that differs between node kinds, in one place.

    Each column that fold_rows() reads by name maps (node, the
    children's values) to the node's value.  label gives the compact
    form used in provenance, text the canonical expression that
    grammar.pretty() prints and grammar.parse_expr() reads back (the
    label's form where not given).  j_rule and range_rule are (rule
    name, level function) pairs, and j_level and range_level their level
    functions.  to_json and from_json write and read the JSON form of
    fields, (JSON key, attribute, codec) triples.  cell(node) is (n, d)
    for the leaf kinds that are structurally A^n x Gm^d.
    """

    _fields = ("cls", "name", "fields", "label", "j_rule", "range_rule", "text", "cell")

    def __init__(self, cls: type, name: str, fields: tuple[tuple[str, str, object], ...],
                 label: Callable[[SchemeExpr, list], str],
                 j_rule: tuple[str, Callable[[SchemeExpr, tuple], int]],
                 range_rule: tuple[str, Callable[[SchemeExpr, tuple], int]],
                 text: Callable[[SchemeExpr, list], str] | None = None,
                 cell: Callable[[SchemeExpr], tuple[int, int]] | None = None) -> None:
        set_field(self, "cls", cls)
        set_field(self, "name", name)
        set_field(self, "fields", fields)
        set_field(self, "label", label)
        set_field(self, "j_rule", j_rule)
        set_field(self, "range_rule", range_rule)
        set_field(self, "j_level", j_rule[1])
        set_field(self, "range_level", range_rule[1])
        set_field(self, "text", label if text is None else text)
        set_field(self, "cell", cell)

    def to_json(self, x: SchemeExpr, kids: tuple) -> dict:
        d: dict = {"kind": self.name}
        rest = iter(kids)
        for key, attr, codec in self.fields:
            if codec is _CHILD:
                d[key] = next(rest)
            elif codec is _CHILDREN:
                d[key] = list(rest)
            else:
                d[key] = codec[0](getattr(x, attr))
        if x.smooth_flag is not None:
            d["smooth"] = x.smooth_flag
        return d

    def from_json(self, d: dict, kids: tuple) -> SchemeExpr:
        args: dict = {}
        rest = iter(kids)
        for key, attr, codec in self.fields:
            if codec is _CHILD:
                args[attr] = next(rest)
            elif codec is _CHILDREN:
                args[attr] = tuple(rest)
            else:
                args[attr] = codec[2](_json_field(d, key, codec[1]), kids)
        smooth = _json_field(d, "smooth", bool) if "smooth" in d else None
        return self.cls(**args, smooth_flag=smooth)


# Both printers spell the leaves the same way; label drops the spaces
# around "*" and "@".
def _gm(d: int) -> str:
    return "Gm" if d == 1 else "Gm^%d" % d


def _torus_cell_form(x: TorusCell, star: str) -> str:
    if x.d == 0:
        return "A^%d" % x.n
    return _gm(x.d) if x.n == 0 else "A^%d%s%s" % (x.n, star, _gm(x.d))


def _proj_times_torus_form(x: ProjTimesTorus, star: str, at: str) -> str:
    s = "P^%d" % x.c
    if not x.twist.is_trivial:
        s += at + x.twist.name
    if x.e:
        s += star + _gm(x.e)
    return s


def _product_text(x: Product, kids: list) -> str:
    # the product chain associates left, so a right factor whose text is
    # a product at top level would reassociate and needs parentheses
    r = x.right
    wrap = (isinstance(r, Product) or isinstance(r, ProjTimesTorus) and r.e > 0
            or isinstance(r, TorusCell) and r.n > 0 and r.d > 0)
    return ("%s * (%s)" if wrap else "%s * %s") % tuple(kids)


def _stratified_text(x: Stratified, kids: list) -> str:
    pairs = ", ".join("%d<%d" % p for p in x.closure_order.cover_pairs())
    return "strat(%s; %s)" % (", ".join(kids), pairs)


NODE_KINDS: dict[type, NodeKind] = {kind.cls: kind for kind in (
    NodeKind(
        Empty, "empty", (),
        label=lambda x, kids: "empty",
        j_rule=("leaf-empty", lambda x, lv: 0),
        range_rule=("leaf-empty", lambda x, lv: 0),
    ),
    NodeKind(
        Affine, "affine", (("n", "n", _INT),),
        label=lambda x, kids: "A^%d" % x.n,
        j_rule=("leaf-affine", lambda x, lv: 0),
        range_rule=("leaf-affine", lambda x, lv: 0),
        cell=lambda x: (x.n, 0),
    ),
    NodeKind(
        TorusCell, "torus_cell", (("n", "n", _INT), ("d", "d", _INT)),
        label=lambda x, kids: _torus_cell_form(x, "*"),
        # "Gm^0" parses back to this leaf; "A^0" would parse to an Affine
        text=lambda x, kids: _torus_cell_form(x, " * ") if x.n or x.d else "Gm^0",
        j_rule=("leaf-torus-cell", lambda x, lv: x.d),
        range_rule=("leaf-torus-cell", lambda x, lv: x.d),
        cell=lambda x: (x.n, x.d),
    ),
    NodeKind(
        ProjTimesTorus, "proj_times_torus",
        (("c", "c", _INT), ("e", "e", _INT), ("twist", "twist", _TWIST)),
        label=lambda x, kids: _proj_times_torus_form(x, "*", "@"),
        text=lambda x, kids: _proj_times_torus_form(x, " * ", " @"),
        # c closed cell decompositions for the projective factor, one
        # torus step per Gm factor; for the range the cells are free
        j_rule=("leaf-proj-cell-chain", lambda x, lv: x.c + x.e),
        range_rule=("leaf-proj-cell-strata", lambda x, lv: x.e),
    ),
    NodeKind(
        OpenGlue, "open_glue", (("ambient", "ambient", _CHILD), ("closed", "closed", _CHILD)),
        label=lambda x, kids: "open(%s, %s)" % tuple(kids),
        j_rule=("open-glue-split", lambda x, lv: 1 + max(lv)),
        range_rule=("open-glue-shift", lambda x, lv: max(lv) + 1),
    ),
    NodeKind(
        ClosedGlue, "closed_glue", (("closed", "closed", _CHILD), ("open", "open_part", _CHILD)),
        label=lambda x, kids: "closed(%s, %s)" % tuple(kids),
        j_rule=("closed-glue-split", lambda x, lv: 1 + max(lv)),
        range_rule=("closed-glue-five-lemma", lambda x, lv: max(lv)),
    ),
    NodeKind(
        Product, "product", (("left", "left", _CHILD), ("right", "right", _CHILD)),
        label=lambda x, kids: "%s*%s" % tuple(kids),
        text=_product_text,
        j_rule=("product-sum", lambda x, lv: sum(lv)),
        range_rule=("product-sum", lambda x, lv: sum(lv)),
    ),
    NodeKind(
        Stratified, "stratified",
        (("strata", "strata", _CHILDREN), ("closure_pairs", "closure_order", _ORDER)),
        label=lambda x, kids: "strat[%d]" % len(kids),
        text=_stratified_text,
        # one splitting plus k - 1 further closed decompositions over
        # the worst of the k strata
        j_rule=("stratified-split", lambda x, lv: len(lv) + max(lv)),
        range_rule=("stratified-refinement", lambda x, lv: max(lv)),
    ),
)}

_KINDS_BY_NAME = {kind.name: kind for kind in NODE_KINDS.values()}

# each class carries its kind once, and a subclass inherits its base's
for _kind in NODE_KINDS.values():
    _kind.cls._kind = _kind
del _kind


def kind_of(x: SchemeExpr) -> NodeKind:
    """The table entry for a node (subclasses use their base kind's)."""
    kind = getattr(x, "_kind", None)
    if kind is None:
        raise SchemeError("unknown scheme node %r" % (x,))
    return kind


def derivation(x, kind: Callable = kind_of, children: Callable | None = None) -> list[tuple]:
    """The post-order table of the tree x, from one walk with an explicit
    stack: (node, kind(node), child count) rows, no label or level.  The
    JSON decoder passes its own kind and children, to walk dicts."""
    rows: list = []
    stack: list = [x]
    while stack:
        node = stack.pop()
        kids = node.children() if children is None else children(node)
        rows.append((node, kind(node), len(kids)))
        stack.extend(kids)
    # pre-order, last child first: reversed, the recursive post-order
    rows.reverse()
    return rows


def fold_rows(rows: list, column: str, values: list | None = None,
              inputs: list | None = None):
    """The root's value of the NodeKind column named column over the
    rows of derivation(): getattr(kind, column)(node, the tuple of its
    children's values) at each row, with a stack of values for the tree.
    Each value, and its children's values, also go to values and inputs."""
    stack: list = []
    for node, kind, count in rows:
        if count:
            kids = tuple(stack[-count:])
            del stack[-count:]
        else:
            kids = ()
        value = getattr(kind, column)(node, kids)
        stack.append(value)
        if values is not None:
            values.append(value)
        if inputs is not None:
            inputs.append(kids)
    return stack[0]


def replay(rows: list, table: str) -> tuple[list[str], list[tuple[int, ...]], list[int]]:
    """Rule names, inputs (children's levels) and levels of the rule
    table named table ("j" or "range") over the rows of derivation()."""
    rule, inputs, levels = table + "_rule", [], []
    fold_rows(rows, table + "_level", levels, inputs)
    return [getattr(kind, rule)[0] for _, kind, _ in rows], inputs, levels


def _levels_with_rules(x: SchemeExpr, *tables: str) -> tuple:
    """Level and rule list of x for each rule table named ("j",
    "range"): level, rules, level, rules, ... in the order of tables;
    the records of one node share its label."""
    rows = derivation(x)
    labels: list[str] = []
    fold_rows(rows, "label", labels)
    out: list = []
    for table in tables:
        names, inputs, levels = replay(rows, table)
        out += (levels[-1], tuple(map(RuleApplication, labels, names, inputs, levels)))
    return tuple(out)


def levels_with_rules(x: SchemeExpr) -> tuple[int, tuple[RuleApplication, ...],
                                              int, tuple[RuleApplication, ...]]:
    """(j_level, j_rules, range_level, range_rules) from one table.

    The same levels and records as j_linear_level_with_rules and
    range_level_with_rules; the two records of each node share one
    label string.
    """
    return _levels_with_rules(x, "j", "range")


def j_linear_level_with_rules(x: SchemeExpr) -> tuple[int, tuple[RuleApplication, ...]]:
    """Glue level with the rule applications that witness it.

    Affine pieces sit at level 0; each open or closed decomposition
    costs one level over its parts; a product adds levels; a
    stratification with k strata costs one splitting plus k - 1 further
    closed decompositions over its worst stratum.
    """
    return _levels_with_rules(x, "j")


def range_level_with_rules(x: SchemeExpr) -> tuple[int, tuple[RuleApplication, ...]]:
    """Range level with the rule applications that witness it.

    This is the bound n such that the graded step acts bijectively on
    homology along the diagonal i + j >= n.  Closed decompositions and
    stratifications keep the maximum of their parts (five-lemma on the
    localization sequence); removing a closed piece costs one; products
    add; a torus factor costs one per Gm while projective cells are
    free.
    """
    return _levels_with_rules(x, "range")


def split_order(order: ClosureOrder) -> tuple[int, ...]:
    """The order in which strata are split off as closed pieces.

    At each step pick the lowest-indexed stratum that is minimal in the
    closure order among those remaining; such a stratum is closed in the
    remaining space, so it can be split off by a closed decomposition.
    """
    down = order.down
    remaining = (1 << order.size) - 1
    out: list[int] = []
    while remaining & (remaining - 1):  # two or more left
        pick = next(i for i in _bits(remaining) if down[i] & remaining == 1 << i)
        out.append(pick)
        remaining ^= 1 << pick
    out.extend(_bits(remaining))
    return tuple(out)


def stratification_to_tree(strata: Sequence[SchemeExpr],
                           closure_order: ClosureOrder) -> SchemeExpr:
    """Nested closed decomposition realizing a stratification."""
    return Stratified(tuple(strata), closure_order).to_glue_tree()


def as_torus_cell(x: SchemeExpr) -> tuple[int, int] | None:
    """Recognize trees that are structurally A^n x Gm^d; None otherwise.

    Recognition is purely structural (Affine, TorusCell and products
    thereof); glue trees that happen to describe a torus are not
    chased.  Only the product spine is walked, and the walk stops at the
    first factor that is not a torus-cell leaf.
    """
    n = d = 0
    stack = [x]
    while stack:
        node = stack.pop()
        kind = kind_of(node)
        if kind.cls is Product:
            stack.extend(node.children())
        elif kind.cell is None:
            return None
        else:
            dn, dd = kind.cell(node)
            n, d = n + dn, d + dd
    return (n, d)


def torus_cell_as_glue_tree(n: int, d: int) -> SchemeExpr:
    """A^n x Gm^d built from affine leaves with one open split per torus
    factor; a structural witness that the torus cell has range level d.
    """
    tree: SchemeExpr = Affine(n)
    for _ in range(d):
        tree = Product(tree, OpenGlue(Affine(1), Affine(0)))
    return tree


def json_points(value, what: str) -> list:
    """value, if it is a JSON array of points (anything but an array or
    an object); SchemeError otherwise."""
    if not isinstance(value, list) or any(isinstance(p, (list, dict)) for p in value):
        raise SchemeError("%s must be an array of points" % what)
    return value


def json_point_lists(value, what: str, ground=None) -> list[list]:
    """value, if it is a JSON array of arrays of points, and ground, if
    given, an array of points, with no two distinct points among them
    that compare equal (as 1, 1.0 and true would, in a Python set) or
    that print the same (as 1 and "1" would); SchemeError otherwise."""
    if not isinstance(value, list):
        raise SchemeError("%s must be an array of arrays of points" % what)
    lists = [json_points(v, "each entry of %s" % what) for v in value]
    checked = lists
    if ground is not None:
        what = "ground and %s" % what
        checked = [json_points(ground, "ground"), *lists]
    first: dict = {}
    for points in checked:
        for p in points:
            other = first.setdefault(p, p)
            if other is not p and (type(other) is not type(p) or str(other) != str(p)):
                raise SchemeError("%s holds distinct points %r and %r that compare equal"
                                  % (what, other, p))
    names: dict[str, object] = {}
    for p in first:
        other = names.setdefault(str(p), p)
        if other is not p:
            raise SchemeError("%s holds distinct points %r and %r that print the same"
                              % (what, other, p))
    return lists


class FinitePosetRealization(Frozen):
    """A finite model of a stratified space: a ground set partitioned
    into pieces, with explicit closures given as index sets.

    closure_sets[i] lists the pieces contained in the closure of piece
    i (always including i itself).  Validation enforces that the pieces
    partition the ground set and that "lies in the closure of" is a
    partial order; a cycle of distinct pieces is rejected.
    """

    _fields = ("ground", "pieces", "closure_sets")

    def __init__(self, ground: frozenset, pieces: tuple[frozenset, ...],
                 closure_sets: tuple[frozenset, ...]) -> None:
        ground = frozenset(ground)
        pieces = tuple(frozenset(p) for p in pieces)
        closure_sets = tuple(frozenset(int(i) for i in cs) for cs in closure_sets)
        if len(pieces) != len(closure_sets):
            raise InvalidStratificationError("one closure set per piece required")
        if not pieces:
            raise InvalidStratificationError("at least one piece required")
        seen: set = set()
        for p in pieces:
            if not p:
                raise InvalidStratificationError("pieces must be nonempty")
            if p & seen:
                raise InvalidStratificationError("pieces must be disjoint")
            seen |= p
        if seen != ground:
            raise InvalidStratificationError("pieces must cover the ground set")
        n = len(pieces)
        for i, cs in enumerate(closure_sets):
            if i not in cs:
                raise InvalidStratificationError("piece %d missing from its own closure" % i)
            for k in cs:
                if not 0 <= k < n:
                    raise InvalidStratificationError("closure index out of range")
        # ClosureOrder rejects closure sets that are not transitive or put
        # two pieces in each other's closure, in O(|relation|) steps
        pairs = frozenset((k, i) for i, cs in enumerate(closure_sets) for k in cs)
        set_field(self, "ground", ground)
        set_field(self, "pieces", pieces)
        set_field(self, "closure_sets", closure_sets)
        set_field(self, "_order", ClosureOrder(n, pairs))

    @property
    def size(self) -> int:
        return len(self.pieces)

    def closure_order(self) -> ClosureOrder:
        return self._order

    def closure_points(self, i: int) -> frozenset:
        out: set = set()
        for k in self.closure_sets[i]:
            out |= self.pieces[k]
        return frozenset(out)

    def replay_split(self) -> tuple[int, ...]:
        """Split off closed pieces in the canonical order, verifying at
        each step that the picked piece really is closed in what
        remains of the ground set.  Returns the pick order.

        For validated closure data the verification cannot fail; a
        failure therefore raises InternalConsistencyError.
        """
        order = split_order(self._order)
        space = set(self.ground)
        for idx in order[:-1]:
            visible_closure = self.closure_points(idx) & space
            if visible_closure != self.pieces[idx]:
                raise InternalConsistencyError(
                    "piece %d is not closed in the remaining space" % idx
                )
            space -= self.pieces[idx]
        if space != set(self.pieces[order[-1]]):
            raise InternalConsistencyError("leftover points after the final piece")
        return order

    def to_json(self) -> dict:
        def key(p):
            return sorted(str(x) for x in p)

        return {
            "schema_version": SCHEMA_VERSION,
            "ground": sorted(str(x) for x in self.ground),
            "pieces": [key(p) for p in self.pieces],
            "closure": [sorted(cs) for cs in self.closure_sets],
        }

    @classmethod
    def from_json(cls, data: dict) -> "FinitePosetRealization":
        if not isinstance(data, dict):
            raise InvalidStratificationError("a realization must be a JSON object")
        if data.get("schema_version") != SCHEMA_VERSION:
            raise InvalidStratificationError("unsupported schema_version")
        closure = data["closure"]
        if not isinstance(closure, list) or not all(
                isinstance(cs, list) and all(type(i) is int for i in cs) for cs in closure):
            raise InvalidStratificationError(
                "closure must be an array of arrays of piece indices")
        ground = json_points(data["ground"], "ground")
        pieces = json_point_lists(data["pieces"], "pieces", ground)
        return cls(
            frozenset(ground),
            tuple(frozenset(p) for p in pieces),
            tuple(frozenset(cs) for cs in closure),
        )


class VennStratum(Frozen):
    """One candidate stratum: the points lying in exactly the sets
    indexed by members."""

    _fields = ("members", "points")

    def __init__(self, members: frozenset, points: frozenset) -> None:
        set_field(self, "members", members)
        set_field(self, "points", points)


class VennReport(Frozen):
    _fields = ("strata", "partition_ok", "boundary_ok")

    def __init__(self, strata: tuple[VennStratum, ...], partition_ok: bool,
                 boundary_ok: bool) -> None:
        set_field(self, "strata", strata)
        set_field(self, "partition_ok", partition_ok)
        set_field(self, "boundary_ok", boundary_ok)

    @property
    def nonempty(self) -> tuple[VennStratum, ...]:
        return tuple(s for s in self.strata if s.points)

    def to_realization(self) -> FinitePosetRealization:
        """The nonempty strata as pieces, each closure holding the strata
        whose index sets contain its own.

        For each stratum the closure is read off by whichever is shorter:
        enumerating the supersets of its index mask, or scanning the masks
        of the nonempty strata.  With all 2^n - 1 patterns populated this
        is O(3^n) in all for n sets, and never more than the pairwise
        O(k^2) for k nonempty strata.
        """
        live = self.nonempty
        ground = frozenset().union(*(s.points for s in live)) if live else frozenset()
        index = {sum(1 << j for j in s.members): k for k, s in enumerate(live)}
        full = 0
        for mask in index:
            full |= mask
        closure_sets = []
        for mask in index:
            free = full & ~mask
            if 1 << free.bit_count() > len(index):
                closure_sets.append(frozenset(
                    k for m, k in index.items() if m & mask == mask))
                continue
            closure = []
            extra = 0
            while True:  # every subset of free, in increasing order
                k = index.get(mask | extra)
                if k is not None:
                    closure.append(k)
                if extra == free:
                    break
                extra = (extra - free) & free
            closure_sets.append(frozenset(closure))
        return FinitePosetRealization(ground, tuple(s.points for s in live),
                                      tuple(closure_sets))


def _venn_masks(families: Sequence[int]) -> tuple[list[int], list[int]]:
    """Intersections and strata of n point bitsets, indexed by set masks.

    For a bitset J of set indices, inter[J] holds the points lying in
    every set of J (all points for J = 0) and strata[J] those lying in
    exactly the sets of J.  Both tables are built one set at a time:
    the entries for the J whose highest member is j are those of J
    without j, each cut down or joined up with set j by one map.
    """
    inter = [-1]  # every bit set, so inter[{j}] = families[j]; fixed below
    union = [0]
    for f in families:
        inter += list(map(and_, inter, itertools.repeat(f)))
        union += list(map(or_, union, itertools.repeat(f)))
    inter[0] = union[-1]
    # union read backwards is the union of the sets outside each J
    strata = list(map(and_, inter, map(invert, reversed(union))))
    return inter, strata


def _check_venn(inter: Sequence[int], strata: Sequence[int]) -> None:
    """Verify a decomposition given as bitset tables over set masks J.

    Partition: the strata over nonempty J are pairwise disjoint and
    cover the union inter[0].  Boundary: each full intersection
    inter[J] is the union of the strata whose index set contains J,
    taken for all J at once by a superset-OR transform.  A failure
    raises InternalConsistencyError naming the offending index sets.
    """
    size = len(strata)
    counterexamples: list[str] = []
    seen = 0
    for J in range(1, size):
        if strata[J] & seen:
            counterexamples.append(
                "stratum %r shares points with another stratum" % list(_bits(J)))
        seen |= strata[J]
    if seen != inter[0]:
        counterexamples.append("the strata do not cover the union of the sets")
    # one set index at a time, OR each stratum of J into that of J
    # without the index; the lowest index goes first, and moving each
    # table's even half before its odd half rotates the index bits, so
    # every index comes lowest once and the table ends in its own order
    deeper = list(strata)
    for _ in range(size.bit_length() - 1):
        odd = deeper[1::2]
        deeper = list(map(or_, deeper[::2], odd)) + odd
    counterexamples.extend(
        "closure of stratum %r mismatches its deeper strata" % list(_bits(J))
        for J in range(1, size) if deeper[J] != inter[J]
    )
    if counterexamples:
        raise InternalConsistencyError(
            "venn decomposition checks failed: %s" % "; ".join(counterexamples)
        )


def venn_stratification(sets: Sequence[Iterable], ground: Iterable | None = None) -> VennReport:
    """Decompose a union of n subsets into its 2^n - 1 intersection strata.

    The stratum for a nonempty index set J consists of the points lying
    in every listed set indexed by J and in none of the others.  The
    strata are listed by decreasing size of J, and for each size in the
    order itertools.combinations(range(n), size) gives the J.  Under
    the declared irreducibility of the intersections, the closure of the
    J-stratum is the full intersection over J, so strata order
    themselves by reverse inclusion of index sets.

    The work runs on point bitsets: O(n * 2^n) big-integer operations.
    The partition and boundary claims are verified (see _check_venn); a
    failure is impossible for honest set inputs and raises
    InternalConsistencyError.
    """
    families = [frozenset(s) for s in sets]
    n = len(families)
    if n == 0:
        raise SchemeError("need at least one set")
    universe = frozenset().union(*families)
    if ground is not None:
        declared = frozenset(ground)
        if not universe <= declared:
            raise SchemeError("sets contain points outside the declared ground set")

    points = list(universe)
    bit_of = {p: 1 << i for i, p in enumerate(points)}
    inter, masks = _venn_masks([sum(map(bit_of.__getitem__, f)) for f in families])
    _check_venn(inter, masks)

    strata = []
    empty: frozenset = frozenset()
    bit = [1 << j for j in range(n)]
    for r in range(n, 0, -1):
        # each index set J beside the same set of its bits
        for J, bits in zip(itertools.combinations(range(n), r),
                           itertools.combinations(bit, r)):
            mask = masks[sum(bits)]
            strata.append(VennStratum(
                frozenset(J),
                frozenset(map(points.__getitem__, _bits(mask))) if mask else empty,
            ))
    return VennReport(tuple(strata), True, True)


_JSON_TYPE_NAMES = {int: "an integer", str: "a string", bool: "a boolean",
                    list: "an array", dict: "an object"}


def _json_field(d: dict, key: str, json_type: type):
    """d[key], if d has it and its type is exactly json_type (so true is
    not an integer); SchemeError otherwise."""
    if key not in d:
        raise SchemeError("scheme JSON lacks %r" % key)
    if type(d[key]) is not json_type:
        raise SchemeError("scheme JSON %r must be %s" % (key, _JSON_TYPE_NAMES[json_type]))
    return d[key]


def _json_pairs(value: list) -> list[tuple[int, int]]:
    if not all(type(p) is list and len(p) == 2 and all(type(i) is int for i in p)
               for p in value):
        raise SchemeError("scheme JSON 'closure_pairs' must hold [i, k] index pairs")
    return [tuple(p) for p in value]


def _dict_kind(d: dict) -> NodeKind:
    if type(d) is not dict:
        raise SchemeError("a scheme node must be a JSON object")
    name = d.get("kind")
    kind = _KINDS_BY_NAME.get(name) if isinstance(name, str) else None
    if kind is None:
        raise SchemeError("unknown scheme node kind %r" % (name,))
    return kind


def _dict_children(d: dict) -> list:
    out: list = []
    for key, _, codec in _dict_kind(d).fields:
        if codec is _CHILD:
            out.append(_json_field(d, key, dict))
        elif codec is _CHILDREN:
            out.extend(_json_field(d, key, list))
    return out


def scheme_to_json(x: SchemeExpr) -> dict:
    return {"schema_version": SCHEMA_VERSION, "expr": fold_rows(derivation(x), "to_json")}


def scheme_from_json(data: dict) -> SchemeExpr:
    """The tree scheme_to_json wrote; SchemeError for any other document."""
    if type(data) is not dict:
        raise SchemeError("a scheme document must be a JSON object")
    if data.get("schema_version") != SCHEMA_VERSION:
        raise SchemeError("unsupported schema_version")
    rows = derivation(_json_field(data, "expr", dict), _dict_kind, _dict_children)
    return fold_rows(rows, "from_json")
