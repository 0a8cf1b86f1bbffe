"""A small index-notation expression language.

Lets users evaluate ad-hoc tensor expressions against a loaded instance:

    alt(d{i;m}*Y{;jn}; m,n)
    R{i;jmn} - alt(cd(w{i;jm}; n); m,n) + alt(w{a;jm}*w{i;an}; m,n)

Grammar::

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := NUMBER | NUMBER '/' NUMBER | ref | func '(' expr ';' idx-list ')'
              | '(' expr ')'
    ref    := NAME '{' idx* (';' idx*)? '}'

Indices are single lowercase letters; the part before ';' is upper, after is
lower.  A letter appearing once up and once down contracts (within a
reference or across a product).  ``d`` is the Kronecker delta.  Functions:
``alt(e; a,b)`` plain-difference alternation, ``sym(e; a,b)`` half-sum
symmetrization, ``cd(e; k)`` covariant derivative by the evaluation space's
symmetric part (requires gradient-bearing operands).

Free indices of the result are ordered upper-then-lower, each block sorted
lexicographically.
"""

from __future__ import annotations

import sys
from functools import reduce
from typing import NamedTuple

from . import tensor_core as tc
from .connection import ConnectionSpace
from .jet import (
    JetTensor,
    constant_jet,
    covariant_derivative,
    jet_ein,
    jet_scale_by,
    linear,
)
from .tensor_core import GeoinvError, Tensor


class ParseError(GeoinvError):
    def __init__(self, message: str, line: int, col: int,
                 expected: tuple[str, ...] = ()):
        at = f"line {line}, column {col}"
        exp = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{message} at {at}{exp}")
        self.line = line
        self.col = col
        self.expected = expected


class EvalError(GeoinvError):
    pass


# ---------------------------------------------------------------------------
# AST


class Num(NamedTuple):
    num: int
    den: int


class Ref(NamedTuple):
    name: str
    uppers: tuple[str, ...]
    lowers: tuple[str, ...]


class Chain(NamedTuple):
    """A flat sum or product: ops[k] ('+'/'-' in a sum, '*' in a product)
    stands between args[k] and args[k + 1]; evaluated left to right."""
    ops: tuple[str, ...]
    args: tuple


class Func(NamedTuple):
    kind: str  # 'alt', 'sym', 'cd'
    arg: object
    indices: tuple[str, ...]


def to_source(node) -> str:
    """Render an AST back to parseable text (parse ∘ to_source is identity)."""
    if isinstance(node, Num):
        return str(node.num) if node.den == 1 else f"{node.num}/{node.den}"
    if isinstance(node, Ref):
        return f"{node.name}{{{''.join(node.uppers)};{''.join(node.lowers)}}}"
    if isinstance(node, Func):
        return f"{node.kind}({to_source(node.arg)}; {','.join(node.indices)})"
    if isinstance(node, Chain):
        product = node.ops[0] == "*"
        # a nested sum, or a product in a product, came from parentheses
        first, *rest = (f"({to_source(x)})" if isinstance(x, Chain)
                        and (product or x.ops[0] != "*") else to_source(x)
                        for x in node.args)
        return first + "".join(f"{op}{x}" if product else f" {op} {x}"
                               for op, x in zip(node.ops, rest))
    raise TypeError(f"not an expression node: {node!r}")


def ref_names(node) -> set[str]:
    """The names an expression references."""
    if isinstance(node, Ref):
        return {node.name}
    kids = (node.args if isinstance(node, Chain)
            else (node.arg,) if isinstance(node, Func) else ())
    return set().union(*map(ref_names, kids))


# ---------------------------------------------------------------------------
# tokenizer


class _Token(NamedTuple):
    kind: str  # NAME NUMBER PUNCT END
    text: str
    line: int
    col: int


_PUNCT = set("+-*/(){};,")


def _tokenize(src: str) -> list[_Token]:
    out = []
    line, col = 1, 1
    i = 0
    while i < len(src):
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch in _PUNCT:
            out.append(_Token("PUNCT", ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isdecimal():  # what int() parses; isdigit() also takes '²'
            j = i
            while j < len(src) and src[j].isdecimal():
                j += 1
            if 0 < sys.get_int_max_str_digits() < j - i:
                raise ParseError(f"number of {j - i} digits is too long", line, col)
            out.append(_Token("NUMBER", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(src) and (src[j].isalnum() or src[j] == "_"):
                j += 1
            out.append(_Token("NAME", src[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    out.append(_Token("END", "", line, col))
    return out


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.text != text:
            raise ParseError(f"unexpected {tok.text or 'end of input'!r}",
                             tok.line, tok.col, expected=(repr(text),))
        return self.next()

    # expr, term and factor return (node, (free uppers, free lowers)) and
    # check Einstein usage as each node is built, at the token that breaks it

    def expr(self):
        node, free = self.term()
        ops, args = [], [node]
        while self.peek().text in ("+", "-"):
            op = self.next()
            right, rfree = self.term()
            if rfree != free:
                raise ParseError(
                    f"free indices differ across {op.text!r}: "
                    f"{_fmt(*free)} vs {_fmt(*rfree)}", op.line, op.col)
            ops.append(op.text)
            args.append(right)
        return _chain(ops, args), free

    def term(self):
        node, (lu, ll) = self.factor()
        args = [node]
        while self.peek().text == "*":
            op = self.next()
            right, (ru, rl) = self.factor()
            for x in sorted((lu & ru) | (ll & rl)):
                raise ParseError(
                    f"index {x!r} appears twice in the same position across "
                    f"a product", op.line, op.col)
            args.append(right)
            lu, ll = (lu - rl) | (ru - ll), (ll - ru) | (rl - lu)
        return _chain(["*"] * (len(args) - 1), args), (lu, ll)

    def factor(self):
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.next()
            num = int(tok.text)
            den = 1
            if self.peek().text == "/":
                self.next()
                den_tok = self.peek()
                if den_tok.kind != "NUMBER":
                    raise ParseError(
                        f"unexpected {den_tok.text or 'end of input'!r}",
                        den_tok.line, den_tok.col, expected=("NUMBER",))
                self.next()
                den = int(den_tok.text)
                if den == 0:
                    raise ParseError("zero denominator",
                                     den_tok.line, den_tok.col)
            return Num(num, den), (frozenset(), frozenset())
        if tok.text == "(":
            self.next()
            out = self.expr()
            self.expect(")")
            return out
        if tok.kind == "NAME":
            self.next()
            if self.peek().text == "(":
                if tok.text not in ("alt", "sym", "cd"):
                    raise ParseError(f"unknown function {tok.text!r}",
                                     tok.line, tok.col,
                                     expected=("alt", "sym", "cd"))
                self.next()
                arg, (au, al) = self.expr()
                self.expect(";")
                indices = [self._index()]
                while self.peek().text == ",":
                    self.next()
                    indices.append(self._index())
                self.expect(")")
                want = 1 if tok.text == "cd" else 2
                if len(indices) != want:
                    raise ParseError(
                        f"{tok.text} takes {want} "
                        f"{'index' if want == 1 else 'indices'}, "
                        f"got {len(indices)}", tok.line, tok.col)
                node = Func(tok.text, arg, tuple(indices))
                if tok.text == "cd":
                    k = indices[0]
                    if k in au | al:
                        raise ParseError(
                            f"derivative index {k!r} already free in the "
                            f"operand", tok.line, tok.col)
                    return node, (au, al | {k})
                x, y = indices
                if x == y:
                    raise ParseError(f"{tok.text} needs two distinct indices",
                                     tok.line, tok.col)
                if not ({x, y} <= au or {x, y} <= al):
                    raise ParseError(
                        f"{tok.text} indices {x!r},{y!r} must both be free in "
                        f"the same position kind", tok.line, tok.col)
                return node, (au, al)
            if self.peek().text == "{":
                self.next()
                uppers = []
                while self.peek().kind == "NAME" and self.peek().text != ";":
                    uppers.extend(self._split_indices(self.next()))
                lowers = []
                if self.peek().text == ";":
                    self.next()
                    while self.peek().kind == "NAME":
                        lowers.extend(self._split_indices(self.next()))
                self.expect("}")
                for seq, kind in ((uppers, "upper"), (lowers, "lower")):
                    for x in seq:
                        if seq.count(x) > 1:
                            raise ParseError(
                                f"index {x!r} repeated in {kind} position of "
                                f"{tok.text}", tok.line, tok.col)
                both = set(uppers) & set(lowers)
                return (Ref(tok.text, tuple(uppers), tuple(lowers)),
                        (frozenset(uppers) - both, frozenset(lowers) - both))
            nxt = self.peek()
            raise ParseError(f"unexpected {nxt.text or 'end of input'!r}",
                             nxt.line, nxt.col, expected=("'{'", "'('"))
        raise ParseError(f"unexpected {tok.text or 'end of input'!r}",
                         tok.line, tok.col,
                         expected=("NUMBER", "NAME", "'('"))

    def _index(self) -> str:
        tok = self.peek()
        if tok.kind != "NAME" or len(tok.text) != 1 or not tok.text.islower():
            raise ParseError(
                f"unexpected {tok.text or 'end of input'!r}",
                tok.line, tok.col, expected=("index letter",))
        self.next()
        return tok.text

    def _split_indices(self, tok: _Token) -> list[str]:
        for k, ch in enumerate(tok.text):
            if not (ch.islower() and ch.isalpha()):
                raise ParseError(f"bad index letter {ch!r}",
                                 tok.line, tok.col + k)
        return list(tok.text)


def _chain(ops: list[str], args: list):
    return Chain(tuple(ops), tuple(args)) if ops else args[0]


def _fmt(up, low):
    return "{" + "".join(sorted(up)) + ";" + "".join(sorted(low)) + "}"


def parse(src: str):
    """Parse a source string into an AST, validating index usage."""
    parser = _Parser(_tokenize(src))
    node, _ = parser.expr()
    end = parser.peek()
    if end.kind != "END":
        raise ParseError(f"unexpected {end.text!r}", end.line, end.col,
                         expected=("end of input",))
    return node


# ---------------------------------------------------------------------------
# evaluation


class _Val(NamedTuple):
    uppers: tuple[str, ...]   # slot labels, in tensor slot order
    lowers: tuple[str, ...]
    t: JetTensor | Tensor     # a jet when the gradient is known


def _op(fn, *args, product=None):
    """The tensor function fn on jets when every tensor operand is a jet
    (lifted by ``linear``, or by the product rule ``product`` when fn is
    not linear), else fn on the values; other arguments pass through."""
    if not any(isinstance(x, Tensor) for x in args):
        return product(*args) if product else linear(fn, *args)
    return fn(*(x.value if isinstance(x, JetTensor) else x for x in args))


def _ein(expr: str, valence, *ts):
    return _op(tc.ein, expr, valence, *ts, product=jet_ein)


def _scale_by(t: Tensor, s: Tensor) -> Tensor:
    return tc.scale(t, s.data[0])


def _canon(v: _Val) -> _Val:
    up = tuple(sorted(v.uppers))
    low = tuple(sorted(v.lowers))
    if up == v.uppers and low == v.lowers:
        return v
    expr = f"{''.join(v.uppers + v.lowers)}->{''.join(up + low)}"
    return _Val(up, low, _ein(expr, (len(up), len(low)), v.t))


def _ref_value(node: Ref, bindings, space: ConnectionSpace) -> _Val:
    if node.name == "d":
        bound = constant_jet(tc.delta(space.dim))
    else:
        bound = bindings.get(node.name)
        if bound is None:
            raise EvalError(f"unbound name {node.name!r}")
    if bound.dim != space.dim:
        raise EvalError(
            f"{node.name!r} has dimension {bound.dim}, space has {space.dim}")
    if bound.valence != (len(node.uppers), len(node.lowers)):
        raise EvalError(
            f"{node.name!r} has valence {bound.valence}, reference "
            f"{node.name}{{{''.join(node.uppers)};{''.join(node.lowers)}}} "
            f"needs ({len(node.uppers)},{len(node.lowers)})")
    both = set(node.uppers) & set(node.lowers)
    up = tuple(sorted(x for x in node.uppers if x not in both))
    low = tuple(sorted(x for x in node.lowers if x not in both))
    expr = f"{''.join(node.uppers + node.lowers)}->{''.join(up + low)}"
    return _Val(up, low, _ein(expr, (len(up), len(low)), bound))


def _mul(a: _Val, b: _Val) -> _Val:
    if not a.uppers and not a.lowers:
        a, b = b, a
    if not b.uppers and not b.lowers:
        return _Val(a.uppers, a.lowers,
                    _op(_scale_by, a.t, b.t, product=jet_scale_by))
    la = "".join(a.uppers + a.lowers)
    lb = "".join(b.uppers + b.lowers)
    up = tuple(sorted((set(a.uppers) | set(b.uppers))
                      - (set(a.lowers) | set(b.lowers))))
    low = tuple(sorted((set(a.lowers) | set(b.lowers))
                       - (set(a.uppers) | set(b.uppers))))
    expr = f"{la},{lb}->{''.join(up + low)}"
    return _Val(up, low, _ein(expr, (len(up), len(low)), a.t, b.t))


def _eval(node, bindings, space: ConnectionSpace, dom: tc.Domain) -> _Val:
    if isinstance(node, Num):
        try:
            x = dom.c(node.num, node.den)
        except OverflowError:
            raise EvalError(f"number {to_source(node):.40}... is past the "
                            f"float range") from None
        return _Val((), (), constant_jet(Tensor(space.dim, (0, 0), [x])))
    if isinstance(node, Ref):
        return _ref_value(node, bindings, space)
    if isinstance(node, Chain):
        if node.ops[0] == "*":  # a chain is all products or all sums
            return reduce(_mul, (_eval(x, bindings, space, dom) for x in node.args))
        vals = [_canon(_eval(x, bindings, space, dom)) for x in node.args]
        signs = [1] + [1 if op == "+" else -1 for op in node.ops]
        return _Val(vals[0].uppers, vals[0].lowers, _op(
            lambda *ts: tc.lincomb(zip(signs, ts)), *(v.t for v in vals)))
    if isinstance(node, Func):
        v = _eval(node.arg, bindings, space, dom)
        if node.kind == "cd":
            if not isinstance(v.t, JetTensor):
                raise EvalError(
                    "cd needs gradient data; the operand has none "
                    "(value-only binding or a derivative result)")
            out = covariant_derivative(v.t, space.Lsym)
            return _canon(_Val(v.uppers, v.lowers + (node.indices[0],), out))
        x, y = node.indices
        if {x, y} <= set(v.uppers):
            pa, pb = v.uppers.index(x), v.uppers.index(y)
        else:
            pa = len(v.uppers) + v.lowers.index(x)
            pb = len(v.uppers) + v.lowers.index(y)
        fn = tc.alternate if node.kind == "alt" else tc.sym_pair
        return _Val(v.uppers, v.lowers, _op(fn, v.t, pa, pb))
    raise TypeError(f"not an expression node: {node!r}")


def evaluate(node, bindings, space: ConnectionSpace, dom: tc.Domain) -> Tensor:
    """Evaluate a parsed expression against named (jet) tensors in domain dom.

    Free upper indices come first, then free lower indices, each block in
    lexicographic order.
    """
    t = _canon(_eval(node, bindings, space, dom)).t
    return t.value if isinstance(t, JetTensor) else t
