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

from typing import NamedTuple

from . import tensor_core as tc
from .connection import ConnectionSpace
from .jet import (
    JetTensor,
    constant_jet,
    covariant_derivative,
    jet_add,
    jet_alternate,
    jet_ein,
    jet_scale_by,
    jet_sub,
    jet_sym_pair,
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


class BinOp(NamedTuple):
    op: str  # '+', '-', '*'
    left: object
    right: object


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
    if isinstance(node, BinOp):
        left = to_source(node.left)
        right = to_source(node.right)
        if node.op == "*":
            if isinstance(node.left, BinOp) and node.left.op != "*":
                left = f"({left})"
            if isinstance(node.right, BinOp):
                right = f"({right})"
            return f"{left}*{right}"
        if isinstance(node.right, BinOp) and node.right.op != "*":
            right = f"({right})"
        return f"{left} {node.op} {right}"
    raise TypeError(f"not an expression node: {node!r}")


def ref_names(node) -> set[str]:
    """The names an expression references."""
    if isinstance(node, Ref):
        return {node.name}
    kids = ((node.left, node.right) if isinstance(node, BinOp)
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
        if ch.isdigit():
            j = i
            while j < len(src) and src[j].isdigit():
                j += 1
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

    def expr(self):
        node = self.term()
        while self.peek().text in ("+", "-"):
            op = self.next().text
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek().text == "*":
            self.next()
            node = BinOp("*", node, self.factor())
        return node

    def factor(self):
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.next()
            num = int(tok.text)
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
                return Num(num, den)
            return Num(num, 1)
        if tok.text == "(":
            self.next()
            node = self.expr()
            self.expect(")")
            return node
        if tok.kind == "NAME":
            self.next()
            if self.peek().text == "(":
                if tok.text not in ("alt", "sym", "cd"):
                    raise ParseError(f"unknown function {tok.text!r}",
                                     tok.line, tok.col,
                                     expected=("alt", "sym", "cd"))
                self.next()
                arg = self.expr()
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
                return Func(tok.text, arg, tuple(indices))
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
                return Ref(tok.text, tuple(uppers), tuple(lowers))
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


def _free_indices(node, where: tuple[int, int]):
    """(upper-set, lower-set) of free indices, validating Einstein usage."""
    line, col = where
    if isinstance(node, Num):
        return frozenset(), frozenset()
    if isinstance(node, Ref):
        up, low = node.uppers, node.lowers
        for seq, kind in ((up, "upper"), (low, "lower")):
            for x in seq:
                if seq.count(x) > 1:
                    raise ParseError(
                        f"index {x!r} repeated in {kind} position of "
                        f"{node.name}", line, col)
        both = set(up) & set(low)
        return frozenset(set(up) - both), frozenset(set(low) - both)
    if isinstance(node, BinOp):
        lu, ll = _free_indices(node.left, where)
        ru, rl = _free_indices(node.right, where)
        if node.op == "*":
            for x in sorted((lu & ru) | (ll & rl)):
                raise ParseError(
                    f"index {x!r} appears twice in the same position across "
                    f"a product", line, col)
            return (lu - rl) | (ru - ll), (ll - ru) | (rl - lu)
        if (lu, ll) != (ru, rl):
            raise ParseError(
                f"free indices differ across {node.op!r}: "
                f"{_fmt(lu, ll)} vs {_fmt(ru, rl)}", line, col)
        return lu, ll
    if isinstance(node, Func):
        au, al = _free_indices(node.arg, where)
        if node.kind == "cd":
            k = node.indices[0]
            if k in au | al:
                raise ParseError(
                    f"derivative index {k!r} already free in the operand",
                    line, col)
            return au, al | {k}
        x, y = node.indices
        if x == y:
            raise ParseError(f"{node.kind} needs two distinct indices",
                             line, col)
        if not ({x, y} <= au or {x, y} <= al):
            raise ParseError(
                f"{node.kind} indices {x!r},{y!r} must both be free in the "
                f"same position kind", line, col)
        return au, al
    raise TypeError(f"not an expression node: {node!r}")


def _fmt(up, low):
    return "{" + "".join(sorted(up)) + ";" + "".join(sorted(low)) + "}"


def parse(src: str):
    """Parse a source string into an AST, validating index usage."""
    parser = _Parser(_tokenize(src))
    node = parser.expr()
    end = parser.peek()
    if end.kind != "END":
        raise ParseError(f"unexpected {end.text!r}", end.line, end.col,
                         expected=("end of input",))
    _free_indices(node, (1, 1))
    return node


# ---------------------------------------------------------------------------
# evaluation


class _Val(NamedTuple):
    uppers: tuple[str, ...]   # slot labels, in tensor slot order
    lowers: tuple[str, ...]
    t: JetTensor | Tensor     # a jet when the gradient is known


def _op(jet_fn, fn, *args):
    """jet_fn when every tensor operand is a jet, else fn on the values;
    other arguments pass through."""
    if not any(isinstance(x, Tensor) for x in args):
        return jet_fn(*args)
    return fn(*(x.value if isinstance(x, JetTensor) else x for x in args))


def _ein(expr: str, valence, *ts):
    return _op(jet_ein, tc.ein, expr, valence, *ts)


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
        return _Val(a.uppers, a.lowers, _op(jet_scale_by, _scale_by, a.t, b.t))
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
        t = Tensor(space.dim, (0, 0), [dom.c(node.num, node.den)])
        return _Val((), (), constant_jet(t))
    if isinstance(node, Ref):
        return _ref_value(node, bindings, space)
    if isinstance(node, BinOp):
        a = _eval(node.left, bindings, space, dom)
        b = _eval(node.right, bindings, space, dom)
        if node.op == "*":
            return _mul(a, b)
        a, b = _canon(a), _canon(b)
        fns = (jet_add, tc.add) if node.op == "+" else (jet_sub, tc.sub)
        return _Val(a.uppers, a.lowers, _op(*fns, a.t, b.t))
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
        fns = ((jet_alternate, tc.alternate) if node.kind == "alt"
               else (jet_sym_pair, tc.sym_pair))
        return _Val(v.uppers, v.lowers, _op(*fns, v.t, pa, pb))
    raise TypeError(f"not an expression node: {node!r}")


def evaluate(node, bindings, space: ConnectionSpace) -> Tensor:
    """Evaluate a parsed expression against named (jet) tensors.

    Free upper indices come first, then free lower indices, each block in
    lexicographic order.
    """
    dom = tc.domain_of(space.Lsym.value)
    t = _canon(_eval(node, bindings, space, dom)).t
    return t.value if isinstance(t, JetTensor) else t
