"""Stage 1 of the semantics pipeline: parse the mini-SAIL DSL into the
simplified IR (the paper's OCaml-script-to-JSON stage, §3.2.4).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..floats import FLOAT_OPS
from ..ir import (
    BinOp, CondEffect, Const, Effect, Expr, Extend, FloatOp, ILen, ITE,
    MemRead, MemWrite, OperandRef, PC, PCWrite, RegRef, RegWrite, Semantics,
    UnOp,
)


class SailParseError(ValueError):
    """Raised for malformed DSL text."""


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*)
  | (?P<num>0x[0-9a-fA-F]+|\d+)
  | (?P<op> >=s | >=u | >>l | >>a | <s | <u | == | != | << | /s | /u | %s | %u
        | [-+*&|^~(){},;=] )
  | (?P<ident>[A-Za-z_][A-Za-z0-9_.]*)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[str]:
    out: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise SailParseError(f"bad character {text[pos]!r} at offset {pos}")
        pos = m.end()
        if m.lastgroup in ("ws", "comment"):
            continue
        out.append(m.group())
    return out


@dataclass
class _Stream:
    tokens: list[str]
    pos: int = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        if self.pos >= len(self.tokens):
            raise SailParseError("unexpected end of input")
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise SailParseError(f"expected {tok!r}, got {got!r}")

    def accept(self, tok: str) -> bool:
        if self.peek() == tok:
            self.pos += 1
            return True
        return False


#: Binary operator precedence, low to high.  Each level lists
#: (token, IR op).
_PRECEDENCE: tuple[tuple[tuple[str, str], ...], ...] = (
    (("|", "or"),),
    (("^", "xor"),),
    (("&", "and"),),
    (("==", "eq"), ("!=", "ne"), ("<s", "lts"), ("<u", "ltu"),
     (">=s", "ges"), (">=u", "geu")),
    (("<<", "sll"), (">>l", "srl"), (">>a", "sra")),
    (("+", "add"), ("-", "sub")),
    (("*", "mul"), ("/s", "divs"), ("/u", "divu"),
     ("%s", "rems"), ("%u", "remu")),
)

_BUILTIN_BINOPS = {"mulh", "mulhu", "mulhsu", "divs", "divu", "rems", "remu"}
_BUILTIN_UNOPS = {"clz", "ctz", "cpop"}

#: Immediate-like operand field names usable bare in expressions.
_OPERAND_NAMES = {"imm", "shamt", "csr", "zimm", "rm"}


def _parse_expr(s: _Stream, level: int = 0) -> Expr:
    if level >= len(_PRECEDENCE):
        return _parse_unary(s)
    expr = _parse_expr(s, level + 1)
    table = dict(_PRECEDENCE[level])
    while s.peek() in table:
        tok = s.next()
        rhs = _parse_expr(s, level + 1)
        expr = BinOp(table[tok], expr, rhs)
    return expr


def _parse_unary(s: _Stream) -> Expr:
    tok = s.peek()
    if tok == "-":
        s.next()
        return UnOp("neg", _parse_unary(s))
    if tok == "~":
        s.next()
        return UnOp("not", _parse_unary(s))
    return _parse_primary(s)


def _parse_primary(s: _Stream) -> Expr:
    tok = s.next()
    if tok == "(":
        e = _parse_expr(s)
        s.expect(")")
        return e
    if re.fullmatch(r"0x[0-9a-fA-F]+|\d+", tok):
        return Const(int(tok, 0))
    if tok in ("X", "F"):
        s.expect("(")
        name = s.next()
        s.expect(")")
        return RegRef("x" if tok == "X" else "f", name)
    if tok == "pc":
        return PC()
    if tok == "ilen":
        return ILen()
    if tok in ("sext", "zext"):
        s.expect("(")
        e = _parse_expr(s)
        s.expect(",")
        w = int(s.next(), 0)
        s.expect(")")
        return Extend(tok, e, w)
    if tok == "mem":
        s.expect("(")
        addr = _parse_expr(s)
        s.expect(",")
        size = int(s.next(), 0)
        s.expect(")")
        return MemRead(addr, size)
    if tok == "ite":
        s.expect("(")
        c = _parse_expr(s)
        s.expect(",")
        t = _parse_expr(s)
        s.expect(",")
        f = _parse_expr(s)
        s.expect(")")
        return ITE(c, t, f)
    if tok in _BUILTIN_BINOPS:
        s.expect("(")
        a = _parse_expr(s)
        s.expect(",")
        b = _parse_expr(s)
        s.expect(")")
        return BinOp(tok, a, b)
    if tok in _BUILTIN_UNOPS:
        s.expect("(")
        a = _parse_expr(s)
        s.expect(")")
        return UnOp(tok, a)
    if tok in FLOAT_OPS:
        s.expect("(")
        args = [_parse_expr(s)]
        while s.accept(","):
            args.append(_parse_expr(s))
        s.expect(")")
        if len(args) != FLOAT_OPS[tok].__code__.co_argcount:
            raise SailParseError(f"{tok}: wrong number of arguments")
        return FloatOp(tok, tuple(args))
    if tok in _OPERAND_NAMES:
        return OperandRef(tok)
    raise SailParseError(f"unexpected token {tok!r} in expression")


def _parse_statement(s: _Stream) -> Effect | None:
    tok = s.peek()
    if tok == "skip":
        s.next()
        return None
    if tok == "if":
        s.next()
        cond = _parse_expr(s)
        then = _parse_block(s)
        otherwise: tuple[Effect, ...] = ()
        if s.accept("else"):
            otherwise = _parse_block(s)
        return CondEffect(cond, then, otherwise)
    if tok == "pc":
        s.next()
        s.expect("=")
        return PCWrite(_parse_expr(s))
    if tok in ("X", "F"):
        s.next()
        s.expect("(")
        name = s.next()
        s.expect(")")
        s.expect("=")
        return RegWrite("x" if tok == "X" else "f", name, _parse_expr(s))
    if tok == "mem":
        s.next()
        s.expect("(")
        addr = _parse_expr(s)
        s.expect(",")
        size = int(s.next(), 0)
        s.expect(")")
        s.expect("=")
        return MemWrite(addr, size, _parse_expr(s))
    raise SailParseError(f"unexpected token {tok!r} at statement start")


def _parse_block(s: _Stream) -> tuple[Effect, ...]:
    s.expect("{")
    effects: list[Effect] = []
    while not s.accept("}"):
        eff = _parse_statement(s)
        if eff is not None:
            effects.append(eff)
        if s.peek() == ";":
            s.next()
    return tuple(effects)


def parse_sail(text: str) -> dict[str, Semantics]:
    """Parse a whole DSL document into {mnemonic: Semantics}."""
    s = _Stream(_tokenize(text))
    out: dict[str, Semantics] = {}
    while s.peek() is not None:
        mnemonic = s.next()
        if not re.fullmatch(r"[a-z][a-z0-9_.]*", mnemonic):
            raise SailParseError(f"bad mnemonic {mnemonic!r}")
        effects = _parse_block(s)
        if mnemonic in out:
            raise SailParseError(f"duplicate clause for {mnemonic!r}")
        out[mnemonic] = Semantics(mnemonic, effects)
    return out
