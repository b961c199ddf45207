"""Line-oriented litmus file format.

    test SB;
    init { x=0; y=0; }
    P0: { x <- 1; r0 <- y; }
    P1: { y <- 1; r1 <- x; }
    exists (P0:r0=0 /\\ P1:r1=0);

Identifiers starting with ``r`` are registers; other bare identifiers are
addresses. ``<reg> <- <addr>`` is a read, ``<addr> <- <const>`` a write.
Condition terms bind either a register (``P0:r0=0``) or an address's
final memory value (``x=1``). ``#`` starts a comment.
"""

from __future__ import annotations

import re
import sys
from typing import NamedTuple, Optional

from .enumeration import (
    Condition,
    ConditionTerm,
    LitmusTest,
    MemoryBinding,
    ReadInstr,
    RegisterBinding,
    WriteInstr,
)


class LitmusSyntaxError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int


_TOKEN_RE = re.compile(
    r"""
    (?P<SKIP>[ \t]+|\#[^\n]*)
  | (?P<NEWLINE>\n)
  | (?P<ARROW><-)
  | (?P<AND>/\\)
  | (?P<INT>-?\d+)
  | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<SYM>[;:{}()=])
""",
    re.VERBOSE,
)


def _tokenize(text: str) -> list[Token]:
    tokens = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise LitmusSyntaxError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            )
        kind = m.lastgroup
        assert kind is not None
        if kind == "NEWLINE":
            line += 1
            line_start = m.end()
        elif kind != "SKIP":
            tok_kind = m.group() if kind == "SYM" else kind
            tokens.append(Token(tok_kind, m.group(), line, m.start() - line_start + 1))
        pos = m.end()
    tokens.append(Token("EOF", "", line, pos - line_start + 1))
    return tokens


def _is_register(name: str) -> bool:
    return name.startswith("r")


_PROC_RE = re.compile(r"^P(\d+)$")


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, tok: Optional[Token] = None) -> LitmusSyntaxError:
        tok = tok or self.peek()
        return LitmusSyntaxError(message, tok.line, tok.column)

    def integer(self, tok: Token, digits: Optional[str] = None) -> int:
        """``int(digits or tok.text)``, a syntax error at ``tok`` if too long."""
        try:
            return int(digits or tok.text)
        except ValueError:
            limit = sys.get_int_max_str_digits()
            raise self.error(f"integer has more than {limit} digits", tok) from None

    def expect(self, kind: str, what: str) -> Token:
        tok = self.next()
        if tok.kind != kind:
            raise self.error(f"expected {what}, got {tok.text or 'end of input'!r}", tok)
        return tok

    def parse_test(self) -> LitmusTest:
        header = self.expect("IDENT", "'test'")
        if header.text != "test":
            raise self.error("litmus file must start with 'test <name>;'", header)
        name = self.expect("IDENT", "test name").text
        self.expect(";", "';'")

        initial: list[tuple[str, int]] = []
        if self.peek().kind == "IDENT" and self.peek().text == "init":
            self.next()
            self.expect("{", "'{'")
            while self.peek().kind != "}":
                addr_tok = self.expect("IDENT", "address")
                addr = addr_tok.text
                if _is_register(addr):
                    raise self.error(f"{addr!r} is a register name, not an address")
                if any(a == addr for a, _ in initial):
                    raise self.error(f"duplicate init entry for {addr!r}", addr_tok)
                self.expect("=", "'='")
                value = self.integer(self.expect("INT", "integer"))
                self.expect(";", "';'")
                initial.append((addr, value))
            self.next()

        processes = []
        while self.peek().kind == "IDENT" and _PROC_RE.match(self.peek().text):
            processes.append(self.parse_process(len(processes)))
        if not processes:
            raise self.error("expected at least one process block")

        condition = None
        if self.peek().kind == "IDENT" and self.peek().text == "exists":
            self.next()
            condition = self.parse_condition(processes, {a for a, _ in initial})
        self.expect("EOF", "end of input")

        return LitmusTest(
            name=name,
            processes=tuple(tuple(p) for p in processes),
            initial=tuple(initial),
            condition=condition,
        )

    def parse_process(self, expected_index: int):
        label = self.next()
        m = _PROC_RE.match(label.text)
        assert m is not None
        if self.integer(label, m.group(1)) != expected_index:
            raise self.error(f"expected process P{expected_index}", label)
        self.expect(":", "':'")
        self.expect("{", "'{'")
        instrs = []
        registers: set[str] = set()
        while self.peek().kind != "}":
            dst = self.expect("IDENT", "register or address")
            self.expect("ARROW", "'<-'")
            if _is_register(dst.text):
                if dst.text in registers:
                    raise self.error(f"duplicate register {dst.text!r}", dst)
                registers.add(dst.text)
                src = self.expect("IDENT", "address")
                if _is_register(src.text):
                    raise self.error(f"read source {src.text!r} must be an address", src)
                instrs.append(ReadInstr(src.text, dst.text))
            else:
                value = self.integer(self.expect("INT", "integer constant"))
                instrs.append(WriteInstr(dst.text, value))
            self.expect(";", "';'")
        self.next()
        return instrs

    def parse_condition(self, processes, init_addrs: set[str]) -> Condition:
        self.expect("(", "'('")
        condition = self.parse_terms(processes, init_addrs)
        self.expect(")", "')'")
        self.expect(";", "';'")
        return condition

    def parse_terms(self, processes, init_addrs: set[str]) -> Condition:
        known_addrs = set(init_addrs)
        for instrs in processes:
            known_addrs.update(i.addr for i in instrs)
        terms: list[ConditionTerm] = [self.parse_term(processes, known_addrs)]
        while self.peek().kind == "AND":
            self.next()
            terms.append(self.parse_term(processes, known_addrs))
        return Condition(tuple(terms))

    def parse_term(self, processes, known_addrs: set[str]) -> ConditionTerm:
        head = self.expect("IDENT", "condition term")
        m = _PROC_RE.match(head.text)
        if m is not None and self.peek().kind == ":":
            proc = self.integer(head, m.group(1))
            if proc >= len(processes):
                raise self.error(f"unknown process {head.text}", head)
            self.next()
            reg = self.expect("IDENT", "register")
            if not _is_register(reg.text):
                raise self.error(f"{reg.text!r} is not a register", reg)
            if not any(
                isinstance(i, ReadInstr) and i.register == reg.text
                for i in processes[proc]
            ):
                raise self.error(f"process P{proc} has no register {reg.text!r}", reg)
            self.expect("=", "'='")
            value = self.integer(self.expect("INT", "integer"))
            return RegisterBinding(proc, reg.text, value)
        if _is_register(head.text):
            raise self.error(f"register {head.text!r} needs a 'P<n>:' prefix", head)
        if head.text not in known_addrs:
            raise self.error(f"unknown address {head.text!r}", head)
        self.expect("=", "'='")
        value = self.integer(self.expect("INT", "integer"))
        return MemoryBinding(head.text, value)


def parse_litmus(text: str) -> LitmusTest:
    return _Parser(text).parse_test()


def parse_outcome_binding(text: str, test: LitmusTest) -> Condition:
    """Parse an outcome binding such as 'P0:r0=0 /\\ x=1' against a test."""
    parser = _Parser(text)
    condition = parser.parse_terms(test.processes, {a for a, _ in test.initial})
    parser.expect("EOF", "end of input")
    return condition


def print_litmus(test: LitmusTest) -> str:
    lines = [f"test {test.name};"]
    if test.initial:
        body = " ".join(f"{a}={v};" for a, v in test.initial)
        lines.append(f"init {{ {body} }}")
    for i, instrs in enumerate(test.processes):
        parts = []
        for instr in instrs:
            if isinstance(instr, WriteInstr):
                parts.append(f"{instr.addr} <- {instr.value};")
            else:
                parts.append(f"{instr.register} <- {instr.addr};")
        body = " ".join(parts)
        lines.append(f"P{i}: {{ {body} }}" if parts else f"P{i}: {{ }}")
    if test.condition is not None:
        lines.append(f"exists ({test.condition});")
    return "\n".join(lines) + "\n"
