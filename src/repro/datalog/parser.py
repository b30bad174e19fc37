"""A small textual syntax for datalog rules and facts.

The syntax is the conventional one used in the ORCHESTRA papers::

    OPS(org, prot, seq) :- O(org, oid), P(prot, pid), S(oid, pid, seq).
    S(SK_oid(org), SK_pid(prot), seq) :- OPS(org, prot, seq).
    O('E. coli', 17).

Conventions:

* identifiers starting with a lower-case letter or ``?`` are variables
  (``org``, ``?X``); identifiers starting with an upper-case letter inside a
  term position are also variables when they are not quoted — constants are
  written as quoted strings, numbers, ``true``/``false`` or ``null``;
* ``not`` before an atom negates it;
* ``SK_name(args)`` in a term position is a skolem term;
* comparisons use ``=``, ``!=``, ``<``, ``<=``, ``>``, ``>=``;
* a rule may be prefixed with a label: ``[m1] head :- body.``
* an atom may be *peer-qualified*: ``@Alaska.O(org, oid)`` names relation
  ``O`` of peer ``Alaska`` (the atom's predicate becomes ``"Alaska.O"``).
  Peer-qualified atoms are how the declarative network-spec language of
  :mod:`repro.api` writes tgd mappings across peers;
* :func:`parse_tgd` reads a (possibly multi-head) tuple-generating
  dependency ``[label] head1, head2 :- body.`` in which head variables may
  be existential.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator

from ..errors import DatalogParseError, SourceSpan
from .ast import Atom, Comparison, Constant, Fact, Program, Rule, SkolemTerm, Term, Variable


@dataclass(frozen=True)
class ParsedTgd:
    """A parsed tuple-generating dependency ``[label] heads :- body.``

    Unlike :class:`~repro.datalog.ast.Rule`, a tgd may have several head
    atoms, and head variables that do not occur in the body are *existential*
    (they become labelled nulls during update exchange) rather than unsafe.
    """

    heads: tuple[Atom, ...]
    body: tuple[Atom, ...]
    label: str | None = None
    span: SourceSpan | None = field(default=None, compare=False, repr=False)

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<at>@)
  | (?P<lbracket>\[)
  | (?P<rbracket>\])
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<comma>,)
  | (?P<period>\.(?!\d))
  | (?P<implies>:-)
  | (?P<op><=|>=|!=|==|<|>|=)
  | (?P<number>-?\d+(\.\d+)?)
  | (?P<string>'(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*")
  | (?P<name>[A-Za-z_?][A-Za-z0-9_?]*)
    """,
    re.VERBOSE,
)


class _Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int = 1, column: int = 1) -> None:
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.kind}:{self.text}@{self.line}:{self.column}"


def _tokenize(text: str, first_line: int = 1) -> list[_Token]:
    """Tokenize ``text``, recording the 1-based line/column of each token.

    ``first_line`` offsets line numbers when the text is a fragment embedded
    in a larger document (a mapping clause inside a network spec).
    """
    tokens: list[_Token] = []
    position = 0
    line = first_line
    line_start = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            column = position - line_start + 1
            raise DatalogParseError(
                f"unexpected character {text[position]!r} at line {line}, "
                f"column {column} (offset {position}) in {text!r}",
                line=line,
                column=column,
            )
        kind = match.lastgroup or ""
        if kind != "ws":
            tokens.append(_Token(kind, match.group(), line, position - line_start + 1))
        segment = match.group()
        if "\n" in segment:
            line += segment.count("\n")
            line_start = match.start() + segment.rfind("\n") + 1
        position = match.end()
    return tokens


class _Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, tokens: list[_Token], source: str) -> None:
        self._tokens = tokens
        self._source = source
        self._index = 0

    def _peek(self) -> _Token | None:
        if self._index < len(self._tokens):
            return self._tokens[self._index]
        return None

    def _error(self, message: str, token: _Token | None = None) -> DatalogParseError:
        """Build a parse error carrying the position of the offending token."""
        if token is None and self._tokens:
            token = self._tokens[min(self._index, len(self._tokens) - 1)]
        if token is not None:
            return DatalogParseError(
                f"{message} at line {token.line}, column {token.column} "
                f"in {self._source!r}",
                line=token.line,
                column=token.column,
            )
        return DatalogParseError(f"{message} in {self._source!r}")

    def _last_token(self) -> _Token | None:
        if 0 < self._index <= len(self._tokens):
            return self._tokens[self._index - 1]
        return None

    def _span_from(self, start: _Token | None) -> SourceSpan | None:
        """Span from ``start`` to the most recently consumed token."""
        if start is None:
            return None
        last = self._last_token()
        if last is None:
            return SourceSpan(start.line, start.column)
        return SourceSpan(
            start.line,
            start.column,
            end_line=last.line,
            end_column=last.column + len(last.text),
        )

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            raise self._error("unexpected end of input", self._last_token())
        self._index += 1
        return token

    def _expect(self, kind: str) -> _Token:
        token = self._next()
        if token.kind != kind:
            raise self._error(f"expected {kind} but found {token.text!r}", token)
        return token

    def at_end(self) -> bool:
        return self._index >= len(self._tokens)

    def parse_rule(self) -> Rule:
        label = None
        start = self._peek()
        token = start
        if token is not None and token.kind == "lbracket":
            self._next()
            label = self._expect("name").text
            self._expect("rbracket")
        head = self.parse_atom()
        body: list = []
        token = self._peek()
        if token is not None and token.kind == "implies":
            self._next()
            body.append(self.parse_body_literal())
            while True:
                token = self._peek()
                if token is not None and token.kind == "comma":
                    self._next()
                    body.append(self.parse_body_literal())
                else:
                    break
        token = self._peek()
        if token is not None and token.kind == "period":
            self._next()
        return Rule(head, tuple(body), label=label, span=self._span_from(start))

    def parse_tgd(self) -> ParsedTgd:
        label = None
        start = self._peek()
        token = start
        if token is not None and token.kind == "lbracket":
            self._next()
            label = self._expect("name").text
            self._expect("rbracket")
        heads = [self.parse_atom()]
        while True:
            token = self._peek()
            if token is not None and token.kind == "comma":
                self._next()
                heads.append(self.parse_atom())
            else:
                break
        self._expect("implies")
        body = [self.parse_body_literal()]
        while True:
            token = self._peek()
            if token is not None and token.kind == "comma":
                self._next()
                body.append(self.parse_body_literal())
            else:
                break
        token = self._peek()
        if token is not None and token.kind == "period":
            self._next()
        for literal in body:
            if not isinstance(literal, Atom):
                raise self._error(
                    f"tgd bodies may not contain comparisons: {literal!r}", start
                )
        return ParsedTgd(
            tuple(heads), tuple(body), label=label, span=self._span_from(start)
        )

    def parse_body_literal(self):
        token = self._peek()
        if token is None:
            raise self._error("unexpected end of body", self._last_token())
        if token.kind == "name" and token.text == "not":
            self._next()
            atom = self.parse_atom()
            return atom.negate()
        # Either an atom or a comparison; decide by looking ahead for an
        # operator after the first term.
        checkpoint = self._index
        try:
            left = self.parse_term()
            token = self._peek()
            if token is not None and token.kind == "op":
                op = self._next().text
                right = self.parse_term()
                return Comparison(op, left, right)
        except DatalogParseError:
            pass
        self._index = checkpoint
        return self.parse_atom()

    def parse_atom(self) -> Atom:
        token = self._peek()
        start = token
        qualifier = None
        if token is not None and token.kind == "at":
            # A peer-qualified atom: @Peer.Relation(terms).
            self._next()
            qualifier = self._expect("name").text
            self._expect("period")
        name = self._expect("name").text
        if qualifier is not None:
            name = f"{qualifier}.{name}"
        self._expect("lparen")
        terms: list[Term] = []
        token = self._peek()
        if token is not None and token.kind != "rparen":
            terms.append(self.parse_term())
            while True:
                token = self._peek()
                if token is not None and token.kind == "comma":
                    self._next()
                    terms.append(self.parse_term())
                else:
                    break
        self._expect("rparen")
        return Atom(name, tuple(terms), span=self._span_from(start))

    def parse_term(self) -> Term:
        token = self._next()
        if token.kind == "number":
            text = token.text
            return Constant(float(text) if "." in text else int(text))
        if token.kind == "string":
            raw = token.text[1:-1]
            return Constant(raw.replace("\\'", "'").replace('\\"', '"'))
        if token.kind == "name":
            name = token.text
            lowered = name.lower()
            if lowered == "true":
                return Constant(True)
            if lowered == "false":
                return Constant(False)
            if lowered in {"null", "none"}:
                return Constant(None)
            next_token = self._peek()
            if next_token is not None and next_token.kind == "lparen":
                # A skolem/function term.
                self._next()
                arguments: list[Term] = []
                token2 = self._peek()
                if token2 is not None and token2.kind != "rparen":
                    arguments.append(self.parse_term())
                    while True:
                        token2 = self._peek()
                        if token2 is not None and token2.kind == "comma":
                            self._next()
                            arguments.append(self.parse_term())
                        else:
                            break
                self._expect("rparen")
                return SkolemTerm(name, tuple(arguments))
            if name.startswith("?"):
                return Variable(name[1:])
            return Variable(name)
        raise self._error(f"unexpected token {token.text!r} in term position", token)


def parse_rule(text: str, *, validate: bool = True, origin_line: int = 1) -> Rule:
    """Parse a single rule (or fact written as a ground rule).

    Args:
        text: Rule source text.
        validate: When true (default), check rule safety and raise
            :class:`~repro.errors.UnsafeRuleError` for range-unrestricted
            rules.  The static analyzer parses with ``validate=False`` so it
            can report *every* unsafe rule instead of dying on the first.
        origin_line: 1-based line number of ``text`` inside its enclosing
            document; offsets the spans attached to the rule and its atoms.
    """
    parser = _Parser(_tokenize(text, origin_line), text)
    rule = parser.parse_rule()
    if not parser.at_end():
        raise parser._error("trailing input after rule")
    if validate:
        rule.validate()
    return rule


def parse_tgd(text: str, *, origin_line: int = 1) -> ParsedTgd:
    """Parse a tuple-generating dependency ``[label] head1, head2 :- body.``

    Head atoms may share a comma-separated list before ``:-`` (split
    mappings need several), and atoms on either side may be peer-qualified
    (``@Crete.OPS(org, prot, seq)``).  Variables appearing only in the heads
    are existential, so no safety check is applied to them; negated body
    atoms are rejected because tgds are positive.
    """
    parser = _Parser(_tokenize(text, origin_line), text)
    tgd = parser.parse_tgd()
    if not parser.at_end():
        raise parser._error("trailing input after tgd")
    for atom in tgd.body:
        if atom.negated:
            raise DatalogParseError(
                f"tgd bodies may not contain negation in {text!r}", span=atom.span
            )
    return tgd


def parse_atom(text: str) -> Atom:
    """Parse a single (possibly non-ground) atom."""
    parser = _Parser(_tokenize(text), text)
    atom = parser.parse_atom()
    if not parser.at_end():
        raise parser._error("trailing input after atom")
    return atom


def parse_fact(text: str) -> Fact:
    """Parse a ground fact such as ``O('E. coli', 17).``"""
    parser = _Parser(_tokenize(text), text)
    atom = parser.parse_atom()
    token = parser._peek()
    if token is not None and token.kind == "period":
        parser._next()
    if not parser.at_end():
        raise parser._error("trailing input after fact")
    values = []
    for term in atom.terms:
        if isinstance(term, Constant) or (isinstance(term, SkolemTerm) and term.is_ground):
            values.append(_ground_value(term))
        else:
            raise DatalogParseError(f"fact {text!r} contains non-ground term {term!r}")
    return Fact(atom.predicate, tuple(values))


def _ground_value(term):
    """The value a ground term denotes: a constant's value, or the labelled
    null a skolem term over ground arguments builds (equal to the same null
    built anywhere else)."""
    if isinstance(term, Constant):
        return term.value
    if isinstance(term, SkolemTerm):
        arguments = tuple(_ground_value(argument) for argument in term.arguments)
        return SkolemTerm(term.function, arguments)
    return term


def _iter_statements(text: str) -> Iterator[tuple[str, int]]:
    """Split program text into ``(statement, start_line)`` pairs.

    Quotes and comments are respected; ``start_line`` is the 1-based line on
    which the statement's first non-whitespace character appears, so spans of
    parsed rules can be mapped back into the original document.
    """
    statement: list[str] = []
    start_line: int | None = None
    in_string: str | None = None
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line
        if in_string is None:
            comment = stripped.find("%")
            if comment != -1:
                stripped = stripped[:comment]
            comment = stripped.find("#")
            if comment != -1:
                stripped = stripped[:comment]
        for position, char in enumerate(stripped):
            if in_string:
                statement.append(char)
                if char == in_string:
                    in_string = None
                continue
            if char in "'\"":
                in_string = char
                if start_line is None:
                    start_line = number
                statement.append(char)
                continue
            if start_line is None and not char.isspace():
                start_line = number
            statement.append(char)
            if char == ".":
                # A "." immediately followed by an identifier character is
                # part of a qualified name (@Peer.Relation) or a decimal
                # number, not a statement terminator.
                following = stripped[position + 1] if position + 1 < len(stripped) else ""
                if following.isalnum() or following == "_":
                    continue
                candidate = "".join(statement).strip()
                if candidate and candidate != ".":
                    yield candidate, start_line if start_line is not None else number
                statement = []
                start_line = None
        statement.append("\n")
    remainder = "".join(statement).strip()
    if remainder:
        yield remainder, start_line if start_line is not None else 1


def parse_program(text: str, *, validate: bool = True) -> Program:
    """Parse a newline/period separated list of rules into a :class:`Program`.

    Lines starting with ``%`` or ``#`` are comments.  With ``validate=False``
    unsafe rules are admitted (the static analyzer uses this to report every
    safety violation rather than raising on the first).
    """
    program = Program()
    for statement, line in _iter_statements(text):
        rule = parse_rule(statement, validate=validate, origin_line=line)
        if validate:
            program.add(rule)
        else:
            program.rules.append(rule)
    return program
