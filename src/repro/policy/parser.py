"""Recursive-descent parser (the Bison stand-in).

Grammar::

    policy      := permission+
    permission  := PERM ':-' condition
    PERM        := 'read' | 'update' | 'delete' | 'destroy'
    condition   := clause ('\\/' clause)*
    clause      := predicate ('/\\' predicate)*
    predicate   := IDENT '(' [term (',' term)*] ')'
    term        := sum
    sum         := atom (('+'|'-') atom)*
    atom        := INT | STRING | HASH | PUBKEY
                 | 'NULL' | 'this' | 'log'
                 | IDENT '(' args ')'        # tuple with term args
                 | STRING '(' args ')'       # quoted tuple name
                 | IDENT                     # variable

``destroy`` normalizes to ``delete``.  A permission missing from the
policy is never granted (deny by default).  Tuple terms nest at most
:data:`MAX_TERM_DEPTH` deep: the parser, the compiler and the evaluator
all recurse per level, and a client-supplied policy must be refused as
a syntax error, not by the interpreter's recursion limit.
"""

from __future__ import annotations

from repro.errors import PolicySyntaxError
from repro.policy.ast import (
    Arith,
    Clause,
    HashValue,
    IntValue,
    Literal,
    NullValue,
    ObjectRef,
    Permission,
    PolicyAst,
    Predicate,
    PubKeyValue,
    StrValue,
    TupleTerm,
    Variable,
)
from repro.policy.lexer import Token, TokenType, tokenize

_OPERATIONS = {"read": "read", "update": "update", "delete": "delete",
               "destroy": "delete"}
_OBJECT_REFS = {"this", "log"}

#: Deepest ``f(g(h(...)))`` accepted.  Each level costs four parser
#: frames: 800 of the default recursion limit's 1 000 at the bound,
#: which leaves room for the request path (some 15 frames) above it.
MAX_TERM_DEPTH = 200


class _Parser:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._index = 0
        self._depth = 0

    # -- token plumbing -----------------------------------------------------

    @property
    def _current(self) -> Token:
        return self._tokens[self._index]

    def _advance(self) -> Token:
        token = self._current
        if token.type is not TokenType.EOF:
            self._index += 1
        return token

    def _expect(self, token_type: TokenType) -> Token:
        token = self._current
        if token.type is not token_type:
            raise self._error(
                f"expected {token_type.value!r}, found {token.text or 'EOF'!r}"
            )
        return self._advance()

    def _error(self, message: str) -> PolicySyntaxError:
        token = self._current
        return PolicySyntaxError(message, line=token.line, column=token.column)

    # -- grammar ---------------------------------------------------------------

    def parse(self) -> PolicyAst:
        permissions = []
        seen: set[str] = set()
        while self._current.type is not TokenType.EOF:
            permission = self._permission()
            if permission.operation in seen:
                raise self._error(
                    f"duplicate permission {permission.operation!r}"
                )
            seen.add(permission.operation)
            permissions.append(permission)
        if not permissions:
            raise self._error("policy has no permissions")
        return PolicyAst(permissions=tuple(permissions))

    def _permission(self) -> Permission:
        token = self._expect(TokenType.IDENT)
        operation = _OPERATIONS.get(token.text.lower())
        if operation is None:
            raise PolicySyntaxError(
                f"unknown permission {token.text!r} "
                "(expected read/update/delete)",
                line=token.line,
                column=token.column,
            )
        self._expect(TokenType.GRANT)
        clauses = [self._clause()]
        while self._current.type is TokenType.OR:
            self._advance()
            clauses.append(self._clause())
        return Permission(operation=operation, clauses=tuple(clauses))

    def _clause(self) -> Clause:
        predicates = [self._predicate()]
        while self._current.type is TokenType.AND:
            self._advance()
            predicates.append(self._predicate())
        return Clause(predicates=tuple(predicates))

    def _predicate(self) -> Predicate:
        token = self._expect(TokenType.IDENT)
        self._expect(TokenType.LPAREN)
        args = self._args()
        self._expect(TokenType.RPAREN)
        return Predicate(name=token.text, args=tuple(args))

    def _args(self) -> list:
        if self._current.type is TokenType.RPAREN:
            return []
        args = [self._term()]
        while self._current.type is TokenType.COMMA:
            self._advance()
            args.append(self._term())
        return args

    def _term(self):
        left = self._atom()
        while self._current.type in (TokenType.PLUS, TokenType.MINUS):
            op_token = self._advance()
            right = self._atom()
            left = Arith(op=op_token.text, left=left, right=right)
        return left

    def _atom(self):
        token = self._current
        if token.type is TokenType.INT:
            self._advance()
            return Literal(IntValue(int(token.text)))
        if token.type is TokenType.HASH:
            self._advance()
            return Literal(HashValue(token.text))
        if token.type is TokenType.PUBKEY:
            self._advance()
            return Literal(PubKeyValue(token.text))
        if token.type is TokenType.STRING:
            self._advance()
            if self._current.type is TokenType.LPAREN:
                return self._tuple_term(token.text)
            return Literal(StrValue(token.text))
        if token.type is TokenType.IDENT:
            self._advance()
            lowered = token.text.lower()
            if lowered == "null":
                return Literal(NullValue())
            if self._current.type is TokenType.LPAREN:
                return self._tuple_term(token.text)
            if lowered in _OBJECT_REFS:
                return ObjectRef(lowered)
            return Variable(token.text)
        raise self._error(f"expected a term, found {token.text or 'EOF'!r}")

    def _tuple_term(self, name: str) -> TupleTerm:
        self._expect(TokenType.LPAREN)
        self._depth += 1
        if self._depth > MAX_TERM_DEPTH:
            raise self._error(
                f"terms nested more than {MAX_TERM_DEPTH} deep"
            )
        args = self._args()
        self._depth -= 1
        self._expect(TokenType.RPAREN)
        return TupleTerm(name=name, args=tuple(args))


def parse_policy(source: str) -> PolicyAst:
    """Parse policy source text into an AST."""
    return _Parser(tokenize(source)).parse()
