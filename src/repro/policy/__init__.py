"""The Pesos policy engine (§3.3).

A policy grants the three permissions ``read``, ``update`` and
``delete`` (``destroy`` is accepted as an alias for ``delete``), each
guarded by a condition in disjunctive normal form over the predicates
of Table 1.  The pipeline mirrors the paper's:

1. :mod:`repro.policy.lexer` + :mod:`repro.policy.parser` — the
   human-readable source (Flex/Bison stand-ins) into an AST.
2. :mod:`repro.policy.compiler` — AST into the compact *binary format*
   (:mod:`repro.policy.binary`): a constant pool plus per-permission
   predicate programs, identified by their content hash.
3. :mod:`repro.policy.compiled` — the one evaluator: turns a compiled
   policy into per-clause closures once, then evaluates them against
   an :class:`~repro.policy.context.EvalContext` using Guardat's
   "compare or set" variable semantics, behind a decision cache.

The package re-exports nothing: import the submodule.  Example::

    from repro.policy.compiler import compile_policy

    policy = compile_policy('''
        read   :- sessionKeyIs(k'<alice>') \\/ sessionKeyIs(k'<bob>')
        update :- sessionKeyIs(k'<alice>')
        delete :- sessionKeyIs(k'<admin>')
    ''')
"""
