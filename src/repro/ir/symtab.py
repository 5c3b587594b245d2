"""Symbol tables and name resolution.

Fortran 77 name binding is simple but idiosyncratic: undeclared names get
implicit types from their first letter (I-N integer, everything else real,
unless an ``IMPLICIT`` statement overrides), arrays must be declared, and a
``NAME(args)`` reference is an array element exactly when ``NAME`` is
declared with dimensions -- otherwise it is a function call.

:func:`build_symbol_table` digests a unit's declarations;
:func:`resolve_unit` then rewrites every ambiguous :class:`~repro.fortran.
ast.NameRef` in the unit body into an ``ArrayRef`` or ``FuncRef``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..fortran import ast


class SemanticError(Exception):
    pass


@dataclass
class Symbol:
    name: str
    type_name: str                       # INTEGER REAL DOUBLEPRECISION ...
    dims: tuple[ast.DimSpec, ...] = ()   # () for scalars
    #: "local" | "argument" | "common" | "parameter" | "function"
    storage: str = "local"
    common_block: str | None = None
    param_value: ast.Expr | None = None  # for PARAMETER constants
    declared: bool = False               # explicitly typed?
    saved: bool = False
    external: bool = False

    @property
    def is_array(self) -> bool:
        return bool(self.dims)

    @property
    def rank(self) -> int:
        return len(self.dims)


@dataclass
class SymbolTable:
    unit_name: str
    symbols: dict[str, Symbol] = field(default_factory=dict)
    implicit_none: bool = False
    #: letter -> type name, per IMPLICIT rules (default F77 rules applied).
    implicit_map: dict[str, str] = field(default_factory=dict)
    #: common block name -> ordered member names
    common_blocks: dict[str, list[str]] = field(default_factory=dict)

    def implicit_type(self, name: str) -> str:
        c = name[0].upper()
        if c in self.implicit_map:
            return self.implicit_map[c]
        return "INTEGER" if "I" <= c <= "N" else "REAL"

    def get(self, name: str) -> Symbol | None:
        return self.symbols.get(name.upper())

    def lookup(self, name: str) -> Symbol:
        """Get a symbol, creating an implicitly-typed scalar if unknown."""
        key = name.upper()
        sym = self.symbols.get(key)
        if sym is None:
            if self.implicit_none:
                raise SemanticError(
                    f"{self.unit_name}: {key} used without declaration "
                    "under IMPLICIT NONE")
            sym = Symbol(key, self.implicit_type(key))
            self.symbols[key] = sym
        return sym

    def is_array(self, name: str) -> bool:
        sym = self.get(name)
        return sym is not None and sym.is_array

    def arrays(self) -> list[Symbol]:
        return [s for s in self.symbols.values() if s.is_array]

    def scalars(self) -> list[Symbol]:
        return [s for s in self.symbols.values()
                if not s.is_array and s.storage != "function"]


_DEFAULT_LETTERS = {c: ("INTEGER" if "I" <= c <= "N" else "REAL")
                    for c in "ABCDEFGHIJKLMNOPQRSTUVWXYZ"}


def build_symbol_table(unit: ast.ProgramUnit) -> SymbolTable:
    """Collect declarations from a program unit into a symbol table."""
    st = SymbolTable(unit_name=unit.name)

    def ensure(name: str) -> Symbol:
        key = name.upper()
        if key not in st.symbols:
            st.symbols[key] = Symbol(key, st.implicit_type(key))
        return st.symbols[key]

    # IMPLICIT statements first: they govern later implicit typing.
    for s, _ in ast.walk_stmts(unit.body):
        if isinstance(s, ast.ImplicitStmt):
            if s.rules is None:
                st.implicit_none = True
            else:
                for tname, ranges in s.rules:
                    for a, b in ranges:
                        for o in range(ord(a[0]), ord(b[0]) + 1):
                            st.implicit_map[chr(o)] = tname

    for s, _ in ast.walk_stmts(unit.body):
        if isinstance(s, ast.TypeDecl):
            for ent in s.entities:
                sym = ensure(ent.name)
                sym.type_name = s.type_name
                sym.declared = True
                if ent.dims:
                    sym.dims = ent.dims
        elif isinstance(s, ast.DimensionStmt):
            for ent in s.entities:
                sym = ensure(ent.name)
                sym.dims = ent.dims
        elif isinstance(s, ast.CommonStmt):
            for block, ents in s.blocks_:
                members = st.common_blocks.setdefault(block, [])
                for ent in ents:
                    sym = ensure(ent.name)
                    sym.storage = "common"
                    sym.common_block = block
                    if ent.dims:
                        sym.dims = ent.dims
                    members.append(ent.name.upper())
        elif isinstance(s, ast.ParameterStmt):
            for name, value in s.defs:
                sym = ensure(name)
                sym.storage = "parameter"
                sym.param_value = value
        elif isinstance(s, ast.SaveStmt):
            for name in s.names:
                ensure(name).saved = True
        elif isinstance(s, ast.ExternalStmt):
            for name in s.names:
                ensure(name).external = True

    for p in unit.params:
        sym = ensure(p)
        if sym.storage == "local":
            sym.storage = "argument"

    if unit.kind == "function":
        sym = ensure(unit.name)
        sym.storage = "function"
        if unit.result_type:
            sym.type_name = unit.result_type

    return st


def resolve_unit(unit: ast.ProgramUnit, st: SymbolTable,
                 procedure_names: frozenset[str] = frozenset()) -> None:
    """Rewrite ``NameRef`` nodes into ``ArrayRef``/``FuncRef`` in place.

    ``procedure_names`` are the other units in the file; a ``NameRef``
    whose name is not a declared array becomes a function reference,
    and an intrinsic-named ``FuncRef`` declared EXTERNAL a user one.
    """

    def fix(e: ast.Expr) -> ast.Expr:
        if isinstance(e, ast.NameRef):
            if st.is_array(e.name):
                return ast.ArrayRef(e.name, e.args)
            # Known intrinsics were classified at parse time, so whatever
            # remains is a user-defined (external) function.
            return ast.FuncRef(e.name, e.args, intrinsic=False)
        if isinstance(e, ast.FuncRef) and e.intrinsic:
            sym = st.get(e.name)
            if sym is not None and sym.external:
                # an EXTERNAL name is the user's procedure (F77 8.7)
                return ast.FuncRef(e.name, e.args, intrinsic=False)
        return e

    def fix_expr(e: ast.Expr) -> ast.Expr:
        return ast.map_expr(e, fix)

    for s, _ in ast.walk_stmts(unit.body):
        _resolve_stmt(s, fix_expr)

    # Materialize implicit symbols for every referenced name so later
    # analyses (kills, dependence) see them; function references are the
    # exception -- they are not data symbols.
    def note(e: ast.Expr) -> None:
        for node in ast.walk_expr(e):
            if isinstance(node, (ast.VarRef, ast.ArrayRef)):
                st.lookup(node.name)

    for s, _ in ast.walk_stmts(unit.body):
        for e in s.exprs():
            note(e)
        if isinstance(s, ast.Assign):
            note(s.target)
        elif isinstance(s, ast.DoLoop):
            st.lookup(s.var)
        elif isinstance(s, (ast.ReadStmt,)):
            for it in s.items:
                note(it)
        elif isinstance(s, ast.OpaqueStmt):
            for n in s.mods:
                st.lookup(n)


def _resolve_stmt(s: ast.Stmt, fix) -> None:
    if isinstance(s, ast.Assign):
        s.value = fix(s.value)
        tgt = fix(s.target)
        # An assignment target must be a variable or array element; a
        # FuncRef target means the symbol table lacked the array (e.g. a
        # function-name result variable) -- keep it as ArrayRef-like only
        # when it was an array.
        if isinstance(tgt, ast.FuncRef):
            tgt = ast.ArrayRef(tgt.name, tgt.args)
        s.target = tgt
    elif isinstance(s, ast.DoLoop):
        s.start = fix(s.start)
        s.end = fix(s.end)
        if s.step is not None:
            s.step = fix(s.step)
    elif isinstance(s, ast.IfBlock):
        s.cond = fix(s.cond)
        s.elifs = [(fix(c), b) for c, b in s.elifs]
    elif isinstance(s, ast.LogicalIf):
        s.cond = fix(s.cond)
    elif isinstance(s, ast.ArithIf):
        s.expr = fix(s.expr)
    elif isinstance(s, ast.ComputedGoto):
        s.expr = fix(s.expr)
    elif isinstance(s, ast.CallStmt):
        s.args = tuple(fix(a) for a in s.args)
    elif isinstance(s, (ast.ReadStmt, ast.WriteStmt)):
        s.items = tuple(fix(i) for i in s.items)
        if isinstance(s, ast.ReadStmt):
            fixed = []
            for it in s.items:
                if isinstance(it, ast.FuncRef):
                    it = ast.ArrayRef(it.name, it.args)
                fixed.append(it)
            s.items = tuple(fixed)
    elif isinstance(s, ast.DataStmt):
        s.groups = tuple(
            (tuple(fix(t) for t in targets), values)
            for targets, values in s.groups)


# --------------------------------------------------------------------------
# Function-result assignment detection (for FUNCTION units, the unit name
# acts as a scalar result variable).
# --------------------------------------------------------------------------

def result_variable(unit: ast.ProgramUnit) -> str | None:
    return unit.name if unit.kind == "function" else None
