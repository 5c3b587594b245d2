"""AnalyzedProgram: parsed + resolved program with per-unit IR artifacts.

This is the object every higher layer (analysis, dependence, transforms,
the PED session) works from.  Artifacts are built lazily; invalidation is
*scoped*: each :class:`UnitIR` carries a generation counter that advances
when that unit's AST is mutated, so the session layer can evict exactly
the derived results whose unit (or loop nest) changed instead of
re-deriving the whole program.

Construction fans the per-unit symbol-table + name-resolution work across
the analysis pool (:mod:`repro.perf.pool`) when the program is large
enough to benefit; results merge in source order, so parallel and serial
construction are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..fortran import ast, parse_program, print_program
from .callgraph import CallGraph, build_call_graph
from .cfg import CFG, build_cfg
from .loops import LoopTree, build_loop_tree
from .symtab import SymbolTable, build_symbol_table, resolve_unit

#: fan out unit resolution only when there is enough work to amortize it
_PARALLEL_UNIT_THRESHOLD = 3


@dataclass
class UnitIR:
    unit: ast.ProgramUnit
    symtab: SymbolTable
    #: bumped on every invalidation; derived caches key on (unit, gen)
    generation: int = 0
    _cfg: CFG | None = field(default=None, repr=False)
    _loops: LoopTree | None = field(default=None, repr=False)
    #: (generation, interp.compile.LinkedUnit) -- closure-compiled code;
    #: survives invalidation via the structural-fingerprint LRU (a stale
    #: generation triggers a cheap relink, not a recompile)
    _compiled: tuple | None = field(default=None, repr=False)
    #: same pair for the vector-lowered variant of the unit (the vector
    #: engine keeps its own slot so both tiers can coexist per UnitIR)
    _vcompiled: tuple | None = field(default=None, repr=False)
    #: and for the sync-numbering variant the relative debugger runs
    _scompiled: tuple | None = field(default=None, repr=False)
    #: ((generation, symbol count), digest) memo for
    #: interp.compile.unit_fingerprint -- see its docstring for why
    #: that pair is a sound validity key
    _fp_memo: tuple | None = field(default=None, repr=False)

    @property
    def cfg(self) -> CFG:
        if self._cfg is None:
            self._cfg = build_cfg(self.unit)
        return self._cfg

    @property
    def loops(self) -> LoopTree:
        if self._loops is None:
            self._loops = build_loop_tree(self.unit)
        return self._loops

    def invalidate(self) -> None:
        self._cfg = None
        self._loops = None
        self.generation += 1


def _resolve_one(u: ast.ProgramUnit,
                 proc_names: frozenset[str]) -> UnitIR:
    """Build one unit's symbol table and resolve its names."""
    st = build_symbol_table(u)
    resolve_unit(u, st, proc_names)
    return UnitIR(unit=u, symtab=st)


class AnalyzedProgram:
    """A whole-program container with name resolution applied."""

    def __init__(self, prog: ast.Program, parallel: bool | None = None):
        self.ast = prog
        proc_names = frozenset(u.name for u in prog.units)
        self.units: dict[str, UnitIR] = {}
        units = list(prog.units)
        if parallel is None:
            parallel = len(units) >= _PARALLEL_UNIT_THRESHOLD
        if parallel and len(units) > 1:
            from ..perf import pool
            built = pool.run_tasks(
                [lambda u=u: _resolve_one(u, proc_names) for u in units],
                parallel=True)
        else:
            built = [_resolve_one(u, proc_names) for u in units]
        # deterministic merge: source order, independent of completion order
        for u, uir in zip(units, built):
            self.units[u.name] = uir
        self._callgraph: CallGraph | None = None

    @classmethod
    def from_source(cls, text: str,
                    parallel: bool | None = None) -> "AnalyzedProgram":
        return cls(parse_program(text), parallel=parallel)

    @property
    def callgraph(self) -> CallGraph:
        if self._callgraph is None:
            self._callgraph = build_call_graph(self.ast)
        return self._callgraph

    def unit(self, name: str) -> UnitIR:
        return self.units[name.upper()]

    def unit_names(self) -> list[str]:
        return list(self.units.keys())

    def generation(self, unit_name: str) -> int:
        """Current invalidation generation of one unit."""
        return self.units[unit_name.upper()].generation

    def generations(self) -> dict[str, int]:
        """Per-unit generation counters (a cheap whole-program version)."""
        return {name: u.generation for name, u in self.units.items()}

    @property
    def main_unit(self) -> UnitIR | None:
        for u in self.units.values():
            if u.unit.kind == "program":
                return u
        return None

    def source(self) -> str:
        """Pretty-printed current state of the program."""
        return print_program(self.ast)

    def invalidate(self, unit_name: str | None = None) -> None:
        """Drop derived artifacts after the AST was mutated.

        With a unit name, only that unit's artifacts (CFG, loop tree)
        are dropped and its generation advances; other units keep their
        derived state.  The call graph is always reset -- call sites may
        have moved and its reconstruction is cheap.
        """
        if unit_name is None:
            for u in self.units.values():
                u.invalidate()
        else:
            self.units[unit_name.upper()].invalidate()
        self._callgraph = None

    def reresolve(self, unit_name: str) -> None:
        """Re-run symbol construction + name resolution for one unit."""
        proc_names = frozenset(self.units.keys())
        uir = self.units[unit_name.upper()]
        uir.symtab = build_symbol_table(uir.unit)
        resolve_unit(uir.unit, uir.symtab, proc_names)
        uir.invalidate()
        self._callgraph = None
