"""CFG construction from a loaded image (paper step D, Figure 3).

The builder performs an exact linear-sweep disassembly (our writer never
interleaves code and data — matching the paper's §2.2 observation about
GCC/LLVM output), splits the instruction stream into basic blocks at
leaders, assigns blocks to functions, and installs the *direct* edges.
Indirect branches are recorded as unresolved sites for
:mod:`repro.cfg.indirect` to handle; GOT-mediated imports are resolved to
external symbol edges immediately.

The stages are exposed as standalone helpers (:func:`compute_leaders`,
:func:`carve_blocks`, :func:`assign_functions`, :func:`add_direct_edges`)
because incremental runs of :class:`repro.core.pipeline.CfgRecoveryPass`
re-run the carve/assign/edge stages over a leader set stitched from
cached per-function products — sharing the exact code paths is what
makes an incremental CFG byte-identical to a cold one.
"""

from __future__ import annotations

from bisect import bisect_right

from ..errors import CfgError
from ..loader.image import LoadedImage
from ..x86.decoder import decode_all
from ..x86.insn import (
    _CONDITIONAL_MNEMONICS,
    _HALT_MNEMONICS,
    _TERMINATOR_MNEMONICS,
    Immediate,
    Instruction,
    Memory,
)
from .model import (
    CFG,
    EDGE_CALL,
    EDGE_CALLRET,
    EDGE_FALL,
    EDGE_JUMP,
    BasicBlock,
    FunctionInfo,
)


def _got_import_symbol(image: LoadedImage, insn: Instruction) -> str | None:
    """If ``insn`` is an indirect branch through an imported GOT slot,
    return the imported symbol's name."""
    if not insn.is_indirect_branch:
        return None
    op = insn.operands[0]
    if isinstance(op, Memory) and op.rip_relative:
        return image.got_imports.get(op.disp)
    if isinstance(op, Memory) and op.base is None and op.index is None:
        return image.got_imports.get(op.disp)
    return None


def compute_leaders(
    image: LoadedImage,
    insns: list[Instruction],
    by_addr: dict[int, Instruction],
) -> set[int]:
    """Block-leader addresses of the whole instruction stream.

    (mnemonic-set test inlined: the terminator property per instruction
    was measurable over whole-image sweeps)
    """
    terminators = _TERMINATOR_MNEMONICS
    leaders: set[int] = {image.text_base}
    for start, __ in image.function_boundaries:
        leaders.add(start)
    if image.entry:
        leaders.add(image.entry)
    add_leader = leaders.add
    for insn in insns:
        if insn.mnemonic in terminators:
            nxt = insn.addr + insn.size
            if nxt in by_addr:
                add_leader(nxt)
            # Of the terminators only direct call/jmp/jcc carry an
            # Immediate operand, so this is branch_target() inlined.
            ops = insn.operands
            if len(ops) == 1 and type(ops[0]) is Immediate:
                target = ops[0].value
                if target in by_addr:
                    add_leader(target)
    return leaders


def carve_blocks(
    cfg: CFG, insns: list[Instruction], leaders: set[int]
) -> None:
    """Split the instruction stream into basic blocks at ``leaders``.

    Only leader addresses that are actual instruction addresses split;
    a terminator always ends the current block.  Passing the set of
    *block start* addresses instead of leaders is equivalent: block
    starts are exactly the leaders plus post-terminator positions, and
    the latter start a block regardless.
    """
    terminators = _TERMINATOR_MNEMONICS
    current: BasicBlock | None = None
    current_insns: list[Instruction] | None = None
    for insn in insns:
        if current is None or insn.addr in leaders:
            current = BasicBlock(addr=insn.addr)
            current_insns = current.insns
            cfg.add_block(current)
        current_insns.append(insn)
        if insn.mnemonic in terminators:
            current = None


def assign_functions(cfg: CFG, image: LoadedImage) -> None:
    """Create the function table and assign every block to its owner."""
    boundaries = image.function_boundaries
    if not boundaries:
        # No symbols: treat the whole text as one function rooted at entry.
        boundaries = [(image.text_base, image.text_end)]
    for start, end in boundaries:
        sym = image.function_at(start)
        cfg.functions[start] = FunctionInfo(
            entry=start, end=end, name=sym.name if sym else "",
        )

    sorted_starts = sorted(cfg.functions)
    functions = cfg.functions
    for block in cfg.blocks.values():
        # Blocks before the first symbol belong to the first function region.
        owner = sorted_starts[max(bisect_right(sorted_starts, block.addr) - 1, 0)]
        block.function = owner
        functions[owner].block_addrs.append(block.addr)


def add_direct_edges(cfg: CFG, image: LoadedImage) -> None:
    """Install direct edges; record GOT imports and indirect sites.

    (classification inlined on the terminator mnemonic: one whole-image
    pass, previously dominated by per-block property chains)
    """
    blocks = cfg.blocks
    add_edge = cfg.add_edge
    for block in blocks.values():
        term = block.insns[-1]
        mnemonic = term.mnemonic
        nxt = term.addr + term.size

        if mnemonic in _CONDITIONAL_MNEMONICS:
            ops = term.operands
            target = ops[0].value if len(ops) == 1 and type(ops[0]) is Immediate \
                else None
            if target in blocks:
                add_edge(block.addr, target, EDGE_JUMP)
            if nxt in blocks:
                add_edge(block.addr, nxt, EDGE_FALL)
            continue

        if mnemonic == "jmp":
            target = term.branch_target()
            if target is not None:
                if target in blocks:
                    # Direct jmp — including tail calls to other functions —
                    # is a plain jump edge: flow continues at the target.
                    add_edge(block.addr, target, EDGE_JUMP)
                continue
            symbol = _got_import_symbol(image, term)
            if symbol is not None:
                cfg.add_external_call(block.addr, symbol)
            else:
                cfg.indirect_sites.add(block.addr)
            continue

        if mnemonic == "call":
            target = term.branch_target()
            if target is not None:
                if target in blocks:
                    add_edge(block.addr, target, EDGE_CALL)
            else:
                symbol = _got_import_symbol(image, term)
                if symbol is not None:
                    cfg.add_external_call(block.addr, symbol)
                else:
                    cfg.indirect_sites.add(block.addr)
            if nxt in blocks:
                add_edge(block.addr, nxt, EDGE_CALLRET)
            continue

        if mnemonic == "syscall":
            if nxt in blocks:
                add_edge(block.addr, nxt, EDGE_FALL)
            continue

        if mnemonic == "ret" or mnemonic in _HALT_MNEMONICS:
            continue

        # Non-terminator last instruction (end of text or pre-leader split).
        if nxt in blocks:
            add_edge(block.addr, nxt, EDGE_FALL)

    return None


def build_cfg(image: LoadedImage) -> CFG:
    """Disassemble ``image`` and build its direct-edge CFG."""
    insns = decode_all(image.text_bytes, image.text_base)
    if not insns:
        raise CfgError(f"{image.name}: empty text segment")
    by_addr = {i.addr: i for i in insns}

    leaders = compute_leaders(image, insns, by_addr)

    cfg = CFG()
    carve_blocks(cfg, insns, leaders)
    assign_functions(cfg, image)
    add_direct_edges(cfg, image)
    return cfg
