"""CFG invariants as property tests over generated programs.

The invariants every downstream consumer (identification, phases,
baselines) silently relies on:

* blocks partition the decoded instruction stream (no overlap, no gap);
* every edge references existing blocks; predecessor and successor views
  mirror each other exactly;
* every block belongs to the function whose [entry, end) range covers it;
* active addresses taken are a subset of all addresses taken;
* reachability is monotone in the edge set;
* the function partition is a total, non-overlapping cover of the text
  section, and per-function closure hashes are stable under edits to
  unrelated functions (the incremental cache's soundness argument).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfg import (
    EDGE_ICALL,
    all_addresses_taken,
    build_cfg,
    reachable_blocks,
    resolve_indirect_active,
    resolve_indirect_all,
)
from repro.cfg.signatures import ARG_REG_NAMES, filter_targets
from repro.cfg.funccfg import build_product, scan_image
from repro.cfg.partition import FunctionPartition
from repro.corpus import ProgramBuilder
from repro.corpus.mutate import mutate_program
from repro.x86 import EAX, Immediate, RAX, RDI, RSI
from repro.x86.decoder import decode_all


@st.composite
def _program(draw):
    """A random multi-function program with branches, calls, fptrs."""
    n_funcs = draw(st.integers(1, 4))
    ops_per_func = [draw(st.integers(1, 6)) for __ in range(n_funcs)]
    branchy = draw(st.lists(st.booleans(), min_size=n_funcs, max_size=n_funcs))
    take_addr = draw(st.lists(st.booleans(), min_size=n_funcs, max_size=n_funcs))
    return n_funcs, ops_per_func, branchy, take_addr


_COUNTER = [0]


def _build(spec):
    n_funcs, ops_per_func, branchy, take_addr = spec
    _COUNTER[0] += 1
    p = ProgramBuilder(f"cfgprop{_COUNTER[0]}")
    for i in range(n_funcs):
        with p.function(f"fn{i}"):
            for k in range(ops_per_func[i]):
                if branchy[i] and k == 0:
                    p.asm.cmp(RDI, k)
                    p.asm.jcc("e", f"fn{i}.l{k}")
                    p.asm.nop()
                    p.asm.label(f"fn{i}.l{k}")
                p.asm.mov(EAX, 39)
                p.asm.syscall()
            p.asm.ret()
    with p.function("_start"):
        for i in range(n_funcs):
            if take_addr[i]:
                p.asm.lea_rip(RSI, f"fn{i}")
                p.asm.call_reg(RSI)
            else:
                p.asm.call(f"fn{i}")
        p.asm.mov(EAX, 60)
        p.asm.syscall()
        p.asm.hlt()
    p.set_entry("_start")
    return p.build()


@settings(max_examples=80, deadline=None)
@given(spec=_program())
def test_blocks_partition_instruction_stream(spec):
    prog = _build(spec)
    cfg = build_cfg(prog.image)
    spans = sorted((b.addr, b.end) for b in cfg.blocks.values())
    # No overlap, no gap between consecutive blocks.
    for (a1, e1), (a2, __) in zip(spans, spans[1:]):
        assert e1 == a2, "blocks must tile the text segment"
    assert spans[0][0] == prog.image.text_base
    assert spans[-1][1] == prog.image.text_end


@settings(max_examples=80, deadline=None)
@given(spec=_program())
def test_edges_mirror_and_reference_blocks(spec):
    prog = _build(spec)
    cfg = build_cfg(prog.image)
    resolve_indirect_active(cfg, prog.image, [prog.image.entry])
    for addr in cfg.blocks:
        for edge in cfg.successors(addr):
            assert edge.src == addr
            assert edge.dst in cfg.blocks
            assert edge in cfg.predecessors(edge.dst)
        for edge in cfg.predecessors(addr):
            assert edge.dst == addr
            assert edge in cfg.successors(edge.src)


@settings(max_examples=80, deadline=None)
@given(spec=_program())
def test_blocks_assigned_to_covering_function(spec):
    """Blocks inside a function's extent belong to it; alignment-padding
    blocks in inter-function gaps attach to the preceding function."""
    prog = _build(spec)
    cfg = build_cfg(prog.image)
    starts = sorted(cfg.functions)
    for block in cfg.blocks.values():
        func = cfg.functions[block.function]
        assert func.entry <= block.addr
        later = [s for s in starts if s > func.entry]
        upper = later[0] if later else prog.image.text_end
        assert block.addr < upper
        if block.addr >= func.end:
            # Padding gap: must be pure nops and unreachable.
            assert all(i.mnemonic == "nop" for i in block.insns)


@settings(max_examples=60, deadline=None)
@given(spec=_program())
def test_active_subset_of_all_addresses_taken(spec):
    prog = _build(spec)
    cfg1 = build_cfg(prog.image)
    active, __ = resolve_indirect_active(cfg1, prog.image, [prog.image.entry])
    cfg2 = build_cfg(prog.image)
    everything = all_addresses_taken(cfg2, prog.image)
    assert active <= everything


@settings(max_examples=60, deadline=None)
@given(spec=_program())
def test_reachability_monotone_in_resolution(spec):
    """Resolving indirect branches can only grow the reachable set."""
    prog = _build(spec)
    cfg_bare = build_cfg(prog.image)
    bare = reachable_blocks(cfg_bare, [prog.image.entry])

    cfg_active = build_cfg(prog.image)
    resolve_indirect_active(cfg_active, prog.image, [prog.image.entry])
    active = reachable_blocks(cfg_active, [prog.image.entry])

    cfg_all = build_cfg(prog.image)
    resolve_indirect_all(cfg_all, prog.image)
    everything = reachable_blocks(cfg_all, [prog.image.entry])

    assert bare <= active <= everything


def _scan(image):
    insns = decode_all(image.text_bytes, image.text_base)
    return scan_image(image, insns, {i.addr: i for i in insns})


@settings(max_examples=80, deadline=None)
@given(spec=_program())
def test_partition_is_total_nonoverlapping_cover(spec):
    """Function regions tile [text_base, text_end): no gap, no overlap."""
    prog = _build(spec)
    partition = FunctionPartition.from_image(prog.image)
    regions = list(partition)
    assert regions, "a non-empty text section yields at least one region"
    assert regions[0].start == prog.image.text_base
    assert regions[-1].end == prog.image.text_end
    for region, nxt in zip(regions, regions[1:]):
        assert region.start < region.end
        assert region.end == nxt.start, "regions must tile the text section"
    # region_containing agrees with the tiling for every decoded insn.
    for insn in decode_all(prog.image.text_bytes, prog.image.text_base):
        owner = partition.region_containing(insn.addr)
        assert owner is not None
        assert owner.start <= insn.addr < owner.end
    assert partition.region_containing(prog.image.text_base - 1) is None
    assert partition.region_containing(prog.image.text_end) is None


@settings(max_examples=40, deadline=None)
@given(spec=_program())
def test_product_block_starts_equal_reference_filter(spec):
    """``build_product`` slices one sorted block list per region; the
    result equals the reference per-region filter of every block."""
    prog = _build(spec)
    insns = decode_all(prog.image.text_bytes, prog.image.text_base)
    scan = scan_image(prog.image, insns, {i.addr: i for i in insns})
    cfg = build_cfg(prog.image)
    block_addrs = sorted(cfg.blocks)
    for start, rs in scan.regions.items():
        product = build_product(cfg, block_addrs, rs, set())
        assert product["block_starts"] == sorted(
            addr for addr in cfg.blocks if rs.start <= addr < rs.end
        )


@settings(max_examples=40, deadline=None)
@given(spec=_program(), seed=st.integers(0, 2**16))
def test_closure_hash_stable_under_unrelated_edits(spec, seed):
    """Editing one function may only move the hashes of its dependency
    cone; every region outside the cone keeps its closure hash (so its
    cached funccfg product stays valid)."""
    prog = _build(spec)
    before = _scan(prog.image)
    mutated = mutate_program(prog.elf_bytes, prog.name, 1, seed=seed)
    after = _scan(mutated.image)
    assert sorted(before.regions) == sorted(after.regions)
    cone = FunctionPartition.dependency_cone(after.refs, set(mutated.changed))
    for start in after.regions:
        if start in cone:
            continue
        assert after.closure_hashes[start] == before.closure_hashes[start], (
            f"unrelated region {start:#x} changed its closure hash"
        )
    for start in mutated.changed:
        assert after.body_hashes[start] != before.body_hashes[start]
        assert after.closure_hashes[start] != before.closure_hashes[start]


@settings(max_examples=40, deadline=None)
@given(spec=_program(), seed=st.integers(0, 2**16))
def test_funcid_hash_moves_exactly_for_identification_cone(spec, seed):
    """The combined callee-closure + caller-cone key moves for exactly
    the identification cone (callers* and callees* of the change); every
    region outside it keeps its funcid hash, so its cached
    identification products stay valid."""
    prog = _build(spec)
    before = _scan(prog.image)
    mutated = mutate_program(prog.elf_bytes, prog.name, 1, seed=seed)
    after = _scan(mutated.image)
    cone = FunctionPartition.identification_cone(
        after.refs, set(mutated.changed)
    )
    for start in after.regions:
        if start in cone:
            assert after.funcid_hashes[start] != before.funcid_hashes[start], (
                f"cone region {start:#x} kept its funcid hash"
            )
        else:
            assert after.funcid_hashes[start] == before.funcid_hashes[start], (
                f"unrelated region {start:#x} changed its funcid hash"
            )
            assert after.caller_hashes[start] == before.caller_hashes[start]


_signature = st.one_of(
    st.none(),
    st.sets(st.sampled_from(sorted(ARG_REG_NAMES))).map(frozenset),
)
_targets = st.lists(st.integers(0, 40), unique=True)


@settings(max_examples=200, deadline=None)
@given(
    caller=_signature,
    targets=_targets,
    extra=_targets,
    sigs=st.dictionaries(st.integers(0, 40), _signature),
)
def test_signature_filter_monotone_and_deterministic(caller, targets, extra, sigs):
    """Adding candidates never removes a previously kept target, the
    filter is a pure function of its inputs, and unknown signatures on
    either side always fall back to keeping the target."""
    kept = filter_targets(caller, targets, sigs)
    assert kept == filter_targets(caller, targets, sigs)
    # Order-preserving subsequence of the input.
    assert [t for t in targets if t in set(kept)] == kept
    grown = targets + [t for t in extra if t not in targets]
    kept_grown = set(filter_targets(caller, grown, sigs))
    assert set(kept) <= kept_grown
    if caller is None:
        assert kept == list(targets)
    for t in targets:
        if sigs.get(t) is None:  # missing or explicitly unknown callee
            assert t in kept


@settings(max_examples=40, deadline=None)
@given(spec=_program())
def test_signature_resolution_yields_icall_edge_subset(spec):
    """With the signature filter on, every site's resolved target set is
    a subset of the unfiltered resolution's, on the same program."""
    prog = _build(spec)
    unfiltered = build_cfg(prog.image)
    resolve_indirect_active(unfiltered, prog.image, [prog.image.entry])
    filtered = build_cfg(prog.image)
    resolve_indirect_active(
        filtered, prog.image, [prog.image.entry], signatures=True
    )
    for site in unfiltered.indirect_sites:
        u = {e.dst for e in unfiltered.successors(site, kinds=(EDGE_ICALL,))}
        f = {e.dst for e in filtered.successors(site, kinds=(EDGE_ICALL,))}
        assert f <= u
