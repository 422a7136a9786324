//! Flat code segments: one contiguous arena of instructions with an
//! index-based block table.
//!
//! The paper's point is Fabius-style *flat instruction-stream* code
//! generation — no source-term manipulation at run time. A [`CodeSeg`] is
//! the canonical executable form: every compiled or generated block of
//! code is a `(start, len)` range into one growable instruction vector,
//! and nested code (closure bodies, branch arms, switch arms, recursive
//! groups) is referenced by [`BlockId`] instead of by owning pointer.
//! Machine frames are `(segment, block, pc)` triples, so dispatch walks a
//! contiguous slice with zero per-step reference counting, and run-time
//! generation appends new blocks to the tail of the same segment — exactly
//! the paper's arena model.

use crate::instr::{Instr, SwitchArm, SwitchTable};
use std::cell::{Ref, RefCell};
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

/// An index into a segment's block table. Only meaningful relative to the
/// [`CodeSeg`] it was issued by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// One entry of the block table: a `start..start+len` range of the
/// segment's instruction vector.
#[derive(Debug, Clone, Copy)]
struct Block {
    start: u32,
    len: u32,
}

#[derive(Debug, Default)]
struct SegInner {
    instrs: RefCell<Vec<Instr>>,
    blocks: RefCell<Vec<Block>>,
    /// Peephole memo: source block → optimized block (see `opt`).
    opt_memo: RefCell<HashMap<u32, u32>>,
    /// Fusion memo: source block → fused block (see `opt::fuse`).
    fuse_memo: RefCell<HashMap<u32, u32>>,
    /// Adaptive tier controller state, indexed by block id (block ids
    /// are dense, so a flat table makes the per-activation lookup an
    /// index instead of a hash). Entries only ever gain information:
    /// counters rise and `promoted` is written at most once, so a
    /// block's tier is monotone.
    tier: RefCell<Vec<TierState>>,
}

/// Tier-controller bookkeeping for one block.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct TierState {
    /// Activations observed before promotion.
    pub execs: u64,
    /// The block's promoted rendering, once the controller acted.
    /// May be the block itself when fusion found nothing to rewrite.
    pub promoted: Option<BlockId>,
    /// The tier this block runs at when executed directly
    /// (0 cold, 1 fused).
    pub level: u8,
}

/// What the tier controller learns from one frame activation — see
/// [`CodeSeg::tier_probe`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum TierProbe {
    /// The block has a promoted rendering: run it, at this level.
    Promoted(BlockId, u8),
    /// Still cold: the activation count *before* this one, and the
    /// block's own level.
    Cold(u64, u8),
}

/// A contiguous code segment. Cheap to clone (a reference-counted
/// handle); blocks only ever *append*, so issued [`BlockId`]s and the
/// ranges behind them are stable forever.
#[derive(Clone, Default)]
pub struct CodeSeg(Rc<SegInner>);

impl fmt::Debug for CodeSeg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CodeSeg")
            .field("instrs", &self.0.instrs.borrow().len())
            .field("blocks", &self.0.blocks.borrow().len())
            .finish()
    }
}

impl CodeSeg {
    /// A fresh empty segment.
    pub fn new() -> CodeSeg {
        CodeSeg::default()
    }

    /// Whether two handles name the same segment. [`BlockId`]s transfer
    /// between segments only through [`CodeSeg::import_block`].
    pub fn ptr_eq(a: &CodeSeg, b: &CodeSeg) -> bool {
        Rc::ptr_eq(&a.0, &b.0)
    }

    /// A stable address for identity-keyed memo tables.
    pub fn addr(&self) -> usize {
        Rc::as_ptr(&self.0) as usize
    }

    /// Appends `instrs` as a new block at the segment tail and returns
    /// its id.
    pub fn add_block(&self, instrs: Vec<Instr>) -> BlockId {
        let mut v = self.0.instrs.borrow_mut();
        let start = u32::try_from(v.len()).expect("segment exceeds u32 instructions");
        let len = u32::try_from(instrs.len()).expect("block exceeds u32 instructions");
        v.extend(instrs);
        let mut blocks = self.0.blocks.borrow_mut();
        let id = u32::try_from(blocks.len()).expect("segment exceeds u32 blocks");
        blocks.push(Block { start, len });
        BlockId(id)
    }

    /// Appends `instrs` as a new block and returns a self-contained
    /// reference to it.
    pub fn entry(&self, instrs: Vec<Instr>) -> CodeRef {
        CodeRef {
            seg: self.clone(),
            block: self.add_block(instrs),
        }
    }

    /// The `(start, len)` range of a block.
    ///
    /// # Panics
    ///
    /// Panics if `b` was not issued by this segment.
    pub fn block_bounds(&self, b: BlockId) -> (usize, usize) {
        let blk = self.0.blocks.borrow()[b.0 as usize];
        (blk.start as usize, blk.len as usize)
    }

    /// Borrows the whole instruction vector. Hold the guard across a
    /// dispatch loop; drop it before any operation that may append blocks
    /// to this segment.
    pub fn borrow_instrs(&self) -> Ref<'_, Vec<Instr>> {
        self.0.instrs.borrow()
    }

    /// Copies one block's instructions out.
    pub fn block_to_vec(&self, b: BlockId) -> Vec<Instr> {
        let (start, len) = self.block_bounds(b);
        self.0.instrs.borrow()[start..start + len].to_vec()
    }

    /// Total instructions across all blocks.
    pub fn len(&self) -> usize {
        self.0.instrs.borrow().len()
    }

    /// Whether the segment holds no instructions yet.
    pub fn is_empty(&self) -> bool {
        self.0.instrs.borrow().is_empty()
    }

    /// Number of blocks issued so far.
    pub fn num_blocks(&self) -> usize {
        self.0.blocks.borrow().len()
    }

    /// Deep-copies a block of `from` (and, recursively, every block it
    /// references) into this segment, returning the copy's id. Identity
    /// when `from` *is* this segment.
    pub fn import_block(&self, from: &CodeSeg, b: BlockId) -> BlockId {
        if CodeSeg::ptr_eq(self, from) {
            return b;
        }
        let body = from
            .block_to_vec(b)
            .iter()
            .map(|i| self.import_instr(from, i))
            .collect();
        self.add_block(body)
    }

    /// Rewrites one instruction of `from` so every nested [`BlockId`] it
    /// carries refers to this segment, importing referenced blocks as
    /// needed. Identity when `from` *is* this segment.
    pub fn import_instr(&self, from: &CodeSeg, i: &Instr) -> Instr {
        if CodeSeg::ptr_eq(self, from) {
            return i.clone();
        }
        match i {
            Instr::Cur(b) => Instr::Cur(self.import_block(from, *b)),
            Instr::Branch(t, e) => {
                Instr::Branch(self.import_block(from, *t), self.import_block(from, *e))
            }
            Instr::Switch(table) => {
                let arms = table
                    .arms
                    .iter()
                    .map(|arm| SwitchArm {
                        tag: arm.tag,
                        bind: arm.bind,
                        code: self.import_block(from, arm.code),
                    })
                    .collect();
                let default = table.default.map(|d| self.import_block(from, d));
                Instr::Switch(Rc::new(SwitchTable { arms, default }))
            }
            Instr::RecClos(bodies) => Instr::RecClos(Rc::new(
                bodies.iter().map(|b| self.import_block(from, *b)).collect(),
            )),
            Instr::Emit(inner) => Instr::Emit(Box::new(self.import_instr(from, inner))),
            other => other.clone(),
        }
    }

    /// Fills this empty segment with a block-for-block copy of `from`:
    /// the instruction vector (each instruction passed through `instr`,
    /// which re-points embedded values), the block table, and the
    /// opt/fuse/tier memo tables, so every [`BlockId`] of `from` names
    /// the same code here and the copy starts at the same tiers.
    pub(crate) fn fill_from(&self, from: &CodeSeg, instr: impl FnMut(&Instr) -> Instr) {
        debug_assert!(self.num_blocks() == 0, "fill_from targets an empty segment");
        let src = &from.0;
        *self.0.instrs.borrow_mut() = src.instrs.borrow().iter().map(instr).collect();
        self.0.blocks.borrow_mut().clone_from(&src.blocks.borrow());
        self.0
            .opt_memo
            .borrow_mut()
            .clone_from(&src.opt_memo.borrow());
        self.0
            .fuse_memo
            .borrow_mut()
            .clone_from(&src.fuse_memo.borrow());
        self.0.tier.borrow_mut().clone_from(&src.tier.borrow());
    }

    /// The peephole memo (source block → optimized block), shared by all
    /// handles to this segment.
    pub(crate) fn opt_memo_get(&self, b: BlockId) -> Option<BlockId> {
        self.0.opt_memo.borrow().get(&b.0).copied().map(BlockId)
    }

    pub(crate) fn opt_memo_put(&self, from: BlockId, to: BlockId) {
        self.0.opt_memo.borrow_mut().insert(from.0, to.0);
    }

    /// The fusion memo (source block → fused block), shared by all
    /// handles to this segment.
    pub(crate) fn fuse_memo_get(&self, b: BlockId) -> Option<BlockId> {
        self.0.fuse_memo.borrow().get(&b.0).copied().map(BlockId)
    }

    pub(crate) fn fuse_memo_put(&self, from: BlockId, to: BlockId) {
        self.0.fuse_memo.borrow_mut().insert(from.0, to.0);
    }

    /// The tier controller's per-activation probe, everything in one
    /// borrow: if `b` has a promoted rendering, report it and the level
    /// that rendering runs at; otherwise count this activation and
    /// report the count *before* it (so `promote_after = 0` promotes at
    /// the very first activation) plus the block's own level. Promoted
    /// blocks are *not* counted — their activations land on the
    /// rendering, and the decision for the source block is already made.
    pub(crate) fn tier_probe(&self, b: BlockId) -> TierProbe {
        let mut tier = self.0.tier.borrow_mut();
        let i = b.0 as usize;
        if tier.len() <= i {
            tier.resize(i + 1, TierState::default());
        }
        if let Some(promoted) = tier[i].promoted {
            let level = tier.get(promoted.0 as usize).map_or(0, |st| st.level);
            return TierProbe::Promoted(promoted, level);
        }
        let st = &mut tier[i];
        let prior = st.execs;
        st.execs += 1;
        TierProbe::Cold(prior, st.level)
    }

    /// Publishes the promotion `b → to` at `level`. A block's tier only
    /// rises: a second publication for the same block is a programming
    /// error and panics in debug builds.
    pub(crate) fn tier_promote(&self, b: BlockId, to: BlockId, level: u8) {
        let mut tier = self.0.tier.borrow_mut();
        let top = b.0.max(to.0) as usize;
        if tier.len() <= top {
            tier.resize(top + 1, TierState::default());
        }
        let st = &mut tier[b.0 as usize];
        debug_assert!(st.promoted.is_none(), "block {b} promoted twice");
        st.promoted = Some(to);
        let dest = &mut tier[to.0 as usize];
        dest.level = dest.level.max(level);
    }

    /// The tier `b` runs at when executed directly (0 for blocks the
    /// controller never touched).
    pub fn tier_level(&self, b: BlockId) -> u8 {
        self.0
            .tier
            .borrow()
            .get(b.0 as usize)
            .map_or(0, |st| st.level)
    }
}

/// A self-contained reference to executable code: a segment handle plus
/// the block to run. This replaces the old owning `Rc<Vec<Instr>>` form.
#[derive(Debug, Clone)]
pub struct CodeRef {
    /// The segment holding the instructions.
    pub seg: CodeSeg,
    /// The block to execute.
    pub block: BlockId,
}

impl CodeRef {
    /// Number of instructions in the referenced block.
    pub fn len(&self) -> usize {
        self.seg.block_bounds(self.block).1
    }

    /// Whether the referenced block is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies the referenced block's instructions out.
    pub fn to_vec(&self) -> Vec<Instr> {
        self.seg.block_to_vec(self.block)
    }

    /// Whether two references name the same block of the same segment.
    pub fn same_block(a: &CodeRef, b: &CodeRef) -> bool {
        CodeSeg::ptr_eq(&a.seg, &b.seg) && a.block == b.block
    }
}

/// An append-only emission buffer targeting one segment: the compiler's
/// interface for producing flat code. Nested code is finished into the
/// segment first (yielding a [`BlockId`]) and then referenced by the
/// enclosing instruction.
#[derive(Debug)]
pub struct CodeBuilder {
    seg: CodeSeg,
    buf: Vec<Instr>,
}

impl CodeBuilder {
    /// A builder emitting into `seg`.
    pub fn new(seg: &CodeSeg) -> CodeBuilder {
        CodeBuilder {
            seg: seg.clone(),
            buf: Vec::new(),
        }
    }

    /// The target segment.
    pub fn seg(&self) -> &CodeSeg {
        &self.seg
    }

    /// A fresh builder over the same segment (for a nested body).
    pub fn child(&self) -> CodeBuilder {
        CodeBuilder::new(&self.seg)
    }

    /// Appends one instruction.
    pub fn push(&mut self, i: Instr) {
        self.buf.push(i);
    }

    /// Appends a sequence of instructions.
    pub fn extend(&mut self, instrs: impl IntoIterator<Item = Instr>) {
        self.buf.extend(instrs);
    }

    /// Instructions emitted so far.
    pub fn instrs(&self) -> &[Instr] {
        &self.buf
    }

    /// Finishes the buffer into the segment as a new block.
    pub fn finish_block(self) -> BlockId {
        self.seg.add_block(self.buf)
    }

    /// Finishes the buffer into the segment and returns a runnable
    /// reference.
    pub fn finish_entry(self) -> CodeRef {
        let seg = self.seg.clone();
        CodeRef {
            block: self.seg.add_block(self.buf),
            seg,
        }
    }

    /// Surrenders the raw buffer without registering a block (for callers
    /// that splice the instructions into a larger sequence).
    pub fn into_instrs(self) -> Vec<Instr> {
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_are_stable_ranges() {
        let seg = CodeSeg::new();
        let a = seg.add_block(vec![Instr::Id, Instr::Fst]);
        let b = seg.add_block(vec![Instr::Snd]);
        assert_eq!(seg.block_bounds(a), (0, 2));
        assert_eq!(seg.block_bounds(b), (2, 1));
        // Appending more blocks never moves earlier ones.
        let _c = seg.add_block(vec![Instr::Id; 10]);
        assert_eq!(seg.block_bounds(a), (0, 2));
        assert_eq!(seg.num_blocks(), 3);
        assert_eq!(seg.len(), 13);
    }

    #[test]
    fn import_is_identity_within_a_segment() {
        let seg = CodeSeg::new();
        let b = seg.add_block(vec![Instr::Id]);
        assert_eq!(seg.import_block(&seg, b), b);
        let before = seg.num_blocks();
        let i = seg.import_instr(&seg, &Instr::Cur(b));
        assert!(matches!(i, Instr::Cur(x) if x == b));
        assert_eq!(seg.num_blocks(), before, "no copies made");
    }

    #[test]
    fn import_deep_copies_across_segments() {
        let src = CodeSeg::new();
        let inner = src.add_block(vec![Instr::Snd]);
        let outer = src.add_block(vec![Instr::Cur(inner), Instr::App]);
        let dst = CodeSeg::new();
        let moved = dst.import_block(&src, outer);
        let body = dst.block_to_vec(moved);
        assert_eq!(body.len(), 2);
        let Instr::Cur(moved_inner) = body[0] else {
            panic!("expected cur, got {:?}", body[0]);
        };
        assert!(matches!(dst.block_to_vec(moved_inner)[..], [Instr::Snd]));
        assert_eq!(src.num_blocks(), 2, "source untouched");
    }

    #[test]
    fn builder_emits_into_the_segment() {
        let seg = CodeSeg::new();
        let mut b = CodeBuilder::new(&seg);
        let mut inner = b.child();
        inner.push(Instr::Snd);
        let body = inner.finish_block();
        b.push(Instr::Cur(body));
        b.push(Instr::App);
        let entry = b.finish_entry();
        assert!(CodeSeg::ptr_eq(&entry.seg, &seg));
        assert_eq!(entry.len(), 2);
        assert!(matches!(entry.to_vec()[0], Instr::Cur(x) if x == body));
    }

    #[test]
    fn coderef_reads_its_block() {
        let seg = CodeSeg::new();
        let r = seg.entry(vec![Instr::Push, Instr::Swap]);
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
        assert!(CodeRef::same_block(&r, &r.clone()));
        let other = seg.entry(vec![Instr::Push, Instr::Swap]);
        assert!(!CodeRef::same_block(&r, &other));
    }
}
